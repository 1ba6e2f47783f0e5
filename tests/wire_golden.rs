//! Pins the bytes across commits, not just across code paths.
//!
//! The equivalence suites compare one path against another *at the same
//! commit*, so a change that moved the plain and the grouped path together
//! would pass them all. This test renders, for a fixed corpus, codebook and
//! query set under each of the four schemes, the facts a refactor must not
//! move — the signed MRKD root, the digest of every response VO's wire
//! bytes, the inverted search's counters, the top-k `(id, score bits)`, and
//! the root after one owner insert — and compares the rendering with
//! [`GOLDEN`]. A second, index-level corpus with twenty distinct
//! frequencies per cluster makes grouped lists span several blocks (the
//! synthetic scenes above never exceed one), so grouped skip proofs are
//! pinned too.
//!
//! `GOLDEN` was recorded by running this same test body at the parent of
//! the commit that introduced it (PR 12, `cd5eef4`), where the plain and
//! grouped posting-list engines were still separate implementations. To
//! re-record after a deliberate wire change, empty the constant, run the
//! test, and paste the rendering the failure prints.

use imageproof_akm::{AkmParams, ImpactModel, SparseBovw};
use imageproof_core::{IndexVariant, Owner, Scheme, ServiceProvider};
use imageproof_crypto::wire::Encode;
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, GroupedInvertedIndex};
use imageproof_invindex::{inv_search, BoundsMode, InvSearchStats, MerkleInvertedIndex};
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};
use std::fmt::Write;

const K: usize = 4;

const GOLDEN: &str = "\
baseline root 902857101ea1bd3b208ccc0936f6e646cc9d6592a0b80434dedc47e963b2eedc
baseline q0 vo cce274105cda31983f3b7148fe4ec029b06d251de4e7791f099bd1a425532f11 popped 391 of 440 rounds 6 scanned 54 skipped 9 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
baseline q1 vo 3f3d633c66c514b6eecdcf5c23d2dbc873e24f4ac2ae9924660dd52c19184a69 popped 242 of 269 rounds 6 scanned 35 skipped 5 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
baseline q2 vo 2cb0157ed42db6267f13bae36c8c13f2259501752774f3e2ea8ff518228a5c37 popped 367 of 408 rounds 7 scanned 50 skipped 7 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
baseline inserted root f1d091f855e43dc67af0e1db2a00211ad78f71a207e57402933c0e3e8ae90a5a
imageproof root 902857101ea1bd3b208ccc0936f6e646cc9d6592a0b80434dedc47e963b2eedc
imageproof q0 vo 05d0073e7524350d0ff428f86e3d34680dda3516b2f16ebb53d367b9f708d6ba popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
imageproof q1 vo a3820e3f05e36f4afbb2d16834ea0d7fa994c94b3df38cab248179c58e935897 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
imageproof q2 vo 46a6e47c8a600255d74fc345ca7c895d6c7fefbeade0e1eb31f8257266e7ddd3 popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
imageproof inserted root f1d091f855e43dc67af0e1db2a00211ad78f71a207e57402933c0e3e8ae90a5a
optimized-bovw root 7e495f5c8588c3f63dea99b4e158eae52cd7bd600ab8f8f1e97088d4da07a910
optimized-bovw q0 vo 6e639d5ab3f919763bb97323f56e40ac6905f6e01c2d6b14250cb8b3333c78d8 popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-bovw q1 vo 148a3a21a840c2aae16ea6bf5a9c223414e3fe1c4bf4fa234f5a34f9a4617d39 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-bovw q2 vo ba37683f7a7ba36acc42675b22a2be5f6a277d2e95e091649d13b117083b6d1d popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
optimized-bovw inserted root a731c7c4b97bb0344779594517b14e161ee48ccbbaab6ce27fcfd547420b694d
optimized-both root 88098511b6a31e1060c8c01a0fde75721bf03b0181d3675ae544dbd3c90f6fab
optimized-both q0 vo 54e0f0532849276ddcacea41ca00c017971af7ad445d01045e12899958b87e66 popped 440 of 440 rounds 1 scanned 13 skipped 0 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-both q1 vo 1abfaa5b49305f70612b39e0dee10f1daf46aaeee962406eae466e7988a0eed6 popped 269 of 269 rounds 1 scanned 11 skipped 0 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-both q2 vo 7e5678946444f3dedd6be444bb6a0d860a2f460268f67822134fb5449f331dcd popped 408 of 408 rounds 1 scanned 13 skipped 0 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
optimized-both inserted root 9a8ad094e026010003f75045e705ed1f8fc765fca2df49c95ec388df45a72354
plain lists c2080ee8c888059fb909f7213b5a376835a593316995f931ed9e0a7c0a9997c8
grouped lists 53cbf38b5d35b2d089795e23be74d06897df92383ea0fc7daf46ae33cc3bbe12
plain cuckoo q0 vo 014d4d18eb649a0dcb8b433ee0c105d91ddc5fe381d9d016388dca8fa0e7818b popped 259 of 320 rounds 6 scanned 33 skipped 9 topk 53:3e1d04c1,113:3e1d04c1,50:3e1cdafe,110:3e1cdafe
plain max-bound q0 vo f41517a1c0cdeaf108ad9223c5db5c9b5345e514f8cc121b71ea52cf64c40e53 popped 320 of 320 rounds 8 scanned 42 skipped 0 topk 53:3e1d04c1,113:3e1d04c1,50:3e1cdafe,110:3e1cdafe
grouped q0 vo a65b9f8cf68a807646fec217ded2520729277206e7f0ec21b9c6f78698f5e80f popped 300 of 320 rounds 3 scanned 8 skipped 1 topk 53:3e1d04c1,113:3e1d04c1,50:3e1cdafe,110:3e1cdafe
plain cuckoo q1 vo 0bed75728c570049c37e3634762ded4fe988f9866aedf9408d29d345c80a1cee popped 235 of 320 rounds 4 scanned 30 skipped 12 topk 40:3e28ac91,100:3e28ac91,43:3e287baf,103:3e287baf
plain max-bound q1 vo f36945e2274bda1093d1931da76addbdc48b684dcd36ea7d321835cfc7c66047 popped 320 of 320 rounds 7 scanned 42 skipped 0 topk 40:3e28ac91,100:3e28ac91,43:3e287baf,103:3e287baf
grouped q1 vo 88bf719c59a10296248ba01e268645396d88d48b75463ed131ddc2d10f8b6fc8 popped 237 of 320 rounds 1 scanned 6 skipped 3 topk 40:3e28ac91,100:3e28ac91,43:3e287baf,103:3e287baf
";

fn render_search(
    out: &mut String,
    label: &str,
    vo: &impl Encode,
    stats: &InvSearchStats,
    topk: impl Iterator<Item = (u64, f32)>,
) {
    let topk: Vec<String> = topk
        .map(|(id, score)| format!("{id}:{:08x}", score.to_bits()))
        .collect();
    writeln!(
        out,
        "{label} vo {} popped {} of {} rounds {} scanned {} skipped {} topk {}",
        Digest::of(&vo.to_wire()).to_hex(),
        stats.popped,
        stats.total_postings,
        stats.rounds,
        stats.blocks_scanned,
        stats.blocks_skipped,
        topk.join(","),
    )
    .unwrap();
}

/// Index-level section: 160 images over 6 clusters with frequencies
/// 1..=20, so every grouped list holds 20 groups (3 blocks).
fn render_many_frequencies(out: &mut String) {
    const N_CLUSTERS: usize = 6;
    let images: Vec<(u64, SparseBovw)> = (0..160u64)
        .map(|i| {
            let pairs = (0..N_CLUSTERS as u64)
                .filter(|c| (i + c) % 3 != 0)
                .map(|c| (c as u32, 1 + ((i * 7 + c * 5) % 20) as u32));
            (i, SparseBovw::from_counts(pairs))
        })
        .collect();
    let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
    let model = ImpactModel::build(N_CLUSTERS, &encodings);
    let plain = MerkleInvertedIndex::build(N_CLUSTERS, &images, &model);
    let grouped = GroupedInvertedIndex::build(N_CLUSTERS, &images, &model);
    let fold = |digests: Vec<Digest>| {
        let mut b = Digest::builder();
        for d in &digests {
            b = b.digest(d);
        }
        b.finish().to_hex()
    };
    writeln!(out, "plain lists {}", fold(plain.list_digests())).unwrap();
    writeln!(out, "grouped lists {}", fold(grouped.list_digests())).unwrap();
    let queries = [
        SparseBovw::from_counts([(0u32, 2u32), (2, 1), (5, 3)]),
        SparseBovw::from_counts([(1u32, 1u32), (3, 4), (4, 1)]),
    ];
    for (q, query) in queries.iter().enumerate() {
        for (label, mode) in [
            ("cuckoo", BoundsMode::CuckooFiltered),
            ("max-bound", BoundsMode::MaxBound),
        ] {
            let r = inv_search(&plain, query, K, mode);
            let label = format!("plain {label} q{q}");
            render_search(out, &label, &r.vo, &r.stats, r.topk.into_iter());
        }
        let r = grouped_search(&grouped, query, K);
        let label = format!("grouped q{q}");
        render_search(out, &label, &r.vo, &r.stats, r.topk.into_iter());
    }
}

fn render() -> String {
    let corpus = Corpus::generate(&CorpusConfig {
        n_images: 90,
        n_latent_words: 70,
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    let akm = AkmParams {
        n_clusters: 64,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 16,
        iterations: 2,
        seed: 11,
    };
    let owner = Owner::new(&[13u8; 32]);
    let queries: Vec<Vec<Vec<f32>>> = [(7u64, 30usize), (41, 22), (66, 36)]
        .iter()
        .map(|&(image, n)| corpus.query_from_image(image, n, 0x601D + image))
        .collect();

    let mut out = String::new();
    for scheme in Scheme::ALL {
        let (db, _) = owner.build_system(&corpus, &akm, scheme);
        let root = db.mrkd.combined_root_digest();
        writeln!(out, "{} root {}", scheme.slug(), root.to_hex()).unwrap();
        let sp = ServiceProvider::new(db);
        for (q, features) in queries.iter().enumerate() {
            let (response, _) = sp.query(features, K);
            let db = sp.database();
            let bovw = SparseBovw::from_counts(
                features
                    .iter()
                    .map(|f| (db.codebook.assign_with_threshold(f).0, 1)),
            );
            let mode = if scheme.uses_filters() {
                BoundsMode::CuckooFiltered
            } else {
                BoundsMode::MaxBound
            };
            let stats: InvSearchStats = match &db.inv {
                IndexVariant::Plain(index) => inv_search(index, &bovw, K, mode).stats,
                IndexVariant::Grouped(index) => grouped_search(index, &bovw, K).stats,
            };
            let label = format!("{} q{q}", scheme.slug());
            let topk = response.results.iter().map(|r| (r.id, r.score));
            render_search(&mut out, &label, &response.vo, &stats, topk);
        }

        // One owner update: the rebuilt lists must hash to the same root,
        // and removing the image again must restore the original.
        let mut db = sp.into_database();
        owner
            .insert_image(&mut db, 70_000, vec![0xA5; 48], &queries[0])
            .expect("insert fits the committed geometry");
        let inserted = db.mrkd.combined_root_digest();
        writeln!(out, "{} inserted root {}", scheme.slug(), inserted.to_hex()).unwrap();
        owner.remove_image(&mut db, 70_000).expect("remove");
        assert_eq!(db.mrkd.combined_root_digest(), root, "{scheme:?}");
    }
    render_many_frequencies(&mut out);
    out
}

#[test]
fn wire_bytes_roots_counters_and_topk_match_the_recorded_parent() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "rendering differs from GOLDEN; actual:\n{actual}"
    );
}
