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
//! [`SHARDED_GOLDEN`] does the same for the sharded deployment: for every
//! scheme and S ∈ {2, 4}, the digest of each query's `ShardedVo` wire
//! bytes, the merged top-k, the trim/dedup accounting and each shard's
//! popped count. It was recorded in-process at `bd5d266` (PR 13), where
//! `ShardedSp` and `RpcCoordinator` still carried their own copies of the
//! fan-out → merge → trim → assemble procedure, and is asserted for both
//! the in-process path and the loopback-RPC path.
//!
//! `GOLDEN` was recorded by running this same test body at the parent of
//! the commit that introduced it (PR 12, `cd5eef4`), where the plain and
//! grouped posting-list engines were still separate implementations. To
//! re-record after a deliberate wire change, empty the constant, run the
//! test, and paste the rendering the failure prints.

mod rpc_util;

use imageproof_akm::{AkmParams, Codebook, ImpactModel, SparseBovw};
use imageproof_core::rpc::{CoordinatorConfig, RpcCoordinator};
use imageproof_core::{
    IndexVariant, Owner, Scheme, ServiceProvider, ShardedResponse, ShardedSp, ShardedSpStats,
    ShardedSystem, SystemConfig,
};
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

const SHARDED_GOLDEN: &str = "\
baseline S=2 q0 vo 4611984d6a841098b6eefdef5a271df3e4760518dc13f667322da1962421d409 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 298889 popped 204/192
baseline S=2 q1 vo 03d281d96d6cfa49dd8f094832c39961356c2d4d174a44ab74c7cc723afaaabe topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 214759 popped 122/135
baseline S=2 q2 vo c7912b7a2ec36cabc67f4fcc78360cf9e1af6bcd3976472e6c3f47f199cef66a topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 226323 popped 201/176
baseline S=4 q0 vo 338e6742700d105dfdf1042e7587b862b4929f0168202c85caa67c80eb5bdcd9 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 896699 popped 119/96/110/100
baseline S=4 q1 vo 96d9b25367664824a0ae286e66c6a00c14980e579775bbece47439d9e8bb4bf2 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 644309 popped 58/73/52/60
baseline S=4 q2 vo f04bc827396bae8ffaab76b87260aca86ca8e014e5bc5724e2508b537cd323e6 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 679001 popped 104/94/107/82
imageproof S=2 q0 vo de64bd40e411f791404189054be2e8de5a183a80138c25646edbdebd80cd2819 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 17493 popped 164/175
imageproof S=2 q1 vo 1527529ea40a2c55377539f1df540356ce99cc90f2f1113bb53c90ec62904498 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 17493 popped 109/109
imageproof S=2 q2 vo 02e8beb2b875b87b43c4bd95f1f1cac66bce1dc62befdd34b77ec733fbe21ae7 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 17493 popped 188/164
imageproof S=4 q0 vo ce346e70b9d09de7ab419ade1edc58e637c48530e63369f5f77b064135b77971 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 52511 popped 118/93/91/100
imageproof S=4 q1 vo e72e98f179cff5a9fce938d14bbea14942431ad33922fcc8aaa3f5cd8a80a448 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 52511 popped 53/73/51/52
imageproof S=4 q2 vo dbe9c3de407ec874ad5d01d5ac25db87077f58ab8040d24aa27cf54b8c636f30 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 52511 popped 97/92/104/77
optimized-bovw S=2 q0 vo 4441cf6ceeba9706e70aad71e63fc206e90d22f794f600be76a3600ede59104a topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15733 popped 164/175
optimized-bovw S=2 q1 vo 5263e72f6112dc26f97e334b4a59bb33ffb34ad067912fa8d93ab015bfbcd527 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 16655 popped 109/109
optimized-bovw S=2 q2 vo 7ece99147a32fde5644a8b52c9d02e5d53aa375ff4ba45f306ff64c0ba60d9f8 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 16671 popped 188/164
optimized-bovw S=4 q0 vo c419af224d693969e3d13a31834c65fa818809863b76a62de2ef1e3abb3c25f0 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 47231 popped 118/93/91/100
optimized-bovw S=4 q1 vo ad14003f4f9fca14ef60e876ed5abee91c5ac655f4e0b1e546f9832f85547372 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 49997 popped 53/73/51/52
optimized-bovw S=4 q2 vo cec2c2814a6b7d889fcb7fb09ae793acd4a57eacb1aad96ddbef5277a5d34c91 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 50045 popped 97/92/104/77
optimized-both S=2 q0 vo 478977a70ab46870de5c7ce41e9b177593cb95ec225eb1f77ea834216d1718b1 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15733 popped 201/209
optimized-both S=2 q1 vo 26bab221af1e94506851c4a8823b7b2c31a0bafa97e880795598aba83dce0003 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 16655 popped 128/121
optimized-both S=2 q2 vo 7741be408bace3ea176e72b4412a8c1d8a9b6536c0c12d10f9bf377203f2298e topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 16671 popped 225/183
optimized-both S=4 q0 vo 83b13f9493a9a03daab5134382f72f0739437f8f52be56c512fa18a7939d462e topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 47231 popped 121/97/96/103
optimized-both S=4 q1 vo 944b493ca8cd1fac6e8620973e4015d25d8966bbbf83e75ca30f5189ecb0e4c5 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 49997 popped 62/77/53/53
optimized-both S=4 q2 vo e9461a87602560ef5b347ce611b3e82e64f9149e04a2b6b871d82a8fd9a5fab4 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 50045 popped 105/98/113/78
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

/// The fixed corpus, codebook parameters, owner and query set every row
/// is rendered over.
fn fixture() -> (Corpus, AkmParams, Owner, Vec<Vec<Vec<f32>>>) {
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
    (corpus, akm, owner, queries)
}

fn render() -> String {
    let (corpus, akm, owner, queries) = fixture();
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

/// One answered sharded query, whichever way it reached the shards.
type ShardedAnswer = (ShardedResponse, ShardedSpStats);

/// The sharded rows: `answer` turns one built deployment and the query set
/// into one answer per query.
fn render_sharded(
    answer: impl Fn(ShardedSystem, &[Vec<Vec<f32>>]) -> Vec<ShardedAnswer>,
) -> String {
    let (corpus, akm, owner, queries) = fixture();
    let codebook = Codebook::train(corpus.config.kind, corpus.all_features(), &akm);
    let encodings: Vec<(u64, SparseBovw)> = corpus
        .images
        .iter()
        .map(|img| {
            let features = img.features.iter().map(Vec::as_slice);
            (img.id, SparseBovw::encode(&codebook, features))
        })
        .collect();
    let mut out = String::new();
    for scheme in Scheme::ALL {
        for shards in [2usize, 4] {
            let system = owner.build_sharded_system_prepared_config(
                &corpus,
                codebook.clone(),
                encodings.clone(),
                SystemConfig::new(scheme),
                shards,
            );
            for (q, (response, stats)) in answer(system, &queries).iter().enumerate() {
                let topk: Vec<String> = response
                    .results
                    .iter()
                    .map(|r| format!("{}:{:08x}", r.id, r.score.to_bits()))
                    .collect();
                let popped: Vec<String> = stats
                    .per_shard
                    .iter()
                    .map(|s| s.popped.to_string())
                    .collect();
                writeln!(
                    out,
                    "{} S={shards} q{q} vo {} topk {} trims {} trimmed {} dedup {} popped {}",
                    scheme.slug(),
                    Digest::of(&response.vo.to_wire()).to_hex(),
                    topk.join(","),
                    stats.trim_queries,
                    stats.trimmed_entries,
                    stats.dedup_bytes_saved,
                    popped.join("/"),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn sharded_bytes_topk_and_accounting_match_the_recorded_parent_in_process() {
    let actual = render_sharded(|system, queries| {
        let sp = ShardedSp::new(system.shards);
        queries
            .iter()
            .map(|features| sp.query(features, K))
            .collect()
    });
    assert!(
        actual == SHARDED_GOLDEN,
        "in-process rendering differs from SHARDED_GOLDEN; actual:\n{actual}"
    );
}

#[test]
fn sharded_bytes_topk_and_accounting_match_the_recorded_parent_over_rpc() {
    let actual = render_sharded(|system, queries| {
        let (servers, endpoints) = rpc_util::launch_shards(ShardedSp::new(system.shards));
        let mut coordinator =
            RpcCoordinator::connect(endpoints, &system.manifest, CoordinatorConfig::default())
                .expect("coordinator connects");
        let answers = queries
            .iter()
            .map(|features| coordinator.query(features, K).expect("loopback rpc query"))
            .collect();
        drop(coordinator);
        for server in servers {
            server.shutdown();
        }
        answers
    });
    assert!(
        actual == SHARDED_GOLDEN,
        "loopback-RPC rendering differs from SHARDED_GOLDEN; actual:\n{actual}"
    );
}

#[test]
fn wire_bytes_roots_counters_and_topk_match_the_recorded_parent() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "rendering differs from GOLDEN; actual:\n{actual}"
    );
}
