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
//!
//! Both constants were re-recorded once since, at PR 22 ("one proof
//! tree"): the SP opens one MRKD VO tree and ships the others as root
//! stubs, which changes every response's BoVW bytes and nothing else. The
//! two renderings were diffed field by field against the parent's constants:
//! only the `vo <digest>` of the scheme lines (and `vo` / `dedup` of the
//! sharded lines) moved; every `root`, `inserted root`, `popped … rounds …
//! scanned … skipped`, `topk`, `trims` / `trimmed` / per-shard `popped`
//! field and every index-level line is byte-for-byte the parent's. The
//! scheme lines gained `rows R nodes N stubs P` — the BoVW VO's table rows,
//! tree nodes and pruned stubs — so the next re-recording shows which part
//! of the shape moved, not only that a digest did.

mod rpc_util;

use imageproof_akm::{AkmParams, Codebook, ImpactModel, SparseBovw};
use imageproof_core::rpc::{CoordinatorConfig, RpcCoordinator};
use imageproof_core::{
    BovwVoVariant, IndexVariant, Owner, Scheme, ServiceProvider, ShardedResponse, ShardedSp,
    ShardedSpStats, ShardedSystem, SystemConfig,
};
use imageproof_crypto::wire::Encode;
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, GroupedInvertedIndex};
use imageproof_invindex::{inv_search, BoundsMode, InvSearchStats, MerkleInvertedIndex};
use imageproof_mrkd::VoNode;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};
use std::fmt::Write;

const K: usize = 4;

const GOLDEN: &str = "\
baseline root 902857101ea1bd3b208ccc0936f6e646cc9d6592a0b80434dedc47e963b2eedc
baseline q0 vo 8d144bc7ee0cb1e0272a310d702247f169a9f5bf9620eadfbf3506482728b080 rows 814 nodes 1266 stubs 187 popped 391 of 440 rounds 6 scanned 54 skipped 9 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
baseline q1 vo b561fce729c87b27f6e6b23908bf46b04d08600f251b803fe6e1e6572b211c18 rows 574 nodes 958 stubs 164 popped 242 of 269 rounds 6 scanned 35 skipped 5 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
baseline q2 vo e6fea7061b5c7ec0180f94cc86abb93dd99f9f4e896cfa3f5a54f5b9a461b755 rows 516 nodes 1062 stubs 273 popped 367 of 408 rounds 7 scanned 50 skipped 7 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
baseline inserted root f1d091f855e43dc67af0e1db2a00211ad78f71a207e57402933c0e3e8ae90a5a
imageproof root 902857101ea1bd3b208ccc0936f6e646cc9d6592a0b80434dedc47e963b2eedc
imageproof q0 vo 23f7448ea6955b0f0d5d6a0b67b318cadc23cbbc22e43b41eabca4c004c2b821 rows 64 nodes 79 stubs 2 popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
imageproof q1 vo aa50270106d7eeed0d705d77368d62bfa6c8fe4301d465b9b8abc5d8f0b06dd8 rows 64 nodes 79 stubs 2 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
imageproof q2 vo 995b974d651b68801d519d2c83cd08e9ba7adbd69e3ea4e3ef58ca4dadbad186 rows 64 nodes 79 stubs 2 popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
imageproof inserted root f1d091f855e43dc67af0e1db2a00211ad78f71a207e57402933c0e3e8ae90a5a
optimized-bovw root 7e495f5c8588c3f63dea99b4e158eae52cd7bd600ab8f8f1e97088d4da07a910
optimized-bovw q0 vo 1768fdcf68164764888a535a6e446ed191207ed4a4be330c1440779336234901 rows 64 nodes 79 stubs 2 popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-bovw q1 vo 43ecc0fdbad7564b81d35e51884429d2dcf54b70a0ccb80a2a565254aead5fc1 rows 64 nodes 79 stubs 2 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-bovw q2 vo cd03c9e8e0dde9164eaa745e35c6bfc4e6ffc1d50c7cb7d7ebf04e166d2583b1 rows 64 nodes 79 stubs 2 popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
optimized-bovw inserted root a731c7c4b97bb0344779594517b14e161ee48ccbbaab6ce27fcfd547420b694d
optimized-both root 88098511b6a31e1060c8c01a0fde75721bf03b0181d3675ae544dbd3c90f6fab
optimized-both q0 vo 3b9fd4dc46482e6dd08d9d8972a6e03a4d34ab24b7c3bc6c1dd85e11adc2c0a3 rows 64 nodes 79 stubs 2 popped 440 of 440 rounds 1 scanned 13 skipped 0 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-both q1 vo bd0d0c13c37cd51729050462fc589c4ca67b6d27418e40baf3b6e11ecef56a1e rows 64 nodes 79 stubs 2 popped 269 of 269 rounds 1 scanned 11 skipped 0 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-both q2 vo 766a365ced6ac5795ed0bc6a12af4fe01e4dbc4334ec321c3522b2d7ed97619b rows 64 nodes 79 stubs 2 popped 408 of 408 rounds 1 scanned 13 skipped 0 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
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
baseline S=2 q0 vo c3c85d7ce5402e5ae8a9b004916a9c020c2155049e7ab45f32964f262348afb1 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 241266 popped 204/192
baseline S=2 q1 vo 0a21ace892451070cb24d331ce4248bae4948f3964b4082f3e8c60e445571ba0 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 170261 popped 122/135
baseline S=2 q2 vo 62cb0baee1c44e2a5545a0758d168381ca86a47b9971188a1cda5dd77a6f5f13 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 156828 popped 201/176
baseline S=4 q0 vo e2278e2718bb09543dec7b3e5c30c5ee6b61a6165fc2093b36a15332c01b8568 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 723830 popped 119/96/110/100
baseline S=4 q1 vo 9e8f7a06508ffd0c407c8b35056bfefa962aa21fd791e067a68b5c5bf0aa90f6 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 510815 popped 58/73/52/60
baseline S=4 q2 vo e06b9ab072020717c4890ed21d6260ade49966cec64481e3366445ff0e889970 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 470516 popped 104/94/107/82
imageproof S=2 q0 vo 7f47f59596d508ef1736af03a0d5548a15791c405cbba4af1c70b369b87f216b topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 16723 popped 164/175
imageproof S=2 q1 vo 08dfb2a57b9e157a5e37ac056b8ef43176c9381b59465b71f5a058b6e451f98d topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 16723 popped 109/109
imageproof S=2 q2 vo 4650fec44a3afa37e1081c752eb64c0dd7847e1f206f629f1b1d5e3050a852e1 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 16723 popped 188/164
imageproof S=4 q0 vo a5ba7cb26d2f4d59b441e8d430785f90e5f7aa3261d43b388da12152f4537eb8 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 50201 popped 118/93/91/100
imageproof S=4 q1 vo 12cedbef8644669dd86e948ea778d7357fa93b3ad47aed429cd236e6bf224f84 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 50201 popped 53/73/51/52
imageproof S=4 q2 vo c82eddc02482ba8434504e5730e4d6cecaf2b2755f37d5d48168f52d86b41769 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 50201 popped 97/92/104/77
optimized-bovw S=2 q0 vo 3711e2c9841d1e2fbba427edcb29c3fde530b8bd321ac373b42f234a2cca15f2 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15027 popped 164/175
optimized-bovw S=2 q1 vo ebae1fb95662cc6cc1e536aaf424c2729db0a0ed137faac1e99c6dd94569ab3d topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 15949 popped 109/109
optimized-bovw S=2 q2 vo fe418edc21b57e6c44d56d91802b715230e32e9bc8ab186f350be7e52db8fad5 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 15901 popped 188/164
optimized-bovw S=4 q0 vo c5a4a025e7315af2b2c46cd6693a6e9c3d86b48220064f16db6d92fa018bad84 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 45113 popped 118/93/91/100
optimized-bovw S=4 q1 vo 790c279db14d7193250fd5763f8752b021518e1f3e740aa1271d043c2cfdabaa topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 47879 popped 53/73/51/52
optimized-bovw S=4 q2 vo b8fdcb5a4a7a78004516d9eae0a5bd8fa1018c986380324de31d411dbadbddbc topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 47735 popped 97/92/104/77
optimized-both S=2 q0 vo 66eed419a805f54caf477ce97d4a876fc9870ec88bf6b808d23daa78e3cb4f09 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15027 popped 201/209
optimized-both S=2 q1 vo e965fc28d64a57b886d127f1a474bc0838e0a6cb289037727f2c57fc92a616d0 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 15949 popped 128/121
optimized-both S=2 q2 vo bf3f7f4e9617c37f7a3dc1156c8ad8fc7e8931dfcc61b67b1b361dee0c8596d6 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 15901 popped 225/183
optimized-both S=4 q0 vo ce3f20a868f0b8b566df97df647f9e759c6a0276521f2c8c141f50252b8707aa topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 45113 popped 121/97/96/103
optimized-both S=4 q1 vo 62e38ccde27a23bcadfab368aab9b057a8c926a07b3b5a86e88ba91cda8155f7 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 47879 popped 62/77/53/53
optimized-both S=4 q2 vo 23cbd4030dc254fe98d0284730fcb42d639a9a97c4fdd42c86b59116a3df327b topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 47735 popped 105/98/113/78
";

/// One search's line; `shape` is empty or starts with a space.
fn render_search(
    out: &mut String,
    label: &str,
    vo: &impl Encode,
    shape: &str,
    stats: &InvSearchStats,
    topk: impl Iterator<Item = (u64, f32)>,
) {
    let topk: Vec<String> = topk
        .map(|(id, score)| format!("{id}:{:08x}", score.to_bits()))
        .collect();
    writeln!(
        out,
        "{label} vo {}{shape} popped {} of {} rounds {} scanned {} skipped {} topk {}",
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
            render_search(out, &label, &r.vo, "", &r.stats, r.topk.into_iter());
        }
        let r = grouped_search(&grouped, query, K);
        let label = format!("grouped q{q}");
        render_search(out, &label, &r.vo, "", &r.stats, r.topk.into_iter());
    }
}

/// The shape of a response's BoVW VO — table rows, tree nodes, and how many
/// of those nodes are pruned stubs, summed over a Baseline response's
/// per-query VOs — so a changed digest says what moved.
fn bovw_shape(bovw: &BovwVoVariant) -> String {
    let vos = match bovw {
        BovwVoVariant::Shared(vo) => std::slice::from_ref(vo),
        BovwVoVariant::PerQuery(vo) => vo.per_query.as_slice(),
    };
    let rows: usize = vos.iter().map(|vo| vo.clusters.len()).sum();
    let nodes = || vos.iter().flat_map(|vo| &vo.trees).flat_map(|t| t.nodes());
    let stubs = nodes().filter(|n| matches!(n, VoNode::Pruned(_))).count();
    format!(" rows {rows} nodes {} stubs {stubs}", nodes().count())
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
            let shape = bovw_shape(&response.vo.bovw);
            render_search(&mut out, &label, &response.vo, &shape, &stats, topk);
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
