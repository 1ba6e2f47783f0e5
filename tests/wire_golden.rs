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
//! Both constants were re-recorded at PR 22 ("one proof tree": the SP opens
//! one MRKD VO tree and ships the others as root stubs — only the `vo`
//! digests and the sharded `dedup` moved), where the scheme lines gained
//! `rows R nodes N stubs P` — the BoVW VO's table rows, tree nodes and
//! pruned stubs — so a re-recording shows which part of the shape moved.
//!
//! They were re-recorded again at PR 23 ("one committed tree"), the current
//! recording point: the owner Merkle-izes and signs the AKM forest's proof
//! tree alone, and the BoVW wire grammar is `rows · VoNode*` with no tree
//! count and no root stubs. The fixture's `n_t` is 3, so each BoVW VO lost
//! two stub nodes. The two renderings were diffed field by field against
//! the parent's constants: `root` and `inserted root` (the signed digest is
//! now the tree's root, not a hash over three), `vo <digest>`, and `nodes`
//! and `stubs` — each lower by exactly 2 per BoVW VO (2 for the shared
//! schemes; 60, 44 and 72 for the Baseline's 30, 22 and 36 per-query VOs) —
//! moved on the scheme lines, `vo` and `dedup` on the sharded lines; every
//! `rows`, `popped … rounds … scanned … skipped`, `topk`, `trims` /
//! `trimmed` / per-shard `popped` field and every index-level line is
//! byte-for-byte the parent's.

mod rpc_util;

use imageproof_akm::{AkmParams, Codebook, ImpactModel, SparseBovw};
use imageproof_core::rpc::{CoordinatorConfig, RpcCoordinator};
use imageproof_core::{
    BovwVoVariant, IndexVariant, Owner, Scheme, ServiceProvider, ShardedResponse, ShardedSp,
    ShardedSpStats, ShardedSystem, SystemConfig,
};
use imageproof_crypto::wire::Encode;
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, Group};
use imageproof_invindex::{inv_search, BoundsMode, Index, InvSearchStats, Posting};
use imageproof_mrkd::VoNode;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};
use std::fmt::Write;

const K: usize = 4;

const GOLDEN: &str = "\
baseline root 61c865f886f07a26d522eb7e096fb79a5c0cbdc04be35832215c7f16b4fe710a
baseline q0 vo 2e572e367c2aa47838a5cca2f158ecb21bcb1b52a2f992db93c207a3f390a49a rows 814 nodes 1206 stubs 127 popped 391 of 440 rounds 6 scanned 54 skipped 9 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
baseline q1 vo 93aac8c1fbd42825b3cc53c091e643fcdd44a36f0f39059dd4e8d308a12e774e rows 574 nodes 914 stubs 120 popped 242 of 269 rounds 6 scanned 35 skipped 5 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
baseline q2 vo 5e8dcb933a762de490aacffb34e57149b6fef60e978741e118faad1ae46e916b rows 516 nodes 990 stubs 201 popped 367 of 408 rounds 7 scanned 50 skipped 7 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
baseline inserted root de8644c003df234b35d8af2ddb42b343f7c9db412ebe59e2ec84786410386077
imageproof root 61c865f886f07a26d522eb7e096fb79a5c0cbdc04be35832215c7f16b4fe710a
imageproof q0 vo bb88747755b0e1306be375172c05eac9bb13714a9064e81e2365c5af2c91511d rows 64 nodes 77 stubs 0 popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
imageproof q1 vo 0b622eaa0e16db6467cc3af6523024f932daad465c304ec30a95a05b4817b703 rows 64 nodes 77 stubs 0 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
imageproof q2 vo e1573084611ef42ff47029871a217b35795b0b9748e9de3c71c6402e7b774305 rows 64 nodes 77 stubs 0 popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
imageproof inserted root de8644c003df234b35d8af2ddb42b343f7c9db412ebe59e2ec84786410386077
optimized-bovw root 44d00b53331e104ae51bb56977fae88c338ab783631ce5b0f440e68105e1d289
optimized-bovw q0 vo aaef5c70afe6a673db3c588a63a51692d77bf06934c38be612f6e5bafa86fe1f rows 64 nodes 77 stubs 0 popped 365 of 440 rounds 1 scanned 47 skipped 16 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-bovw q1 vo 53e578107bb76a3f09f5bafd7106784a033b5731054af142827baa21aa5d36b6 rows 64 nodes 77 stubs 0 popped 219 of 269 rounds 1 scanned 29 skipped 11 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-bovw q2 vo 0c7d8faf68579945b1dbfdbe1acf693459837112e42f960c37cfea9d441155d1 rows 64 nodes 77 stubs 0 popped 332 of 408 rounds 1 scanned 43 skipped 14 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
optimized-bovw inserted root f0ab6b49896e2fbcecac8555b112b6e82b7a345a1f459e22fb701f73f2c2297f
optimized-both root 58d0df6e0ceab7dde7288f10ff5f9ac90191635295150a6316302796b6d387fa
optimized-both q0 vo 6ff334998027aee170b8411678a39548ca698c50742ee563bb965ae5182987af rows 64 nodes 77 stubs 0 popped 440 of 440 rounds 1 scanned 13 skipped 0 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6
optimized-both q1 vo 133d7af95d950689ae0531344e7015721f41b7b308a9f0ae868f3909c53ae0c6 rows 64 nodes 77 stubs 0 popped 269 of 269 rounds 1 scanned 11 skipped 0 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2
optimized-both q2 vo 44e20f0a80448ef45f42e472d9763518d66ac80ad1a96c5842d8a14d0bcbb2ee rows 64 nodes 77 stubs 0 popped 408 of 408 rounds 1 scanned 13 skipped 0 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416
optimized-both inserted root 004ce77c9747f68bf9fb4871a5bc386056d5eb2d1b3879a2cee6c5719127327b
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
baseline S=2 q0 vo 402d62722df6e729a77d6366aa1fae71777b7b5d3d7c5b6aa5a8e06ff5ea0e54 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 239560 popped 204/192
baseline S=2 q1 vo cbe2454b2dc7e06a6c9561aa350f0949b8b35591ee43ea2d5498078ce5d0db4e topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 169027 popped 122/135
baseline S=2 q2 vo d2cef6cba46e3bf7722932d73752e911df842f45427484005187fa9a70c5e78c topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 154768 popped 201/176
baseline S=4 q0 vo faf0e1e1f269fa82f623060c45d5c093ff65086cb4146bca3b78e92cb3414a71 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 718712 popped 119/96/110/100
baseline S=4 q1 vo 899d44af01b23d15dac173bf23846145db7f85085ba14bb8aa59b6fbde39067a topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 507113 popped 58/73/52/60
baseline S=4 q2 vo 05f461cb71ee26a484434685196a891c3001193015efd461e369c097a692e347 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 464336 popped 104/94/107/82
imageproof S=2 q0 vo c9e55f89c913c5b12bf47ef1d91a6f96d5bd5fa44963277da8e798c4819284b2 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 16728 popped 164/175
imageproof S=2 q1 vo e4f40d712089e246e2079c47522ce193cc4d3daf0cd3c6452384e77842b15cbe topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 16728 popped 109/109
imageproof S=2 q2 vo 721b27387faf662d8c916fc48f67b954a1887a51f00e1f64665e001601d2e68a topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 16728 popped 188/164
imageproof S=4 q0 vo 29d3cbf61b4688003f109f9257e1f9d0465b937970a7dbc8d04ccbcfaec152c9 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 50216 popped 118/93/91/100
imageproof S=4 q1 vo 1a8d12c3ddeeb8e305b88eb587a80e231fe66f9a7880ae2bb809f025e1fc9cfb topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 50216 popped 53/73/51/52
imageproof S=4 q2 vo 7d9a1ec5203bbde64b1ffec9e2bcf992d49a6205785b0dba230884f0ce72f9ac topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 50216 popped 97/92/104/77
optimized-bovw S=2 q0 vo 36699c5dc61c0ad1a70cf8f052d69b7260b2e3bf1a9f9cbb0c8790a808f79d6c topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15032 popped 164/175
optimized-bovw S=2 q1 vo 595039f1559c3c2b0402205482c266832bffc170cc865826e13d50c95118a844 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 15954 popped 109/109
optimized-bovw S=2 q2 vo 3860f90a2eaf9e5976e161d2cdb0e44d34457c2ce8b6cadddf784d0303d1f6d9 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 15906 popped 188/164
optimized-bovw S=4 q0 vo 0cfea2c62022c826a0ad5f51e7a4b1eadf2a251b79d1a8faa9cfee98fc9c5c78 topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 45128 popped 118/93/91/100
optimized-bovw S=4 q1 vo f1308c3e86890c6d1f073321fd749bb5df3d5fcc733192605e62d0865e79d779 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 47894 popped 53/73/51/52
optimized-bovw S=4 q2 vo c837146dabf36b3c3aac1be923c7805fffffd4ad1917d7c07f2b2bfdf7a3db92 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 47750 popped 97/92/104/77
optimized-both S=2 q0 vo 6205707f91b5bb4ae162fa5c1106f1f7b907d72c0a2dc6b50e634972949cc3bc topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 2 trimmed 2 dedup 15032 popped 201/209
optimized-both S=2 q1 vo e3e671beb8ef7d7ecda12a388e2e867aa3598d4238bbc65c44955ad4bd72644d topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 1 trimmed 2 dedup 15954 popped 128/121
optimized-both S=2 q2 vo c7d9824830588d9c41795a91a109c30a054122a5d899cc403fb823ef00e9ffd5 topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 1 trimmed 3 dedup 15906 popped 225/183
optimized-both S=4 q0 vo b793a2158d501219dd09952fda7e7d5fbe8b994beb4d05eb0b1cec28eb6bb5fc topk 7:4016ba33,58:3f81cd6b,88:3f797c7a,81:3f62a6b6 trims 4 trimmed 8 dedup 45128 popped 121/97/96/103
optimized-both S=4 q1 vo 546a154343fabd349f091033f7e0e095212d1d1de4c1fb1e18fd83593fbd4332 topk 41:3fdfa3a2,79:3f8c3a9f,59:3f6813ec,66:3f53b9f2 trims 4 trimmed 8 dedup 47894 popped 62/77/53/53
optimized-both S=4 q2 vo 6a16d5870e249e40087a9f3b62afee3bd57a167d7655218b80111127c52930de topk 66:4004cc94,52:3fcc357d,26:3f8b3395,42:3f83d416 trims 3 trimmed 8 dedup 47750 popped 105/98/113/78
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
    let plain = Index::<Posting>::build(N_CLUSTERS, &images, &model);
    let grouped = Index::<Group>::build(N_CLUSTERS, &images, &model);
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
    let nodes = || vos.iter().flat_map(|vo| vo.tree.nodes());
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
