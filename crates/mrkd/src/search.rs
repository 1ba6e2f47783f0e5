//! SP-side `MRKDSearch` (paper Alg. 1): authenticated candidate collection
//! and VO generation, with node sharing across query vectors.
//!
//! The paper runs Alg. 1 on each of the `n_t` trees and unions the results;
//! every tree indexes every centroid, so each per-tree result is already
//! the whole within-threshold set. The owner therefore commits one tree,
//! the codebook's (the one whose exact search assigns), and the SP walks
//! that (DESIGN.md §3.5 and §5 have the soundness argument).

use crate::traverse::{traverse, ActiveQuery, TraversalVisitor, TreeSource};
use crate::tree::{owner_shape, CandidateMode, MrkdTree, Shape};
use crate::vo::{BovwVo, Reveal, VoCluster, VoTreeBuilder};
use imageproof_akm::kernel::dist_sq_within;
use imageproof_akm::rkd::Node;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// Traversal statistics of the walk; the "ratio of shared nodes" plotted
/// in Figs. 7–8 is `nodes_shared / nodes_traversed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Disclosed nodes visited by at least one query.
    pub nodes_traversed: usize,
    /// Disclosed nodes visited by two or more queries simultaneously.
    pub nodes_shared: usize,
    /// Leaves disclosed.
    pub leaves_visited: usize,
    /// Digests copied from the build-time tables into the VO instead of
    /// being recomputed — the MRKD share of the SP's hash-cache hits: one
    /// inverted-list digest per cluster-table row plus one per pruned
    /// stub.
    pub digests_cached: usize,
}

impl SearchStats {
    /// Fraction of traversed nodes that served multiple queries.
    pub fn shared_ratio(&self) -> f64 {
        if self.nodes_traversed == 0 {
            0.0
        } else {
            self.nodes_shared as f64 / self.nodes_traversed as f64
        }
    }

    fn merge(&mut self, other: &SearchStats) {
        self.nodes_traversed += other.nodes_traversed;
        self.nodes_shared += other.nodes_shared;
        self.leaves_visited += other.leaves_visited;
        self.digests_cached += other.digests_cached;
    }
}

/// Output of `MRKDSearch`.
#[derive(Clone, Debug)]
pub struct SearchOutput {
    /// The VO tree (`VO_C` in Alg. 5) over the cluster table.
    pub vo: BovwVo,
    pub stats: SearchStats,
}

/// Records one finished search into the global observability
/// registry (no-op when recording is disabled; never affects the VO).
fn record_search(mode: &'static str, stats: &SearchStats) {
    if !imageproof_obs::enabled() {
        return;
    }
    let reg = imageproof_obs::global();
    reg.counter("imageproof_mrkd_searches_total", &[("mode", mode)])
        .inc();
    for (kind, n) in [
        ("traversed", stats.nodes_traversed),
        ("shared", stats.nodes_shared),
        ("leaves", stats.leaves_visited),
    ] {
        reg.counter(
            "imageproof_mrkd_nodes_total",
            &[("mode", mode), ("kind", kind)],
        )
        .add(n as u64);
    }
    reg.counter("imageproof_mrkd_digests_cached_total", &[("mode", mode)])
        .add(stats.digests_cached as u64);
}

impl TreeSource for MrkdTree {
    fn root(&self) -> usize {
        self.rkd().root() as usize
    }
    // audit:allow(panic) SP-side source: node ids come from the SP's own arena
    fn view(&self, node: usize) -> Shape<'_> {
        owner_shape(&self.rkd().nodes()[node])
    }
}

/// What the walk asks the cluster table to disclose for a leaf cluster:
/// the queries, ascending, whose thresholds a partial reveal must clear, or
/// `None` for a full reveal.
type Need = (u32, Option<Vec<u32>>);

/// The SP's walk of the tree, filling in the VO as it goes.
struct SpVisitor<'a> {
    tree: &'a MrkdTree,
    queries: &'a [Vec<f32>],
    thresholds_sq: &'a [f32],
    /// The tree's VO, emitted node by node as the walk meets them.
    vo: VoTreeBuilder,
    /// Every cluster of every disclosed leaf, in leaf-visit order (the
    /// leaves partition the codebook, so none repeats).
    needs: Vec<Need>,
    stats: SearchStats,
}

impl TraversalVisitor for SpVisitor<'_> {
    type Err = Infallible;

    fn inactive(&mut self, node: usize) -> Result<(), Infallible> {
        self.stats.digests_cached += 1;
        self.vo.pruned(self.tree.node_digest(node as u32));
        Ok(())
    }

    // audit:allow(panic) the SP walks its own real tree, which never yields opaque nodes
    fn opaque(&mut self, _node: usize, _active: &[ActiveQuery]) -> Result<(), Infallible> {
        unreachable!("the SP walks the real tree, which has no opaque nodes")
    }

    // audit:allow(panic) SP-side visitor over the SP's own tree: leaf callbacks only fire on real leaves
    fn leaf(&mut self, node: usize, active: &[ActiveQuery]) -> Result<(), Infallible> {
        self.stats.nodes_traversed += 1;
        self.stats.leaves_visited += 1;
        if active.len() > 1 {
            self.stats.nodes_shared += 1;
        }
        let Node::Leaf { clusters } = &self.tree.rkd().nodes()[node] else {
            unreachable!("leaf callback on non-leaf");
        };
        for &cluster in clusters {
            self.leaf_cluster(cluster, active);
        }
        self.vo.leaf(clusters.iter().copied());
        Ok(())
    }

    fn internal(
        &mut self,
        _node: usize,
        dim: u32,
        value: f32,
        active: &[ActiveQuery],
    ) -> Result<(), Infallible> {
        self.stats.nodes_traversed += 1;
        if active.len() > 1 {
            self.stats.nodes_shared += 1;
        }
        self.vo.internal(dim, value);
        Ok(())
    }
}

impl SpVisitor<'_> {
    /// Records what the table must disclose for one leaf cluster:
    /// everything in [`CandidateMode::Full`] or for a candidate (a cluster
    /// within the threshold of some query reaching the leaf), else enough to
    /// clear the threshold of every such query.
    // audit:allow(panic) SP-side: cluster ids and query indices come from the SP's own tree and walker
    fn leaf_cluster(&mut self, cluster: u32, active: &[ActiveQuery]) {
        let center = &self.tree.centers()[cluster as usize];
        // Early-exit kernel: `None` proves d > threshold (not a candidate);
        // `Some` is the exact distance. The first query within its threshold
        // settles it.
        let within = |aq: &ActiveQuery| {
            let q = aq.query as usize;
            let t = self.thresholds_sq[q];
            dist_sq_within(&self.queries[q], center, t).is_some_and(|d| d <= t)
        };
        let full = self.tree.mode() == CandidateMode::Full || active.iter().any(within);
        // The walk keeps `active` in ascending query order, so the greedy
        // block choice is a function of the *set* of queries reaching the
        // leaf.
        let reached_by = (!full).then(|| active.iter().map(|aq| aq.query).collect());
        self.needs.push((cluster, reached_by));
    }
}

/// The table row answering one [`Need`].
fn table_row(
    tree: &MrkdTree,
    queries: &[Vec<f32>],
    thresholds_sq: &[f32],
    (cluster, reached_by): Need,
) -> VoCluster {
    let coords = || tree.centers()[cluster as usize].clone();
    let reveal = match (reached_by, tree.mode()) {
        (Some(queries_to_clear), _) => {
            partial_reveal(tree, queries, thresholds_sq, cluster, &queries_to_clear)
        }
        (None, CandidateMode::Full) => Reveal::Full { coords: coords() },
        (None, CandidateMode::Compressed) => Reveal::FullCompressed { coords: coords() },
    };
    VoCluster {
        cluster,
        inv_digest: tree.inv_digest(cluster),
        reveal,
    }
}

/// Chooses a dimension-block subset proving `dist(q, c) ≥ t_q` for every
/// query in `reached_by` (§VI-A): greedily picks the blocks with the largest
/// contributions, then validates with the client's exact summation.
fn partial_reveal(
    tree: &MrkdTree,
    queries: &[Vec<f32>],
    thresholds_sq: &[f32],
    cluster: u32,
    reached_by: &[u32],
) -> Reveal {
    let center = &tree.centers()[cluster as usize];
    let dim_tree = tree
        .dim_tree(cluster)
        .expect("compressed mode has dimension trees");
    let dim = center.len();
    let total_blocks = crate::tree::n_blocks(dim);
    let mut selected: BTreeSet<u32> = BTreeSet::new();

    for &query in reached_by {
        let q = &queries[query as usize];
        let t = thresholds_sq[query as usize];
        // Each block's contribution once, up front: the greedy ordering
        // and the repeated partial-sum validations below all read from
        // this cache (every cached value is bit-identical to
        // recomputation, so selection — and hence the VO — is unchanged).
        let contrib: Vec<f32> = (0..total_blocks as u32)
            .map(|b| block_contribution(q, center, b))
            .collect();
        if partial_sum_selected(&selected, &contrib) >= t {
            continue;
        }
        // Blocks by descending contribution for this query.
        let mut order: Vec<u32> = (0..total_blocks as u32)
            .filter(|b| !selected.contains(b))
            .collect();
        order.sort_by(|&a, &b| contrib[b as usize].total_cmp(&contrib[a as usize]));
        for b in order {
            selected.insert(b);
            if partial_sum_selected(&selected, &contrib) >= t {
                break;
            }
        }
        debug_assert!(
            partial_sum_selected(&selected, &contrib) >= t,
            "a non-candidate's full distance must exceed the threshold"
        );
    }

    if selected.is_empty() {
        // Every query's threshold was already met by the empty sum (t = 0,
        // query coincides with its winner); reveal one block anyway — the
        // verifier rejects empty disclosures.
        selected.insert(0);
    }
    let indices: Vec<usize> = selected.iter().map(|&b| b as usize).collect();
    let proof = dim_tree.prove_subset(&indices);
    let blocks = selected
        .iter()
        .map(|&b| {
            (
                b,
                center[crate::tree::block_range(b as usize, dim)].to_vec(),
            )
        })
        .collect();
    Reveal::Partial {
        dim_root: dim_tree.root(),
        blocks,
        proof,
    }
}

/// One dimension block's share of the squared distance. Delegates to the
/// chunked kernel, which is bit-identical to the sequential fold the client
/// performs over the block.
fn block_contribution(q: &[f32], center: &[f32], block: u32) -> f32 {
    let range = crate::tree::block_range(block as usize, center.len());
    imageproof_akm::kernel::dist_sq(&q[range.clone()], &center[range])
}

/// The partial distance over selected blocks, summed in ascending block
/// order from per-block contributions (dimensions ascending within a
/// block) — the exact computation the client performs, so the SP validates
/// against the same float rounding. `contrib[b]` must hold
/// [`block_contribution`] of block `b`.
fn partial_sum_selected(blocks: &BTreeSet<u32>, contrib: &[f32]) -> f32 {
    blocks.iter().map(|&b| contrib[b as usize]).sum()
}

/// Client-side counterpart over the VO's revealed `(block, coords)` pairs.
/// Callers must have validated block indices and lengths beforehand.
// audit:allow(panic) block_range yields indices below q.len() even for hostile block ids (iterated, never sliced)
pub fn partial_sum_revealed(blocks: &[(u32, Vec<f32>)], q: &[f32]) -> f32 {
    blocks
        .iter()
        .map(|(b, coords)| {
            crate::tree::block_range(*b as usize, q.len())
                .zip(coords)
                .map(|(d, &v)| {
                    let diff = q[d] - v;
                    diff * diff
                })
                .sum::<f32>()
        })
        .sum()
}

/// `MRKDSearch` with node sharing: one traversal of the MRKD-tree serving
/// all query vectors. Its leaves partition the whole codebook, so the walk
/// collects each query's complete within-threshold set (DESIGN.md §5).
pub fn mrkd_search(tree: &MrkdTree, queries: &[Vec<f32>], thresholds_sq: &[f32]) -> SearchOutput {
    let out = search_tree(tree, queries, thresholds_sq);
    record_search("shared", &out.stats);
    out
}

/// [`mrkd_search`] without the registry record — the baseline path reuses
/// the traversal per query and must not count those inner calls as
/// shared-mode searches.
fn search_tree(tree: &MrkdTree, queries: &[Vec<f32>], thresholds_sq: &[f32]) -> SearchOutput {
    assert_eq!(queries.len(), thresholds_sq.len());
    let mut visitor = SpVisitor {
        tree,
        queries,
        thresholds_sq,
        vo: VoTreeBuilder::default(),
        needs: Vec::new(),
        stats: SearchStats::default(),
    };
    if let Err(e) = traverse(tree, queries, thresholds_sq, &mut visitor) {
        match e {}
    }
    let SpVisitor {
        mut vo,
        mut needs,
        mut stats,
        ..
    } = visitor;
    needs.sort_unstable_by_key(|need| need.0);
    let clusters: Vec<VoCluster> = (needs.into_iter())
        .map(|need| table_row(tree, queries, thresholds_sq, need))
        .collect();
    stats.digests_cached += clusters.len();
    SearchOutput {
        vo: BovwVo {
            clusters,
            tree: vo.finish(),
        },
        stats,
    }
}

/// The Baseline scheme's BoVW VO: an independent `MRKDSearch` per query
/// vector (no node sharing), as used in §VII's Baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineBovwVo {
    pub per_query: Vec<BovwVo>,
}

impl Encode for BaselineBovwVo {
    fn encode(&self, w: &mut Writer) {
        w.seq_of(&self.per_query);
    }
}

impl Decode for BaselineBovwVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BaselineBovwVo {
            per_query: r.seq()?,
        })
    }
}

/// Baseline `MRKDSearch`: per-query traversals; the VOs duplicate every
/// shared node's digests, which is exactly the overhead Figs. 6–8 plot.
pub fn mrkd_search_baseline(
    tree: &MrkdTree,
    queries: &[Vec<f32>],
    thresholds_sq: &[f32],
) -> (BaselineBovwVo, SearchStats) {
    assert!(
        tree.mode() == CandidateMode::Full,
        "the Baseline scheme uses full candidate disclosure"
    );
    assert_eq!(queries.len(), thresholds_sq.len());
    let mut per_query = Vec::with_capacity(queries.len());
    let mut stats = SearchStats::default();
    for (q, &t) in queries.iter().zip(thresholds_sq) {
        let out = search_tree(tree, std::slice::from_ref(q), &[t]);
        stats.merge(&out.stats);
        per_query.push(out.vo);
    }
    record_search("baseline", &stats);
    (BaselineBovwVo { per_query }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bovw, verify_bovw_baseline};
    use imageproof_akm::kernel::dist_sq;
    use imageproof_akm::rkd::RkdTree;
    use imageproof_crypto::Digest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 64;

    #[test]
    fn baseline_bovw_vo_roundtrips_on_the_wire() {
        let stub = |root: &[u8]| BovwVo {
            clusters: Vec::new(),
            tree: VoTreeBuilder::default().pruned(Digest::of(root)).finish(),
        };
        let vo = BaselineBovwVo {
            per_query: vec![stub(b"t0"), stub(b"t1")],
        };
        assert_eq!(BaselineBovwVo::from_wire(&vo.to_wire()).expect("rt"), vo);
    }

    fn setup(mode: CandidateMode) -> (Vec<Vec<f32>>, MrkdTree) {
        let mut rng = StdRng::seed_from_u64(51);
        let centers: Vec<Vec<f32>> = (0..80)
            .map(|_| (0..DIM).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let inv: Vec<Digest> = (0..80u32)
            .map(|c| Digest::of(format!("inv-{c}").as_bytes()))
            .collect();
        let rkd = RkdTree::build(&centers, 2, &mut StdRng::seed_from_u64(52));
        let mrkd = MrkdTree::build(&rkd, &centers, &inv, mode);
        (centers, mrkd)
    }

    /// Queries are perturbed centroids — like real local features, they sit
    /// close to one visual word — with threshold = exact NN distance, as
    /// Alg. 5 line 1 computes.
    fn queries_and_thresholds(centers: &[Vec<f32>], n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(53);
        let queries: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let base = &centers[rng.gen_range(0..centers.len())];
                base.iter()
                    .map(|&v| v + rng.gen_range(-0.02f32..0.02))
                    .collect()
            })
            .collect();
        let thresholds = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        (queries, thresholds)
    }

    /// Per query, the nearest centroid (ties to the smaller id) and its
    /// squared distance, by a full scan.
    fn brute_force(centers: &[Vec<f32>], queries: &[Vec<f32>]) -> (Vec<u32>, Vec<f32>) {
        queries
            .iter()
            .map(|q| {
                let (d, c) = (0..centers.len() as u32)
                    .map(|c| (dist_sq(q, &centers[c as usize]), c))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .expect("non-empty");
                (c, d)
            })
            .unzip()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn candidates_contain_the_brute_force_nearest_cluster() {
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let (centers, mrkd) = setup(mode);
            let (queries, thresholds) = queries_and_thresholds(&centers, 10);
            let out = mrkd_search(&mrkd, &queries, &thresholds);
            let v = verify_bovw(&out.vo, &queries, mode).expect("honest VO verifies");
            let (nn, d) = brute_force(&centers, &queries);
            assert_eq!(v.assignments, nn, "{mode:?}: assignments");
            assert_eq!(bits(&v.thresholds_sq), bits(&d), "{mode:?}: thresholds");
        }
    }

    #[test]
    fn shared_search_visits_fewer_nodes_than_baseline() {
        let (centers, mrkd) = setup(CandidateMode::Full);
        let (queries, thresholds) = queries_and_thresholds(&centers, 20);
        let shared = mrkd_search(&mrkd, &queries, &thresholds);
        let (_, baseline_stats) = mrkd_search_baseline(&mrkd, &queries, &thresholds);
        assert!(shared.stats.nodes_traversed < baseline_stats.nodes_traversed);
    }

    #[test]
    fn shared_vo_is_smaller_than_baseline_vo() {
        let (centers, mrkd) = setup(CandidateMode::Full);
        let (queries, thresholds) = queries_and_thresholds(&centers, 20);
        let shared = mrkd_search(&mrkd, &queries, &thresholds);
        let (baseline_vo, _) = mrkd_search_baseline(&mrkd, &queries, &thresholds);
        assert!(shared.vo.wire_size() < baseline_vo.wire_size());
    }

    #[test]
    fn compressed_vo_is_smaller_than_full_vo() {
        let (centers, full) = setup(CandidateMode::Full);
        let (_, compressed) = setup(CandidateMode::Compressed);
        let (queries, thresholds) = queries_and_thresholds(&centers, 20);
        let a = mrkd_search(&full, &queries, &thresholds);
        let b = mrkd_search(&compressed, &queries, &thresholds);
        // Same traversal shape either way.
        assert_eq!(a.stats.nodes_traversed, b.stats.nodes_traversed);
        assert!(
            b.vo.wire_size() < a.vo.wire_size(),
            "compressed {} >= full {}",
            b.vo.wire_size(),
            a.vo.wire_size()
        );
    }

    #[test]
    fn baseline_candidates_match_shared_candidates() {
        let (centers, mrkd) = setup(CandidateMode::Full);
        let (queries, thresholds) = queries_and_thresholds(&centers, 15);
        let shared = mrkd_search(&mrkd, &queries, &thresholds);
        let shared = verify_bovw(&shared.vo, &queries, CandidateMode::Full).expect("shared");
        let (baseline, _) = mrkd_search_baseline(&mrkd, &queries, &thresholds);
        let baseline = verify_bovw_baseline(&baseline, &queries).expect("baseline");
        let (nn, d) = brute_force(&centers, &queries);
        assert_eq!(shared.assignments, nn);
        assert_eq!(baseline.assignments, nn);
        assert_eq!(bits(&shared.thresholds_sq), bits(&d));
        assert_eq!(bits(&baseline.thresholds_sq), bits(&d));
    }

    #[test]
    fn vo_round_trips_through_wire_format() {
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let (centers, mrkd) = setup(mode);
            let (queries, thresholds) = queries_and_thresholds(&centers, 8);
            let out = mrkd_search(&mrkd, &queries, &thresholds);
            let bytes = out.vo.to_wire();
            let decoded = BovwVo::from_wire(&bytes).expect("round trip");
            assert_eq!(decoded, out.vo);
        }
    }

    #[test]
    fn stats_shared_ratio_is_sane() {
        let (centers, mrkd) = setup(CandidateMode::Full);
        let (queries, thresholds) = queries_and_thresholds(&centers, 30);
        let out = mrkd_search(&mrkd, &queries, &thresholds);
        let r = out.stats.shared_ratio();
        assert!((0.0..=1.0).contains(&r));
        assert!(r > 0.0, "30 queries on one tree must share the root");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The SP accepts a partial reveal when `partial_sum_selected`, over
        /// its cached per-block kernel contributions, reaches the threshold;
        /// the client re-derives the same number with `partial_sum_revealed`
        /// from the revealed coordinates. Unless the two agree to the bit,
        /// an honest reveal can be rejected (or a borderline one accepted)
        /// by rounding alone. Dimensions run past whole blocks so a short
        /// final block is covered.
        #[test]
        fn sp_and_client_partial_sums_agree_bitwise(
            q in proptest::collection::vec(-4.0f32..4.0, 130),
            center in proptest::collection::vec(-4.0f32..4.0, 130),
            dim in 1usize..=130,
            mask in 0u64..512,
        ) {
            let (q, center) = (&q[..dim], &center[..dim]);
            let total = crate::tree::n_blocks(dim) as u32;
            let mut selected: BTreeSet<u32> =
                (0..total).filter(|&b| (mask >> b) & 1 == 1).collect();
            if selected.is_empty() {
                selected.insert(mask as u32 % total);
            }
            let contrib: Vec<f32> = (0..total)
                .map(|b| block_contribution(q, center, b))
                .collect();
            let revealed: Vec<(u32, Vec<f32>)> = selected
                .iter()
                .map(|&b| (b, center[crate::tree::block_range(b as usize, dim)].to_vec()))
                .collect();
            proptest::prop_assert_eq!(
                partial_sum_selected(&selected, &contrib).to_bits(),
                partial_sum_revealed(&revealed, q).to_bits()
            );
        }
    }
}
