//! Client-side verification of authenticated BoVW encoding (paper §IV-A2).
//!
//! Given the query feature vectors and the VO (a cluster table under the VO
//! tree, the SP's walk of the one committed MRKD-tree), the client:
//!
//! 1. **Reconstructs** the root digest: validates the table rows and the
//!    tree's nodes (rejecting malformed disclosures), hashes one entry
//!    digest per table row as a batch, then the nodes a level at a time,
//!    leaves looking their cluster ids up in the table;
//! 2. Derives each query's **verified threshold** `t'_q` — the distance to
//!    the nearest fully-revealed centroid — and its winner cluster. Each
//!    query seeds its best from the leaf its own descent of the VO tree
//!    ends at; then one pass over the full rows serves eight queries at a
//!    time through the lane kernel, skipping a row only on proof that it
//!    is farther than every lane's best. The result is the lexicographic
//!    minimum of `(distance, cluster)`, which no seed, order or grouping
//!    changes, so it is bit-equal to a one-query-at-a-time full scan;
//! 3. **Re-walks** the VO tree with the shared traversal engine to check
//!    completeness: no pruned subtree is reachable within `t'_q`, and every
//!    partially-disclosed cluster proves it is at least `t'_q` away from
//!    every query that reaches it. The tree's leaves partition the
//!    codebook, so this one walk proves the winner exact (DESIGN.md §5).
//!
//! A table row is authenticated only by a leaf that names it and chains to
//! the signed root, so phase 1 enforces three rules: the table is strictly
//! ascending by cluster id (one row per cluster, canonical bytes), every
//! leaf names clusters that have a row, and every row is named by some
//! disclosed leaf — otherwise an unauthenticated "closer centroid" could
//! win phase 2.
//!
//! If all checks pass and the root digest matches the owner's signature
//! (checked by the caller), the winners are exactly the clusters the honest
//! assignment rule produces, so the client can rebuild `B_Q` itself.

use crate::search::partial_sum_revealed;
use crate::traverse::{traverse, ActiveQuery, TraversalVisitor, TreeSource};
use crate::tree::{
    block_bytes, block_range, hash_tree, leaf_entry_digest_compressed, leaf_entry_digest_full,
    n_blocks, CandidateMode, Shape,
};
use crate::vo::{BovwVo, Reveal, VoCluster, VoNode, VoTree};
use imageproof_akm::kernel::{dist_sq_lanes_within, dist_sq_within, LANES};
use imageproof_crypto::merkle::{hash_leaf, subset_roots, RevealedSubset};
use imageproof_crypto::{Digest, DigestBatch};
use std::collections::BTreeMap;

/// Why a VO was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Structurally invalid VO.
    Malformed(&'static str),
    /// The SP pruned a subtree that some query can still reach — a
    /// completeness violation.
    PrunedSubtreeReachable,
    /// A partial disclosure does not prove the cluster is at least as far as
    /// the verified winner.
    PartialTooClose { cluster: u32, query: u32 },
    /// A dimension-block subset proof failed.
    BadSubsetProof { cluster: u32 },
    /// The reveal kinds do not match the scheme's candidate mode.
    WrongMode,
    /// No centroid was fully revealed, so no winner can be established.
    NoCandidate,
    /// The same cluster appeared with two different inverted-list digests
    /// (across a Baseline response's per-query VOs; within one VO the
    /// ascending table makes a second appearance impossible).
    InconsistentInvDigest { cluster: u32 },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Malformed(m) => write!(f, "malformed VO: {m}"),
            VerifyError::PrunedSubtreeReachable => {
                write!(
                    f,
                    "a pruned subtree is reachable within a verified threshold"
                )
            }
            VerifyError::PartialTooClose { cluster, query } => write!(
                f,
                "partial disclosure of cluster {cluster} fails to clear query {query}'s threshold"
            ),
            VerifyError::BadSubsetProof { cluster } => {
                write!(f, "dimension subset proof failed for cluster {cluster}")
            }
            VerifyError::WrongMode => write!(f, "reveal kind does not match candidate mode"),
            VerifyError::NoCandidate => write!(f, "no fully revealed centroid in VO"),
            VerifyError::InconsistentInvDigest { cluster } => {
                write!(f, "conflicting inverted-list digests for cluster {cluster}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The verified outcome of BoVW-encoding authentication.
#[derive(Debug, Clone)]
pub struct VerifiedBovw {
    /// The reconstructed root of the MRKD-tree, to be checked against the
    /// owner's signature. (Named for the `n_t` roots once combined here;
    /// the benchmark package reads the field, so the rename waits for a PR
    /// that may edit `ledger/`.)
    pub combined_root: Digest,
    /// Winner cluster per query — the verified BoVW assignments.
    pub assignments: Vec<u32>,
    /// Verified squared thresholds `t'_q` (distance to each winner).
    pub thresholds_sq: Vec<f32>,
    /// Authenticated `h_{Γ_c}` for every cluster in the table.
    pub inv_digests: BTreeMap<u32, Digest>,
}

/// Verifies a shared-traversal BoVW VO (the ImageProof / Optimized schemes).
pub fn verify_bovw(
    vo: &BovwVo,
    queries: &[Vec<f32>],
    mode: CandidateMode,
) -> Result<VerifiedBovw, VerifyError> {
    let dim = check_inputs(queries)?;
    let (root, tree) = reconstruct(vo, dim, mode)?;
    complete(vo, queries, root, &tree)
}

/// The queries' common dimensionality, once they are non-empty and
/// consistent.
fn check_inputs(queries: &[Vec<f32>]) -> Result<usize, VerifyError> {
    if queries.is_empty() {
        return Err(VerifyError::Malformed("no query vectors"));
    }
    let dim = queries.first().map(|q| q.len()).unwrap_or(0);
    if dim == 0 || queries.iter().any(|q| q.len() != dim) {
        return Err(VerifyError::Malformed("inconsistent query dimensionality"));
    }
    Ok(dim)
}

/// Phase 1: one entry digest per table row, then the root by lookup, plus
/// the tree with its leaves resolved for phase 3. Structure is checked
/// before anything above the table is hashed, in the order a node-at-a-time
/// reconstruction would meet it, so the first error is the same one.
fn reconstruct(
    vo: &BovwVo,
    dim: usize,
    mode: CandidateMode,
) -> Result<(Digest, Resolved<'_>), VerifyError> {
    let mut batch = DigestBatch::new();
    let mut table = Table::check(&vo.clusters, dim)?;
    let entries = entry_digests(&vo.clusters, dim, mode, &mut batch)?;
    let tree = Resolved::check(&vo.tree, &mut table)?;
    if table.named.contains(&false) {
        return Err(VerifyError::Malformed("table row named by no leaf"));
    }
    let size = vo.tree.nodes().len();
    let digests = hash_tree(size, |node| tree.view(node), &entries, &mut batch);
    let root = digests.first().copied().unwrap_or(Digest::ZERO);
    Ok((root, tree))
}

/// Phases 2 and 3 over the reconstructed root and the resolved tree.
fn complete(
    vo: &BovwVo,
    queries: &[Vec<f32>],
    root: Digest,
    tree: &Resolved<'_>,
) -> Result<VerifiedBovw, VerifyError> {
    // Phase 2: verified thresholds and winners. With no centroid revealed
    // in full every threshold is infinite, so the walk below reaches — and
    // rejects — every stub, a tree that is nothing but its root's included.
    let reveals: Vec<(u32, &[f32])> = vo
        .clusters
        .iter()
        .filter_map(|row| match &row.reveal {
            Reveal::Full { coords } | Reveal::FullCompressed { coords } => {
                Some((row.cluster, coords.as_slice()))
            }
            Reveal::Partial { .. } => None,
        })
        .collect();
    let (thresholds_sq, assignments): (Vec<f32>, Vec<u32>) =
        nearest_revealed(tree, &vo.clusters, queries, &reveals)
            .into_iter()
            .unzip();

    // Phase 3: completeness. The shared traversal rejects reachable pruned
    // subtrees and gathers, per partial row, the queries reaching it; each
    // (row, query) pair is then checked once.
    let mut reached: Vec<Option<Vec<u32>>> = vo
        .clusters
        .iter()
        .map(|row| matches!(row.reveal, Reveal::Partial { .. }).then(Vec::new))
        .collect();
    let mut visitor = ClientVisitor {
        vo: tree,
        reached: &mut reached,
    };
    traverse(tree, queries, &thresholds_sq, &mut visitor)?;
    if reveals.is_empty() {
        return Err(VerifyError::NoCandidate);
    }
    for (row, reached_by) in vo.clusters.iter().zip(reached) {
        if let (Reveal::Partial { blocks, .. }, Some(reached_by)) = (&row.reveal, reached_by) {
            for query in reached_by {
                let q = query as usize;
                let (Some(features), Some(&threshold)) = (queries.get(q), thresholds_sq.get(q))
                else {
                    return Err(VerifyError::Malformed("active query index out of range"));
                };
                if partial_sum_revealed(blocks, features) < threshold {
                    let cluster = row.cluster;
                    return Err(VerifyError::PartialTooClose { cluster, query });
                }
            }
        }
    }

    Ok(VerifiedBovw {
        combined_root: root,
        assignments,
        thresholds_sq,
        inv_digests: vo
            .clusters
            .iter()
            .map(|row| (row.cluster, row.inv_digest))
            .collect(),
    })
}

/// Each query's nearest fully revealed centroid as `(squared distance,
/// cluster)`, ties to the smaller cluster id: the lexicographic minimum of
/// `(d, cluster)` over the rows in `reveals` whose distance is not NaN, or
/// `(∞, u32::MAX)` when there is none. That minimum depends on no order,
/// grouping or starting point, which is what lets the scan go fast.
///
/// Each query starts from the full rows of the leaf its own descent of the
/// VO tree ends at, the closest guess the tree offers. Queries are then
/// taken [`LANES`] at a time, in descent-leaf order so that a group's
/// thresholds are alike, and one pass of the lane kernel over `reveals`
/// serves the whole group. A row is passed over only on the kernel's proof
/// that it is farther than every lane's best, which can neither win nor
/// tie, so winners and threshold bits equal a full `dist_sq` scan's.
// audit:allow(panic) query indices come from 0..queries.len(), lane indices from 0..LANES, and every query has `dim` coordinates (check_inputs)
fn nearest_revealed(
    tree: &Resolved<'_>,
    rows: &[VoCluster],
    queries: &[Vec<f32>],
    reveals: &[(u32, &[f32])],
) -> Vec<(f32, u32)> {
    let (ends, mut best): (Vec<usize>, Vec<(f32, u32)>) =
        queries.iter().map(|q| seed(tree, rows, q)).unzip();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&q| ends[q]);

    let dim = queries.first().map_or(0, Vec::len);
    let mut lanes = vec![[0.0f32; LANES]; dim];
    for group in order.chunks(LANES) {
        // Padding lanes repeat the group's first query and are dropped.
        let members: [usize; LANES] = std::array::from_fn(|i| *group.get(i).unwrap_or(&group[0]));
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = members.map(|q| queries[q][j]);
        }
        let mut limits = members.map(|q| best[q].0);
        let mut winners = members.map(|q| best[q].1);
        for &(cluster, coords) in reveals {
            let Some(ds) = dist_sq_lanes_within(&lanes, coords, &limits) else {
                continue;
            };
            for i in 0..LANES {
                if beats((ds[i], cluster), (limits[i], winners[i])) {
                    (limits[i], winners[i]) = (ds[i], cluster);
                }
            }
        }
        for (i, &q) in group.iter().enumerate() {
            best[q] = (limits[i], winners[i]);
        }
    }
    best
}

/// Where query `q`'s descent of the VO tree ends, and the best of that
/// node's full rows. The descent follows the traversal's rule
/// (`q[dim] − value <= 0` goes left) and must move to a larger node index
/// at every step, so it ends on any arena. Ending anywhere but a leaf — at
/// a stub, or out of range — seeds `(∞, u32::MAX)`.
fn seed(tree: &Resolved<'_>, rows: &[VoCluster], q: &[f32]) -> (usize, (f32, u32)) {
    let mut best = (f32::INFINITY, u32::MAX);
    let mut node = tree.root();
    let leaf_rows = loop {
        match tree.view(node) {
            Shape::Leaf(leaf_rows) => break leaf_rows,
            Shape::Internal {
                dim,
                value,
                left,
                right,
            } => {
                let next = match q.get(dim as usize) {
                    Some(x) if x - value <= 0.0 => left,
                    Some(_) => right,
                    None => break &[],
                };
                if next <= node {
                    break &[];
                }
                node = next;
            }
            Shape::Known(_) => break &[],
        }
    };
    for row in leaf_rows.iter().filter_map(|&r| rows.get(r as usize)) {
        if let Reveal::Full { coords } | Reveal::FullCompressed { coords } = &row.reveal {
            if let Some(d) = dist_sq_within(q, coords, best.0) {
                if beats((d, row.cluster), best) {
                    best = (d, row.cluster);
                }
            }
        }
    }
    (node, best)
}

/// Whether `(d, cluster)` replaces `best`: closer, or as close with the
/// smaller cluster id. NaN never does.
fn beats((d, cluster): (f32, u32), best: (f32, u32)) -> bool {
    d < best.0 || (d == best.0 && cluster < best.1)
}

/// Verifies a Baseline (per-query) BoVW VO. All per-query VOs must
/// reconstruct the same root.
pub fn verify_bovw_baseline(
    vo: &crate::search::BaselineBovwVo,
    queries: &[Vec<f32>],
) -> Result<VerifiedBovw, VerifyError> {
    if vo.per_query.len() != queries.len() {
        return Err(VerifyError::Malformed("per-query VO count mismatch"));
    }
    let mut combined: Option<Digest> = None;
    let mut assignments = Vec::with_capacity(queries.len());
    let mut thresholds_sq = Vec::with_capacity(queries.len());
    let mut inv_digests = BTreeMap::new();
    for (q, tree_vo) in queries.iter().zip(&vo.per_query) {
        let v = verify_bovw(tree_vo, std::slice::from_ref(q), CandidateMode::Full)?;
        match combined {
            None => combined = Some(v.combined_root),
            Some(c) if c == v.combined_root => {}
            Some(_) => return Err(VerifyError::Malformed("per-query roots disagree")),
        }
        let (a, t) = match (v.assignments.first(), v.thresholds_sq.first()) {
            (Some(&a), Some(&t)) => (a, t),
            _ => return Err(VerifyError::Malformed("empty per-query verification")),
        };
        assignments.push(a);
        thresholds_sq.push(t);
        for (cluster, d) in v.inv_digests {
            if *inv_digests.entry(cluster).or_insert(d) != d {
                return Err(VerifyError::InconsistentInvDigest { cluster });
            }
        }
    }
    Ok(VerifiedBovw {
        combined_root: combined.ok_or(VerifyError::Malformed("no queries"))?,
        assignments,
        thresholds_sq,
        inv_digests,
    })
}

/// The VO's cluster table as the tree's leaves see it: where each cluster's
/// row is, and which rows some disclosed leaf has named so far.
struct Table {
    dim: usize,
    /// Row cluster ids, strictly ascending (checked on construction).
    ids: Vec<u32>,
    /// Per row: whether a leaf has named it.
    named: Vec<bool>,
}

impl Table {
    fn check(rows: &[VoCluster], dim: usize) -> Result<Table, VerifyError> {
        let ids: Vec<u32> = rows.iter().map(|row| row.cluster).collect();
        if !ids.iter().zip(ids.iter().skip(1)).all(|(a, b)| a < b) {
            return Err(VerifyError::Malformed("cluster table not ascending"));
        }
        Ok(Table {
            dim,
            named: vec![false; ids.len()],
            ids,
        })
    }
}

/// Validates every table row against the candidate mode and hashes the
/// rows' leaf-entry bindings, a batch per hashing step across all rows.
///
/// Rows are checked in table order. Only a compressed row's subset proof
/// needs hashing to check, so when a later row is structurally wrong the
/// rows before it still have their proofs checked: the error returned is
/// that of the first bad row, whichever kind it is.
fn entry_digests(
    rows: &[VoCluster],
    dim: usize,
    mode: CandidateMode,
    batch: &mut DigestBatch,
) -> Result<Vec<Digest>, VerifyError> {
    let mut rows = rows;
    let mut first_malformed = Ok(());
    for (i, row) in rows.iter().enumerate() {
        if let Err(e) = check_row(row, dim, mode) {
            rows = rows.get(..i).unwrap_or(rows);
            first_malformed = Err(e);
            break;
        }
    }
    match mode {
        CandidateMode::Full => {
            first_malformed?;
            for row in rows {
                if let Reveal::Full { coords } = &row.reveal {
                    leaf_entry_digest_full(batch.message(), row.cluster, coords, &row.inv_digest);
                }
            }
        }
        CandidateMode::Compressed => {
            let dim_roots = dimension_roots(rows, dim, batch)?;
            first_malformed?;
            for (row, dim_root) in rows.iter().zip(&dim_roots) {
                leaf_entry_digest_compressed(
                    batch.message(),
                    row.cluster,
                    dim_root,
                    &row.inv_digest,
                );
            }
        }
    }
    Ok(batch.finish())
}

/// The dimension-tree root every (structurally valid) compressed row
/// commits to its centroid through: rebuilt from all blocks for a full
/// reveal; for a partial one rebuilt from the revealed blocks and the
/// proof's fill, and required to equal the root the row claims.
fn dimension_roots(
    rows: &[VoCluster],
    dim: usize,
    batch: &mut DigestBatch,
) -> Result<Vec<Digest>, VerifyError> {
    // Block leaves of all rows, row after row; `row_ends` delimits them.
    let mut leaves: Vec<(usize, Digest)> = Vec::new();
    let mut row_ends = Vec::with_capacity(rows.len());
    let mut bytes = Vec::new();
    for row in rows {
        let mut leaf = |block: usize, coords: &[f32]| {
            block_bytes(coords, &mut bytes);
            hash_leaf(batch.message(), &bytes);
            leaves.push((block, Digest::ZERO));
        };
        match &row.reveal {
            Reveal::FullCompressed { coords } => {
                for b in 0..n_blocks(dim) {
                    leaf(b, coords.get(block_range(b, dim)).unwrap_or(&[]));
                }
            }
            Reveal::Partial { blocks, .. } => {
                for (b, coords) in blocks {
                    leaf(*b as usize, coords);
                }
            }
            Reveal::Full { .. } => {}
        }
        row_ends.push(leaves.len());
    }
    for ((_, leaf), digest) in leaves.iter_mut().zip(batch.finish()) {
        *leaf = digest;
    }

    let mut start = 0;
    let no_fill: &[Digest] = &[];
    let subsets: Vec<RevealedSubset<'_>> = rows
        .iter()
        .zip(&row_ends)
        .map(|(row, &end)| {
            let revealed = leaves.get(start..end).unwrap_or(&[]);
            start = end;
            match &row.reveal {
                Reveal::Partial { proof, .. } => (revealed, proof.fill.as_slice()),
                _ => (revealed, no_fill),
            }
        })
        .collect();
    rows.iter()
        .zip(subset_roots(n_blocks(dim), &subsets, batch))
        .map(|(row, rebuilt)| match (&row.reveal, rebuilt) {
            (Reveal::FullCompressed { .. }, Some(root)) => Ok(root),
            (Reveal::Partial { dim_root, .. }, Some(root)) if root == *dim_root => Ok(root),
            _ => Err(VerifyError::BadSubsetProof {
                cluster: row.cluster,
            }),
        })
        .collect()
}

/// Checks everything about one table row that needs no hashing.
fn check_row(row: &VoCluster, dim: usize, mode: CandidateMode) -> Result<(), VerifyError> {
    match (&row.reveal, mode) {
        (Reveal::Full { coords }, CandidateMode::Full)
        | (Reveal::FullCompressed { coords }, CandidateMode::Compressed) => {
            if coords.len() != dim {
                return Err(VerifyError::Malformed("centroid dimensionality"));
            }
            Ok(())
        }
        (Reveal::Partial { blocks, proof, .. }, CandidateMode::Compressed) => {
            if blocks.is_empty() {
                return Err(VerifyError::Malformed("empty partial disclosure"));
            }
            if !blocks
                .iter()
                .zip(blocks.iter().skip(1))
                .all(|(a, b)| a.0 < b.0)
            {
                return Err(VerifyError::Malformed("unsorted partial blocks"));
            }
            let total = n_blocks(dim);
            if proof.n_leaves as usize != total {
                return Err(VerifyError::BadSubsetProof {
                    cluster: row.cluster,
                });
            }
            for (b, coords) in blocks {
                let range = block_range(*b as usize, dim);
                if *b as usize >= total || coords.len() != range.len() {
                    return Err(VerifyError::Malformed("partial block geometry"));
                }
            }
            Ok(())
        }
        _ => Err(VerifyError::WrongMode),
    }
}

/// The VO tree once its nodes passed phase 1's structural checks, adapting the
/// arena to [`TreeSource`] and to the level-order hasher.
struct Resolved<'a> {
    tree: &'a VoTree,
    /// The table position of every leaf id, parallel to the tree's
    /// [`VoTree::leaf_ids`], so a leaf's range reads either.
    rows: Vec<u32>,
}

impl<'a> Resolved<'a> {
    /// One pass over `tree`'s nodes in index order — which is the order of
    /// a depth-first walk, so errors surface as one would meet them —
    /// resolving leaf cluster ids to table positions and marking those
    /// rows named.
    fn check(tree: &'a VoTree, table: &mut Table) -> Result<Resolved<'a>, VerifyError> {
        let mut rows = Vec::with_capacity(tree.leaf_ids().len());
        for node in tree.nodes() {
            match node {
                VoNode::Pruned(_) => {}
                VoNode::Internal { dim, .. } => {
                    if *dim as usize >= table.dim {
                        return Err(VerifyError::Malformed("split dimension out of range"));
                    }
                }
                VoNode::Leaf(range) => {
                    let clusters = tree.ids(range);
                    if clusters.is_empty() {
                        return Err(VerifyError::Malformed("empty leaf"));
                    }
                    for cluster in clusters {
                        let row = table.ids.binary_search(cluster).ok();
                        let Some((row, named)) =
                            row.and_then(|r| Some((r, table.named.get_mut(r)?)))
                        else {
                            return Err(VerifyError::Malformed("leaf names a cluster with no row"));
                        };
                        *named = true;
                        // Row ids are u32s in strictly ascending order, so
                        // a row's position fits a u32 too.
                        rows.push(row as u32);
                    }
                }
            }
        }
        Ok(Resolved { tree, rows })
    }

    fn leaf_rows(&self, range: &std::ops::Range<usize>) -> &[u32] {
        self.rows.get(range.clone()).unwrap_or(&[])
    }
}

impl TreeSource for Resolved<'_> {
    fn root(&self) -> usize {
        0
    }
    fn view(&self, node: usize) -> Shape<'_> {
        // Out-of-range indices read as undisclosed, which the client
        // traversal rejects via `PrunedSubtreeReachable` if any query
        // reaches them.
        match self.tree.nodes().get(node) {
            None => Shape::Known(Digest::ZERO),
            Some(VoNode::Pruned(d)) => Shape::Known(*d),
            Some(VoNode::Leaf(range)) => Shape::Leaf(self.leaf_rows(range)),
            Some(VoNode::Internal { dim, value, right }) => Shape::Internal {
                dim: *dim,
                value: *value,
                left: node + 1,
                right: *right,
            },
        }
    }
}

struct ClientVisitor<'a> {
    vo: &'a Resolved<'a>,
    /// Per table row: `Some(queries reaching it so far)` for partial rows.
    reached: &'a mut [Option<Vec<u32>>],
}

impl TraversalVisitor for ClientVisitor<'_> {
    type Err = VerifyError;

    fn opaque(&mut self, _node: usize, _active: &[ActiveQuery]) -> Result<(), VerifyError> {
        Err(VerifyError::PrunedSubtreeReachable)
    }

    fn leaf(&mut self, node: usize, active: &[ActiveQuery]) -> Result<(), VerifyError> {
        let Some(VoNode::Leaf(range)) = self.vo.tree.nodes().get(node) else {
            return Err(VerifyError::Malformed(
                "traversal visited a non-leaf as a leaf",
            ));
        };
        for &row in self.vo.leaf_rows(range) {
            if let Some(Some(reached_by)) = self.reached.get_mut(row as usize) {
                reached_by.extend(active.iter().map(|aq| aq.query));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{mrkd_search, mrkd_search_baseline};
    use crate::tree::MrkdTree;
    use imageproof_akm::kernel::dist_sq;
    use imageproof_akm::rkd::RkdTree;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 64;

    struct Fixture {
        centers: Vec<Vec<f32>>,
        mrkd: MrkdTree,
        queries: Vec<Vec<f32>>,
        thresholds: Vec<f32>,
    }

    fn fixture(mode: CandidateMode, n_queries: usize) -> Fixture {
        fixture_with_noise(mode, n_queries, 0.02)
    }

    /// Queries are centroids perturbed by up to `noise` per dimension:
    /// small noise mimics real local features; large noise pushes the
    /// thresholds up to where one dimension block no longer clears them.
    fn fixture_with_noise(mode: CandidateMode, n_queries: usize, noise: f32) -> Fixture {
        fixture_from(71, 60, mode, n_queries, noise)
    }

    fn fixture_from(
        seed: u64,
        n_centers: u32,
        mode: CandidateMode,
        n_queries: usize,
        noise: f32,
    ) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..n_centers)
            .map(|_| (0..DIM).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let inv: Vec<Digest> = (0..n_centers)
            .map(|c| Digest::of(format!("inv-{c}").as_bytes()))
            .collect();
        let rkd = RkdTree::build(&centers, 2, &mut StdRng::seed_from_u64(seed + 1));
        let mrkd = MrkdTree::build(&rkd, &centers, &inv, mode);
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|_| {
                let base = &centers[rng.gen_range(0..centers.len())];
                base.iter()
                    .map(|&v| v + rng.gen_range(-noise..noise))
                    .collect()
            })
            .collect();
        let thresholds: Vec<f32> = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        Fixture {
            centers,
            mrkd,
            queries,
            thresholds,
        }
    }

    impl Fixture {
        fn honest_vo(&self) -> BovwVo {
            mrkd_search(&self.mrkd, &self.queries, &self.thresholds).vo
        }

        fn verify(&self, vo: &BovwVo) -> Result<VerifiedBovw, VerifyError> {
            verify_bovw(vo, &self.queries, self.mrkd.mode())
        }

        /// True when the client would accept `vo` end to end: it verifies
        /// *and* reconstructs the root the owner signed.
        fn accepts(&self, vo: &BovwVo) -> bool {
            self.verify(vo)
                .is_ok_and(|v| v.combined_root == self.mrkd.combined_root_digest())
        }

        /// A partial reveal of `cluster` over `blocks`, with a real proof.
        fn partial(&self, cluster: u32, blocks: &[usize]) -> Reveal {
            let center = &self.centers[cluster as usize];
            let dim_tree = self.mrkd.dim_tree(cluster).expect("compressed");
            Reveal::Partial {
                dim_root: dim_tree.root(),
                blocks: blocks
                    .iter()
                    .map(|&b| (b as u32, center[block_range(b, DIM)].to_vec()))
                    .collect(),
                proof: dim_tree.prove_subset(blocks),
            }
        }
    }

    /// The block indices a partial row discloses.
    fn partial_blocks(row: &VoCluster) -> Option<Vec<usize>> {
        match &row.reveal {
            Reveal::Partial { blocks, .. } => Some(blocks.iter().map(|b| b.0 as usize).collect()),
            _ => None,
        }
    }

    fn brute_nn(centers: &[Vec<f32>], q: &[f32]) -> u32 {
        (0..centers.len() as u32)
            .min_by(|&a, &b| {
                dist_sq(q, &centers[a as usize]).total_cmp(&dist_sq(q, &centers[b as usize]))
            })
            .expect("non-empty")
    }

    fn row_mut(vo: &mut BovwVo, cluster: u32) -> &mut VoCluster {
        vo.clusters
            .iter_mut()
            .find(|row| row.cluster == cluster)
            .expect("cluster has a table row")
    }

    /// Index of `tree`'s `nth` node, in node order, for which `pred` holds.
    fn nth_node(tree: &VoTree, nth: usize, pred: fn(&VoNode) -> bool) -> Option<usize> {
        let mut matching = (0..tree.nodes().len()).filter(|&i| pred(&tree.nodes()[i]));
        matching.nth(nth)
    }

    fn is_leaf(node: &VoNode) -> bool {
        matches!(node, VoNode::Leaf(_))
    }

    /// Re-emits `tree` with the leaf at node `at` naming what `edit` makes
    /// of its ids.
    fn edit_leaf(tree: &mut VoTree, at: usize, edit: impl FnOnce(&mut Vec<u32>)) {
        let VoNode::Leaf(range) = &tree.nodes()[at] else {
            panic!("node {at} is not a leaf");
        };
        let mut ids = tree.ids(range).to_vec();
        edit(&mut ids);
        *tree = tree.splice(at..at + 1, |b| {
            b.leaf(ids);
        });
    }

    #[test]
    fn honest_vos_verify_in_both_modes() {
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let f = fixture(mode, 10);
            let v = f.verify(&f.honest_vo()).expect("honest VO");
            assert_eq!(v.combined_root, f.mrkd.combined_root_digest());
            for (qi, q) in f.queries.iter().enumerate() {
                assert_eq!(v.assignments[qi], brute_nn(&f.centers, q), "query {qi}");
            }
        }
    }

    #[test]
    fn honest_baseline_vo_verifies() {
        let f = fixture(CandidateMode::Full, 6);
        let (vo, _) = mrkd_search_baseline(&f.mrkd, &f.queries, &f.thresholds);
        let v = verify_bovw_baseline(&vo, &f.queries).expect("honest baseline VO");
        assert_eq!(v.combined_root, f.mrkd.combined_root_digest());
        for (qi, q) in f.queries.iter().enumerate() {
            assert_eq!(v.assignments[qi], brute_nn(&f.centers, q));
        }
    }

    #[test]
    fn verified_inv_digests_match_the_tree() {
        let f = fixture(CandidateMode::Full, 8);
        let v = f.verify(&f.honest_vo()).expect("honest VO");
        for (&cluster, d) in &v.inv_digests {
            assert_eq!(*d, f.mrkd.inv_digest(cluster));
        }
        for a in &v.assignments {
            assert!(v.inv_digests.contains_key(a), "winner digest available");
        }
    }

    #[test]
    fn the_table_reveals_each_disclosed_cluster_exactly_once() {
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let f = fixture(mode, 10);
            // The disclosed leaves partition what they cover, so no cluster
            // is named twice and the ascending table has exactly one row
            // per named cluster.
            let vo = f.honest_vo();
            let rows: Vec<u32> = vo.clusters.iter().map(|r| r.cluster).collect();
            let mut named = vo.tree.leaf_ids().to_vec();
            named.sort_unstable();
            assert_eq!(rows, named, "{mode:?}");
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "{mode:?}");
        }
    }

    #[test]
    fn tampered_centroid_changes_reconstructed_root() {
        let f = fixture(CandidateMode::Full, 5);
        let mut forged = f.honest_vo();
        let winner = f.verify(&forged).expect("honest").assignments[0];
        let Reveal::Full { coords } = &mut row_mut(&mut forged, winner).reveal else {
            panic!("full mode reveals in full");
        };
        coords[3] += 0.25;
        // Either verification fails outright or the root no longer matches
        // the owner's signature target.
        assert!(!f.accepts(&forged));
    }

    #[test]
    fn forged_inv_digest_changes_root() {
        let f = fixture(CandidateMode::Full, 4);
        let mut forged = f.honest_vo();
        let winner = f.verify(&forged).expect("honest").assignments[0];
        row_mut(&mut forged, winner).inv_digest = Digest::of(b"forged inverted list");
        assert!(!f.accepts(&forged));
    }

    #[test]
    fn an_unnamed_row_carrying_a_closer_centroid_is_rejected() {
        // The attack the table makes possible: plant a row no leaf vouches
        // for, sitting exactly on a query, so it would win phase 2.
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let f = fixture(mode, 4);
            let honest = f.honest_vo();
            let absent = (0..60u32)
                .find(|c| honest.clusters.iter().all(|r| r.cluster != *c))
                .expect("some cluster stays undisclosed");
            let coords = f.queries[0].clone();
            let mut forged = honest.clone();
            let at = forged.clusters.partition_point(|r| r.cluster < absent);
            forged.clusters.insert(
                at,
                VoCluster {
                    cluster: absent,
                    inv_digest: f.mrkd.inv_digest(absent),
                    reveal: match mode {
                        CandidateMode::Full => Reveal::Full { coords },
                        CandidateMode::Compressed => Reveal::FullCompressed { coords },
                    },
                },
            );
            assert_eq!(
                f.verify(&forged).unwrap_err(),
                VerifyError::Malformed("table row named by no leaf"),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn a_leaf_naming_a_cluster_without_a_row_is_rejected() {
        let f = fixture(CandidateMode::Full, 4);
        let honest = f.honest_vo();
        // Dropping a row leaves every leaf that names it dangling.
        let mut forged = honest.clone();
        forged.clusters.remove(1);
        assert_eq!(
            f.verify(&forged).unwrap_err(),
            VerifyError::Malformed("leaf names a cluster with no row")
        );
        // So does renaming a leaf's cluster to an id outside the table.
        let mut forged = honest.clone();
        let first = nth_node(&forged.tree, 0, is_leaf).expect("a leaf");
        edit_leaf(&mut forged.tree, first, |ids| ids[0] = 10_000);
        assert_eq!(
            f.verify(&forged).unwrap_err(),
            VerifyError::Malformed("leaf names a cluster with no row")
        );
    }

    #[test]
    fn duplicate_and_descending_rows_are_rejected() {
        let f = fixture(CandidateMode::Full, 4);
        let honest = f.honest_vo();
        let not_ascending = VerifyError::Malformed("cluster table not ascending");

        let mut duplicated = honest.clone();
        let copy = duplicated.clusters[2].clone();
        duplicated.clusters.insert(2, copy);
        assert_eq!(f.verify(&duplicated).unwrap_err(), not_ascending);

        let mut swapped = honest.clone();
        swapped.clusters.swap(0, 1);
        assert_eq!(f.verify(&swapped).unwrap_err(), not_ascending);

        let mut reversed = honest.clone();
        reversed.clusters.reverse();
        assert_eq!(f.verify(&reversed).unwrap_err(), not_ascending);
    }

    #[test]
    fn moving_a_cluster_between_two_leaves_is_rejected() {
        let f = fixture(CandidateMode::Full, 6);
        let honest = f.honest_vo();
        assert!(f.accepts(&honest));
        let leaf = |vo: &BovwVo, nth| nth_node(&vo.tree, nth, is_leaf).expect("a leaf");
        // Moved: the row stays authentic and named once, but neither leaf
        // hashes to what the root commits. Copied: the row is named twice,
        // which no partition does, and the second leaf hashes wrong.
        for keep_in_first in [false, true] {
            let mut forged = honest.clone();
            let mut moved = None;
            let at = leaf(&forged, 0);
            edit_leaf(&mut forged.tree, at, |ids| {
                moved = ids.last().copied();
                if !keep_in_first {
                    ids.pop();
                }
            });
            let at = leaf(&forged, 1);
            edit_leaf(&mut forged.tree, at, |ids| {
                ids.push(moved.expect("non-empty leaf"))
            });
            assert!(!f.accepts(&forged), "copied: {keep_in_first}");
        }
    }

    #[test]
    fn hiding_the_winner_behind_a_pruned_stub_is_detected() {
        let f = fixture(CandidateMode::Full, 2);
        let honest = f.honest_vo();
        let verified = f.verify(&honest).expect("honest");
        let victim = verified.assignments[0];
        assert_ne!(
            victim, verified.assignments[1],
            "fixture needs distinct winners"
        );

        // Replace the leaf containing the victim cluster with a pruned
        // stub carrying the *correct* digest (the strongest forgery the SP
        // can attempt without breaking the hash function), and drop the
        // rows only that leaf named.
        let mut forged = honest.clone();
        let mut walk = reference::Walk::new(&honest, DIM, CandidateMode::Full).expect("table");
        let tree = &mut forged.tree;
        for at in 0..tree.nodes().len() {
            let VoNode::Leaf(range) = &tree.nodes()[at] else {
                continue;
            };
            if tree.ids(range).contains(&victim) {
                let digest = walk.node(tree, at).expect("digest");
                *tree = tree.splice(at..at + 1, |b| {
                    b.pruned(digest);
                });
            }
        }
        let named = forged.tree.leaf_ids().to_vec();
        forged.clusters.retain(|row| named.contains(&row.cluster));
        assert!(forged.clusters.iter().all(|row| row.cluster != victim));

        match f.verify(&forged) {
            Err(VerifyError::PrunedSubtreeReachable) | Err(VerifyError::NoCandidate) => {}
            other => panic!("forgery accepted or wrong error: {other:?}"),
        }
    }

    #[test]
    fn downgrading_the_winner_to_a_partial_reveal_is_detected() {
        let f = fixture(CandidateMode::Compressed, 2);
        let honest = f.honest_vo();
        let verified = f.verify(&honest).expect("honest");
        let victim = verified.assignments[0];
        assert_ne!(
            victim, verified.assignments[1],
            "fixture needs distinct winners"
        );

        // Forge: disclose the victim only partially (all blocks — the most
        // honest-looking partial reveal possible).
        let all: Vec<usize> = (0..n_blocks(DIM)).collect();
        let mut forged = honest.clone();
        row_mut(&mut forged, victim).reveal = f.partial(victim, &all);

        // Hiding the winner inflates the verified threshold t', which is
        // then caught either directly (the partial disclosure is too close)
        // or indirectly (a pruned subtree becomes reachable under the
        // inflated t').
        match f.verify(&forged) {
            Err(VerifyError::PartialTooClose { .. })
            | Err(VerifyError::NoCandidate)
            | Err(VerifyError::PrunedSubtreeReachable) => {}
            other => panic!("forgery accepted or wrong error: {other:?}"),
        }
    }

    #[test]
    fn shrinking_a_partial_reveal_below_its_queries_is_detected() {
        let f = fixture_with_noise(CandidateMode::Compressed, 6, 0.5);
        let honest = f.honest_vo();
        assert!(f.accepts(&honest));
        // Re-prove every multi-block partial row over a single block, with
        // a valid subset proof: the digest chain stays intact, so only the
        // per-query distance check can notice. The greedy selection only
        // grows past one block when no single block clears some query, so
        // shrunken rows fall short (a row may survive when a later query's
        // block happens to clear the earlier ones too).
        let mut caught = 0;
        for (i, row) in honest.clusters.iter().enumerate() {
            let Reveal::Partial { blocks, .. } = &row.reveal else {
                continue;
            };
            if blocks.len() < 2 {
                continue;
            }
            let first = blocks[0].0 as usize;
            let mut forged = honest.clone();
            forged.clusters[i].reveal = f.partial(row.cluster, &[first]);
            match f.verify(&forged) {
                Err(VerifyError::PartialTooClose { cluster, .. }) => {
                    assert_eq!(cluster, row.cluster);
                    caught += 1;
                }
                Ok(v) => assert_eq!(v.combined_root, f.mrkd.combined_root_digest()),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(caught > 0, "fixture should produce a multi-block partial");
    }

    #[test]
    fn a_partial_row_clears_every_query_that_reaches_it() {
        // The SP's rule: a Partial row's blocks clear the threshold of
        // every query reaching its leaf — which is what phase 3 checks, so
        // an honest VO verifying under many queries is the proof.
        let f = fixture(CandidateMode::Compressed, 24);
        let vo = f.honest_vo();
        assert!(vo.clusters.iter().any(|r| partial_blocks(r).is_some()));
        assert!(f.accepts(&vo));

        // Every query, not some: three centroids on corners of a square in
        // dimensions 0 and 16 (blocks 0 and 1), all in one leaf. Cluster 2
        // wins neither query and is far from each in a different block.
        let corner = |x: f32, y: f32| {
            let mut v = vec![0.0f32; DIM];
            (v[0], v[16]) = (x, y);
            v
        };
        let centers = vec![corner(10.0, 0.0), corner(0.0, 10.0), corner(10.0, 10.0)];
        let rkd = RkdTree::build(&centers, 3, &mut StdRng::seed_from_u64(1));
        let inv: Vec<Digest> = (0..3u8).map(|c| Digest::of(&[c])).collect();
        let f = Fixture {
            mrkd: MrkdTree::build(&rkd, &centers, &inv, CandidateMode::Compressed),
            centers,
            // Winners 0 and 1, both at squared distance 1.
            queries: vec![corner(10.0, 1.0), corner(1.0, 10.0)],
            thresholds: vec![1.0, 1.0],
        };
        let honest = f.honest_vo();
        assert!(f.accepts(&honest));
        assert_eq!(
            honest.clusters.get(2).and_then(partial_blocks),
            Some(vec![0, 1])
        );
        // Either block alone clears one query and leaves the other at
        // distance 0; every digest is intact, so only the per-(row, query)
        // check can notice.
        for (block, query) in [(1, 1), (0, 0)] {
            let mut forged = honest.clone();
            row_mut(&mut forged, 2).reveal = f.partial(2, &[block]);
            assert_eq!(
                f.verify(&forged).unwrap_err(),
                VerifyError::PartialTooClose { cluster: 2, query }
            );
        }
    }

    #[test]
    fn a_tree_that_is_only_its_root_stub_is_rejected() {
        // The strongest such forgery: the stub is the genuine root, so the
        // reconstructed root is the signed one.
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let f = fixture(mode, 4);
            let mut forged = f.honest_vo();
            forged.tree = forged.tree.splice(0..forged.tree.nodes().len(), |b| {
                b.pruned(f.mrkd.combined_root_digest());
            });
            // With the table kept, nothing vouches for its rows...
            assert_eq!(
                f.verify(&forged).unwrap_err(),
                VerifyError::Malformed("table row named by no leaf"),
                "{mode:?}"
            );
            // ...and without it every query reaches the stub at bound 0.
            forged.clusters.clear();
            assert_eq!(
                f.verify(&forged).unwrap_err(),
                VerifyError::PrunedSubtreeReachable,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn a_vo_over_another_tree_of_the_same_codebook_breaks_the_signed_root() {
        // Same centroids, same list digests, a tree grown from another
        // seed: its honest VO is internally consistent and proves the same
        // assignment, under a root the owner never signed.
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let f = fixture(mode, 4);
            let inv: Vec<Digest> = (0..f.centers.len() as u32)
                .map(|c| f.mrkd.inv_digest(c))
                .collect();
            let reseeded = RkdTree::build(&f.centers, 2, &mut StdRng::seed_from_u64(9_999));
            let other = MrkdTree::build(&reseeded, &f.centers, &inv, mode);
            let vo = mrkd_search(&other, &f.queries, &f.thresholds).vo;
            let v = f.verify(&vo).expect("structurally fine");
            let honest = f.verify(&f.honest_vo()).expect("honest");
            assert_eq!(v.assignments, honest.assignments, "{mode:?}");
            assert_eq!(v.combined_root, other.combined_root_digest(), "{mode:?}");
            assert_ne!(v.combined_root, f.mrkd.combined_root_digest(), "{mode:?}");
        }
    }

    #[test]
    fn forged_partial_block_values_fail_the_subset_proof() {
        let f = fixture(CandidateMode::Compressed, 4);
        let mut forged = f.honest_vo();
        let blocks = forged
            .clusters
            .iter_mut()
            .find_map(|row| match &mut row.reveal {
                Reveal::Partial { blocks, .. } => Some(blocks),
                _ => None,
            })
            .expect("fixture should produce at least one partial reveal");
        blocks[0].1[0] += 1.0;
        assert!(matches!(
            f.verify(&forged),
            Err(VerifyError::BadSubsetProof { .. })
        ));
    }

    #[test]
    fn wrong_mode_is_rejected() {
        let f = fixture(CandidateMode::Full, 3);
        assert!(matches!(
            verify_bovw(&f.honest_vo(), &f.queries, CandidateMode::Compressed),
            Err(VerifyError::WrongMode)
        ));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let f = fixture(CandidateMode::Full, 3);
        let honest = f.honest_vo();
        assert!(matches!(
            verify_bovw(&honest, &[], CandidateMode::Full),
            Err(VerifyError::Malformed(_))
        ));
        let no_table = BovwVo {
            clusters: vec![],
            tree: honest.tree.clone(),
        };
        assert!(matches!(
            f.verify(&no_table),
            Err(VerifyError::Malformed(_))
        ));
    }

    #[test]
    fn baseline_rejects_query_count_mismatch() {
        let f = fixture(CandidateMode::Full, 3);
        let (vo, _) = mrkd_search_baseline(&f.mrkd, &f.queries, &f.thresholds);
        assert!(matches!(
            verify_bovw_baseline(&vo, &f.queries[..2]),
            Err(VerifyError::Malformed(_))
        ));
    }

    /// Phase 1 as this crate shipped it before hashing was batched: every
    /// row, then every node, hashed on its own, in one recursive walk that
    /// checks structure as it goes. Kept as the reference
    /// [`verify_bovw`] must agree with: same roots, same `Result`, same
    /// first error.
    mod reference {
        use super::super::*;
        use crate::tree::{dimension_tree, internal_digest, leaf_digest};

        /// One row's entry digest, validated and hashed in place.
        fn entry_digest(
            row: &VoCluster,
            dim: usize,
            mode: CandidateMode,
        ) -> Result<Digest, VerifyError> {
            check_row(row, dim, mode)?;
            let b = Digest::builder();
            Ok(match &row.reveal {
                Reveal::Full { coords } => {
                    leaf_entry_digest_full(b, row.cluster, coords, &row.inv_digest)
                }
                Reveal::FullCompressed { coords } => {
                    let root = dimension_tree(coords).root();
                    leaf_entry_digest_compressed(b, row.cluster, &root, &row.inv_digest)
                }
                Reveal::Partial {
                    dim_root,
                    blocks,
                    proof,
                } => {
                    let revealed: Vec<(usize, Digest)> = blocks
                        .iter()
                        .map(|(b, coords)| {
                            let mut bytes = Vec::new();
                            block_bytes(coords, &mut bytes);
                            (*b as usize, hash_leaf(Digest::builder(), &bytes))
                        })
                        .collect();
                    if !proof.verify_digests(&revealed, dim_root) {
                        let cluster = row.cluster;
                        return Err(VerifyError::BadSubsetProof { cluster });
                    }
                    leaf_entry_digest_compressed(b, row.cluster, dim_root, &row.inv_digest)
                }
            })
        }

        /// The table's entry digests and which rows the walk has named.
        pub struct Walk {
            table: Table,
            entries: Vec<Digest>,
        }

        impl Walk {
            pub fn new(vo: &BovwVo, dim: usize, mode: CandidateMode) -> Result<Walk, VerifyError> {
                let table = Table::check(&vo.clusters, dim)?;
                let entries = vo
                    .clusters
                    .iter()
                    .map(|row| entry_digest(row, dim, mode))
                    .collect::<Result<_, _>>()?;
                Ok(Walk { table, entries })
            }

            /// The digest of `tree`'s node `at`, children first, one hash
            /// per node.
            pub fn node(&mut self, tree: &VoTree, at: usize) -> Result<Digest, VerifyError> {
                match &tree.nodes()[at] {
                    VoNode::Pruned(d) => Ok(*d),
                    VoNode::Internal { dim, value, right } => {
                        if *dim as usize >= self.table.dim {
                            return Err(VerifyError::Malformed("split dimension out of range"));
                        }
                        let l = self.node(tree, at + 1)?;
                        let r = self.node(tree, *right)?;
                        Ok(internal_digest(Digest::builder(), *dim, *value, &l, &r))
                    }
                    VoNode::Leaf(range) => {
                        let clusters = tree.ids(range);
                        if clusters.is_empty() {
                            return Err(VerifyError::Malformed("empty leaf"));
                        }
                        let mut entries = Vec::with_capacity(clusters.len());
                        for cluster in clusters {
                            let Ok(row) = self.table.ids.binary_search(cluster) else {
                                return Err(VerifyError::Malformed(
                                    "leaf names a cluster with no row",
                                ));
                            };
                            self.table.named[row] = true;
                            entries.push(self.entries[row]);
                        }
                        Ok(leaf_digest(Digest::builder(), entries.iter()))
                    }
                }
            }
        }

        pub fn verify_bovw(
            vo: &BovwVo,
            queries: &[Vec<f32>],
            mode: CandidateMode,
        ) -> Result<VerifiedBovw, VerifyError> {
            let dim = check_inputs(queries)?;
            let mut walk = Walk::new(vo, dim, mode)?;
            let root = walk.node(&vo.tree, 0)?;
            if walk.table.named.contains(&false) {
                return Err(VerifyError::Malformed("table row named by no leaf"));
            }
            // Phases 2 and 3 are shared; the resolved tree holds no digest
            // the walk above did not compute itself.
            let tree = Resolved::check(&vo.tree, &mut walk.table)?;
            complete(vo, queries, root, &tree)
        }
    }

    /// The phase-2 scan this crate shipped before the early-exit kernel:
    /// a full `dist_sq` against every reveal.
    fn nearest_revealed_full_scan(q: &[f32], reveals: &[(u32, &[f32])]) -> (f32, u32) {
        let mut best = (f32::INFINITY, u32::MAX);
        for &(cluster, coords) in reveals {
            let d = dist_sq(q, coords);
            if d < best.0 || (d == best.0 && cluster < best.1) {
                best = (d, cluster);
            }
        }
        best
    }

    /// A coordinate for the threshold-scan tables: mostly small and
    /// finite, now and then −0.0, ±∞ or NaN.
    fn scan_coord(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0u32..512) {
            0 => -0.0,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => f32::NAN,
            _ => rng.gen_range(-1.0f32..1.0),
        }
    }

    /// A random VO tree over `ids`: splits on random dimensions and
    /// values, leaves of up to four ids, and stubs standing in for some
    /// subtrees, so descents end at leaves and at stubs alike.
    fn random_tree(b: &mut crate::vo::VoTreeBuilder, ids: &[u32], dim: usize, rng: &mut StdRng) {
        if ids.is_empty() || rng.gen_range(0u32..8) == 0 {
            b.pruned(Digest::of(b"stub"));
        } else if ids.len() <= 4 && rng.gen::<bool>() || ids.len() == 1 {
            b.leaf(ids.iter().copied());
        } else {
            let mid = rng.gen_range(1..ids.len());
            b.internal(rng.gen_range(0..dim) as u32, scan_coord(rng));
            random_tree(b, &ids[..mid], dim, rng);
            random_tree(b, &ids[mid..], dim, rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The seeded lane scan returns, query by query, the very winner
        /// and threshold bits of a full `dist_sq` scan over every full row:
        /// across group sizes around the lane width, widths with and
        /// without a lane tail, duplicated centroids under other ids
        /// (exact ties), −0.0, ±∞ and NaN in rows and queries, descents
        /// ending at stubs and at leaves with no full row, and tables
        /// with no full row at all.
        #[test]
        fn threshold_scan_matches_the_full_scan(
            seed in any::<u64>(),
            n_queries in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(100)],
            dim in prop_oneof![Just(12usize), Just(24), Just(64), Just(128)],
            n_rows in 1usize..40,
            no_full_row in 0u8..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut centroids: Vec<Vec<f32>> = Vec::new();
            let rows: Vec<VoCluster> = (0..n_rows as u32)
                .map(|i| {
                    let reveal = if no_full_row == 0 || rng.gen_range(0u32..3) == 0 {
                        Reveal::Partial {
                            dim_root: Digest::ZERO,
                            blocks: vec![(0, vec![0.0; dim.min(crate::tree::BLOCK_DIMS)])],
                            proof: imageproof_crypto::merkle::SubsetProof {
                                n_leaves: 0,
                                fill: vec![],
                            },
                        }
                    } else {
                        let coords = match centroids.len() {
                            n if n > 0 && rng.gen_range(0u32..4) == 0 => {
                                centroids[rng.gen_range(0..n)].clone()
                            }
                            _ => (0..dim).map(|_| scan_coord(&mut rng)).collect(),
                        };
                        centroids.push(coords.clone());
                        Reveal::Full { coords }
                    };
                    VoCluster {
                        cluster: 3 * i + 1,
                        inv_digest: Digest::ZERO,
                        reveal,
                    }
                })
                .collect();
            // Queries on or next to a centroid, so ties and near misses
            // occur, or anywhere.
            let queries: Vec<Vec<f32>> = (0..n_queries)
                .map(|_| match centroids.len() {
                    n if n > 0 && rng.gen::<bool>() => {
                        let noise = [0.0f32, 1e-3, 0.1][rng.gen_range(0..3usize)];
                        centroids[rng.gen_range(0..n)]
                            .iter()
                            .map(|&x| x + rng.gen_range(-1.0f32..1.0) * noise)
                            .collect()
                    }
                    _ => (0..dim).map(|_| scan_coord(&mut rng)).collect(),
                })
                .collect();
            let ids: Vec<u32> = rows.iter().map(|row| row.cluster).collect();
            let mut b = crate::vo::VoTreeBuilder::default();
            random_tree(&mut b, &ids, dim, &mut rng);
            let vo_tree = b.finish();
            let mut table = Table::check(&rows, dim).expect("ascending ids");
            let tree = Resolved::check(&vo_tree, &mut table).expect("leaves name rows");

            let reveals: Vec<(u32, &[f32])> = rows
                .iter()
                .filter_map(|row| match &row.reveal {
                    Reveal::Full { coords } => Some((row.cluster, coords.as_slice())),
                    _ => None,
                })
                .collect();
            let fast = nearest_revealed(&tree, &rows, &queries, &reveals);
            prop_assert_eq!(fast.len(), queries.len());
            for (qi, (q, got)) in queries.iter().zip(&fast).enumerate() {
                let want = nearest_revealed_full_scan(q, &reveals);
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "query {}", qi);
                prop_assert_eq!(got.1, want.1, "query {}", qi);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Batched, level-order reconstruction is indistinguishable from
        /// the node-at-a-time reference: over random honest VOs, and over
        /// one or two single-field forgeries of them (two, so an early
        /// bad proof and a later malformed row compete for first error),
        /// both return the same root, winners and thresholds or the very
        /// same error.
        #[test]
        fn verification_matches_the_node_at_a_time_reference(
            seed in any::<u64>(),
            n_centers in 4u32..48,
            n_queries in 1usize..6,
            noise in 0.01f32..0.6,
            compressed in any::<bool>(),
            forgeries in proptest::collection::vec(
                (0usize..forge::KINDS, any::<prop::sample::Index>()), 0..3),
            other_mode in 0u8..8,
        ) {
            let mode = if compressed { CandidateMode::Compressed } else { CandidateMode::Full };
            let f = fixture_from(seed % (1 << 32), n_centers, mode, n_queries, noise);
            let mut vo = f.honest_vo();
            if forgeries.is_empty() {
                prop_assert!(f.accepts(&vo));
            }
            for (kind, pick) in &forgeries {
                forge::apply(&f, &mut vo, *kind, pick);
            }
            let mode = match (other_mode, mode) {
                (0, CandidateMode::Full) => CandidateMode::Compressed,
                (0, CandidateMode::Compressed) => CandidateMode::Full,
                _ => mode,
            };
            let outcome = |r: Result<VerifiedBovw, VerifyError>| {
                r.map(|v| {
                    let bits: Vec<u32> = v.thresholds_sq.iter().map(|t| t.to_bits()).collect();
                    (v.combined_root, v.assignments, bits, v.inv_digests)
                })
            };
            prop_assert_eq!(
                outcome(verify_bovw(&vo, &f.queries, mode)),
                outcome(reference::verify_bovw(&vo, &f.queries, mode)),
                "forgeries {:?}", forgeries
            );
        }
    }

    /// Single-field forgeries of a VO, selected by number so a proptest
    /// can draw them; each is a no-op when the VO has nothing of the kind
    /// it edits (a partial row in full mode, say).
    mod forge {
        use super::*;
        use proptest::prelude::prop::sample::Index;

        pub const KINDS: usize = 23;

        /// The `nth` node (modulo how many there are) of `vo`'s tree for
        /// which `pred` holds, in depth-first order.
        fn pick_node(vo: &BovwVo, nth: usize, pred: fn(&VoNode) -> bool) -> Option<usize> {
            let total = vo.tree.nodes().iter().filter(|n| pred(n)).count();
            nth_node(&vo.tree, nth % total.max(1), pred)
        }

        fn edit_picked_leaf(vo: &mut BovwVo, nth: usize, edit: impl FnOnce(&mut Vec<u32>)) {
            if let Some(at) = pick_node(vo, nth, is_leaf) {
                edit_leaf(&mut vo.tree, at, edit);
            }
        }

        fn is_internal(node: &VoNode) -> bool {
            matches!(node, VoNode::Internal { .. })
        }

        /// The `nth` table row (modulo how many) for which `pred` holds.
        fn row_mut(
            vo: &mut BovwVo,
            nth: usize,
            pred: fn(&VoCluster) -> bool,
        ) -> Option<&mut VoCluster> {
            let total = vo.clusters.iter().filter(|r| pred(r)).count();
            if total == 0 {
                return None;
            }
            vo.clusters.iter_mut().filter(|r| pred(r)).nth(nth % total)
        }

        fn is_partial(row: &VoCluster) -> bool {
            matches!(row.reveal, Reveal::Partial { .. })
        }

        fn is_full(row: &VoCluster) -> bool {
            !is_partial(row)
        }

        pub fn apply(f: &Fixture, vo: &mut BovwVo, kind: usize, pick: &Index) {
            if vo.clusters.is_empty() {
                return;
            }
            let at = pick.index(vo.clusters.len());
            let pick = pick.index(usize::MAX);
            match kind {
                // The table: row contents, then row order and presence.
                0 => {
                    if let Some(VoCluster {
                        reveal: Reveal::Full { coords } | Reveal::FullCompressed { coords },
                        ..
                    }) = row_mut(vo, pick, is_full)
                    {
                        let d = pick % coords.len().max(1);
                        if let Some(c) = coords.get_mut(d) {
                            *c += 0.25;
                        }
                    }
                }
                1 => vo.clusters[at].inv_digest = Digest::of(b"forged inverted list"),
                2 => {
                    vo.clusters.remove(at);
                }
                3 => {
                    let copy = vo.clusters[at].clone();
                    vo.clusters.insert(at, copy);
                }
                4 => {
                    if at + 1 < vo.clusters.len() {
                        vo.clusters.swap(at, at + 1);
                    }
                }
                5 => {
                    if let Some(VoCluster {
                        reveal: Reveal::Full { coords } | Reveal::FullCompressed { coords },
                        ..
                    }) = row_mut(vo, pick, is_full)
                    {
                        coords.pop();
                    }
                }
                6 => {
                    let row = &mut vo.clusters[at];
                    row.reveal =
                        match std::mem::replace(&mut row.reveal, Reveal::Full { coords: vec![] }) {
                            Reveal::Full { coords } => Reveal::FullCompressed { coords },
                            Reveal::FullCompressed { coords } => Reveal::Full { coords },
                            partial => partial,
                        };
                }
                7 => {
                    // A row no leaf vouches for, sitting on a query.
                    let absent = (0..f.centers.len() as u32)
                        .find(|c| vo.clusters.iter().all(|r| r.cluster != *c));
                    if let Some(absent) = absent {
                        let coords = f.queries[0].clone();
                        let at = vo.clusters.partition_point(|r| r.cluster < absent);
                        vo.clusters.insert(
                            at,
                            VoCluster {
                                cluster: absent,
                                inv_digest: f.mrkd.inv_digest(absent),
                                reveal: match f.mrkd.mode() {
                                    CandidateMode::Full => Reveal::Full { coords },
                                    CandidateMode::Compressed => Reveal::FullCompressed { coords },
                                },
                            },
                        );
                    }
                }
                8 => {
                    // Downgrade a full reveal to an honest-looking partial.
                    if f.mrkd.mode() == CandidateMode::Compressed {
                        if let Some(row) = row_mut(vo, pick, is_full) {
                            let all: Vec<usize> = (0..n_blocks(DIM)).collect();
                            row.reveal = f.partial(row.cluster, &all);
                        }
                    }
                }

                // The tree.
                9 => edit_picked_leaf(vo, pick, |ids| ids.push(10_000)),
                10 => edit_picked_leaf(vo, pick, |ids| ids.clear()),
                11 => {
                    let mut moved = None;
                    edit_picked_leaf(vo, pick, |ids| moved = ids.pop());
                    if let Some(moved) = moved {
                        edit_picked_leaf(vo, pick.wrapping_mul(31), |ids| ids.push(moved));
                    }
                }
                12 | 13 => {
                    if let Some(at) = pick_node(vo, pick, is_internal) {
                        let VoNode::Internal { dim, value, .. } = vo.tree.nodes()[at] else {
                            unreachable!("picked as internal");
                        };
                        vo.tree = vo.tree.splice(at..at + 1, |b| {
                            if kind == 12 {
                                b.internal(DIM as u32, value);
                            } else {
                                b.internal(dim, value + 0.125);
                            }
                        });
                    }
                }
                14 => {
                    if let Some(at) = pick_node(vo, pick, |_| true) {
                        vo.tree = vo.tree.splice(at..vo.tree.subtree_end(at), |b| {
                            b.pruned(Digest::of(b"forged stub"));
                        });
                    }
                }

                // Partial rows: the disclosure and its proof.
                _ => {
                    let Some(VoCluster {
                        reveal:
                            Reveal::Partial {
                                dim_root,
                                blocks,
                                proof,
                            },
                        ..
                    }) = row_mut(vo, pick, is_partial)
                    else {
                        return;
                    };
                    // An earlier forgery may have emptied the blocks.
                    match (kind, blocks.first_mut()) {
                        (15, Some((_, coords))) => coords[0] += 1.0,
                        (16, _) => {
                            proof.fill.pop();
                        }
                        (17, _) => proof.fill.push(Digest::of(b"extra")),
                        (18, _) => proof.n_leaves += 1,
                        (19, Some(first)) => {
                            let copy = first.clone();
                            blocks.push(copy);
                        }
                        (20, _) => blocks.clear(),
                        (21, Some((block, _))) => *block = 99,
                        (22, _) => *dim_root = Digest::of(b"another centroid"),
                        _ => {}
                    }
                }
            }
        }
    }
}
