//! The Merkle randomized k-d tree (MRKD-tree, paper §IV-A).
//!
//! The tree Merkle-ized, signed, shipped and verified is the codebook's one
//! randomized k-d tree — the tree whose exact search assigns features — so
//! the tree that assigns is the tree that proves (DESIGN.md §3.5: a tree's
//! leaves partition the whole codebook, so one proves every assignment).
//!
//! An MRKD-tree is a randomized k-d tree whose nodes carry digests:
//!
//! * internal nodes: `h_N = h(l_N | h_left | h_right)` (Def. 2), where the
//!   hyperplane `l_N` is the split dimension and value;
//! * leaf nodes: `h_N = h(c_1 | h_{Γ_{c_1}} | … | c_τ | h_{Γ_{c_τ}})`
//!   (Def. 3) — each cluster is bound together with the digest of its Merkle
//!   inverted list, which is what connects the two ADSs of ImageProof.
//!
//! A cluster is bound either by its full centroid coordinates (base scheme)
//! or by the root of a Merkle tree over its coordinates (the §VI-A
//! candidate-compression optimization) — see [`CandidateMode`].

use imageproof_akm::rkd::{Node, RkdTree};
use imageproof_crypto::{Digest, DigestBatch, DigestBuilder, FieldSink, MerkleTree};
use imageproof_parallel::{par_map_chunked, Concurrency};

/// How cluster centroids are committed inside leaf digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateMode {
    /// Leaf digests bind full centroid coordinates; the VO reveals them all.
    Full,
    /// Leaf digests bind a per-cluster dimension Merkle root; the VO reveals
    /// full coordinates only for nearest-neighbour candidates and partial
    /// coordinates (with subset proofs) otherwise (§VI-A).
    Compressed,
}

/// The message of one leaf-entry binding. Like every digest layout below
/// it takes the builder to write into — `Digest::builder()` for the digest
/// itself, `batch.message()` to queue it in a [`DigestBatch`] — so owner
/// (build, refresh) and client (reconstruction) share one layout whichever
/// way they hash.
pub fn leaf_entry_digest_full<S: FieldSink>(
    b: DigestBuilder<S>,
    cluster: u32,
    coords: &[f32],
    inv_digest: &Digest,
) -> S::Out {
    b.u32(cluster).f32_slice(coords).digest(inv_digest).finish()
}

/// Compressed-mode variant: binds the dimension-tree root instead of raw
/// coordinates.
pub fn leaf_entry_digest_compressed<S: FieldSink>(
    b: DigestBuilder<S>,
    cluster: u32,
    dim_root: &Digest,
    inv_digest: &Digest,
) -> S::Out {
    b.u32(cluster).digest(dim_root).digest(inv_digest).finish()
}

/// The message of a whole leaf over its entry digests (Def. 3).
pub fn leaf_digest<'a, S: FieldSink>(
    b: DigestBuilder<S>,
    entry_digests: impl ExactSizeIterator<Item = &'a Digest>,
) -> S::Out {
    let mut b = b.u64(entry_digests.len() as u64);
    for d in entry_digests {
        b = b.digest(d);
    }
    b.finish()
}

/// The message of an internal node (Def. 2).
pub fn internal_digest<S: FieldSink>(
    b: DigestBuilder<S>,
    dim: u32,
    value: f32,
    left: &Digest,
    right: &Digest,
) -> S::Out {
    b.u32(dim).f32(value).digest(left).digest(right).finish()
}

/// One tree node as the level-order hasher and the traversal engine see it.
#[derive(Clone, Copy, Debug)]
pub enum Shape<'a> {
    /// The digest is already known: a pruned VO subtree, or an owner node
    /// no update touched.
    Known(Digest),
    /// A leaf over these entries (indices into the entry-digest table).
    Leaf(&'a [u32]),
    /// An internal node over two nodes of the same tree.
    Internal {
        dim: u32,
        value: f32,
        left: usize,
        right: usize,
    },
}

/// Every node digest of a tree, bottom-up, one height per hash batch. The
/// tree has `size` nodes described by `shape(node)`, parents before their
/// children (so node 0 is the root); `entries` are the leaf-entry digests
/// that [`Shape::Leaf`] indexes. The one routine under owner build, owner
/// refresh and client reconstruction.
// audit:allow(panic) `levels` and `digests` are sized from `size` and indexed by nodes enumerated from it; child and entry indices go through `get`
pub(crate) fn hash_tree<'a>(
    size: usize,
    shape: impl Fn(usize) -> Shape<'a>,
    entries: &[Digest],
    batch: &mut DigestBatch,
) -> Vec<Digest> {
    // A node's level: 0 when its digest is known, else one more than its
    // children's highest. Children sit after their parent, so a reverse
    // scan has levelled them first; an index that breaks that order reads
    // as level 0 and, below, as the zero digest.
    let mut by_level: Vec<Vec<usize>> = Vec::new();
    let mut levels = vec![0usize; size];
    let mut digests = vec![Digest::ZERO; size];
    for node in (0..size).rev() {
        let level = match shape(node) {
            Shape::Known(digest) => {
                digests[node] = digest;
                continue;
            }
            Shape::Leaf(_) => 1,
            Shape::Internal { left, right, .. } => {
                let of = |child: usize| levels.get(child).copied().unwrap_or(0);
                1 + of(left).max(of(right))
            }
        };
        levels[node] = level;
        if by_level.len() < level {
            by_level.resize_with(level, Vec::new);
        }
        by_level[level - 1].push(node);
    }

    for level in &by_level {
        for &node in level {
            let of = |child: usize| digests.get(child).copied().unwrap_or(Digest::ZERO);
            match shape(node) {
                Shape::Known(_) => {}
                Shape::Leaf(named) => leaf_digest(
                    batch.message(),
                    named
                        .iter()
                        .map(|&e| entries.get(e as usize).unwrap_or(&Digest::ZERO)),
                ),
                Shape::Internal {
                    dim,
                    value,
                    left,
                    right,
                } => internal_digest(batch.message(), dim, value, &of(left), &of(right)),
            }
        }
        for (&node, digest) in level.iter().zip(batch.finish()) {
            digests[node] = digest;
        }
    }
    digests
}

/// Dimensions per Merkle leaf of the per-cluster commitment.
///
/// Committing *blocks* of dimensions rather than single dimensions keeps the
/// §VI-A optimization profitable: a revealed dimension costs 4 bytes but a
/// Merkle sibling costs 32, so per-dimension leaves would make partial
/// disclosure larger than the full centroid. Sixteen-dimension blocks give
/// 8 leaves for SIFT (128-d) and 4 for SURF (64-d).
pub const BLOCK_DIMS: usize = 16;

/// Number of commitment blocks for a `dim`-dimensional centroid.
pub fn n_blocks(dim: usize) -> usize {
    dim.div_ceil(BLOCK_DIMS)
}

/// The dimension range covered by `block`.
pub fn block_range(block: usize, dim: usize) -> std::ops::Range<usize> {
    let start = block * BLOCK_DIMS;
    start..((block + 1) * BLOCK_DIMS).min(dim)
}

/// Canonical leaf bytes of one block, written over `out`: the block's
/// coordinates as little-endian IEEE-754 bit patterns.
pub fn block_bytes(block_coords: &[f32], out: &mut Vec<u8>) {
    out.clear();
    out.extend(block_coords.iter().flat_map(|c| c.to_bits().to_le_bytes()));
}

/// Builds the Merkle tree over one centroid's dimension blocks, used in
/// [`CandidateMode::Compressed`].
pub fn dimension_tree(coords: &[f32]) -> MerkleTree {
    let leaves: Vec<Vec<u8>> = (0..n_blocks(coords.len()))
        .map(|b| {
            let mut leaf = Vec::new();
            block_bytes(&coords[block_range(b, coords.len())], &mut leaf);
            leaf
        })
        .collect();
    MerkleTree::from_leaf_data(&leaves)
}

/// An owner-side node as the level-order hasher and the SP's walk see it.
pub(crate) fn owner_shape(node: &Node) -> Shape<'_> {
    match node {
        Node::Leaf { clusters } => Shape::Leaf(clusters),
        Node::Internal {
            dim,
            value,
            left,
            right,
        } => Shape::Internal {
            dim: *dim,
            value: *value,
            left: *left as usize,
            right: *right as usize,
        },
    }
}

/// The MRKD-tree (Def. 3): the codebook's k-d tree with a digest per node,
/// plus the per-cluster commitments its leaves bind.
#[derive(Clone, Debug)]
pub struct MrkdTree {
    mode: CandidateMode,
    rkd: RkdTree,
    /// Per-node digests, parallel to `rkd.nodes()`.
    digests: Vec<Digest>,
    /// Cluster centroids (shared with the codebook).
    centers: Vec<Vec<f32>>,
    /// Per-cluster inverted-list digests `h_{Γ_c}`.
    inv_digests: Vec<Digest>,
    /// Per-cluster dimension Merkle trees (compressed mode only).
    dim_trees: Option<Vec<MerkleTree>>,
    /// Per-cluster leaf-entry digests.
    entries: Vec<Digest>,
}

impl MrkdTree {
    /// Merkle-izes `rkd`, the codebook's tree.
    ///
    /// `inv_digests[c]` must be the digest of cluster `c`'s Merkle inverted
    /// list (Def. 5), which Def. 3 embeds into leaf digests.
    pub fn build(
        rkd: &RkdTree,
        centers: &[Vec<f32>],
        inv_digests: &[Digest],
        mode: CandidateMode,
    ) -> MrkdTree {
        Self::build_with(rkd, centers, inv_digests, mode, Concurrency::serial())
    }

    /// [`MrkdTree::build`] with the per-cluster dimension trees fanned out
    /// across workers.
    ///
    /// Each cluster's dimension tree is a pure function of its centroid and
    /// they are merged in cluster order, so the tree (and the signed root)
    /// is identical for every thread count.
    pub fn build_with(
        rkd: &RkdTree,
        centers: &[Vec<f32>],
        inv_digests: &[Digest],
        mode: CandidateMode,
        conc: Concurrency,
    ) -> MrkdTree {
        assert_eq!(
            centers.len(),
            inv_digests.len(),
            "one inverted-list digest per cluster"
        );
        let dim_trees = match mode {
            CandidateMode::Full => None,
            CandidateMode::Compressed => {
                Some(par_map_chunked(conc, centers, 64, |_, c| dimension_tree(c)))
            }
        };
        let mut tree = MrkdTree {
            mode,
            rkd: rkd.clone(),
            digests: Vec::new(),
            centers: centers.to_vec(),
            inv_digests: inv_digests.to_vec(),
            dim_trees,
            entries: Vec::new(),
        };
        tree.entries = tree.entry_digests(0..centers.len() as u32);
        let nodes = tree.rkd.nodes();
        let shape = |node: usize| owner_shape(&nodes[node]);
        tree.digests = hash_tree(nodes.len(), shape, &tree.entries, &mut DigestBatch::new());
        tree
    }

    /// Leaf-entry digests of `clusters`, hashed as one batch.
    fn entry_digests(&self, clusters: impl Iterator<Item = u32>) -> Vec<Digest> {
        let mut batch = DigestBatch::new();
        for c in clusters {
            let inv = &self.inv_digests[c as usize];
            match &self.dim_trees {
                None => leaf_entry_digest_full(batch.message(), c, &self.centers[c as usize], inv),
                Some(dim_trees) => leaf_entry_digest_compressed(
                    batch.message(),
                    c,
                    &dim_trees[c as usize].root(),
                    inv,
                ),
            }
        }
        batch.finish()
    }

    pub fn mode(&self) -> CandidateMode {
        self.mode
    }

    /// The underlying randomized k-d tree.
    pub fn rkd(&self) -> &RkdTree {
        &self.rkd
    }

    pub fn centers(&self) -> &[Vec<f32>] {
        &self.centers
    }

    pub fn inv_digest(&self, cluster: u32) -> Digest {
        self.inv_digests[cluster as usize]
    }

    /// Dimension Merkle tree of one cluster (compressed mode).
    pub fn dim_tree(&self, cluster: u32) -> Option<&MerkleTree> {
        self.dim_trees.as_ref().map(|t| &t[cluster as usize])
    }

    /// Total digests stored across every authenticated level: per-node
    /// digests, the cluster list and leaf-entry digests, and (compressed
    /// mode) every dimension Merkle tree node. Footprint accounting only.
    pub fn n_digests(&self) -> usize {
        let dim_digests: usize = self
            .dim_trees
            .iter()
            .flatten()
            .map(MerkleTree::n_digests)
            .sum();
        self.digests.len() + self.inv_digests.len() + self.entries.len() + dim_digests
    }

    /// Digest of node `idx`.
    // audit:allow(panic) SP-side accessor: node ids come from the SP's own arena
    pub fn node_digest(&self, idx: u32) -> Digest {
        self.digests[idx as usize]
    }

    /// The digest the owner signs (§V-A step iii): this tree's root. The
    /// name dates from when `n_t` roots were combined under one hash; the
    /// benchmark package calls it, so the rename is left to a PR that may
    /// edit `ledger/`.
    pub fn combined_root_digest(&self) -> Digest {
        self.node_digest(self.rkd.root())
    }

    /// Owner-side incremental update: installs new inverted-list digests
    /// for `updates` and re-hashes the paths from their leaves to the root.
    /// Used when images are inserted into or removed from the outsourced
    /// catalogue.
    pub fn apply_inv_digest_updates(&mut self, updates: &std::collections::BTreeMap<u32, Digest>) {
        if updates.is_empty() {
            return;
        }
        for (&cluster, &digest) in updates {
            self.inv_digests[cluster as usize] = digest;
        }
        // Only the updated clusters' entries are re-hashed; their leaf-mates
        // keep theirs.
        let fresh = self.entry_digests(updates.keys().copied());
        for (&cluster, entry) in updates.keys().zip(fresh) {
            self.entries[cluster as usize] = entry;
        }
        // Dirty nodes: the leaves holding an updated cluster and their
        // ancestors. Parents precede children in the arena, so a reverse
        // scan sees children first.
        let nodes = self.rkd.nodes();
        let mut dirty = vec![false; nodes.len()];
        for idx in (0..nodes.len()).rev() {
            dirty[idx] = match &nodes[idx] {
                Node::Leaf { clusters } => clusters.iter().any(|c| updates.contains_key(c)),
                Node::Internal { left, right, .. } => {
                    dirty[*left as usize] || dirty[*right as usize]
                }
            };
        }
        let shape = |node: usize| {
            if dirty[node] {
                owner_shape(&nodes[node])
            } else {
                Shape::Known(self.digests[node])
            }
        };
        self.digests = hash_tree(nodes.len(), shape, &self.entries, &mut DigestBatch::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_tree(centers: &[Vec<f32>], seed: u64) -> RkdTree {
        RkdTree::build(centers, 2, &mut StdRng::seed_from_u64(seed))
    }

    fn setup(mode: CandidateMode) -> (Vec<Vec<f32>>, Vec<Digest>, MrkdTree) {
        let mut rng = StdRng::seed_from_u64(7);
        let centers: Vec<Vec<f32>> = (0..50)
            .map(|_| (0..16).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let inv_digests: Vec<Digest> = (0..50u32)
            .map(|c| Digest::of(format!("list-{c}").as_bytes()))
            .collect();
        let rkd = test_tree(&centers, 11);
        let mrkd = MrkdTree::build(&rkd, &centers, &inv_digests, mode);
        (centers, inv_digests, mrkd)
    }

    #[test]
    fn build_produces_digest_per_node() {
        let (_, _, mrkd) = setup(CandidateMode::Full);
        assert_eq!(mrkd.digests.len(), mrkd.rkd().nodes().len());
        assert!(mrkd.digests.iter().all(|d| *d != Digest::ZERO));
    }

    #[test]
    fn root_digest_changes_when_a_center_changes() {
        let (mut centers, inv_digests, mrkd) = setup(CandidateMode::Full);
        let rkd = test_tree(&centers, 11);
        centers[13][5] += 0.5;
        let tampered = MrkdTree::build(&rkd, &centers, &inv_digests, CandidateMode::Full);
        assert_ne!(mrkd.combined_root_digest(), tampered.combined_root_digest());
    }

    #[test]
    fn root_digest_changes_when_an_inverted_list_digest_changes() {
        let (centers, mut inv_digests, mrkd) = setup(CandidateMode::Full);
        let rkd = test_tree(&centers, 11);
        inv_digests[20] = Digest::of(b"forged list");
        let tampered = MrkdTree::build(&rkd, &centers, &inv_digests, CandidateMode::Full);
        assert_ne!(mrkd.combined_root_digest(), tampered.combined_root_digest());
    }

    #[test]
    fn modes_produce_distinct_commitments() {
        let (_, _, full) = setup(CandidateMode::Full);
        let (_, _, compressed) = setup(CandidateMode::Compressed);
        assert_ne!(
            full.combined_root_digest(),
            compressed.combined_root_digest()
        );
    }

    #[test]
    fn compressed_mode_has_dim_trees_matching_roots() {
        let (centers, _, mrkd) = setup(CandidateMode::Compressed);
        for c in 0..centers.len() as u32 {
            let t = mrkd.dim_tree(c).expect("compressed mode");
            assert_eq!(t.root(), dimension_tree(&centers[c as usize]).root());
            assert_eq!(t.len(), n_blocks(16));
        }
        let (_, _, full) = setup(CandidateMode::Full);
        assert!(full.dim_tree(0).is_none());
    }

    #[test]
    fn block_geometry_covers_all_dimensions_exactly_once() {
        for dim in [1usize, 15, 16, 17, 64, 100, 128] {
            let mut covered = vec![0u32; dim];
            for b in 0..n_blocks(dim) {
                for d in block_range(b, dim) {
                    covered[d] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "dim {dim}");
        }
    }

    #[test]
    fn leaf_digest_depends_on_entry_order_and_count() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        let leaf = |entries: &[Digest]| leaf_digest(Digest::builder(), entries.iter());
        assert_ne!(leaf(&[a, b]), leaf(&[b, a]));
        assert_ne!(leaf(&[a]), leaf(&[a, a]));
    }

    #[test]
    fn incremental_refresh_matches_full_rebuild() {
        for mode in [CandidateMode::Full, CandidateMode::Compressed] {
            let (centers, mut inv_digests, mut mrkd) = setup(mode);
            // Change three clusters' list digests.
            let updates: std::collections::BTreeMap<u32, Digest> = [3u32, 17, 42]
                .into_iter()
                .map(|c| (c, Digest::of(format!("new-list-{c}").as_bytes())))
                .collect();
            for (&c, &d) in &updates {
                inv_digests[c as usize] = d;
            }
            mrkd.apply_inv_digest_updates(&updates);

            let rkd = test_tree(&centers, 11);
            let rebuilt = MrkdTree::build(&rkd, &centers, &inv_digests, mode);
            assert_eq!(mrkd.digests, rebuilt.digests, "{mode:?}");
            assert_eq!(mrkd.entries, rebuilt.entries, "{mode:?}");
        }
    }

    #[test]
    fn empty_refresh_is_a_no_op() {
        let (_, _, mut mrkd) = setup(CandidateMode::Full);
        let before = mrkd.combined_root_digest();
        mrkd.apply_inv_digest_updates(&std::collections::BTreeMap::new());
        assert_eq!(mrkd.combined_root_digest(), before);
    }
}
