//! A generic binary Merkle hash tree (Merkle, CRYPTO '89; paper §II-B,
//! Fig. 1) with batched membership proofs for subsets of its leaves.
//!
//! ImageProof embeds an MH-tree over the *dimensions* of each cluster
//! centroid for the §VI-A candidate-compression optimization: the SP reveals
//! only enough dimensions to prove a distance bound, and the client checks
//! the revealed dimensions against the per-cluster MH-tree root that the
//! MRKD-tree leaf digest commits to.

use crate::digest::{Digest, DigestBatch, DigestBuilder, FieldSink};

/// Domain-separation tags so a leaf digest can never be confused with an
/// internal-node digest (a classic second-preimage pitfall in Merkle trees).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// The message of a leaf over `data`, for a single digest
/// (`hash_leaf(Digest::builder(), data)`) or a batched one
/// (`hash_leaf(batch.message(), data)`); exposed so other crates can hash
/// leaves exactly as the tree does without constructing one.
pub fn hash_leaf<S: FieldSink>(b: DigestBuilder<S>, data: &[u8]) -> S::Out {
    b.bytes(&[LEAF_TAG]).bytes(data).finish()
}

fn hash_node<S: FieldSink>(b: DigestBuilder<S>, left: &Digest, right: &Digest) -> S::Out {
    b.bytes(&[NODE_TAG]).digest(left).digest(right).finish()
}

fn leaf_digest(data: &[u8]) -> Digest {
    hash_leaf(Digest::builder(), data)
}

fn node_digest(left: &Digest, right: &Digest) -> Digest {
    hash_node(Digest::builder(), left, right)
}

/// A complete binary Merkle tree over an ordered sequence of leaves.
///
/// Odd nodes at each level are promoted unchanged (no duplication), so the
/// tree is uniquely determined by the leaf sequence.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaf digests, last level = `[root]`.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over pre-hashed leaf values.
    ///
    /// # Panics
    /// Panics if `leaves` is empty: an empty authenticated set has no root.
    pub fn from_leaf_data<D: AsRef<[u8]>>(leaves: &[D]) -> Self {
        Self::from_leaf_digests(leaves.iter().map(|d| leaf_digest(d.as_ref())).collect())
    }

    /// Builds a tree when leaf digests are computed externally.
    // audit:allow(panic) levels is seeded with the leaf level and only grows; chunks(2) yields 1- or 2-element slices
    pub fn from_leaf_digests(leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let next = levels
                .last()
                .expect("non-empty")
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => node_digest(l, r),
                    [only] => *only,
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                })
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root digest.
    // audit:allow(panic) construction guarantees a non-empty top level of exactly one digest
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Total digests stored across every level (footprint accounting).
    pub fn n_digests(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// True when the tree has exactly one leaf.
    pub fn is_empty(&self) -> bool {
        false // construction rejects empty leaf sets
    }
}

/// A batched membership proof for a *subset* of leaves.
///
/// Sibling digests shared between the individual authentication paths are
/// included once, so proving `k` of `n` leaves costs about
/// `k log2(n/k)` digests instead of `k log2(n)`. ImageProof's §VI-A
/// optimization reveals a handful of a cluster centroid's dimensions and
/// proves them jointly against the per-cluster dimension tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetProof {
    /// Total number of leaves in the tree (fixes the tree shape).
    pub n_leaves: u32,
    /// Digests of the maximal subtrees containing no revealed leaf, in
    /// deterministic post-order traversal order.
    pub fill: Vec<Digest>,
}

impl MerkleTree {
    /// Produces a batched proof for the (sorted, deduplicated) leaf indices.
    ///
    /// # Panics
    /// Panics when `indices` is empty, unsorted, or out of range.
    pub fn prove_subset(&self, indices: &[usize]) -> SubsetProof {
        assert!(!indices.is_empty(), "subset proof needs at least one leaf");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        assert!(*indices.last().expect("non-empty") < self.len());

        let mut fill = Vec::new();
        // Walk levels bottom-up. At each level, a node is "covered" when its
        // subtree contains a revealed leaf. Uncovered siblings of covered
        // nodes contribute their digest to the fill, in (level, index) order.
        let mut covered: Vec<usize> = indices.to_vec();
        for level in &self.levels[..self.levels.len() - 1] {
            let mut next = Vec::new();
            let mut i = 0;
            while i < covered.len() {
                let idx = covered[i];
                let sib = idx ^ 1;
                let pair_covered = i + 1 < covered.len() && covered[i + 1] == sib;
                if sib < level.len() && !pair_covered {
                    fill.push(level[sib]);
                }
                next.push(idx / 2);
                i += if pair_covered { 2 } else { 1 };
            }
            covered = next;
        }
        SubsetProof {
            n_leaves: self.len() as u32,
            fill,
        }
    }
}

/// One tree's share of a [`subset_roots`] call: its revealed `(leaf index,
/// leaf digest)` pairs and the fill digests of a [`SubsetProof`].
pub type RevealedSubset<'a> = (&'a [(usize, Digest)], &'a [Digest]);

/// Reconstructs the roots of many trees of `n_leaves` leaves each from
/// their revealed leaves and fill digests, hashing one level of every tree
/// per batch. `None` marks a structural mismatch: no or unsorted or
/// out-of-range leaves, too little or too much fill. A tree with every
/// leaf revealed needs no fill, so this also computes plain roots.
// audit:allow(panic) every index on this adversarial path is guarded: windows(2) pairs, i < covered.len(), pending positions were pushed into the same `next`, and covered.len() == 1 before covered[0]
pub fn subset_roots(
    n_leaves: usize,
    subsets: &[RevealedSubset<'_>],
    batch: &mut DigestBatch,
) -> Vec<Option<Digest>> {
    // Per tree: the covered nodes of the current level and the unread fill;
    // `None` once the tree is known to be malformed.
    type Walk<'a> = Option<(Vec<(usize, Digest)>, std::slice::Iter<'a, Digest>)>;
    let mut walks: Vec<Walk<'_>> = subsets
        .iter()
        .map(|&(revealed, fill)| {
            let well_formed = revealed.windows(2).all(|w| w[0].0 < w[1].0)
                && revealed.last().is_some_and(|&(i, _)| i < n_leaves);
            well_formed.then(|| (revealed.to_vec(), fill.iter()))
        })
        .collect();

    // Level sizes exactly as construction produced them.
    let mut size = n_leaves;
    // (tree, position in its next level) of each queued parent, in
    // queueing order.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    while size > 1 {
        for (tree, walk) in walks.iter_mut().enumerate() {
            let Some((covered, fill)) = walk else {
                continue;
            };
            let mut next = Vec::with_capacity(covered.len());
            let mut i = 0;
            let mut fill_ran_out = false;
            while i < covered.len() {
                let (idx, digest) = covered[i];
                let sib = idx ^ 1;
                let pair = if i + 1 < covered.len() && covered[i + 1].0 == sib {
                    let (_, sib_digest) = covered[i + 1];
                    i += 2;
                    Some((digest, sib_digest))
                } else if sib < size {
                    let Some(&sib_digest) = fill.next() else {
                        fill_ran_out = true;
                        break;
                    };
                    i += 1;
                    if sib < idx {
                        Some((sib_digest, digest))
                    } else {
                        Some((digest, sib_digest))
                    }
                } else {
                    i += 1;
                    None // promoted odd node
                };
                match pair {
                    Some((l, r)) => {
                        hash_node(batch.message(), &l, &r);
                        pending.push((tree, next.len()));
                        next.push((idx / 2, Digest::ZERO));
                    }
                    None => next.push((idx / 2, digest)),
                }
            }
            if fill_ran_out {
                *walk = None;
            } else {
                *covered = next;
            }
        }
        for ((tree, at), parent) in pending.drain(..).zip(batch.finish()) {
            if let Some(Some((covered, _))) = walks.get_mut(tree) {
                covered[at].1 = parent;
            }
        }
        size = size.div_ceil(2);
    }
    walks
        .into_iter()
        .map(|walk| {
            let (covered, mut fill) = walk?;
            (fill.next().is_none() && covered.len() == 1).then(|| covered[0].1)
        })
        .collect()
}

impl SubsetProof {
    /// Recomputes the root from `(leaf_index, leaf_digest)` pairs (strictly
    /// increasing by index) and compares with `root`. Returns `false` on any
    /// structural mismatch.
    pub fn verify_digests(&self, revealed: &[(usize, Digest)], root: &Digest) -> bool {
        let roots = subset_roots(
            self.n_leaves as usize,
            &[(revealed, &self.fill)],
            &mut DigestBatch::new(),
        );
        roots.first() == Some(&Some(*root))
    }

    /// Convenience: verify from raw leaf data.
    pub fn verify_data(&self, revealed: &[(usize, &[u8])], root: &Digest) -> bool {
        let digests: Vec<(usize, Digest)> =
            revealed.iter().map(|&(i, d)| (i, leaf_digest(d))).collect();
        self.verify_digests(&digests, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_the_leaf_digest() {
        let tree = MerkleTree::from_leaf_data(&leaves(1));
        assert_eq!(tree.root(), leaf_digest(b"leaf-0"));
    }

    #[test]
    fn changing_any_leaf_changes_the_root() {
        let data = leaves(10);
        let base = MerkleTree::from_leaf_data(&data).root();
        for i in 0..10 {
            let mut tampered = data.clone();
            tampered[i].push(b'!');
            assert_ne!(MerkleTree::from_leaf_data(&tampered).root(), base, "i={i}");
        }
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A two-leaf tree's root must differ from hashing the concatenated
        // digests as a leaf.
        let tree = MerkleTree::from_leaf_data(&leaves(2));
        let l0 = leaf_digest(b"leaf-0");
        let l1 = leaf_digest(b"leaf-1");
        let mut concat = Vec::new();
        concat.extend_from_slice(&l0.0);
        concat.extend_from_slice(&l1.0);
        assert_ne!(tree.root(), leaf_digest(&concat));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_is_rejected() {
        let empty: Vec<Vec<u8>> = Vec::new();
        let _ = MerkleTree::from_leaf_data(&empty);
    }

    #[test]
    fn subset_proofs_verify_for_many_shapes() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 31] {
            let data = leaves(n);
            let tree = MerkleTree::from_leaf_data(&data);
            let root = tree.root();
            // Try several subset patterns.
            let subsets: Vec<Vec<usize>> = vec![
                vec![0],
                vec![n - 1],
                (0..n).collect(),
                (0..n).step_by(2).collect(),
                (0..n).filter(|i| i % 3 == 1).collect(),
            ];
            for subset in subsets.into_iter().filter(|s| !s.is_empty()) {
                let proof = tree.prove_subset(&subset);
                let revealed: Vec<(usize, &[u8])> =
                    subset.iter().map(|&i| (i, data[i].as_slice())).collect();
                assert!(
                    proof.verify_data(&revealed, &root),
                    "n={n} subset={subset:?}"
                );
            }
        }
    }

    #[test]
    fn subset_roots_of_many_trees_match_one_tree_at_a_time() {
        // Trees of one shape walked in lockstep: honest subsets, a fully
        // revealed tree (no fill: the plain root), and every malformation,
        // interleaved so a dropped tree must not shift its neighbours.
        for n in [1usize, 2, 5, 8, 13] {
            let trees: Vec<MerkleTree> = (0..6)
                .map(|t| {
                    let data: Vec<Vec<u8>> = (0..n)
                        .map(|i| format!("tree-{t}-leaf-{i}").into_bytes())
                        .collect();
                    MerkleTree::from_leaf_data(&data)
                })
                .collect();
            let reveal = |t: usize, subset: &[usize]| -> Vec<(usize, Digest)> {
                subset.iter().map(|&i| (i, trees[t].levels[0][i])).collect()
            };
            let all: Vec<usize> = (0..n).collect();
            let odd: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
            let proofs = [
                trees[0].prove_subset(&[0]),
                trees[1].prove_subset(&odd),
                trees[2].prove_subset(&[n - 1]),
                trees[3].prove_subset(&[0]),
                trees[4].prove_subset(&[n / 2]),
            ];
            let mut short = proofs[3].fill.clone();
            short.pop();
            let mut long = proofs[4].fill.clone();
            long.push(Digest::of(b"extra"));
            let revealed = [
                reveal(0, &[0]),
                reveal(1, &odd),
                reveal(2, &[n - 1]),
                reveal(3, &[0]),
                reveal(4, &[n / 2]),
                reveal(5, &all),
                vec![],
                vec![(n, Digest::of(b"out of range"))],
            ];
            let subsets: Vec<RevealedSubset<'_>> = vec![
                (&revealed[0], &proofs[0].fill),
                (&revealed[1], &proofs[1].fill),
                (&revealed[2], &proofs[2].fill),
                (&revealed[3], &short),
                (&revealed[4], &long),
                (&revealed[5], &[]),
                (&revealed[6], &[]),
                (&revealed[7], &[]),
            ];
            let roots = subset_roots(n, &subsets, &mut DigestBatch::new());
            let root = |t: usize| Some(trees[t].root());
            // A one-leaf tree needs no fill, so dropping some is impossible
            // and only the extra digest is a mismatch.
            let short_is_detectable = !proofs[3].fill.is_empty();
            assert_eq!(
                roots,
                [
                    root(0),
                    root(1),
                    root(2),
                    if short_is_detectable { None } else { root(3) },
                    None,
                    root(5),
                    None,
                    None
                ],
                "n={n}"
            );
        }
    }

    #[test]
    fn subset_proof_rejects_tampered_leaf() {
        let data = leaves(16);
        let tree = MerkleTree::from_leaf_data(&data);
        let proof = tree.prove_subset(&[2, 7, 11]);
        let mut revealed: Vec<(usize, &[u8])> = [2usize, 7, 11]
            .iter()
            .map(|&i| (i, data[i].as_slice()))
            .collect();
        revealed[1].1 = b"forged";
        assert!(!proof.verify_data(&revealed, &tree.root()));
    }

    #[test]
    fn subset_proof_rejects_wrong_indices() {
        let data = leaves(16);
        let tree = MerkleTree::from_leaf_data(&data);
        let proof = tree.prove_subset(&[2, 7]);
        // Same data presented at shifted positions.
        let revealed: Vec<(usize, &[u8])> = vec![(3, data[2].as_slice()), (8, data[7].as_slice())];
        assert!(!proof.verify_data(&revealed, &tree.root()));
        // Out-of-range index.
        let revealed: Vec<(usize, &[u8])> = vec![(2, data[2].as_slice()), (99, data[7].as_slice())];
        assert!(!proof.verify_data(&revealed, &tree.root()));
        // Unsorted.
        let revealed: Vec<(usize, &[u8])> = vec![(7, data[7].as_slice()), (2, data[2].as_slice())];
        assert!(!proof.verify_data(&revealed, &tree.root()));
    }

    #[test]
    fn subset_proof_rejects_missing_or_extra_fill() {
        let data = leaves(16);
        let tree = MerkleTree::from_leaf_data(&data);
        let mut proof = tree.prove_subset(&[4]);
        let revealed: Vec<(usize, &[u8])> = vec![(4, data[4].as_slice())];
        let dropped = proof.fill.pop().expect("non-empty fill");
        assert!(!proof.verify_data(&revealed, &tree.root()));
        proof.fill.push(dropped);
        proof.fill.push(Digest::of(b"extra"));
        assert!(!proof.verify_data(&revealed, &tree.root()));
    }

    #[test]
    fn subset_proof_on_single_leaf_tree() {
        // Degenerate shape: root IS the leaf digest; no fill is needed.
        let data = leaves(1);
        let tree = MerkleTree::from_leaf_data(&data);
        let proof = tree.prove_subset(&[0]);
        assert!(proof.fill.is_empty());
        assert!(proof.verify_data(&[(0, data[0].as_slice())], &tree.root()));
        assert!(!proof.verify_data(&[(0, b"other")], &tree.root()));
    }

    #[test]
    fn subset_proof_rejects_empty_and_duplicate_reveals() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaf_data(&data);
        let proof = tree.prove_subset(&[3, 5]);
        // Nothing revealed can never authenticate.
        assert!(!proof.verify_data(&[], &tree.root()));
        // Duplicate indices violate the strictly-increasing contract.
        let dup: Vec<(usize, &[u8])> = vec![(3, data[3].as_slice()), (3, data[3].as_slice())];
        assert!(!proof.verify_data(&dup, &tree.root()));
    }

    #[test]
    fn duplicate_leaf_content_still_binds_positions() {
        // Leaves 1 and 6 share the same bytes; proofs must still be tied to
        // the exact positions they were generated for, not just the content.
        let mut data = leaves(8);
        data[1] = b"same".to_vec();
        data[6] = b"same".to_vec();
        let tree = MerkleTree::from_leaf_data(&data);
        let root = tree.root();
        let same: &[u8] = b"same";
        for i in [1usize, 6] {
            let proof = tree.prove_subset(&[i]);
            assert!(proof.verify_data(&[(i, same)], &root), "leaf {i}");
            assert!(!proof.verify_data(&[(i, b"diff")], &root), "leaf {i}");
        }
        // A proof for position 1 does not authenticate the identical bytes
        // at position 6 (the sibling path differs), and vice versa.
        let p1 = tree.prove_subset(&[1]);
        let p6 = tree.prove_subset(&[6]);
        assert_ne!(p1.fill, p6.fill);
        assert!(!p1.verify_data(&[(6, same)], &root));
        assert!(!p6.verify_data(&[(1, same)], &root));
        // Subset proofs over duplicate content verify at their own indices…
        let proof = tree.prove_subset(&[1, 6]);
        let ok: Vec<(usize, &[u8])> = vec![(1, b"same"), (6, b"same")];
        assert!(proof.verify_data(&ok, &root));
        // …but not when the same content is claimed at other positions.
        let moved: Vec<(usize, &[u8])> = vec![(2, b"same"), (5, b"same")];
        assert!(!proof.verify_data(&moved, &root));
    }

    #[test]
    fn subset_proof_fails_against_wrong_root() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaf_data(&data);
        let proof = tree.prove_subset(&[0, 4]);
        let revealed: Vec<(usize, &[u8])> = vec![(0, data[0].as_slice()), (4, data[4].as_slice())];
        assert!(proof.verify_data(&revealed, &tree.root()));
        assert!(!proof.verify_data(&revealed, &Digest::of(b"wrong root")));
    }

    #[test]
    fn subset_proof_is_smaller_than_individual_proofs() {
        let data = leaves(64);
        let tree = MerkleTree::from_leaf_data(&data);
        let subset: Vec<usize> = (0..16).collect();
        let batched = tree.prove_subset(&subset);
        let individual: usize = subset
            .iter()
            .map(|&i| tree.prove_subset(&[i]).fill.len())
            .sum();
        assert!(
            batched.fill.len() < individual,
            "batched {} >= individual {individual}",
            batched.fill.len()
        );
    }
}
