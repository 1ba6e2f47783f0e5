//! Verification-object types for authenticated BoVW encoding
//! (`MRKDSearch`, paper Alg. 1) and their canonical wire encoding.

use imageproof_crypto::merkle::SubsetProof;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::Digest;
use std::ops::Range;

/// How a disclosed cluster's centroid is revealed in the VO.
#[derive(Clone, Debug, PartialEq)]
pub enum Reveal {
    /// All coordinates, bound directly into the leaf digest (base scheme).
    Full { coords: Vec<f32> },
    /// All coordinates, bound via the per-cluster dimension Merkle root
    /// (§VI-A optimization, used for nearest-neighbour candidates — the
    /// client recomputes the dimension root itself).
    FullCompressed { coords: Vec<f32> },
    /// A subset of dimension *blocks* with a batched Merkle proof,
    /// sufficient to lower-bound the distance to every query vector that
    /// reaches the leaf (§VI-A optimization, used for non-candidates).
    Partial {
        dim_root: Digest,
        /// `(block index, block coordinates)` pairs, strictly ascending by
        /// block index; block geometry is fixed by
        /// [`crate::tree::BLOCK_DIMS`].
        blocks: Vec<(u32, Vec<f32>)>,
        proof: SubsetProof,
    },
}

/// One row of the VO's cluster table: everything a leaf entry digest binds
/// about a cluster. The tree's leaves partition the codebook, so honestly
/// exactly one leaf names it.
#[derive(Clone, Debug, PartialEq)]
pub struct VoCluster {
    pub cluster: u32,
    /// `h_{Γ_{c}}`: digest of the cluster's Merkle inverted list (Def. 3
    /// embeds it in the leaf).
    pub inv_digest: Digest,
    pub reveal: Reveal,
}

/// A node of a [`VoTree`], mirroring the SP's traversal of the MRKD-tree.
#[derive(Clone, Debug, PartialEq)]
pub enum VoNode {
    /// Subtree no query vector reached: only its digest (Alg. 1 line 2).
    Pruned(Digest),
    /// Disclosed internal node: the splitting hyperplane (Alg. 1 line 8).
    /// Its left child is the next node; `right` indexes its right child.
    Internal { dim: u32, value: f32, right: usize },
    /// Disclosed leaf (Alg. 1 lines 4–7): the range of [`VoTree::leaf_ids`]
    /// holding its cluster ids in leaf order, each naming a row of
    /// [`BovwVo::clusters`].
    Leaf(Range<usize>),
}

/// The VO tree as a pre-order arena: node 0 is the root, an internal
/// node's left subtree follows it and its right subtree follows that, and
/// each leaf owns the next run of one shared id list. The links are
/// functions of the node sequence and only [`VoTreeBuilder`] sets them, so
/// `==` means "same VO" and a decoded tree re-encodes to the bytes it came
/// from (DESIGN.md §4c).
#[derive(Clone, Debug, PartialEq)]
pub struct VoTree {
    nodes: Vec<VoNode>,
    leaf_ids: Vec<u32>,
}

impl VoTree {
    /// The nodes in pre-order.
    pub fn nodes(&self) -> &[VoNode] {
        &self.nodes
    }

    /// Every leaf's cluster ids, leaf after leaf in node order.
    pub fn leaf_ids(&self) -> &[u32] {
        &self.leaf_ids
    }

    /// The cluster ids of the leaf holding `range`.
    pub fn ids(&self, range: &Range<usize>) -> &[u32] {
        self.leaf_ids.get(range.clone()).unwrap_or(&[])
    }

    /// Heap bytes the arena holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<VoNode>() + self.leaf_ids.capacity() * 4
    }

    /// Index of the first node after `node`'s subtree.
    pub fn subtree_end(&self, mut node: usize) -> usize {
        while let Some(VoNode::Internal { right, .. }) = self.nodes.get(node) {
            node = *right;
        }
        node + 1
    }

    /// This tree re-emitted with the nodes at `at` replaced by what `emit`
    /// emits, for callers that forge VOs: `i..i + 1` replaces node `i`
    /// alone, `i..self.subtree_end(i)` its whole subtree.
    pub fn splice(&self, at: Range<usize>, emit: impl FnOnce(&mut VoTreeBuilder)) -> VoTree {
        let mut b = VoTreeBuilder::default();
        b.copy(self, self.nodes.get(..at.start).unwrap_or(&[]));
        emit(&mut b);
        b.copy(self, self.nodes.get(at.end..).unwrap_or(&[]));
        b.finish()
    }
}

/// The one constructor of [`VoTree`]s: takes a tree's nodes in pre-order —
/// from the SP's walk, the wire, or a forgery — and links them as they
/// arrive.
#[derive(Default)]
pub struct VoTreeBuilder {
    nodes: Vec<VoNode>,
    leaf_ids: Vec<u32>,
    /// Internal nodes whose right child has not started, outermost first,
    /// each with its depth. In pre-order a stub or leaf always ends the
    /// left subtree of the innermost one.
    pending: Vec<(usize, usize)>,
    /// Depth of the next node; the root's is 0.
    depth: usize,
    complete: bool,
}

impl VoTreeBuilder {
    /// Emits a pruned subtree's stub.
    pub fn pruned(&mut self, digest: Digest) -> &mut Self {
        self.push(VoNode::Pruned(digest));
        self.end_subtree()
    }

    /// Emits an internal node; its left subtree, then its right, follow.
    pub fn internal(&mut self, dim: u32, value: f32) -> &mut Self {
        self.pending.push((self.nodes.len(), self.depth));
        self.depth += 1;
        let right = 0; // set when the left subtree ends
        self.push(VoNode::Internal { dim, value, right });
        self
    }

    /// Emits a leaf naming `ids`.
    pub fn leaf(&mut self, ids: impl IntoIterator<Item = u32>) -> &mut Self {
        let start = self.leaf_ids.len();
        self.leaf_ids.extend(ids);
        self.end_leaf(start)
    }

    /// Emits the leaf whose ids were appended to `leaf_ids` from `start`.
    fn end_leaf(&mut self, start: usize) -> &mut Self {
        self.push(VoNode::Leaf(start..self.leaf_ids.len()));
        self.end_subtree()
    }

    /// Emits `nodes`, a run of `from`'s.
    fn copy(&mut self, from: &VoTree, nodes: &[VoNode]) {
        for node in nodes {
            match node {
                VoNode::Pruned(d) => self.pruned(*d),
                VoNode::Internal { dim, value, .. } => self.internal(*dim, *value),
                VoNode::Leaf(range) => self.leaf(from.ids(range).iter().copied()),
            };
        }
    }

    fn push(&mut self, node: VoNode) {
        assert!(!self.complete, "node emitted after the VO tree's last");
        self.nodes.push(node);
    }

    /// A stub or leaf just ended a subtree: the innermost internal node
    /// still waiting for its right child gets it next, or the tree is done.
    fn end_subtree(&mut self) -> &mut Self {
        let next = self.nodes.len();
        match self.pending.pop() {
            Some((parent, depth)) => {
                if let Some(VoNode::Internal { right, .. }) = self.nodes.get_mut(parent) {
                    *right = next;
                }
                self.depth = depth + 1;
            }
            None => self.complete = true,
        }
        self
    }

    /// The finished tree; the builder is left empty.
    pub fn finish(&mut self) -> VoTree {
        assert!(self.complete, "VO tree finished with a subtree missing");
        let VoTreeBuilder {
            nodes, leaf_ids, ..
        } = std::mem::take(self);
        VoTree { nodes, leaf_ids }
    }
}

/// The complete BoVW-encoding VO: the SP's walk of the MRKD-tree (`VO_C`
/// of Alg. 5) over the cluster table its leaves name. On the wire:
/// `rows · VoNode*`, the nodes in pre-order until the tree is whole.
#[derive(Clone, Debug, PartialEq)]
pub struct BovwVo {
    /// Strictly ascending by cluster id; a row is authenticated only by a
    /// leaf naming it that chains to the root (see `verify_bovw`).
    pub clusters: Vec<VoCluster>,
    pub tree: VoTree,
}

fn stub(node: &VoNode) -> Option<&Digest> {
    match node {
        VoNode::Pruned(d) => Some(d),
        _ => None,
    }
}

impl BovwVo {
    /// Appends this VO's shard-varying digests to `out`: every table row's
    /// inverted-list digest, in row order, then the tree's pruned stubs in
    /// node order. Everything else in a VO (splits, cluster ids,
    /// centroid reveals, subset proofs) depends only on the query and the
    /// shared codebook, so two shards' VOs for one query differ exactly in
    /// this digest sequence.
    pub fn collect_digests(&self, out: &mut Vec<Digest>) {
        out.extend(self.clusters.iter().map(|row| row.inv_digest));
        out.extend(self.tree.nodes.iter().filter_map(stub));
    }

    /// This VO with its shard-varying digests overwritten from `digests`,
    /// in the order [`BovwVo::collect_digests`] emits; `None` when they run
    /// out. The caller checks that whatever set of VOs shares one digest
    /// payload uses it up.
    pub fn with_digests(&self, digests: &mut std::slice::Iter<'_, Digest>) -> Option<BovwVo> {
        let mut vo = self.clone();
        for row in &mut vo.clusters {
            row.inv_digest = *digests.next()?;
        }
        for node in &mut vo.tree.nodes {
            if let VoNode::Pruned(d) = node {
                *d = *digests.next()?;
            }
        }
        Some(vo)
    }

    /// Whether `other` is this VO up to the digests
    /// [`BovwVo::collect_digests`] lists, slot for slot.
    pub fn same_geometry(&self, other: &BovwVo) -> bool {
        fn rows(vo: &BovwVo) -> impl Iterator<Item = (u32, &Reveal)> {
            vo.clusters.iter().map(|row| (row.cluster, &row.reveal))
        }
        // A node, unless it is a stub.
        fn nodes(vo: &BovwVo) -> impl Iterator<Item = Option<&VoNode>> {
            vo.tree.nodes.iter().map(|n| stub(n).is_none().then_some(n))
        }
        rows(self).eq(rows(other))
            && self.tree.leaf_ids == other.tree.leaf_ids
            && nodes(self).eq(nodes(other))
    }
}

const TAG_PRUNED: u8 = 0;
const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;

const TAG_FULL: u8 = 0;
const TAG_FULL_COMPRESSED: u8 = 1;
const TAG_PARTIAL: u8 = 2;

impl Encode for Reveal {
    fn encode(&self, w: &mut Writer) {
        match self {
            Reveal::Full { coords } => {
                w.u8(TAG_FULL);
                w.vseq_of(coords);
            }
            Reveal::FullCompressed { coords } => {
                w.u8(TAG_FULL_COMPRESSED);
                w.vseq_of(coords);
            }
            Reveal::Partial {
                dim_root,
                blocks,
                proof,
            } => {
                w.u8(TAG_PARTIAL);
                w.digest(dim_root);
                w.vseq_len(blocks.len());
                for (b, coords) in blocks {
                    w.varint(*b as u64);
                    w.vseq_of(coords);
                }
                w.varint(proof.n_leaves as u64);
                w.vseq_of(&proof.fill);
            }
        }
    }
}

/// A varint that must fit a `u32` (cluster ids, block and split indices).
fn decode_u32(r: &mut Reader<'_>) -> Result<u32, WireError> {
    u32::try_from(r.varint()?).map_err(|_| WireError::LengthOverflow)
}

impl Decode for Reveal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_FULL => Ok(Reveal::Full { coords: r.vseq()? }),
            TAG_FULL_COMPRESSED => Ok(Reveal::FullCompressed { coords: r.vseq()? }),
            TAG_PARTIAL => Ok(Reveal::Partial {
                dim_root: r.digest()?,
                blocks: r.vseq_with(|r| Ok((decode_u32(r)?, r.vseq()?)))?,
                proof: SubsetProof {
                    n_leaves: decode_u32(r)?,
                    fill: r.vseq()?,
                },
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Encode for VoCluster {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.cluster as u64);
        w.digest(&self.inv_digest);
        self.reveal.encode(w);
    }
}

impl Decode for VoCluster {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VoCluster {
            cluster: decode_u32(r)?,
            inv_digest: r.digest()?,
            reveal: Reveal::decode(r)?,
        })
    }
}

/// Deepest `Internal` nesting the decoder accepts. The client walks a
/// decoded tree recursively (`traverse`), and a hostile VO can claim one
/// internal node per six bytes, so unbounded nesting would let the SP
/// overflow the client's stack; real MRKD-trees are ~log₂(clusters) deep,
/// orders of magnitude below this cap.
pub const MAX_VO_DEPTH: usize = 512;

impl Encode for VoTree {
    fn encode(&self, w: &mut Writer) {
        for node in &self.nodes {
            match node {
                VoNode::Pruned(d) => {
                    w.u8(TAG_PRUNED);
                    w.digest(d);
                }
                VoNode::Internal { dim, value, .. } => {
                    w.u8(TAG_INTERNAL);
                    w.varint(*dim as u64);
                    w.f32(*value);
                }
                VoNode::Leaf(range) => {
                    let ids = self.ids(range);
                    w.u8(TAG_LEAF);
                    w.vseq_len(ids.len());
                    for &c in ids {
                        w.varint(c as u64);
                    }
                }
            }
        }
    }
}

impl Decode for VoTree {
    /// One node per iteration until the builder has seen a whole tree: the
    /// arena grows with the bytes consumed, never from a count they claim.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut b = VoTreeBuilder::default();
        while !b.complete {
            if b.depth > MAX_VO_DEPTH {
                return Err(WireError::DepthExceeded);
            }
            match r.u8()? {
                TAG_PRUNED => b.pruned(r.digest()?),
                TAG_INTERNAL => b.internal(decode_u32(r)?, r.f32()?),
                TAG_LEAF => {
                    let start = b.leaf_ids.len();
                    for _ in 0..r.vseq_len()? {
                        b.leaf_ids.push(decode_u32(r)?);
                    }
                    b.end_leaf(start)
                }
                t => return Err(WireError::InvalidTag(t)),
            };
        }
        Ok(b.finish())
    }
}

impl Encode for BovwVo {
    fn encode(&self, w: &mut Writer) {
        w.vseq_of(&self.clusters);
        self.tree.encode(w);
    }
}

impl Decode for BovwVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BovwVo {
            clusters: r.vseq()?,
            tree: VoTree::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<VoCluster> {
        vec![
            VoCluster {
                cluster: 3,
                inv_digest: Digest::of(b"inv-3"),
                reveal: Reveal::Full {
                    coords: vec![0.5, -1.25],
                },
            },
            VoCluster {
                cluster: 9,
                inv_digest: Digest::of(b"inv-9"),
                reveal: Reveal::Partial {
                    dim_root: Digest::of(b"dims"),
                    blocks: vec![(0, vec![1.0, 2.0]), (4, vec![-0.0])],
                    proof: SubsetProof {
                        n_leaves: 8,
                        fill: vec![Digest::of(b"fill-a"), Digest::of(b"fill-b")],
                    },
                },
            },
        ]
    }

    fn sample_vo() -> BovwVo {
        BovwVo {
            clusters: sample_rows(),
            tree: VoTreeBuilder::default()
                .internal(1, 0.75)
                .pruned(Digest::of(b"pruned"))
                .internal(0, -1.5)
                .leaf([9, 3])
                .pruned(Digest::of(b"other"))
                .finish(),
        }
    }

    #[test]
    fn reveal_roundtrips_all_variants() {
        for reveal in [
            Reveal::Full {
                coords: vec![1.0, f32::MIN_POSITIVE, -3.5],
            },
            Reveal::FullCompressed { coords: Vec::new() },
            Reveal::Partial {
                dim_root: Digest::of(b"root"),
                blocks: vec![(7, vec![0.25])],
                proof: SubsetProof {
                    n_leaves: 4,
                    fill: vec![Digest::of(b"f")],
                },
            },
        ] {
            let back = Reveal::from_wire(&reveal.to_wire()).expect("roundtrip");
            assert_eq!(back, reveal);
        }
    }

    #[test]
    fn table_rows_tree_and_vo_roundtrip() {
        for row in sample_rows() {
            assert_eq!(VoCluster::from_wire(&row.to_wire()).expect("rt"), row);
        }
        let vo = sample_vo();
        assert_eq!(VoTree::from_wire(&vo.tree.to_wire()).expect("rt"), vo.tree);
        assert_eq!(BovwVo::from_wire(&vo.to_wire()).expect("rt"), vo);
    }

    #[test]
    fn the_vo_ends_with_its_one_tree() {
        // No tree count and no second tree: the bytes after the table are
        // the tree's, and anything after its last node is trailing.
        let vo = sample_vo();
        let mut bytes = vo.to_wire();
        assert!(bytes.ends_with(&vo.tree.to_wire()));
        bytes.extend(VoTreeBuilder::default().leaf([3]).finish().to_wire());
        assert_eq!(BovwVo::from_wire(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn the_builder_links_children_and_leaf_ranges() {
        // ((stub, leaf[4 5]), (leaf[6], stub)) in pre-order.
        let tree = VoTreeBuilder::default()
            .internal(0, 1.0)
            .internal(1, 2.0)
            .pruned(Digest::of(b"a"))
            .leaf([4, 5])
            .internal(2, 3.0)
            .leaf([6])
            .pruned(Digest::of(b"b"))
            .finish();
        let rights: Vec<Option<usize>> = tree
            .nodes()
            .iter()
            .map(|node| match node {
                VoNode::Internal { right, .. } => Some(*right),
                _ => None,
            })
            .collect();
        assert_eq!(
            rights,
            vec![Some(4), Some(3), None, None, Some(6), None, None]
        );
        assert_eq!(tree.nodes()[3], VoNode::Leaf(0..2));
        assert_eq!(tree.nodes()[5], VoNode::Leaf(2..3));
        assert_eq!(tree.ids(&(2..3)), &[6]);
        assert_eq!(tree.leaf_ids(), &[4, 5, 6]);
        let ends: Vec<usize> = (0..7).map(|i| tree.subtree_end(i)).collect();
        assert_eq!(ends, vec![7, 4, 3, 4, 7, 6, 7]);
        // Replacing nothing reproduces the arena; replacing a subtree by
        // a stub re-links what follows it.
        assert_eq!(tree.splice(0..0, |_| {}), tree);
        let pruned = tree.splice(1..tree.subtree_end(1), |b| {
            b.pruned(Digest::of(b"left"));
        });
        assert_eq!(pruned.nodes().len(), 5);
        assert_eq!(
            pruned.nodes()[0],
            VoNode::Internal {
                dim: 0,
                value: 1.0,
                right: 2
            }
        );
        assert_eq!(pruned.leaf_ids(), &[6]);
    }

    #[test]
    #[should_panic(expected = "subtree missing")]
    fn the_builder_refuses_to_finish_half_a_tree() {
        VoTreeBuilder::default().internal(0, 0.0).leaf([1]).finish();
    }

    #[test]
    #[should_panic(expected = "after the VO tree's last")]
    fn the_builder_refuses_a_second_root() {
        VoTreeBuilder::default().leaf([1]).leaf([2]);
    }

    #[test]
    fn a_leaf_costs_its_ids_not_its_centroids() {
        // The whole point of the table: a leaf naming both rows is a tag,
        // a length and one varint per id — never the reveals. Here one
        // replaces a 33-byte stub.
        let mut vo = sample_vo();
        let before = vo.wire_size();
        vo.tree = vo.tree.splice(1..2, |b| {
            b.leaf([3, 9]);
        });
        assert_eq!(vo.wire_size(), before - 33 + 4);
    }

    #[test]
    fn decoder_accepts_deep_but_honest_nesting() {
        let mut b = VoTreeBuilder::default();
        for d in (0..64).rev() {
            b.internal(d, 0.0);
        }
        b.pruned(Digest::of(b"base"));
        for _ in 0..64 {
            b.pruned(Digest::of(b"r"));
        }
        let tree = b.finish();
        assert_eq!(VoTree::from_wire(&tree.to_wire()).expect("rt"), tree);
    }

    #[test]
    fn digest_patching_roundtrips_and_replaces_every_slot() {
        let vo = sample_vo();
        let mut own = Vec::new();
        vo.collect_digests(&mut own);
        // Two row inv digests first, then the pruned stubs in node order.
        assert_eq!(
            own,
            vec![
                Digest::of(b"inv-3"),
                Digest::of(b"inv-9"),
                Digest::of(b"pruned"),
                Digest::of(b"other"),
            ]
        );

        // Patching with its own digests reproduces the VO exactly.
        let mut cur = own.iter();
        let same = vo.with_digests(&mut cur).expect("self patch");
        assert!(cur.next().is_none());
        assert_eq!(same, vo);

        // Patching with fresh digests replaces exactly the collected slots
        // and nothing of the geometry.
        let fresh: Vec<Digest> = (0..own.len() as u8)
            .map(|i| Digest::of(&[i, 0xD1]))
            .collect();
        let mut cur = fresh.iter();
        let patched = vo.with_digests(&mut cur).expect("patch");
        assert!(cur.next().is_none());
        let mut collected = Vec::new();
        patched.collect_digests(&mut collected);
        assert_eq!(collected, fresh);
        assert_ne!(patched, vo);
        assert!(patched.same_geometry(&vo));
    }

    #[test]
    fn same_geometry_sees_every_change_but_a_digest() {
        let vo = sample_vo();
        let mut split = vo.clone();
        split.tree = split.tree.splice(0..1, |b| {
            b.internal(1, 0.5);
        });
        let mut renamed = vo.clone();
        renamed.tree = renamed.tree.splice(3..4, |b| {
            b.leaf([9, 4]);
        });
        let mut reshaped = vo.clone();
        reshaped.tree = reshaped.tree.splice(4..5, |b| {
            b.leaf([3]);
        });
        let mut revealed = vo.clone();
        revealed.clusters[0].reveal = Reveal::Full { coords: vec![0.5] };
        let mut shorter = vo.clone();
        shorter.tree = shorter.tree.splice(2..5, |b| {
            b.leaf([9, 3]);
        });
        for (what, other) in [
            ("split", split),
            ("leaf id", renamed),
            ("node kind", reshaped),
            ("reveal", revealed),
            ("node count", shorter),
        ] {
            assert!(!vo.same_geometry(&other), "{what}");
            assert!(!other.same_geometry(&vo), "{what}");
        }
    }

    #[test]
    fn digest_patching_rejects_short_payloads() {
        let vo = sample_vo();
        for short in 0..4 {
            let payload: Vec<Digest> = (0..short).map(|i| Digest::of(&[i])).collect();
            assert!(
                vo.with_digests(&mut payload.iter()).is_none(),
                "{short} digests"
            );
        }
        let five: Vec<Digest> = (0..5u8).map(|i| Digest::of(&[i])).collect();
        let mut cur = five.iter();
        assert!(vo.with_digests(&mut cur).is_some());
        assert_eq!(cur.len(), 1, "a long payload is left unfinished");
    }

    #[test]
    fn decoder_rejects_unbounded_nesting_without_overflowing() {
        // A 2-bytes-per-level hostile prefix: TAG_INTERNAL claims another
        // internal node far past any honest tree depth. The decoder must
        // return DepthExceeded (or UnexpectedEnd) rather than recurse into
        // a stack overflow.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_VO_DEPTH * 4) {
            bytes.push(TAG_INTERNAL);
            bytes.push(1); // varint dim
            bytes.extend_from_slice(&0f32.to_le_bytes());
        }
        assert_eq!(VoTree::from_wire(&bytes), Err(WireError::DepthExceeded));
    }
}
