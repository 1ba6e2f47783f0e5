//! Verification-object types for authenticated BoVW encoding
//! (`MRKDSearch`, paper Alg. 1) and their canonical wire encoding.

use imageproof_crypto::merkle::SubsetProof;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::Digest;

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
/// about a cluster, disclosed once however many trees' leaves name it.
#[derive(Clone, Debug, PartialEq)]
pub struct VoCluster {
    pub cluster: u32,
    /// `h_{Γ_{c}}`: digest of the cluster's Merkle inverted list (Def. 3
    /// embeds it in the leaf).
    pub inv_digest: Digest,
    pub reveal: Reveal,
}

/// A node of the VO tree mirroring the SP's traversal of one MRKD-tree.
#[derive(Clone, Debug, PartialEq)]
pub enum VoNode {
    /// Subtree no query vector reached: only its digest (Alg. 1 line 2).
    Pruned(Digest),
    /// Disclosed internal node: the splitting hyperplane plus children
    /// (Alg. 1 line 8).
    Internal {
        dim: u32,
        value: f32,
        left: Box<VoNode>,
        right: Box<VoNode>,
    },
    /// Disclosed leaf (Alg. 1 lines 4–7): the leaf's cluster ids in leaf
    /// order, each naming a row of [`BovwVo::clusters`].
    Leaf { clusters: Vec<u32> },
}

/// The complete BoVW-encoding VO: one [`VoNode`] tree per MRKD-tree
/// (`{VO_{C,i}}` of Alg. 5) over one shared cluster table. Every cluster
/// sits in every tree of the forest, so the table reveals it once and the
/// leaves only name it.
#[derive(Clone, Debug, PartialEq)]
pub struct BovwVo {
    /// Strictly ascending by cluster id; a row is authenticated only by a
    /// leaf naming it that chains to a root (see `verify_bovw`).
    pub clusters: Vec<VoCluster>,
    pub trees: Vec<VoNode>,
}

/// Read cursor over a flat digest list, used to re-instantiate a VO
/// template with another shard's digests ([`BovwVo::with_digests`]). All
/// access is bounds-checked: running past the end yields `None`, never a
/// panic — the digests come from an untrusted sharded response.
pub struct DigestCursor<'a> {
    digests: &'a [Digest],
    pos: usize,
}

impl<'a> DigestCursor<'a> {
    pub fn new(digests: &'a [Digest]) -> DigestCursor<'a> {
        DigestCursor { digests, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a Digest> {
        let d = self.digests.get(self.pos)?;
        self.pos += 1;
        Some(d)
    }

    /// True when every digest has been consumed — a patch must use its
    /// payload exactly.
    pub fn exhausted(&self) -> bool {
        self.pos == self.digests.len()
    }
}

impl VoNode {
    /// Appends this tree's pruned-subtree stubs to `out`, in DFS order
    /// (left subtree, then right).
    fn collect_digests(&self, out: &mut Vec<Digest>) {
        match self {
            VoNode::Pruned(d) => out.push(*d),
            VoNode::Internal { left, right, .. } => {
                left.collect_digests(out);
                right.collect_digests(out);
            }
            VoNode::Leaf { .. } => {}
        }
    }

    /// Rebuilds this tree with its pruned stubs replaced from `cur`, in
    /// the order [`VoNode::collect_digests`] emits. `None` when the cursor
    /// runs dry (shape/payload mismatch).
    fn with_digests(&self, cur: &mut DigestCursor<'_>) -> Option<VoNode> {
        match self {
            VoNode::Pruned(_) => Some(VoNode::Pruned(*cur.next()?)),
            VoNode::Internal {
                dim,
                value,
                left,
                right,
            } => {
                let left = left.with_digests(cur)?;
                let right = right.with_digests(cur)?;
                Some(VoNode::Internal {
                    dim: *dim,
                    value: *value,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            VoNode::Leaf { clusters } => Some(VoNode::Leaf {
                clusters: clusters.clone(),
            }),
        }
    }
}

impl BovwVo {
    /// Appends this VO's shard-varying digests to `out`: every table row's
    /// inverted-list digest once, in row order, then each tree's pruned
    /// stubs in DFS order. Everything else in a VO (splits, cluster ids,
    /// centroid reveals, subset proofs) depends only on the query and the
    /// shared codebook, so two shards' VOs for one query differ exactly in
    /// this digest sequence.
    pub fn collect_digests(&self, out: &mut Vec<Digest>) {
        out.extend(self.clusters.iter().map(|row| row.inv_digest));
        for t in &self.trees {
            t.collect_digests(out);
        }
    }

    /// Rebuilds this VO with its shard-varying digests replaced from `cur`,
    /// in the order [`BovwVo::collect_digests`] emits; `None` when the
    /// cursor runs dry. The caller checks cursor exhaustion across whatever
    /// set of VOs shares one digest payload.
    pub fn with_digests(&self, cur: &mut DigestCursor<'_>) -> Option<BovwVo> {
        let mut clusters = Vec::with_capacity(self.clusters.len());
        for row in &self.clusters {
            clusters.push(VoCluster {
                cluster: row.cluster,
                inv_digest: *cur.next()?,
                reveal: row.reveal.clone(),
            });
        }
        let mut trees = Vec::with_capacity(self.trees.len());
        for t in &self.trees {
            trees.push(t.with_digests(cur)?);
        }
        Some(BovwVo { clusters, trees })
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
                w.vseq_len(coords.len());
                for &c in coords {
                    w.f32(c);
                }
            }
            Reveal::FullCompressed { coords } => {
                w.u8(TAG_FULL_COMPRESSED);
                w.vseq_len(coords.len());
                for &c in coords {
                    w.f32(c);
                }
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
                    w.vseq_len(coords.len());
                    for &v in coords {
                        w.f32(v);
                    }
                }
                w.varint(proof.n_leaves as u64);
                w.vseq_len(proof.fill.len());
                for d in &proof.fill {
                    w.digest(d);
                }
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
        let tag = r.u8()?;
        match tag {
            TAG_FULL | TAG_FULL_COMPRESSED => {
                let n = r.vseq_len()?;
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    coords.push(r.f32()?);
                }
                if tag == TAG_FULL {
                    Ok(Reveal::Full { coords })
                } else {
                    Ok(Reveal::FullCompressed { coords })
                }
            }
            TAG_PARTIAL => {
                let dim_root = r.digest()?;
                let n = r.vseq_len()?;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    let b = decode_u32(r)?;
                    let len = r.vseq_len()?;
                    let mut coords = Vec::with_capacity(len);
                    for _ in 0..len {
                        coords.push(r.f32()?);
                    }
                    blocks.push((b, coords));
                }
                let n_leaves = decode_u32(r)?;
                let fills = r.vseq_len()?;
                let mut fill = Vec::with_capacity(fills);
                for _ in 0..fills {
                    fill.push(r.digest()?);
                }
                Ok(Reveal::Partial {
                    dim_root,
                    blocks,
                    proof: SubsetProof { n_leaves, fill },
                })
            }
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

/// Deepest `Internal` nesting the decoder accepts. A hostile VO can claim
/// one internal node per two bytes, so unbounded recursion would let the
/// SP overflow the client's stack; real MRKD-trees are ~log₂(clusters)
/// deep, orders of magnitude below this cap.
pub const MAX_VO_DEPTH: usize = 512;

impl Encode for VoNode {
    fn encode(&self, w: &mut Writer) {
        match self {
            VoNode::Pruned(d) => {
                w.u8(TAG_PRUNED);
                w.digest(d);
            }
            VoNode::Internal {
                dim,
                value,
                left,
                right,
            } => {
                w.u8(TAG_INTERNAL);
                w.varint(*dim as u64);
                w.f32(*value);
                left.encode(w);
                right.encode(w);
            }
            VoNode::Leaf { clusters } => {
                w.u8(TAG_LEAF);
                w.vseq_len(clusters.len());
                for &c in clusters {
                    w.varint(c as u64);
                }
            }
        }
    }
}

impl VoNode {
    fn decode_at(r: &mut Reader<'_>, depth: usize) -> Result<Self, WireError> {
        if depth > MAX_VO_DEPTH {
            return Err(WireError::DepthExceeded);
        }
        match r.u8()? {
            TAG_PRUNED => Ok(VoNode::Pruned(r.digest()?)),
            TAG_INTERNAL => Ok(VoNode::Internal {
                dim: decode_u32(r)?,
                value: r.f32()?,
                left: Box::new(VoNode::decode_at(r, depth + 1)?),
                right: Box::new(VoNode::decode_at(r, depth + 1)?),
            }),
            TAG_LEAF => {
                let n = r.vseq_len()?;
                let mut clusters = Vec::with_capacity(n);
                for _ in 0..n {
                    clusters.push(decode_u32(r)?);
                }
                Ok(VoNode::Leaf { clusters })
            }
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Decode for VoNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        VoNode::decode_at(r, 0)
    }
}

impl Encode for BovwVo {
    fn encode(&self, w: &mut Writer) {
        w.vseq_len(self.clusters.len());
        for row in &self.clusters {
            row.encode(w);
        }
        w.vseq_len(self.trees.len());
        for t in &self.trees {
            t.encode(w);
        }
    }
}

impl Decode for BovwVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.vseq_len()?;
        let mut clusters = Vec::with_capacity(n);
        for _ in 0..n {
            clusters.push(VoCluster::decode(r)?);
        }
        let n = r.vseq_len()?;
        let mut trees = Vec::with_capacity(n);
        for _ in 0..n {
            trees.push(VoNode::decode(r)?);
        }
        Ok(BovwVo { clusters, trees })
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
            trees: vec![
                VoNode::Internal {
                    dim: 1,
                    value: 0.75,
                    left: Box::new(VoNode::Pruned(Digest::of(b"pruned"))),
                    right: Box::new(VoNode::Leaf {
                        clusters: vec![9, 3],
                    }),
                },
                VoNode::Pruned(Digest::of(b"other")),
            ],
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
    fn table_rows_nodes_and_vo_roundtrip() {
        for row in sample_rows() {
            assert_eq!(VoCluster::from_wire(&row.to_wire()).expect("rt"), row);
        }
        let vo = sample_vo();
        for node in &vo.trees {
            assert_eq!(&VoNode::from_wire(&node.to_wire()).expect("rt"), node);
        }
        assert_eq!(BovwVo::from_wire(&vo.to_wire()).expect("rt"), vo);
    }

    #[test]
    fn a_leaf_costs_its_ids_not_its_centroids() {
        // The whole point of the table: a second leaf naming both rows
        // adds a tag, a length and one varint per id — never the reveals.
        let mut vo = sample_vo();
        let before = vo.wire_size();
        vo.trees.push(VoNode::Leaf {
            clusters: vec![3, 9],
        });
        assert_eq!(vo.wire_size(), before + 4);
    }

    #[test]
    fn decoder_accepts_deep_but_honest_nesting() {
        let mut node = VoNode::Pruned(Digest::of(b"base"));
        for d in 0..64 {
            node = VoNode::Internal {
                dim: d,
                value: 0.0,
                left: Box::new(node),
                right: Box::new(VoNode::Pruned(Digest::of(b"r"))),
            };
        }
        assert_eq!(VoNode::from_wire(&node.to_wire()).expect("rt"), node);
    }

    #[test]
    fn digest_patching_roundtrips_and_replaces_every_slot() {
        let vo = sample_vo();
        let mut own = Vec::new();
        vo.collect_digests(&mut own);
        // Two row inv digests first, then one pruned stub per tree.
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
        let mut cur = DigestCursor::new(&own);
        let same = vo.with_digests(&mut cur).expect("self patch");
        assert!(cur.exhausted());
        assert_eq!(same, vo);

        // Patching with fresh digests replaces exactly the collected slots.
        let fresh: Vec<Digest> = (0..own.len() as u8)
            .map(|i| Digest::of(&[i, 0xD1]))
            .collect();
        let mut cur = DigestCursor::new(&fresh);
        let patched = vo.with_digests(&mut cur).expect("patch");
        assert!(cur.exhausted());
        let mut collected = Vec::new();
        patched.collect_digests(&mut collected);
        assert_eq!(collected, fresh);
        // Geometry untouched: zeroing digests on both sides yields equality.
        let zero: Vec<Digest> = fresh.iter().map(|_| Digest::of(b"z")).collect();
        let a = vo.with_digests(&mut DigestCursor::new(&zero)).unwrap();
        let b = patched.with_digests(&mut DigestCursor::new(&zero)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn digest_patching_rejects_short_payloads() {
        let vo = sample_vo();
        for short in 0..4 {
            let payload: Vec<Digest> = (0..short).map(|i| Digest::of(&[i])).collect();
            let mut cur = DigestCursor::new(&payload);
            assert!(vo.with_digests(&mut cur).is_none(), "{short} digests");
        }
        let five: Vec<Digest> = (0..5u8).map(|i| Digest::of(&[i])).collect();
        let mut cur = DigestCursor::new(&five);
        assert!(vo.with_digests(&mut cur).is_some());
        assert!(
            !cur.exhausted(),
            "long payload leaves the cursor unfinished"
        );
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
        assert_eq!(VoNode::from_wire(&bytes), Err(WireError::DepthExceeded));
    }
}
