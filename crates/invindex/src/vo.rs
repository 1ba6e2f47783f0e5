//! Verification-object types for authenticated inverted-index search
//! (`InvSearch`, paper Alg. 4) and their canonical wire encoding.
//!
//! With block-max posting lists, a partially-scanned list is proven by a
//! *skip proof*: the fence block's `(max_impact, digest)` pair. One digest
//! covers every unscanned block, and the bound is committed one level up
//! (by the last popped block's digest, or the list head when nothing was
//! popped), so the client both re-seals `h_Γ` and checks no skipped
//! posting could have entered the top-k — for four extra bytes over the
//! old per-posting seal.

use crate::merkle::Entry;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::Digest;

/// The undisclosed remainder of one posting list.
#[derive(Clone, Debug, PartialEq)]
pub enum RemainingVo {
    /// Every posting was popped (or the list was empty): only the filter
    /// digest is needed to rebuild `h_Γ` (Alg. 4 line 8).
    Exhausted { filter_digest: Digest },
    /// Whole blocks remain unscanned. The fence block (the first unscanned
    /// one) travels as its `(max_impact, digest)` pair: the client folds
    /// the pair under the popped prefix to re-seal `h_Γ` — each popped
    /// block's digest commits its successor's pair, so a forged bound or
    /// digest breaks the fold — and uses `max_impact` as the authenticated
    /// cap on every skipped posting. In the cuckoo-filtered schemes the
    /// filter itself travels so the client can reproduce the bounds
    /// (Alg. 4 line 11); the Baseline scheme sends its digest instead.
    Skipped {
        /// The fence block's bound: no skipped posting exceeds it, and it
        /// is committed by the preceding block digest (or the list head)
        /// so it cannot be forged.
        max_impact: f32,
        /// The fence block's digest — covers every unscanned block.
        fence_digest: Digest,
        filter: FilterVo,
    },
}

/// How the cuckoo filter of a partially-popped list is conveyed.
#[derive(Clone, Debug, PartialEq)]
pub enum FilterVo {
    /// Canonical filter bytes (ImageProof / Optimized schemes).
    Bytes(Vec<u8>),
    /// Digest only (Baseline: bounds don't use the filter, but `h_Γ`
    /// reconstruction still needs `h(Θ)`).
    DigestOnly(Digest),
}

/// One relevant list's share of the VO (Alg. 4 lines 2–11), over entries
/// of type `E`.
#[derive(Clone, Debug, PartialEq)]
pub struct ListVoOf<E> {
    pub cluster: u32,
    /// `w_c`, needed by the client to compute `p_Q` (Alg. 4 line 3).
    pub weight: f32,
    /// The popped prefix, in list order — always a whole number of blocks
    /// when followed by a skip proof.
    pub popped: Vec<E>,
    pub remaining: RemainingVo,
}

/// The complete inverted-index VO (`VO_inv`): one entry per query-relevant
/// cluster, ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct InvVoOf<E> {
    pub lists: Vec<ListVoOf<E>>,
}

const TAG_EXHAUSTED: u8 = 0;
const TAG_SKIPPED_BYTES: u8 = 1;
const TAG_SKIPPED_DIGEST: u8 = 2;

impl Encode for RemainingVo {
    fn encode(&self, w: &mut Writer) {
        match self {
            RemainingVo::Exhausted { filter_digest } => {
                w.u8(TAG_EXHAUSTED);
                w.digest(filter_digest);
            }
            RemainingVo::Skipped {
                max_impact,
                fence_digest,
                filter: FilterVo::Bytes(bytes),
            } => {
                w.u8(TAG_SKIPPED_BYTES);
                w.f32(*max_impact);
                w.digest(fence_digest);
                w.vbytes(bytes);
            }
            RemainingVo::Skipped {
                max_impact,
                fence_digest,
                filter: FilterVo::DigestOnly(d),
            } => {
                w.u8(TAG_SKIPPED_DIGEST);
                w.f32(*max_impact);
                w.digest(fence_digest);
                w.digest(d);
            }
        }
    }
}

impl Decode for RemainingVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            TAG_EXHAUSTED => RemainingVo::Exhausted {
                filter_digest: r.digest()?,
            },
            TAG_SKIPPED_BYTES => RemainingVo::Skipped {
                max_impact: r.f32()?,
                fence_digest: r.digest()?,
                filter: FilterVo::Bytes(r.vbytes()?),
            },
            TAG_SKIPPED_DIGEST => RemainingVo::Skipped {
                max_impact: r.f32()?,
                fence_digest: r.digest()?,
                filter: FilterVo::DigestOnly(r.digest()?),
            },
            t => return Err(WireError::InvalidTag(t)),
        })
    }
}

impl<E: Entry> Encode for ListVoOf<E> {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.cluster as u64);
        w.f32(self.weight);
        w.vseq_len(self.popped.len());
        for e in &self.popped {
            e.encode_entry(w);
        }
        self.remaining.encode(w);
    }
}

impl<E: Entry> Decode for ListVoOf<E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ListVoOf {
            cluster: u32::try_from(r.varint()?).map_err(|_| WireError::LengthOverflow)?,
            weight: r.f32()?,
            popped: r.vseq_with(E::decode_entry)?,
            remaining: RemainingVo::decode(r)?,
        })
    }
}

impl<E: Entry> Encode for InvVoOf<E> {
    fn encode(&self, w: &mut Writer) {
        w.vseq_of(&self.lists);
    }
}

impl<E: Entry> Decode for InvVoOf<E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InvVoOf { lists: r.vseq()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::Posting;

    #[test]
    fn remaining_vo_round_trips() {
        let arms = [
            RemainingVo::Exhausted {
                filter_digest: Digest::of(b"filter"),
            },
            RemainingVo::Skipped {
                max_impact: 0.25,
                fence_digest: Digest::of(b"fence"),
                filter: FilterVo::Bytes(vec![7, 8, 9]),
            },
            RemainingVo::Skipped {
                max_impact: 0.5,
                fence_digest: Digest::of(b"fence2"),
                filter: FilterVo::DigestOnly(Digest::of(b"fd")),
            },
        ];
        for arm in arms {
            let bytes = arm.to_wire();
            assert_eq!(RemainingVo::from_wire(&bytes).expect("round trip"), arm);
        }
    }

    #[test]
    fn inv_vo_round_trips() {
        let vo = InvVoOf::<Posting> {
            lists: vec![
                ListVoOf::<Posting> {
                    cluster: 5,
                    weight: 2.5,
                    popped: vec![(1, 0.34), (3, 0.26)],
                    remaining: RemainingVo::Skipped {
                        max_impact: 0.2,
                        fence_digest: Digest::of(b"fence"),
                        filter: FilterVo::Bytes(vec![1, 2, 3, 4]),
                    },
                },
                ListVoOf::<Posting> {
                    cluster: 6,
                    weight: 1.5,
                    popped: vec![],
                    remaining: RemainingVo::Exhausted {
                        filter_digest: Digest::of(b"filter"),
                    },
                },
                ListVoOf::<Posting> {
                    cluster: 9,
                    weight: 0.5,
                    popped: vec![(42, 0.1)],
                    remaining: RemainingVo::Skipped {
                        max_impact: 0.05,
                        fence_digest: Digest::of(b"fence2"),
                        filter: FilterVo::DigestOnly(Digest::of(b"fd")),
                    },
                },
            ],
        };
        let bytes = vo.to_wire();
        assert_eq!(
            InvVoOf::<Posting>::from_wire(&bytes).expect("round trip"),
            vo
        );
    }

    #[test]
    fn malformed_tag_is_rejected() {
        let vo = InvVoOf::<Posting> {
            lists: vec![ListVoOf::<Posting> {
                cluster: 1,
                weight: 1.0,
                popped: vec![],
                remaining: RemainingVo::Exhausted {
                    filter_digest: Digest::of(b"x"),
                },
            }],
        };
        let mut bytes = vo.to_wire();
        // The remaining-tag byte sits after the varint list count (1), the
        // varint cluster (1), the f32 weight (4), and the varint popped
        // count (1); flip it to an invalid value.
        let tag_pos = 1 + 1 + 4 + 1;
        bytes[tag_pos] = 9;
        assert!(InvVoOf::<Posting>::from_wire(&bytes).is_err());
    }
}
