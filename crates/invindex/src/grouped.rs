//! The frequency-grouped Merkle inverted index (paper §VI-B, Defs. 6–7) —
//! the second optimization of ImageProof.
//!
//! Images with the same frequency count in a cluster are grouped into one
//! posting: `⟨frequency, (I_1, ‖B_{I_1}‖; …; I_n, ‖B_{I_n}‖), digest⟩`. The
//! first member has the smallest L2 norm (hence the largest impact, which
//! serves as the posting's impact); the remaining members are kept in
//! document (image-id) order so the wire encoding can d-gap + varint
//! compress them (§VI-B last paragraph). Grouping shrinks the VO and the
//! number of digest reconstructions the client performs, without changing
//! the termination conditions.
//!
//! Only the list *entry* differs from the plain index: this module holds
//! [`Group`], its digest, its d-gap codec and the by-frequency grouping
//! step, as an [`Entry`] implementation. Blocks, skip proofs, search, the
//! VO and verification are the shared engine's
//! ([`crate::merkle`], [`crate::search`], [`crate::vo`], [`crate::verify`]).

use crate::bounds::BoundsMode;
use crate::merkle::{Entry, Index, ListEdit};
use crate::search::{search, SearchResult, SearchTuning};
use crate::verify::{verify, InvVerifyError, VerifiedTopk};
use crate::vo::InvVoOf;
use imageproof_akm::bovw::{impact_value, SparseBovw};
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::{Digest, DigestBuilder, FieldSink};
use std::collections::BTreeMap;

/// One frequency-grouped posting.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// The shared frequency count `f`.
    pub frequency: u32,
    /// `(image, ‖B_I‖)` members: `members[0]` has the smallest norm (the
    /// posting head, whose impact is the group impact); the rest ascend by
    /// image id (document order).
    pub members: Vec<(u64, f32)>,
}

/// The message of a grouped posting's digest given its successor's
/// (Def. 6; the worked example in Table III includes the frequency, so we
/// bind it too).
pub fn group_digest<S: FieldSink>(b: DigestBuilder<S>, group: &Group, next: &Digest) -> S::Out {
    let mut b = b.u32(group.frequency).u64(group.members.len() as u64);
    for &(image, norm) in &group.members {
        b = b.u64(image).f32(norm);
    }
    b.digest(next).finish()
}

impl Entry for Group {
    fn chain_digest<S: FieldSink>(&self, b: DigestBuilder<S>, next: &Digest) -> S::Out {
        group_digest(b, self, next)
    }

    /// The head member's impact (the largest in the group).
    fn head_impact(&self, weight: f32) -> f32 {
        self.members
            .first()
            .map_or(0.0, |&(_, norm)| impact_value(weight, self.frequency, norm))
    }

    fn tie_break(&self) -> u64 {
        u64::from(self.frequency)
    }

    fn expand(&self, weight: f32, out: &mut Vec<(u64, f32)>) {
        out.extend(
            self.members
                .iter()
                .map(|&(image, norm)| (image, impact_value(weight, self.frequency, norm))),
        );
    }

    fn well_formed(&self) -> bool {
        !self.members.is_empty()
    }

    fn encode_entry(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn decode_entry(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Group::decode(r)
    }

    fn logical_bytes(&self) -> usize {
        4 + self.members.len() * (8 + 4)
    }

    /// The by-frequency grouping step (Def. 6).
    fn from_records(_weight: f32, records: &[(u64, u32, f32)]) -> Vec<Self> {
        let mut by_freq: BTreeMap<u32, Vec<(u64, f32)>> = BTreeMap::new();
        for &(image, frequency, norm) in records {
            by_freq.entry(frequency).or_default().push((image, norm));
        }
        by_freq
            .into_iter()
            .map(|(frequency, mut members)| {
                // Head: smallest norm (ties: smallest id); rest: id order.
                members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                let head = members.remove(0);
                members.sort_by_key(|&(id, _)| id);
                members.insert(0, head);
                Group { frequency, members }
            })
            .collect()
    }

    fn edited(entries: &[Self], weight: f32, edit: ListEdit) -> Vec<Self> {
        let mut records: Vec<(u64, u32, f32)> = entries
            .iter()
            .flat_map(|g| {
                let members = g.members.iter();
                members.map(move |&(image, norm)| (image, g.frequency, norm))
            })
            .collect();
        match edit {
            ListEdit::Insert {
                image,
                frequency,
                norm,
            } => records.push((image, frequency, norm)),
            ListEdit::Remove { image } => records.retain(|r| r.0 != image),
        }
        Self::from_records(weight, &records)
    }
}

impl Encode for Group {
    fn encode(&self, w: &mut Writer) {
        // Compact representation (§VI-B): varint frequency, varint member
        // count, head (varint id + norm), then d-gap varint ids + norms.
        // The head leaves the d-gap base at 0, so the first id after it is
        // absolute too.
        w.varint(self.frequency as u64);
        w.vseq_len(self.members.len());
        let mut prev = 0u64;
        for (i, &(id, norm)) in self.members.iter().enumerate() {
            w.varint(id.wrapping_sub(prev));
            w.f32(norm);
            if i > 0 {
                prev = id;
            }
        }
    }
}

impl Decode for Group {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let frequency = u32::try_from(r.varint()?).map_err(|_| WireError::LengthOverflow)?;
        let mut head = true;
        let mut prev = 0u64;
        let members = r.vseq_with(|r| {
            let id = prev.wrapping_add(r.varint()?);
            if !std::mem::take(&mut head) {
                prev = id;
            }
            Ok((id, r.f32()?))
        })?;
        if members.is_empty() {
            return Err(WireError::InvalidTag(0));
        }
        Ok(Group { frequency, members })
    }
}

/// Authenticated top-k search over the grouped index (always uses the
/// cuckoo-filtered bounds — grouping is an *addition* to ImageProof).
pub fn grouped_search(
    index: &Index<Group>,
    query_bovw: &SparseBovw,
    k: usize,
) -> SearchResult<Group> {
    let mode = BoundsMode::CuckooFiltered;
    search(index, query_bovw, k, mode, SearchTuning::GROUPED, "grouped")
}

/// Client-side verification of a grouped VO.
pub fn verify_grouped_topk(
    vo: &InvVoOf<Group>,
    query_bovw: &SparseBovw,
    authenticated_digests: &BTreeMap<u32, Digest>,
    claimed: &[u64],
    k: usize,
) -> Result<VerifiedTopk, InvVerifyError> {
    let mode = BoundsMode::CuckooFiltered;
    verify(vo, query_bovw, authenticated_digests, claimed, k, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::Posting;
    use crate::search::{exhaustive_topk, inv_search};
    use crate::vo::ListVoOf;
    use imageproof_akm::bovw::{impacts_with_weights, ImpactModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn images(n_images: u64, n_clusters: usize, seed: u64) -> Vec<(u64, SparseBovw)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_images)
            .map(|id| {
                let pairs: Vec<(u32, u32)> = (0..rng.gen_range(3..9))
                    .map(|_| {
                        let u: f64 = rng.gen();
                        let c = ((u * u) * n_clusters as f64) as u32;
                        (c.min(n_clusters as u32 - 1), rng.gen_range(1..4))
                    })
                    .collect();
                (id, SparseBovw::from_counts(pairs))
            })
            .collect()
    }

    fn both_indexes(n_images: u64, n_clusters: usize, seed: u64) -> (Index<Posting>, Index<Group>) {
        let imgs = images(n_images, n_clusters, seed);
        let encodings: Vec<SparseBovw> = imgs.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(n_clusters, &encodings);
        (
            Index::<Posting>::build(n_clusters, &imgs, &model),
            Index::<Group>::build(n_clusters, &imgs, &model),
        )
    }

    fn query(seed: u64, n_clusters: usize) -> SparseBovw {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(u32, u32)> = (0..6)
            .map(|_| {
                let u: f64 = rng.gen();
                let c = ((u * u) * n_clusters as f64) as u32;
                (c.min(n_clusters as u32 - 1), rng.gen_range(1..3))
            })
            .collect();
        SparseBovw::from_counts(pairs)
    }

    #[test]
    fn grouped_topk_matches_ungrouped_topk() {
        let (plain, grouped) = both_indexes(300, 30, 31);
        for qseed in 0..4 {
            let q = query(60 + qseed, 30);
            let impacts = impacts_with_weights(&q, |c| plain.list(c).weight);
            let a = exhaustive_topk(&plain, &impacts, 10);
            let impacts_g = impacts_with_weights(&q, |c| grouped.list(c).weight);
            let b = exhaustive_topk(&grouped, &impacts_g, 10);
            let ids_a: Vec<u64> = a.iter().map(|&(i, _)| i).collect();
            let ids_b: Vec<u64> = b.iter().map(|&(i, _)| i).collect();
            assert_eq!(ids_a, ids_b, "qseed {qseed}");
        }
    }

    #[test]
    fn honest_grouped_search_verifies() {
        let (_, grouped) = both_indexes(300, 30, 32);
        let digests: BTreeMap<u32, Digest> = grouped
            .lists()
            .iter()
            .map(|l| (l.cluster, l.digest))
            .collect();
        for qseed in 0..4 {
            let q = query(70 + qseed, 30);
            let out = grouped_search(&grouped, &q, 8);
            let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
            let v = verify_grouped_topk(&out.vo, &q, &digests, &claimed, 8)
                .expect("honest grouped VO verifies");
            for ((vi, vs), (si, ss)) in v.topk.iter().zip(&out.topk) {
                assert_eq!(vi, si);
                assert_eq!(vs, ss);
            }
        }
    }

    #[test]
    fn grouped_vo_is_smaller_than_ungrouped_vo() {
        let (plain, grouped) = both_indexes(500, 20, 33);
        let mut grouped_bytes = 0usize;
        let mut plain_bytes = 0usize;
        for qseed in 0..5 {
            let q = query(80 + qseed, 20);
            grouped_bytes += grouped_search(&grouped, &q, 10).vo.wire_size();
            plain_bytes += inv_search(&plain, &q, 10, BoundsMode::CuckooFiltered)
                .vo
                .wire_size();
        }
        assert!(
            grouped_bytes < plain_bytes,
            "grouped {grouped_bytes} >= plain {plain_bytes}"
        );
    }

    #[test]
    fn grouped_vo_round_trips_on_wire() {
        let (_, grouped) = both_indexes(200, 20, 34);
        let q = query(90, 20);
        let out = grouped_search(&grouped, &q, 5);
        let bytes = out.vo.to_wire();
        assert_eq!(
            InvVoOf::<Group>::from_wire(&bytes).expect("round trip"),
            out.vo
        );
        // Per-list roundtrip, covering `ListVoOf<Group>`'s own wire impls.
        for list in &out.vo.lists {
            assert_eq!(
                ListVoOf::<Group>::from_wire(&list.to_wire()).expect("round trip"),
                *list
            );
        }
    }

    #[test]
    fn group_heads_have_the_minimum_norm() {
        let (_, grouped) = both_indexes(300, 15, 35);
        for list in grouped.lists() {
            for g in &list.postings {
                let head_norm = g.members[0].1;
                for &(_, norm) in &g.members[1..] {
                    assert!(head_norm <= norm);
                }
            }
        }
    }

    #[test]
    fn groups_are_impact_descending() {
        let (_, grouped) = both_indexes(300, 15, 36);
        for list in grouped.lists() {
            for w in list.postings.windows(2) {
                assert!(w[0].head_impact(list.weight) >= w[1].head_impact(list.weight));
            }
        }
    }

    #[test]
    fn tampered_group_member_breaks_digest() {
        let (_, grouped) = both_indexes(200, 15, 37);
        let digests: BTreeMap<u32, Digest> = grouped
            .lists()
            .iter()
            .map(|l| (l.cluster, l.digest))
            .collect();
        let q = query(91, 15);
        let out = grouped_search(&grouped, &q, 5);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let g = forged
            .lists
            .iter_mut()
            .find_map(|l| l.popped.first_mut())
            .expect("something popped");
        g.members[0].1 += 1.0;
        assert!(matches!(
            verify_grouped_topk(&forged, &q, &digests, &claimed, 5),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn d_gap_encoding_is_compact_for_dense_ids() {
        let g = Group {
            frequency: 2,
            members: vec![(5, 1.0), (6, 2.0), (7, 3.0), (8, 4.0)],
        };
        // freq (1) + count (1) + 4 members x (1-byte id + 4-byte norm).
        assert!(g.to_wire().len() <= 24);
    }
}
