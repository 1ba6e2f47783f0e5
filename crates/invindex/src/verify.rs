//! Client-side verification of authenticated top-k search
//! (paper §IV-B2 "Verification").
//!
//! The client holds: the verified BoVW vector `B_Q` (from MRKD
//! verification), the authenticated per-cluster list digests `h_{Γ_c}`
//! (bound into the MRKD leaf digests), the claimed top-k image ids, and the
//! inverted-index VO. It:
//!
//! 1. checks the VO covers exactly the query-relevant clusters;
//! 2. reconstructs every `h_{Γ_c}` from the popped prefix (re-blocked into
//!    [`BLOCK_SIZE`] chunks), the fence block's `(max_impact, digest)`
//!    pair, the weight, and the filter (bytes or digest) and compares with the
//!    authenticated digest — this authenticates weights, popped postings,
//!    their order, the per-block `max_impact` bounds, and the filters in
//!    one shot. The lists are checked for shape first, then all sealed in
//!    one batch by [`crate::merkle`]'s chain-position scheduler, then
//!    compared; the error is still the first faulty list's in cluster
//!    order, with a list's structural fault ahead of its mismatch;
//! 3. recomputes `p_Q` from `B_Q` and the verified weights;
//! 4. deletes popped images from the filters and re-evaluates the
//!    termination conditions with the shared [`crate::bounds`] logic,
//!    using the *authenticated* fence `max_impact` as each unexhausted
//!    list's remaining cap — exactly the cap the SP's block-max skip test
//!    used, so a block whose bound could still beat the k-th score can
//!    never be silently skipped.
//!
//! Success proves the claimed set is a genuine top-k (Def. 1).

use crate::bounds::{evaluate, BoundsMode, ListSnapshot};
use crate::merkle::{expand_all, seal, Entry, Posting, SealJob, BLOCK_SIZE};
use crate::vo::{FilterVo, InvVoOf, ListVoOf, RemainingVo};
use imageproof_akm::bovw::{impacts_with_weights, SparseBovw};
use imageproof_crypto::Digest;
use imageproof_cuckoo::CuckooFilter;
use std::collections::{BTreeMap, BTreeSet};

/// Why an inverted-index VO was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvVerifyError {
    /// VO lists do not match the query-relevant clusters.
    ClusterMismatch,
    /// A reconstructed list digest differs from the authenticated `h_Γ`.
    DigestMismatch { cluster: u32 },
    /// No authenticated digest is known for a cluster in the VO.
    UnknownCluster { cluster: u32 },
    /// The filter bytes in the VO are not a canonical serialization, or a
    /// popped entry is not [`Entry::well_formed`] (an empty group).
    MalformedFilter { cluster: u32 },
    /// The filter form does not match the scheme (bytes vs digest-only).
    WrongFilterForm { cluster: u32 },
    /// A skip proof rides on a popped prefix that is not a whole number of
    /// blocks — the VO cannot have come from a block-granular search.
    BlockShapeInvalid { cluster: u32 },
    /// Termination condition 1 fails: an unpopped image could still beat the
    /// claimed winners.
    Condition1Failed,
    /// Termination condition 2 fails for this popped image.
    Condition2Failed { image: u64 },
    /// A claimed winner never appears in any popped posting.
    WinnerUnsupported { image: u64 },
    /// Claimed winners are not distinct.
    DuplicateWinner { image: u64 },
    /// Fewer than `k` winners claimed while undisclosed postings remain.
    ShortResult,
}

impl std::fmt::Display for InvVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvVerifyError::ClusterMismatch => {
                write!(f, "VO lists do not match the query clusters")
            }
            InvVerifyError::DigestMismatch { cluster } => {
                write!(f, "list digest mismatch for cluster {cluster}")
            }
            InvVerifyError::UnknownCluster { cluster } => {
                write!(f, "no authenticated digest for cluster {cluster}")
            }
            InvVerifyError::MalformedFilter { cluster } => {
                write!(f, "malformed filter bytes for cluster {cluster}")
            }
            InvVerifyError::WrongFilterForm { cluster } => {
                write!(f, "unexpected filter form for cluster {cluster}")
            }
            InvVerifyError::BlockShapeInvalid { cluster } => {
                write!(
                    f,
                    "skip proof on a non-block-aligned popped prefix for cluster {cluster}"
                )
            }
            InvVerifyError::Condition1Failed => {
                write!(
                    f,
                    "termination condition 1 fails: unexplored postings could win"
                )
            }
            InvVerifyError::Condition2Failed { image } => {
                write!(f, "termination condition 2 fails for image {image}")
            }
            InvVerifyError::WinnerUnsupported { image } => {
                write!(f, "claimed winner {image} has no popped posting")
            }
            InvVerifyError::DuplicateWinner { image } => {
                write!(f, "winner {image} claimed twice")
            }
            InvVerifyError::ShortResult => {
                write!(f, "fewer than k winners while postings remain undisclosed")
            }
        }
    }
}

impl std::error::Error for InvVerifyError {}

/// The verified outcome: winners with their proven lower-bound scores.
#[derive(Debug, Clone)]
pub struct VerifiedTopk {
    /// `(image, verified score)` in the claimed order.
    pub topk: Vec<(u64, f32)>,
    /// Verified cluster weights (available for diagnostics).
    pub weights: BTreeMap<u32, f32>,
}

/// Verifies a plain inverted-index VO against the claimed top-k.
///
/// * `query_bovw` — the BoVW vector the client itself rebuilt from verified
///   MRKD assignments;
/// * `authenticated_digests` — `h_{Γ_c}` per cluster, from MRKD leaf
///   disclosures (`VerifiedBovw::inv_digests`);
/// * `claimed` — the SP's top-k image ids (order irrelevant to soundness);
/// * `k` — the requested result size;
/// * `mode` — bounds machinery of the scheme in use.
pub fn verify_topk(
    vo: &InvVoOf<Posting>,
    query_bovw: &SparseBovw,
    authenticated_digests: &BTreeMap<u32, Digest>,
    claimed: &[u64],
    k: usize,
    mode: BoundsMode,
) -> Result<VerifiedTopk, InvVerifyError> {
    verify(vo, query_bovw, authenticated_digests, claimed, k, mode)
}

/// The one verifier behind [`verify_topk`] and
/// [`crate::grouped::verify_grouped_topk`].
pub(crate) fn verify<E: Entry>(
    vo: &InvVoOf<E>,
    query_bovw: &SparseBovw,
    authenticated_digests: &BTreeMap<u32, Digest>,
    claimed: &[u64],
    k: usize,
    mode: BoundsMode,
) -> Result<VerifiedTopk, InvVerifyError> {
    // 1. The VO must cover exactly the query-relevant clusters, ascending.
    let query_clusters: Vec<u32> = query_bovw.iter().map(|(c, _)| c).collect();
    let vo_clusters: Vec<u32> = vo.lists.iter().map(|l| l.cluster).collect();
    if query_clusters != vo_clusters {
        return Err(InvVerifyError::ClusterMismatch);
    }

    // Claimed winners must be distinct and either fill k or be provably all
    // that exists (every list exhausted).
    let mut seen = BTreeSet::new();
    for &image in claimed {
        if !seen.insert(image) {
            return Err(InvVerifyError::DuplicateWinner { image });
        }
    }
    if claimed.len() < k {
        let all_exhausted = vo
            .lists
            .iter()
            .all(|l| matches!(l.remaining, RemainingVo::Exhausted { .. }));
        if !all_exhausted {
            return Err(InvVerifyError::ShortResult);
        }
    }

    // 2. Reconstruct and check every list digest; parse filters.
    let mut parsed_filters = check_lists(vo, authenticated_digests, mode)?;

    // 3. p_Q from the verified weights.
    let weights: BTreeMap<u32, f32> = vo.lists.iter().map(|l| (l.cluster, l.weight)).collect();
    let query_impacts =
        impacts_with_weights(query_bovw, |c| weights.get(&c).copied().unwrap_or(0.0));

    // 4. Expand the popped entries, delete their images from the filters,
    // snapshot, evaluate.
    let mut expanded: Vec<Vec<(u64, f32)>> = Vec::with_capacity(vo.lists.len());
    for (list, filter) in vo.lists.iter().zip(&mut parsed_filters) {
        let pairs = expand_all(&list.popped, list.weight);
        if let Some(f) = filter {
            for &(image, _) in &pairs {
                f.delete(image);
            }
        }
        expanded.push(pairs);
    }
    let snapshots: Vec<ListSnapshot> = vo
        .lists
        .iter()
        .zip(&parsed_filters)
        .zip(&expanded)
        .zip(&query_impacts)
        .map(|(((list, filter), pairs), &(cluster, p_q))| {
            debug_assert_eq!(cluster, list.cluster);
            ListSnapshot {
                cluster: list.cluster,
                query_impact: p_q,
                popped: pairs,
                remaining_cap: match &list.remaining {
                    RemainingVo::Exhausted { .. } => None,
                    // The fence bound, authenticated by the digest check
                    // above — the same cap the SP terminated under.
                    RemainingVo::Skipped { max_impact, .. } => Some(*max_impact),
                },
                filter: filter.as_ref(),
            }
        })
        .collect();

    let eval = evaluate(&snapshots, claimed, mode);
    if !eval.condition1 {
        return Err(InvVerifyError::Condition1Failed);
    }
    if let Some(image) = eval.first_exceeded {
        return Err(InvVerifyError::Condition2Failed { image });
    }
    let mut topk = Vec::with_capacity(claimed.len());
    for &image in claimed {
        let score = eval
            .lower_score(image)
            .ok_or(InvVerifyError::WinnerUnsupported { image })?;
        topk.push((image, score));
    }

    Ok(VerifiedTopk { topk, weights })
}

/// Step 2: every list's `h_Γ` rebuilt and compared, with the errors of a
/// one-list-at-a-time loop — the first list, in cluster order, that fails
/// either check, and for that list its structural fault before any
/// mismatch. Three passes give that with one batched seal: a structural
/// pass ([`check_structure`]) up to the first faulty list `i`, one
/// [`seal`] of the lists before `i`, then a comparison pass that returns
/// the first mismatch before `i`, or else `i`'s fault. Returns the parsed
/// filters, in list order.
fn check_lists<E: Entry>(
    vo: &InvVoOf<E>,
    authenticated_digests: &BTreeMap<u32, Digest>,
    mode: BoundsMode,
) -> Result<Vec<Option<CuckooFilter>>, InvVerifyError> {
    let mut expected = Vec::with_capacity(vo.lists.len());
    let mut jobs = Vec::with_capacity(vo.lists.len());
    let mut filters = Vec::with_capacity(vo.lists.len());
    let mut fault = None;
    for list in &vo.lists {
        match check_structure(list, authenticated_digests, mode) {
            Ok((digest, job, filter)) => {
                expected.push(digest);
                jobs.push(job);
                filters.push(filter);
            }
            Err(e) => {
                fault = Some(e);
                break;
            }
        }
    }
    let sealed = seal(&jobs);
    for ((list, want), (_, got)) in vo.lists.iter().zip(expected).zip(sealed) {
        if got != want {
            return Err(InvVerifyError::DigestMismatch {
                cluster: list.cluster,
            });
        }
    }
    fault.map_or(Ok(filters), Err)
}

/// The checks of one list that come before its digest: an authenticated
/// `h_Γ` for the cluster, a popped prefix of whole blocks under a skip
/// proof, the filter form the scheme expects (parsed when it travels as
/// bytes) and well-formed entries. Returns the authenticated digest, the
/// list's [`SealJob`] and its parsed filter.
fn check_structure<'a, E: Entry>(
    list: &'a ListVoOf<E>,
    authenticated_digests: &BTreeMap<u32, Digest>,
    mode: BoundsMode,
) -> Result<(Digest, SealJob<'a, E>, Option<CuckooFilter>), InvVerifyError> {
    let cluster = list.cluster;
    let expected = authenticated_digests
        .get(&cluster)
        .ok_or(InvVerifyError::UnknownCluster { cluster })?;
    let (fence, filter_commit, filter) = match &list.remaining {
        RemainingVo::Exhausted { filter_digest } => ((0.0, Digest::ZERO), *filter_digest, None),
        RemainingVo::Skipped {
            max_impact,
            fence_digest,
            filter,
        } => {
            // A skip proof only re-seals the list when the popped prefix
            // ends on a block boundary.
            if !list.popped.len().is_multiple_of(BLOCK_SIZE) {
                return Err(InvVerifyError::BlockShapeInvalid { cluster });
            }
            let (fd, parsed) = match (filter, mode) {
                (FilterVo::Bytes(bytes), BoundsMode::CuckooFiltered) => {
                    let parsed = CuckooFilter::from_bytes(bytes)
                        .ok_or(InvVerifyError::MalformedFilter { cluster })?;
                    (parsed.digest(), Some(parsed))
                }
                (FilterVo::DigestOnly(d), BoundsMode::MaxBound) => (*d, None),
                _ => return Err(InvVerifyError::WrongFilterForm { cluster }),
            };
            // The fence `(max_impact, digest)` pair seeds the seal;
            // matching `h_Γ` simultaneously proves the skip bound and
            // every unscanned block, because each popped block's digest
            // commits its successor's pair.
            ((*max_impact, *fence_digest), fd, parsed)
        }
    };
    if !list.popped.iter().all(E::well_formed) {
        return Err(InvVerifyError::MalformedFilter { cluster });
    }
    let job = SealJob {
        entries: &list.popped,
        weight: list.weight,
        filter_commit,
        fence,
    };
    Ok((*expected, job, filter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::Group;
    use crate::merkle::{block_digest, chain_head, list_digest, Index};
    use crate::search::{inv_search, SearchTuning};
    use imageproof_akm::bovw::ImpactModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n_images: u64, n_clusters: usize, seed: u64) -> Index<Posting> {
        corpus_of(n_images, n_clusters, seed)
    }

    fn corpus_of<E: Entry>(n_images: u64, n_clusters: usize, seed: u64) -> Index<E> {
        let mut rng = StdRng::seed_from_u64(seed);
        let images: Vec<(u64, SparseBovw)> = (0..n_images)
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
            .collect();
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(n_clusters, &encodings);
        Index::build(n_clusters, &images, &model)
    }

    fn digests_of<E: Entry>(idx: &Index<E>) -> BTreeMap<u32, Digest> {
        idx.lists().iter().map(|l| (l.cluster, l.digest)).collect()
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
    fn honest_search_verifies_in_both_modes() {
        let idx = corpus(300, 30, 21);
        let digests = digests_of(&idx);
        for qseed in 0..4 {
            let q = query(40 + qseed, 30);
            for mode in [BoundsMode::CuckooFiltered, BoundsMode::MaxBound] {
                let out = inv_search(&idx, &q, 10, mode);
                let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
                let verified = verify_topk(&out.vo, &q, &digests, &claimed, 10, mode)
                    .expect("honest VO verifies");
                // Verified scores equal the SP's exact scores (all winner
                // postings are popped).
                for ((vi, vs), (si, ss)) in verified.topk.iter().zip(&out.topk) {
                    assert_eq!(vi, si);
                    assert_eq!(vs, ss, "mode {mode:?}");
                }
            }
        }
    }

    #[test]
    fn demoting_a_winner_is_rejected() {
        let idx = corpus(300, 30, 22);
        let digests = digests_of(&idx);
        let q = query(50, 30);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let mut claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        // Replace the best image with some popped non-winner.
        let popped_non_winner = out
            .vo
            .lists
            .iter()
            .flat_map(|l| l.popped.iter().map(|&(i, _)| i))
            .find(|i| !claimed.contains(i));
        let Some(substitute) = popped_non_winner else {
            panic!("fixture must pop at least one non-winner");
        };
        claimed[0] = substitute;
        let err = verify_topk(
            &out.vo,
            &q,
            &digests,
            &claimed,
            5,
            BoundsMode::CuckooFiltered,
        )
        .expect_err("forged winner set must fail");
        assert!(
            matches!(
                err,
                InvVerifyError::Condition2Failed { .. } | InvVerifyError::Condition1Failed
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn fabricated_winner_is_rejected() {
        let idx = corpus(200, 25, 23);
        let digests = digests_of(&idx);
        let q = query(51, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let mut claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        claimed[0] = 999_999; // an image that exists nowhere
        let err = verify_topk(
            &out.vo,
            &q,
            &digests,
            &claimed,
            5,
            BoundsMode::CuckooFiltered,
        )
        .expect_err("fabricated winner must fail");
        assert!(
            matches!(
                err,
                InvVerifyError::WinnerUnsupported { .. }
                    | InvVerifyError::Condition1Failed
                    | InvVerifyError::Condition2Failed { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn tampered_popped_impact_breaks_digest() {
        let idx = corpus(200, 25, 24);
        let digests = digests_of(&idx);
        let q = query(52, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let list = forged
            .lists
            .iter_mut()
            .find(|l| !l.popped.is_empty())
            .expect("something popped");
        list.popped[0].1 *= 2.0;
        assert!(matches!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn truncated_popped_prefix_breaks_digest() {
        let idx = corpus(200, 25, 25);
        let digests = digests_of(&idx);
        let q = query(53, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let list = forged
            .lists
            .iter_mut()
            .find(|l| l.popped.len() >= 2)
            .expect("a list with two popped postings");
        list.popped.remove(0);
        // A skipped list fails the block-shape check first; an exhausted
        // one fails the digest fold.
        assert!(matches!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::DigestMismatch { .. })
                | Err(InvVerifyError::BlockShapeInvalid { .. })
        ));
    }

    #[test]
    fn forged_weight_breaks_digest() {
        let idx = corpus(200, 25, 26);
        let digests = digests_of(&idx);
        let q = query(54, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        forged.lists[0].weight += 1.0;
        assert!(matches!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn forged_filter_breaks_digest() {
        let idx = corpus(200, 25, 27);
        let digests = digests_of(&idx);
        let q = query(55, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let swapped = forged
            .lists
            .iter_mut()
            .find_map(|l| match &mut l.remaining {
                RemainingVo::Skipped {
                    filter: FilterVo::Bytes(bytes),
                    ..
                } => {
                    // Replace with a fresh (different) filter's canonical
                    // bytes.
                    let fresh = CuckooFilter::with_buckets(
                        CuckooFilter::from_bytes(bytes)
                            .expect("canonical")
                            .n_buckets(),
                    );
                    *bytes = fresh.to_bytes();
                    Some(())
                }
                _ => None,
            });
        assert!(swapped.is_some(), "fixture needs a partial list");
        assert!(matches!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn missing_or_extra_lists_are_rejected() {
        let idx = corpus(200, 25, 28);
        let digests = digests_of(&idx);
        let q = query(56, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut missing = out.vo.clone();
        missing.lists.pop();
        assert!(matches!(
            verify_topk(
                &missing,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::ClusterMismatch)
        ));
    }

    #[test]
    fn short_result_requires_exhaustion() {
        let idx = corpus(300, 30, 29);
        let digests = digests_of(&idx);
        let q = query(57, 30);
        let out = inv_search(&idx, &q, 10, BoundsMode::CuckooFiltered);
        // Claim fewer winners than k without exhausting the lists.
        let claimed: Vec<u64> = out.topk.iter().take(3).map(|&(i, _)| i).collect();
        let any_partial = out
            .vo
            .lists
            .iter()
            .any(|l| matches!(l.remaining, RemainingVo::Skipped { .. }));
        if any_partial {
            assert!(matches!(
                verify_topk(
                    &out.vo,
                    &q,
                    &digests,
                    &claimed,
                    10,
                    BoundsMode::CuckooFiltered
                ),
                Err(InvVerifyError::ShortResult)
            ));
        }
    }

    #[test]
    fn duplicate_winners_are_rejected() {
        let idx = corpus(200, 25, 30);
        let digests = digests_of(&idx);
        let q = query(58, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let mut claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        if claimed.len() >= 2 {
            claimed[1] = claimed[0];
            assert!(matches!(
                verify_topk(
                    &out.vo,
                    &q,
                    &digests,
                    &claimed,
                    5,
                    BoundsMode::CuckooFiltered
                ),
                Err(InvVerifyError::DuplicateWinner { .. })
            ));
        }
    }

    #[test]
    fn skip_proof_on_unaligned_prefix_is_rejected() {
        let idx = corpus(300, 30, 31);
        let digests = digests_of(&idx);
        let q = query(59, 30);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        // Splice one popped posting off a skipped list: the prefix no
        // longer ends on a block boundary.
        let spliced = forged
            .lists
            .iter_mut()
            .find(|l| matches!(l.remaining, RemainingVo::Skipped { .. }) && !l.popped.is_empty());
        let Some(list) = spliced else {
            panic!("fixture needs a skipped list with popped postings");
        };
        let cluster = list.cluster;
        list.popped.pop();
        assert_eq!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            )
            .expect_err("unaligned prefix must fail"),
            InvVerifyError::BlockShapeInvalid { cluster }
        );
    }

    #[test]
    fn inflated_fence_bound_breaks_digest() {
        let idx = corpus(300, 30, 32);
        let digests = digests_of(&idx);
        let q = query(60, 30);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let tampered = forged
            .lists
            .iter_mut()
            .find_map(|l| match &mut l.remaining {
                RemainingVo::Skipped { max_impact, .. } => {
                    // Deflate the bound so condition 1 would pass vacuously —
                    // the commitment must catch it first.
                    *max_impact *= 0.5;
                    Some(())
                }
                _ => None,
            });
        assert!(tampered.is_some(), "fixture needs a skipped list");
        assert!(matches!(
            verify_topk(
                &forged,
                &q,
                &digests,
                &claimed,
                5,
                BoundsMode::CuckooFiltered
            ),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn equality_of_eq_impl_for_verified_errors() {
        assert_eq!(
            InvVerifyError::Condition1Failed,
            InvVerifyError::Condition1Failed
        );
        assert_ne!(
            InvVerifyError::Condition2Failed { image: 1 },
            InvVerifyError::Condition2Failed { image: 2 }
        );
    }

    /// Step 2 as one loop over the lists, each checked for shape and then
    /// re-sealed through scalar digests — the errors [`check_lists`] must
    /// keep.
    fn check_lists_one_by_one<E: Entry>(
        vo: &InvVoOf<E>,
        authenticated_digests: &BTreeMap<u32, Digest>,
        mode: BoundsMode,
    ) -> Result<Vec<Option<CuckooFilter>>, InvVerifyError> {
        let mut filters = Vec::new();
        for list in &vo.lists {
            let (expected, job, filter) = check_structure(list, authenticated_digests, mode)?;
            let (mut max, mut bd) = job.fence;
            for chunk in list.popped.chunks(BLOCK_SIZE).rev() {
                bd = block_digest(Digest::builder(), &chain_head(chunk), max, &bd);
                max = chunk.first().map_or(0.0, |e| e.head_impact(list.weight));
            }
            let rebuilt = list_digest(Digest::builder(), list.weight, &job.filter_commit, max, &bd);
            if rebuilt != expected {
                return Err(InvVerifyError::DigestMismatch {
                    cluster: list.cluster,
                });
            }
            filters.push(filter);
        }
        Ok(filters)
    }

    /// An entry changed so that its digest changes but it stays well
    /// formed, and (for groups) the one entry no honest list holds.
    trait Forge: Entry {
        fn forged(&self) -> Self;
        fn empty() -> Option<Self>;
    }

    impl Forge for Posting {
        fn forged(&self) -> Self {
            (self.0, self.1 + 0.5)
        }
        fn empty() -> Option<Self> {
            None
        }
    }

    impl Forge for Group {
        fn forged(&self) -> Self {
            let mut g = self.clone();
            g.frequency += 1;
            g
        }
        fn empty() -> Option<Self> {
            Some(Group {
                frequency: 1,
                members: Vec::new(),
            })
        }
    }

    /// Forges one digest-bound field of `list` — an entry, the weight, the
    /// fence pair or the filter — or returns false when the list has no
    /// such field.
    fn forge_digest<E: Forge>(list: &mut ListVoOf<E>, kind: usize) -> bool {
        match (kind, &mut list.remaining) {
            (0, _) => match list.popped.first_mut() {
                Some(e) => {
                    *e = e.forged();
                    true
                }
                None => false,
            },
            (1, _) => {
                list.weight += 1.0;
                true
            }
            (2, RemainingVo::Skipped { max_impact, .. }) => {
                *max_impact += 1.0;
                true
            }
            (3, RemainingVo::Exhausted { filter_digest: d })
            | (
                3,
                RemainingVo::Skipped {
                    filter: FilterVo::DigestOnly(d),
                    ..
                },
            ) => {
                d.0[0] ^= 1;
                true
            }
            (
                3,
                RemainingVo::Skipped {
                    filter: FilterVo::Bytes(bytes),
                    ..
                },
            ) => {
                let n_buckets = CuckooFilter::from_bytes(bytes).map_or(1, |f| f.n_buckets());
                let mut other = CuckooFilter::with_buckets(n_buckets);
                other.insert(u64::MAX).expect("an empty filter has room");
                *bytes = other.to_bytes();
                true
            }
            _ => false,
        }
    }

    /// Gives list `i` of `vo` one structural fault — an unknown cluster,
    /// an unaligned prefix under a skip proof, the wrong filter form, or
    /// a malformed filter or entry — and returns the error a list checked
    /// on its own reports, or `None` when the kind cannot be built here.
    fn break_structure<E: Forge>(
        vo: &mut InvVoOf<E>,
        digests: &mut BTreeMap<u32, Digest>,
        i: usize,
        kind: usize,
        mode: BoundsMode,
    ) -> Option<InvVerifyError> {
        let spare = vo.lists.iter().find_map(|l| l.popped.first().cloned());
        let list = &mut vo.lists[i];
        let cluster = list.cluster;
        let right_form = match mode {
            BoundsMode::CuckooFiltered => FilterVo::Bytes(CuckooFilter::with_buckets(4).to_bytes()),
            BoundsMode::MaxBound => FilterVo::DigestOnly(Digest::ZERO),
        };
        let wrong_form = match mode {
            BoundsMode::CuckooFiltered => FilterVo::DigestOnly(Digest::ZERO),
            BoundsMode::MaxBound => FilterVo::Bytes(CuckooFilter::with_buckets(4).to_bytes()),
        };
        let skipped = |filter| RemainingVo::Skipped {
            max_impact: 0.0,
            fence_digest: Digest::ZERO,
            filter,
        };
        let aligned = |popped: &mut Vec<E>| popped.truncate(popped.len() / BLOCK_SIZE * BLOCK_SIZE);
        match kind {
            0 => {
                digests.remove(&cluster);
                Some(InvVerifyError::UnknownCluster { cluster })
            }
            1 => {
                list.remaining = skipped(right_form);
                if list.popped.len().is_multiple_of(BLOCK_SIZE) {
                    list.popped.push(spare?);
                }
                Some(InvVerifyError::BlockShapeInvalid { cluster })
            }
            2 => {
                list.remaining = skipped(wrong_form);
                aligned(&mut list.popped);
                Some(InvVerifyError::WrongFilterForm { cluster })
            }
            _ => {
                match mode {
                    BoundsMode::CuckooFiltered => {
                        list.remaining = skipped(FilterVo::Bytes(vec![0xff; 3]));
                        aligned(&mut list.popped);
                    }
                    BoundsMode::MaxBound => {
                        list.remaining = RemainingVo::Exhausted {
                            filter_digest: Digest::ZERO,
                        };
                        list.popped.push(E::empty()?);
                    }
                }
                Some(InvVerifyError::MalformedFilter { cluster })
            }
        }
    }

    /// One list with a forged digest (`j`) and another with a structural
    /// fault (`i`), in either order, for every kind of each, both entry
    /// types and both bound modes: the batched verifier returns exactly
    /// what the one-list-at-a-time loop does — the earlier list's error.
    fn errors_match_the_one_by_one_loop<E: Forge>() {
        let idx = corpus_of::<E>(300, 30, 33);
        let honest_digests = digests_of(&idx);
        let k = 3;
        let mut cases = 0;
        for mode in [BoundsMode::CuckooFiltered, BoundsMode::MaxBound] {
            for qseed in 0..3 {
                let q = query(61 + qseed, 30);
                let tuning = SearchTuning::default();
                let out = crate::search::search(&idx, &q, k, mode, tuning, "test");
                let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
                assert_eq!(claimed.len(), k, "the fixture must fill k");
                let n = out.vo.lists.len().min(5);
                assert!(n >= 2, "the fixture needs two lists");
                let verify_both = |vo: &InvVoOf<E>, digests: &BTreeMap<u32, Digest>| {
                    let batched = verify(vo, &q, digests, &claimed, k, mode).err();
                    let oracle = check_lists_one_by_one(vo, digests, mode).err();
                    (batched, oracle)
                };
                assert_eq!(verify_both(&out.vo, &honest_digests), (None, None));
                for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                    for (structural, forgery) in (0..4).flat_map(|s| (0..4).map(move |f| (s, f))) {
                        let mut vo = out.vo.clone();
                        let mut digests = honest_digests.clone();
                        if i == j || !forge_digest(&mut vo.lists[j], forgery) {
                            continue;
                        }
                        let Some(fault) =
                            break_structure(&mut vo, &mut digests, i, structural, mode)
                        else {
                            continue;
                        };
                        let mismatch = InvVerifyError::DigestMismatch {
                            cluster: vo.lists[j].cluster,
                        };
                        let first = if i < j { fault } else { mismatch };
                        let ctx = format!("{mode:?} query {qseed}: fault {structural} in list {i}, forgery {forgery} in list {j}");
                        assert_eq!(
                            verify_both(&vo, &digests),
                            (Some(first.clone()), Some(first)),
                            "{ctx}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 100, "only {cases} cases built");
    }

    #[test]
    fn batched_list_check_keeps_the_one_by_one_errors() {
        errors_match_the_one_by_one_loop::<Posting>();
        errors_match_the_one_by_one_loop::<Group>();
    }
}
