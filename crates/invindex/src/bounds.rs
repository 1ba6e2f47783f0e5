//! Termination-condition bounds for authenticated top-k search
//! (paper §IV-B2, Eqs. 9–12 and Alg. 2/3 conditions).
//!
//! Both the SP (while deciding how much to pop) and the client (while
//! verifying the final state) evaluate the *same* bounds over the *same*
//! observable state: the popped posting prefixes, the per-list remaining-
//! impact caps, and the cuckoo filters with popped images deleted. The
//! computation lives here, once, and is careful to fix every float summation
//! order so the two sides agree bit-for-bit.
//!
//! The remaining-impact cap `p̂_c` deliberately uses only client-verifiable
//! data: with block-max posting lists it is the fence block's `max_impact`,
//! which the skip proof binds into the list commitment — tighter than both
//! the last popped impact (the fence max is at most it, and usually
//! strictly below) and the cluster weight, yet exactly as sound, because a
//! forged bound changes the reconstructed `h_Γ`. A claimed "actual next
//! impact" outside the commitment would be unverifiable and unsound.
//!
//! [`evaluate`] does only the work its two callers read. Both read
//! condition 1 first and, only when it holds, the smallest-id image that
//! breaks condition 2; so condition 2 is evaluated only then, and stops at
//! that image. For each popped non-top-k image, in ascending id:
//!
//! * the filter-free bound `S^L + Σ p_{Q,c} · p̂_c` over every open list,
//!   added in snapshot order, settles the image with no filter probe when
//!   it is `≤ s_k^L`;
//! * otherwise the image is hashed once ([`ItemProbe`]) and every open
//!   list's filter probed in snapshot order, stopping as soon as the
//!   partial sum — the lower bound alone included — exceeds `s_k^L`.
//!
//! Neither shortcut changes a decision. Every term `p_{Q,c} · p̂_c` is
//! `≥ 0` and float rounding is monotone, so `fl(a + t) ≥ a` and
//! `fl(a + t)` never decreases as `a` grows: partial sums never decrease,
//! and a subset of the terms summed in the same order never exceeds the
//! full sum. A partial sum above `s_k^L` therefore ends above it, and a
//! filter-free sum at or below it bounds the filtered one. Both shortcuts
//! are off when a term is negative or NaN, so the result is the full
//! transcription's for any input; the test-only reference keeps that
//! transcription.

use imageproof_cuckoo::{max_count, CuckooFilter, ItemProbe};

/// Which upper-bound machinery a scheme uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundsMode {
    /// ImageProof: cuckoo filters tighten `S^U` and `π^U` (Eqs. 11–12).
    CuckooFiltered,
    /// The Baseline of §VII (Pang & Mouratidis \[15\]): maximal bounds
    /// (Eq. 10) — every unexhausted list is assumed to contain every image.
    MaxBound,
}

/// The observable state of one relevant posting list.
pub struct ListSnapshot<'a> {
    pub cluster: u32,
    /// Query impact `p_{Q,c}` for this cluster.
    pub query_impact: f32,
    /// Popped `(image, impact)` pairs in popped order (a prefix of the
    /// owner's descending-impact order; grouped lists expand groups here).
    pub popped: &'a [(u64, f32)],
    /// Upper bound on the impact of any unpopped posting (see module docs);
    /// `None` when the list is exhausted.
    pub remaining_cap: Option<f32>,
    /// The list's cuckoo filter with popped images deleted. `Some` only for
    /// unexhausted lists under [`BoundsMode::CuckooFiltered`].
    pub filter: Option<&'a CuckooFilter>,
}

/// Bounds evaluation result.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// `s_k^L`: the smallest verified lower-bound score among the claimed
    /// top-k images.
    pub s_k_lower: f32,
    /// `π^U` (Eq. 12, or Eq. 10's `π_max` under [`BoundsMode::MaxBound`]).
    pub pi_upper: f32,
    /// `γ` from `MaxCount` (0 under [`BoundsMode::MaxBound`]).
    pub gamma: u32,
    /// Condition 1: `s_k^L ≥ π^U`.
    pub condition1: bool,
    /// The smallest-id popped non-top-k image whose `S^U` exceeds `s_k^L`.
    /// Condition 2 is evaluated only when condition 1 holds, and then holds
    /// iff this is `None`; when condition 1 fails it is `None` unevaluated.
    pub first_exceeded: Option<u64>,
    /// Verified lower-bound scores `S^L(Q, I)` of every popped image,
    /// ascending by image id.
    pub lower_scores: Vec<(u64, f32)>,
}

impl Evaluation {
    /// `S^L(Q, I)` of `image`, or `None` if it was never popped.
    pub fn lower_score(&self, image: u64) -> Option<f32> {
        score_of(&self.lower_scores, image)
    }
}

/// Looks `image` up in sums ascending by id.
fn score_of(sums: &[(u64, f32)], image: u64) -> Option<f32> {
    let at = sums.binary_search_by_key(&image, |&(i, _)| i).ok()?;
    sums.get(at).map(|&(_, s)| s)
}

/// Contributions `p_Q · impact` summed per image, ascending by image id.
/// Each image's sum is `0.0 + c₁ + c₂ + …` over its contributions in list
/// order, lists in the order given — bit for bit what
/// `*map.entry(image).or_insert(0.0) += p_Q * impact` computes, without
/// the map: a stable sort by id keeps each image's terms in list order.
pub(crate) fn sum_per_image<'a>(
    lists: impl IntoIterator<Item = (f32, &'a [(u64, f32)])>,
) -> Vec<(u64, f32)> {
    let mut terms: Vec<(u64, f32)> = lists
        .into_iter()
        .flat_map(|(p_q, pairs)| {
            pairs
                .iter()
                .map(move |&(image, impact)| (image, p_q * impact))
        })
        .collect();
    terms.sort_by_key(|&(image, _)| image);
    let mut sums: Vec<(u64, f32)> = Vec::with_capacity(terms.len());
    for (image, c) in terms {
        match sums.last_mut() {
            Some((last, sum)) if *last == image => *sum += c,
            _ => sums.push((image, 0.0 + c)),
        }
    }
    sums
}

/// Evaluates the termination conditions over the observable state.
///
/// `snapshots` must be ordered by ascending cluster id — the summation order
/// both sides share. `topk` is the claimed result set.
pub fn evaluate(snapshots: &[ListSnapshot<'_>], topk: &[u64], mode: BoundsMode) -> Evaluation {
    debug_assert!(
        snapshots
            .iter()
            .zip(snapshots.iter().skip(1))
            .all(|(a, b)| a.cluster < b.cluster),
        "snapshots must be ascending by cluster"
    );

    // S^L (Eq. 9): accumulate popped contributions in list order.
    let lower_scores = sum_per_image(snapshots.iter().map(|s| (s.query_impact, s.popped)));

    // s_k^L: the weakest claimed winner; an image never popped scores 0.
    let mut s_k_lower = f32::INFINITY;
    for &image in topk {
        let s = score_of(&lower_scores, image).unwrap_or(0.0);
        if s < s_k_lower {
            s_k_lower = s;
        }
    }
    if topk.is_empty() {
        s_k_lower = 0.0;
    }

    // Remaining-list contributions p_{Q,c} · p̂_c, descending (ties: by
    // cluster, fixing the float summation order).
    let mut remaining: Vec<(f32, u32)> = snapshots
        .iter()
        .filter_map(|s| s.remaining_cap.map(|cap| (s.query_impact * cap, s.cluster)))
        .collect();
    remaining.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    // γ and π^U.
    let (gamma, pi_upper) = match mode {
        BoundsMode::CuckooFiltered => {
            let filters: Vec<&CuckooFilter> = snapshots.iter().filter_map(|s| s.filter).collect();
            let gamma = max_count(&filters);
            let pi: f32 = remaining.iter().take(gamma as usize).map(|&(v, _)| v).sum();
            (gamma, pi)
        }
        BoundsMode::MaxBound => {
            let pi: f32 = remaining.iter().map(|&(v, _)| v).sum();
            (0, pi)
        }
    };
    let condition1 = s_k_lower >= pi_upper;

    // Condition 2 is read only once condition 1 holds, and then only its
    // first offender.
    let first_exceeded = if condition1 {
        first_exceeding(snapshots, topk, mode, &lower_scores, s_k_lower)
    } else {
        None
    };

    Evaluation {
        s_k_lower,
        pi_upper,
        gamma,
        condition1,
        first_exceeded,
        lower_scores,
    }
}

/// Condition 2 (Eq. 11 / Eq. 10): the smallest-id popped non-top-k image
/// whose `S^U` — its lower bound plus `p_{Q,c} · p̂_c` of every open list
/// that may still hold it, added in snapshot order — exceeds `s_k^L`.
///
/// Two shortcuts skip work without changing a decision (module docs): the
/// filter-free sum settles most images with no probe, and a probe walk
/// stops once its partial sum exceeds `s_k^L`. Both need every term
/// `≥ 0`; a negative or NaN term turns them off.
fn first_exceeding(
    snapshots: &[ListSnapshot<'_>],
    topk: &[u64],
    mode: BoundsMode,
    lower_scores: &[(u64, f32)],
    s_k_lower: f32,
) -> Option<u64> {
    let open: Vec<(f32, Option<&CuckooFilter>)> = snapshots
        .iter()
        .filter_map(|s| s.remaining_cap.map(|cap| (s.query_impact * cap, s.filter)))
        .collect();
    let monotone = open.iter().all(|&(term, _)| term >= 0.0);
    let exceeds = |image: u64, lower: f32| {
        // Every open list may hold the image: S^U with no filter.
        let unfiltered = open.iter().fold(lower, |sum, &(term, _)| sum + term);
        if mode == BoundsMode::MaxBound {
            return unfiltered > s_k_lower;
        }
        if monotone && unfiltered <= s_k_lower {
            return false;
        }
        let probe = ItemProbe::of(image);
        let mut upper = lower;
        for &(term, filter) in &open {
            // Checked before each addition too: the lower bound alone can
            // exceed s_k^L.
            if monotone && upper > s_k_lower {
                return true;
            }
            if filter.is_some_and(|f| f.contains_probe(&probe)) {
                upper += term;
            }
        }
        upper > s_k_lower
    };
    lower_scores
        .iter()
        .find(|&&(image, lower)| !topk.contains(&image) && exceeds(image, lower))
        .map(|&(image, _)| image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The direct transcription of Eqs. 9–12 that [`evaluate`] must equal:
    /// every popped non-top-k image, every open list, every probe.
    mod reference {
        use super::super::{BoundsMode, ListSnapshot};
        use imageproof_cuckoo::{max_count, CuckooFilter};
        use std::collections::BTreeMap;

        pub struct Evaluation {
            pub s_k_lower: f32,
            pub pi_upper: f32,
            pub gamma: u32,
            pub condition1: bool,
            /// Every popped non-top-k image whose `S^U` exceeds `s_k^L`,
            /// ascending by id.
            pub exceeded: Vec<u64>,
            pub lower_scores: BTreeMap<u64, f32>,
        }

        pub fn evaluate(
            snapshots: &[ListSnapshot<'_>],
            topk: &[u64],
            mode: BoundsMode,
        ) -> Evaluation {
            let mut lower_scores: BTreeMap<u64, f32> = BTreeMap::new();
            for snap in snapshots {
                for &(image, impact) in snap.popped {
                    *lower_scores.entry(image).or_insert(0.0) += snap.query_impact * impact;
                }
            }
            let mut s_k_lower = f32::INFINITY;
            for image in topk {
                let s = lower_scores.get(image).copied().unwrap_or(0.0);
                if s < s_k_lower {
                    s_k_lower = s;
                }
            }
            if topk.is_empty() {
                s_k_lower = 0.0;
            }
            let mut remaining: Vec<(f32, u32)> = snapshots
                .iter()
                .filter_map(|s| s.remaining_cap.map(|cap| (s.query_impact * cap, s.cluster)))
                .collect();
            remaining.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let (gamma, pi_upper) = match mode {
                BoundsMode::CuckooFiltered => {
                    let filters: Vec<&CuckooFilter> =
                        snapshots.iter().filter_map(|s| s.filter).collect();
                    let gamma = max_count(&filters);
                    let pi: f32 = remaining.iter().take(gamma as usize).map(|&(v, _)| v).sum();
                    (gamma, pi)
                }
                BoundsMode::MaxBound => (0, remaining.iter().map(|&(v, _)| v).sum()),
            };
            let condition1 = s_k_lower >= pi_upper;
            let mut exceeded = Vec::new();
            for (&image, &lower) in &lower_scores {
                if topk.contains(&image) {
                    continue;
                }
                let mut upper = lower;
                for snap in snapshots {
                    let Some(cap) = snap.remaining_cap else {
                        continue;
                    };
                    let might_contain = match mode {
                        BoundsMode::CuckooFiltered => {
                            snap.filter.is_some_and(|f| f.contains(image))
                        }
                        BoundsMode::MaxBound => true,
                    };
                    if might_contain {
                        upper += snap.query_impact * cap;
                    }
                }
                if upper > s_k_lower {
                    exceeded.push(image);
                }
            }
            Evaluation {
                s_k_lower,
                pi_upper,
                gamma,
                condition1,
                exceeded,
                lower_scores,
            }
        }
    }

    fn filterless(
        cluster: u32,
        query_impact: f32,
        popped: &[(u64, f32)],
        cap: Option<f32>,
    ) -> ListSnapshot<'_> {
        ListSnapshot {
            cluster,
            query_impact,
            popped,
            remaining_cap: cap,
            filter: None,
        }
    }

    #[test]
    fn lower_scores_accumulate_across_lists() {
        let a = [(1u64, 0.5f32), (2, 0.3)];
        let b = [(1u64, 0.2f32)];
        let snaps = vec![filterless(0, 2.0, &a, None), filterless(1, 1.0, &b, None)];
        let eval = evaluate(&snaps, &[1], BoundsMode::MaxBound);
        assert_eq!(eval.lower_score(1), Some(2.0 * 0.5 + 1.0 * 0.2));
        assert_eq!(eval.lower_score(2), Some(2.0 * 0.3));
        assert_eq!(eval.lower_score(3), None);
        assert_eq!(eval.s_k_lower, 2.0 * 0.5 + 1.0 * 0.2);
    }

    #[test]
    fn condition1_fails_while_remaining_mass_is_large() {
        let a = [(1u64, 0.5f32)];
        let snaps = vec![
            filterless(0, 1.0, &a, Some(0.4)),
            filterless(1, 1.0, &[], Some(0.9)),
        ];
        let eval = evaluate(&snaps, &[1], BoundsMode::MaxBound);
        // π^U = 0.4 + 0.9 > S^L(1) = 0.5.
        assert!(!eval.condition1);
        // Exhausting both lists flips it.
        let snaps = vec![filterless(0, 1.0, &a, None), filterless(1, 1.0, &[], None)];
        let eval = evaluate(&snaps, &[1], BoundsMode::MaxBound);
        assert!(eval.condition1);
        assert_eq!(eval.pi_upper, 0.0);
    }

    #[test]
    fn filters_tighten_pi_via_gamma() {
        // Three lists, each holding one distinct image → γ = 2·1 = 2, so
        // π^U only counts the top-2 remaining contributions.
        let mut filters = Vec::new();
        for image in [10u64, 20, 30] {
            let mut f = imageproof_cuckoo::CuckooFilter::with_buckets(8);
            f.insert(image).expect("room");
            filters.push(f);
        }
        let snaps: Vec<ListSnapshot> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| ListSnapshot {
                cluster: i as u32,
                query_impact: 1.0,
                popped: &[],
                remaining_cap: Some(0.5),
                filter: Some(f),
            })
            .collect();
        let eval = evaluate(&snaps, &[], BoundsMode::CuckooFiltered);
        assert_eq!(eval.gamma, 2);
        assert_eq!(eval.pi_upper, 1.0); // two of the three 0.5 contributions
        let unfiltered_snaps: Vec<ListSnapshot> = (0..3u32)
            .map(|i| filterless(i, 1.0, &[], Some(0.5)))
            .collect();
        let unfiltered = evaluate(&unfiltered_snaps, &[], BoundsMode::MaxBound);
        assert_eq!(unfiltered.pi_upper, 1.5);
    }

    #[test]
    fn condition2_flags_images_that_could_still_win() {
        // Image 2 popped with score 0.4; list 1 unexhausted and its filter
        // contains image 2 → S^U(2) = 0.4 + 0.45 > s_k^L = 0.5, while
        // π^U = 0.45 ≤ 0.5 lets condition 1 hold.
        let mut f = imageproof_cuckoo::CuckooFilter::with_buckets(8);
        f.insert(2).expect("room");
        let a = [(1u64, 0.5f32), (2, 0.4)];
        let snaps = vec![
            ListSnapshot {
                cluster: 0,
                query_impact: 1.0,
                popped: &a,
                remaining_cap: None,
                filter: None,
            },
            ListSnapshot {
                cluster: 1,
                query_impact: 1.0,
                popped: &[],
                remaining_cap: Some(0.45),
                filter: Some(&f),
            },
        ];
        let eval = evaluate(&snaps, &[1], BoundsMode::CuckooFiltered);
        assert!(eval.condition1);
        assert_eq!(eval.first_exceeded, Some(2));

        // If the filter proves image 2 absent from list 1, condition 2 holds.
        let empty = imageproof_cuckoo::CuckooFilter::with_buckets(8);
        let snaps2 = vec![
            ListSnapshot {
                cluster: 0,
                query_impact: 1.0,
                popped: &a,
                remaining_cap: None,
                filter: None,
            },
            ListSnapshot {
                cluster: 1,
                query_impact: 1.0,
                popped: &[],
                remaining_cap: Some(0.45),
                filter: Some(&empty),
            },
        ];
        let eval = evaluate(&snaps2, &[1], BoundsMode::CuckooFiltered);
        assert!(eval.condition1);
        assert_eq!(eval.first_exceeded, None);
    }

    #[test]
    fn lower_bound_alone_exceeding_s_k_is_caught_without_a_filter_hit() {
        // A claim that ranks image 1 (S^L 0.5) above popped image 2
        // (S^L 0.7). The one open list's filter holds only image 3, so no
        // filter term is ever added to S^U(2): the walk must compare the
        // lower bound itself.
        let mut f = imageproof_cuckoo::CuckooFilter::with_buckets(8);
        f.insert(3).expect("room");
        assert!(
            !f.contains(2),
            "fixture needs image 2 absent from the filter"
        );
        let a = [(1u64, 0.5f32), (2, 0.7)];
        let snaps = vec![
            filterless(0, 1.0, &a, None),
            ListSnapshot {
                cluster: 1,
                query_impact: 1.0,
                popped: &[],
                remaining_cap: Some(0.3),
                filter: Some(&f),
            },
        ];
        let eval = evaluate(&snaps, &[1], BoundsMode::CuckooFiltered);
        assert!(eval.condition1, "π^U = 0.3 ≤ s_k^L = 0.5");
        assert_eq!(eval.first_exceeded, Some(2));
    }

    #[test]
    fn unpopped_topk_image_gives_zero_lower_bound() {
        let snaps = vec![filterless(0, 1.0, &[], Some(0.5))];
        let eval = evaluate(&snaps, &[99], BoundsMode::MaxBound);
        assert_eq!(eval.s_k_lower, 0.0);
        assert!(!eval.condition1);
    }

    /// Ids whose fingerprints collide with `base`'s: in a one-bucket filter
    /// holding only `base`, exactly those ids test positive.
    fn colliding_with(base: u64, count: usize) -> Vec<u64> {
        let mut f = imageproof_cuckoo::CuckooFilter::with_buckets(1);
        f.insert(base).expect("room");
        (base + 1..)
            .filter(|&i| f.contains(i))
            .take(count)
            .collect()
    }

    /// One list of a random bounds state, owned.
    struct RandomList {
        query_impact: f32,
        /// The whole list; its first `popped` pairs are disclosed.
        pairs: Vec<(u64, f32)>,
        popped: usize,
        cap: Option<f32>,
        /// Open lists under [`BoundsMode::CuckooFiltered`]: every image
        /// inserted, the popped ones deleted, as both callers build it.
        filter: Option<CuckooFilter>,
    }

    /// A random state: values come from a few levels so ties and repeated
    /// images are common, and one state in eight also draws negative,
    /// signed-zero, infinite or NaN terms. Filters share one bucket count
    /// (Lemma 1) of 1, 2 or 4.
    struct State {
        lists: Vec<RandomList>,
        topk: Vec<u64>,
        mode: BoundsMode,
    }

    fn random_state(seed: u64, pool: &[u64]) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let mode = if rng.gen_range(0..2) == 0 {
            BoundsMode::CuckooFiltered
        } else {
            BoundsMode::MaxBound
        };
        let n_buckets = [1, 2, 4][rng.gen_range(0..3usize)];
        let wild = rng.gen_range(0..8) == 0;
        let level = |rng: &mut StdRng| -> f32 {
            const TAME: [f32; 4] = [0.0, 0.25, 0.5, 1.0];
            const WILD: [f32; 4] = [-0.5, -0.0, f32::INFINITY, f32::NAN];
            if wild && rng.gen_range(0..4) == 0 {
                WILD[rng.gen_range(0..4usize)]
            } else {
                TAME[rng.gen_range(0..4usize)]
            }
        };
        let n_lists = rng.gen_range(1..=6);
        let lists = (0..n_lists)
            .map(|_| {
                let query_impact = level(&mut rng);
                let len = rng.gen_range(0..=6);
                let pairs: Vec<(u64, f32)> = (0..len)
                    .map(|_| (pool[rng.gen_range(0..pool.len())], level(&mut rng)))
                    .collect();
                // An exhausted list has popped everything and has no cap.
                let (popped, cap) = if rng.gen_range(0..3) == 0 {
                    (len, None)
                } else {
                    (rng.gen_range(0..=len), Some(level(&mut rng)))
                };
                let filter = (mode == BoundsMode::CuckooFiltered && cap.is_some()).then(|| {
                    let mut f = CuckooFilter::with_buckets(n_buckets);
                    for &(image, _) in &pairs {
                        let _ = f.insert(image);
                    }
                    for &(image, _) in &pairs[..popped] {
                        f.delete(image);
                    }
                    f
                });
                RandomList {
                    query_impact,
                    pairs,
                    popped,
                    cap,
                    filter,
                }
            })
            .collect();
        let mut topk: Vec<u64> = Vec::new();
        if rng.gen_range(0..6) != 0 {
            for _ in 0..rng.gen_range(1..=3) {
                // Pool ids may never have been popped; 999 is in no list.
                let image = if rng.gen_range(0..5) == 0 {
                    999
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if !topk.contains(&image) {
                    topk.push(image);
                }
            }
        }
        State { lists, topk, mode }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4096,
            max_shrink_iters: 0,
        })]

        /// The lazy, probe-sparing `evaluate` decides exactly what the full
        /// transcription decides, bit for bit, on random and tie-heavy
        /// states: repeated images within and across lists, empty top-k,
        /// unpopped winners, exhausted lists, and 1–4-bucket filters whose
        /// fingerprint collisions make false positives common.
        #[test]
        fn evaluate_equals_the_reference(seed in any::<u64>()) {
            let mut pool: Vec<u64> = (1..=5).collect();
            pool.extend(colliding_with(1, 2));
            pool.extend(colliding_with(2, 1));
            let state = random_state(seed, &pool);
            let snaps: Vec<ListSnapshot> = state
                .lists
                .iter()
                .enumerate()
                .map(|(c, l)| ListSnapshot {
                    cluster: c as u32,
                    query_impact: l.query_impact,
                    popped: &l.pairs[..l.popped],
                    remaining_cap: l.cap,
                    filter: l.filter.as_ref(),
                })
                .collect();

            let got = evaluate(&snaps, &state.topk, state.mode);
            let want = reference::evaluate(&snaps, &state.topk, state.mode);
            prop_assert_eq!(got.s_k_lower.to_bits(), want.s_k_lower.to_bits());
            prop_assert_eq!(got.pi_upper.to_bits(), want.pi_upper.to_bits());
            prop_assert_eq!(got.gamma, want.gamma);
            prop_assert_eq!(got.condition1, want.condition1);
            let got_lower: Vec<(u64, u32)> =
                got.lower_scores.iter().map(|&(i, s)| (i, s.to_bits())).collect();
            let want_lower: Vec<(u64, u32)> =
                want.lower_scores.iter().map(|(&i, &s)| (i, s.to_bits())).collect();
            prop_assert_eq!(got_lower, want_lower);
            let first = if want.condition1 { want.exceeded.first().copied() } else { None };
            prop_assert_eq!(got.first_exceeded, first);
        }
    }
}
