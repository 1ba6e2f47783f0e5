//! SP-side authenticated top-k search: `PostingSearch` (Alg. 3) and
//! `InvSearch` (Alg. 4), plus the §VII Baseline (\[15\]-style maximal bounds).
//!
//! The SP first computes the true top-k by full accumulation over the
//! query-relevant lists, then pops whole posting *blocks* until the
//! termination conditions (§IV-B2) — evaluated by the *shared*
//! [`crate::bounds`] module — hold on the client-observable state. Popping
//! is block-granular so every partially-scanned list ends at a block
//! boundary, where the fence block's authenticated `max_impact` is both
//! the termination cap and the skip proof: the remaining-cap the client
//! reproduces is the fence bound, strictly tighter than the old
//! last-popped-impact cap, so the loop terminates earlier (fewer popped
//! postings, smaller VO) without any change to the returned top-k. The
//! final popped state becomes the VO.

use crate::bounds::{evaluate, sum_per_image, BoundsMode, ListSnapshot};
use crate::merkle::{Entry, Index, List, Posting, BLOCK_SIZE};
use crate::vo::{FilterVo, InvVoOf, ListVoOf, RemainingVo};
use imageproof_akm::bovw::{impacts_with_weights, SparseBovw};
use imageproof_crypto::Digest;
use imageproof_cuckoo::CuckooFilter;

/// Search-cost statistics; "% popped postings" (Figs. 9–11) is
/// `popped / total_postings`.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvSearchStats {
    /// Postings disclosed in the VO.
    pub popped: usize,
    /// Total postings across the query-relevant lists.
    pub total_postings: usize,
    /// Termination-condition evaluations performed.
    pub rounds: usize,
    /// Digests the VO assembly had to run Keccak for — always 0: every
    /// digest it ships is a build-time memo.
    pub hashes_computed: usize,
    /// Digests the VO assembly copied from build-time memos (block digests
    /// and filter commitments).
    pub hashes_cached: usize,
    /// Posting blocks left unscanned across the query-relevant lists —
    /// each carried by exactly one fence digest in the VO.
    pub blocks_skipped: usize,
    /// Posting blocks actually popped (disclosed in the VO).
    pub blocks_scanned: usize,
}

impl InvSearchStats {
    /// Fraction of relevant postings that had to be disclosed.
    pub fn popped_ratio(&self) -> f64 {
        if self.total_postings == 0 {
            0.0
        } else {
            self.popped as f64 / self.total_postings as f64
        }
    }

    /// Fraction of VO digests served from build-time memos.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.hashes_computed + self.hashes_cached;
        if total == 0 {
            0.0
        } else {
            self.hashes_cached as f64 / total as f64
        }
    }
}

/// Records one finished inverted-index search into the global
/// observability registry (no-op when recording is disabled; never affects
/// the VO). `bounds` labels the termination-bound flavor: `cuckoo`,
/// `max-bound`, or `grouped`.
fn record_inv_search(bounds: &'static str, stats: &InvSearchStats) {
    if !imageproof_obs::enabled() {
        return;
    }
    let reg = imageproof_obs::global();
    let labels = [("bounds", bounds)];
    reg.counter("imageproof_inv_searches_total", &labels).inc();
    reg.counter("imageproof_inv_postings_popped_total", &labels)
        .add(stats.popped as u64);
    reg.counter("imageproof_inv_rounds_total", &labels)
        .add(stats.rounds as u64);
    for (kind, n) in [
        ("skipped", stats.blocks_skipped),
        ("scanned", stats.blocks_scanned),
    ] {
        reg.counter(
            "imageproof_inv_blocks_total",
            &[("bounds", bounds), ("kind", kind)],
        )
        .add(n as u64);
    }
    for (kind, n) in [
        ("computed", stats.hashes_computed),
        ("cached", stats.hashes_cached),
    ] {
        reg.counter(
            "imageproof_inv_hashes_total",
            &[("bounds", bounds), ("kind", kind)],
        )
        .add(n as u64);
    }
}

/// Result of an authenticated top-k search over entries of type `E`.
#[derive(Clone, Debug)]
pub struct SearchResult<E> {
    /// `(image, score)` descending by score (ties ascending by id).
    pub topk: Vec<(u64, f32)>,
    pub vo: InvVoOf<E>,
    pub stats: InvSearchStats,
}

/// Exact top-k by full accumulation (the unauthenticated reference search;
/// also the oracle the authenticated path must reproduce): lists ascending
/// by cluster, entries in list order, an entry's images in
/// [`Entry::expand`] order.
///
/// `query_impacts` must be ascending by cluster — the summation order every
/// component shares.
pub fn exhaustive_topk<E: Entry>(
    index: &Index<E>,
    query_impacts: &[(u32, f32)],
    k: usize,
) -> Vec<(u64, f32)> {
    let lists: Vec<(f32, Vec<(u64, f32)>)> = query_impacts
        .iter()
        .map(|&(c, p_q)| (p_q, index.list(c).pairs()))
        .collect();
    accumulate_topk(lists.iter().map(|(p_q, pairs)| (*p_q, pairs.as_slice())), k)
}

fn accumulate_topk<'a>(
    lists: impl Iterator<Item = (f32, &'a [(u64, f32)])>,
    k: usize,
) -> Vec<(u64, f32)> {
    let mut scored = sum_per_image(lists);
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Per-list mutable search state. Popping is block-granular: `popped_blocks`
/// counts whole blocks disclosed, so a partially-scanned list always ends on
/// a block boundary and its skip proof is a single fence digest.
struct ListState<'a, E> {
    list: &'a List<E>,
    query_impact: f32,
    /// `(image, impact)` pairs of the whole list, in entry order.
    pairs: Vec<(u64, f32)>,
    /// `offsets[e]` = number of pairs covered by the first `e` entries.
    offsets: Vec<usize>,
    popped_blocks: usize,
    /// Working filter with popped images deleted (filtered mode only).
    working_filter: Option<CuckooFilter>,
}

impl<'a, E: Entry> ListState<'a, E> {
    fn new(list: &'a List<E>, query_impact: f32, mode: BoundsMode) -> Self {
        let mut pairs = Vec::with_capacity(list.len());
        let mut offsets = Vec::with_capacity(list.len() + 1);
        offsets.push(0);
        for e in &list.postings {
            e.expand(list.weight, &mut pairs);
            offsets.push(pairs.len());
        }
        ListState {
            list,
            query_impact,
            pairs,
            offsets,
            popped_blocks: 0,
            working_filter: match mode {
                BoundsMode::CuckooFiltered => Some(list.filter.clone()),
                BoundsMode::MaxBound => None,
            },
        }
    }

    /// Entries popped so far (a whole number of blocks).
    fn popped_len(&self) -> usize {
        self.list.block_offset(self.popped_blocks)
    }

    /// The popped entries' `(image, impact)` pairs.
    fn popped_pairs(&self) -> &[(u64, f32)] {
        &self.pairs[..self.offsets[self.popped_len()]]
    }

    fn exhausted(&self) -> bool {
        self.popped_blocks == self.list.n_blocks()
    }

    /// The fence block's authenticated `max_impact` — exactly what the
    /// client recomputes from the skip proof, and tighter than both the
    /// cluster weight and the last popped impact.
    fn remaining_cap(&self) -> Option<f32> {
        self.list
            .blocks()
            .get(self.popped_blocks)
            .map(|b| b.max_impact)
    }

    /// Pops up to `n` whole blocks; returns how many entries were popped.
    fn pop_blocks(&mut self, n: usize) -> usize {
        let start = self.popped_len();
        self.popped_blocks = (self.popped_blocks + n).min(self.list.n_blocks());
        let end = self.popped_len();
        if let Some(f) = &mut self.working_filter {
            for &(image, _) in &self.pairs[self.offsets[start]..self.offsets[end]] {
                f.delete(image);
            }
        }
        end - start
    }

    /// Pops blocks until one containing `image` has been popped (or the
    /// list is exhausted, on a filter false positive); returns how many
    /// entries were popped. `limit` bounds the entries popped this call.
    fn pop_until_image(&mut self, image: u64, limit: usize) -> usize {
        let mut popped = 0;
        while popped < limit && !self.exhausted() {
            let start = self.offsets[self.popped_len()];
            popped += self.pop_blocks(1);
            let here = self.pairs[start..self.offsets[self.popped_len()]]
                .iter()
                .any(|&(i, _)| i == image);
            if here {
                break;
            }
        }
        popped
    }

    fn snapshot(&self) -> ListSnapshot<'_> {
        ListSnapshot {
            cluster: self.list.cluster,
            query_impact: self.query_impact,
            popped: self.popped_pairs(),
            remaining_cap: self.remaining_cap(),
            filter: if self.exhausted() {
                None
            } else {
                self.working_filter.as_ref()
            },
        }
    }
}

/// Batch schedule of the pop/check loop of `InvSearch`, in units of list
/// entries — varied by the ablation benchmarks
/// (`crates/bench/benches/ablation.rs`). The plain index runs the default,
/// the grouped index [`SearchTuning::GROUPED`].
#[derive(Clone, Copy, Debug)]
pub struct SearchTuning {
    /// Entries popped before the first termination-condition check.
    pub initial_batch: usize,
    /// Batch growth factor applied after every failed check.
    pub growth: usize,
    /// Batch ceiling.
    pub max_batch: usize,
}

impl SearchTuning {
    /// The grouped index's schedule: an entry discloses a whole frequency
    /// group, so batches start and cap at half the default entry counts.
    pub const GROUPED: SearchTuning = SearchTuning {
        initial_batch: 2,
        growth: 2,
        max_batch: 128,
    };
}

impl Default for SearchTuning {
    fn default() -> Self {
        SearchTuning {
            initial_batch: 4,
            growth: 2,
            max_batch: 256,
        }
    }
}

/// `InvSearch` (Alg. 4): authenticated top-k search with VO generation.
///
/// `mode` selects the ImageProof bounds ([`BoundsMode::CuckooFiltered`]) or
/// the Baseline's maximal bounds ([`BoundsMode::MaxBound`]).
pub fn inv_search(
    index: &Index<Posting>,
    query_bovw: &SparseBovw,
    k: usize,
    mode: BoundsMode,
) -> SearchResult<Posting> {
    inv_search_with_tuning(index, query_bovw, k, mode, SearchTuning::default())
}

/// [`inv_search`] with explicit loop tuning.
pub fn inv_search_with_tuning(
    index: &Index<Posting>,
    query_bovw: &SparseBovw,
    k: usize,
    mode: BoundsMode,
    tuning: SearchTuning,
) -> SearchResult<Posting> {
    let bounds = match mode {
        BoundsMode::CuckooFiltered => "cuckoo",
        BoundsMode::MaxBound => "max-bound",
    };
    search(index, query_bovw, k, mode, tuning, bounds)
}

/// The one search engine behind [`inv_search_with_tuning`] and
/// [`crate::grouped::grouped_search`]; `bounds` is the observability label.
pub(crate) fn search<E: Entry>(
    index: &Index<E>,
    query_bovw: &SparseBovw,
    k: usize,
    mode: BoundsMode,
    tuning: SearchTuning,
    bounds: &'static str,
) -> SearchResult<E> {
    // Per-list state over the relevant lists, ascending by cluster.
    let query_impacts = impacts_with_weights(query_bovw, |c| index.list(c).weight);
    let mut states: Vec<ListState<E>> = query_impacts
        .iter()
        .map(|&(c, p_q)| ListState::new(index.list(c), p_q, mode))
        .collect();
    let topk = accumulate_topk(
        states.iter().map(|s| (s.query_impact, s.pairs.as_slice())),
        k,
    );
    let topk_ids: Vec<u64> = topk.iter().map(|&(i, _)| i).collect();

    let mut stats = InvSearchStats {
        total_postings: states.iter().map(|s| s.pairs.len()).sum(),
        ..Default::default()
    };

    // Alg. 3 line 1: pop every entry containing a top-k image, together
    // with its preceding entries — rounded up to whole blocks.
    for state in &mut states {
        let last = state
            .pairs
            .iter()
            .rposition(|(image, _)| topk_ids.contains(image));
        if let Some(pair) = last {
            // The entry holding pair `pair`: the last one starting at or
            // before it.
            let entry = state.offsets.partition_point(|&o| o <= pair) - 1;
            state.pop_blocks(entry / BLOCK_SIZE + 1);
        }
    }

    // Alg. 3 lines 3–9: pop until both termination conditions hold. The
    // paper batches the (expensive) condition checks after a number of pops
    // (§VII-A); we additionally grow the batch while checks keep failing so
    // heavy-popping queries stay near-linear.
    let mut batch = tuning.initial_batch.max(1);
    loop {
        stats.rounds += 1;
        let snapshots: Vec<ListSnapshot> = states.iter().map(ListState::snapshot).collect();
        let eval = evaluate(&snapshots, &topk_ids, mode);
        drop(snapshots);

        if !eval.condition1 {
            let target = best_poppable(&states, |_| true);
            let target = target.expect("condition 1 holds once every list is exhausted");
            states[target].pop_blocks(batch.div_ceil(BLOCK_SIZE));
        } else if let Some(worst) = eval.first_exceeded {
            // Pop toward the offending image in the list that contributes
            // most to its upper bound.
            let target = best_poppable(&states, |s| match mode {
                BoundsMode::CuckooFiltered => {
                    s.working_filter.as_ref().is_some_and(|f| f.contains(worst))
                }
                BoundsMode::MaxBound => true,
            });
            let target = target.expect("condition 2 holds once every list is exhausted");
            states[target].pop_until_image(worst, batch);
        } else {
            break;
        }
        batch = (batch * tuning.growth.max(1)).min(tuning.max_batch.max(1));
    }

    // Assemble the VO from the final popped state (Alg. 4 lines 2–11).
    // Every static digest is a build-time memo (filter commitments, fence
    // summaries) — no Keccak at query time; the counter makes that
    // observable.
    let mut memo = |digest: Digest| {
        stats.hashes_cached += 1;
        digest
    };
    let lists = states
        .iter()
        .map(|s| ListVoOf {
            cluster: s.list.cluster,
            weight: s.list.weight,
            popped: s.list.postings[..s.popped_len()].to_vec(),
            remaining: match s.list.blocks().get(s.popped_blocks) {
                None => RemainingVo::Exhausted {
                    filter_digest: memo(s.list.filter_commit()),
                },
                Some(fence) => RemainingVo::Skipped {
                    max_impact: fence.max_impact,
                    fence_digest: memo(fence.digest),
                    filter: match mode {
                        BoundsMode::CuckooFiltered => FilterVo::Bytes(s.list.filter.to_bytes()),
                        BoundsMode::MaxBound => FilterVo::DigestOnly(memo(s.list.filter_commit())),
                    },
                },
            },
        })
        .collect();
    // `pop_blocks` clamps, so popped_blocks ≤ n_blocks holds here.
    for s in &states {
        stats.popped += s.popped_pairs().len();
        stats.blocks_scanned += s.popped_blocks;
        stats.blocks_skipped += s.list.n_blocks() - s.popped_blocks;
    }

    record_inv_search(bounds, &stats);
    SearchResult {
        topk,
        vo: InvVoOf { lists },
        stats,
    }
}

/// Index of the unexhausted list with the largest remaining contribution
/// `p_{Q,c} · p̂_c` among those satisfying `pred`.
fn best_poppable<E: Entry>(
    states: &[ListState<'_, E>],
    mut pred: impl FnMut(&ListState<'_, E>) -> bool,
) -> Option<usize> {
    let mut best: Option<(f32, usize)> = None;
    for (i, s) in states.iter().enumerate() {
        let Some(cap) = s.remaining_cap() else {
            continue;
        };
        if !pred(s) {
            continue;
        }
        let value = s.query_impact * cap;
        if best.is_none_or(|(bv, _)| value > bv) {
            best = Some((value, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imageproof_akm::bovw::ImpactModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A synthetic corpus with Zipfian cluster popularity.
    fn corpus(n_images: u64, n_clusters: usize, seed: u64) -> Index<Posting> {
        let mut rng = StdRng::seed_from_u64(seed);
        let images: Vec<(u64, SparseBovw)> = (0..n_images)
            .map(|id| {
                let n_words = rng.gen_range(3..10);
                let pairs: Vec<(u32, u32)> = (0..n_words)
                    .map(|_| {
                        // Squared-uniform skews towards low cluster ids.
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
        Index::<Posting>::build(n_clusters, &images, &model)
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
    fn authenticated_topk_matches_exhaustive_oracle() {
        let idx = corpus(300, 40, 1);
        for qseed in 0..5 {
            let q = query(qseed, 40);
            let impacts = impacts_with_weights(&q, |c| idx.list(c).weight);
            let oracle = exhaustive_topk(&idx, &impacts, 10);
            for mode in [BoundsMode::CuckooFiltered, BoundsMode::MaxBound] {
                let got = inv_search(&idx, &q, 10, mode);
                assert_eq!(got.topk, oracle, "qseed {qseed} mode {mode:?}");
            }
        }
    }

    #[test]
    fn filtered_search_pops_fewer_postings_than_baseline() {
        let idx = corpus(400, 30, 2);
        let mut filtered_total = 0usize;
        let mut baseline_total = 0usize;
        for qseed in 0..5 {
            let q = query(100 + qseed, 30);
            filtered_total += inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered)
                .stats
                .popped;
            baseline_total += inv_search(&idx, &q, 5, BoundsMode::MaxBound).stats.popped;
        }
        assert!(
            filtered_total <= baseline_total,
            "filters must not increase popping: {filtered_total} > {baseline_total}"
        );
    }

    #[test]
    fn baseline_pops_nearly_everything() {
        // The paper observes [15]'s loose bounds force popping almost all
        // postings.
        let idx = corpus(300, 30, 3);
        let q = query(7, 30);
        let out = inv_search(&idx, &q, 10, BoundsMode::MaxBound);
        assert!(
            out.stats.popped_ratio() > 0.5,
            "expected heavy popping, got {}",
            out.stats.popped_ratio()
        );
    }

    #[test]
    fn topk_images_always_fully_popped() {
        let idx = corpus(200, 25, 4);
        let q = query(9, 25);
        let out = inv_search(&idx, &q, 8, BoundsMode::CuckooFiltered);
        // Every posting of every winner must be disclosed (Alg. 3 line 1).
        for (image, _) in &out.topk {
            for list_vo in &out.vo.lists {
                let list = idx.list(list_vo.cluster);
                let in_list = list.postings.iter().any(|p| p.0 == *image);
                if in_list {
                    assert!(
                        list_vo.popped.iter().any(|&(i, _)| i == *image),
                        "winner {image} hidden in cluster {}",
                        list_vo.cluster
                    );
                }
            }
        }
    }

    #[test]
    fn vo_lists_cover_exactly_the_query_clusters() {
        let idx = corpus(200, 25, 5);
        let q = query(11, 25);
        let out = inv_search(&idx, &q, 5, BoundsMode::CuckooFiltered);
        let vo_clusters: Vec<u32> = out.vo.lists.iter().map(|l| l.cluster).collect();
        let query_clusters: Vec<u32> = q.iter().map(|(c, _)| c).collect();
        assert_eq!(vo_clusters, query_clusters);
    }

    #[test]
    fn small_k_pops_less_than_large_k() {
        let idx = corpus(400, 30, 6);
        let q = query(13, 30);
        let small = inv_search(&idx, &q, 1, BoundsMode::CuckooFiltered);
        let large = inv_search(&idx, &q, 50, BoundsMode::CuckooFiltered);
        assert!(small.stats.popped <= large.stats.popped);
    }

    #[test]
    fn k_larger_than_matches_returns_all_and_exhausts() {
        let idx = corpus(20, 10, 7);
        let q = query(15, 10);
        let out = inv_search(&idx, &q, 1000, BoundsMode::CuckooFiltered);
        assert!(out.topk.len() < 1000);
        for l in &out.vo.lists {
            assert!(
                matches!(l.remaining, RemainingVo::Exhausted { .. }),
                "all lists must be fully popped when k exceeds matches"
            );
        }
    }

    #[test]
    fn empty_query_list_is_handled() {
        // A query touching a cluster with no postings.
        let idx = corpus(50, 10, 8);
        // Find an empty cluster if any; otherwise craft a query on cluster 9
        // anyway (the search must not panic either way).
        let q = SparseBovw::from_counts([(9u32, 1u32)]);
        let out = inv_search(&idx, &q, 3, BoundsMode::CuckooFiltered);
        assert!(out.topk.len() <= 3);
    }
}
