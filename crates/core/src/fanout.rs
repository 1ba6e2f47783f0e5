//! How a sharded top-k query is answered — written once, for every
//! deployment.
//!
//! [`answer`] is the sharded extension of the paper's Alg. 5: a full-k
//! round on every shard, the cross-shard merge of each query's local
//! winners, a trim round re-querying the shards whose claims can shrink,
//! and the assembly of one [`ShardedVo`] per query with its shared
//! section — plus the [`ShardedSpStats`], the span profile and the
//! `imageproof_sharded_*` registry series that describe it. A single query
//! is a batch of one.
//!
//! The procedure is generic over *how a round reaches the shards*: the
//! two-operation [`Fleet`] seam. The in-process [`crate::ShardedSp`]
//! implements it with function calls fanned out over worker threads (its
//! error type is `Infallible`), the socket coordinator (`crate::rpc`) with
//! one length-prefixed frame per shard and round (`RpcError`). Everything
//! between the rounds is deterministic and lives here, so the
//! coordinator's output is bit-equal to `ShardedSp`'s because it *is* the
//! same code, not by parallel maintenance (`rpc_equivalence` and the
//! sharded rows of `wire_golden` assert it end to end).

use crate::rpc::TrimPayload;
use crate::scheme::InvVoVariant;
use crate::shard::{dedup_shared_section, ShardBovw, ShardVo, ShardedResponse, ShardedVo};
use crate::sp::{ImageResult, QueryResponse, ShardedSpStats, SpStats};
use imageproof_crypto::Signature;
use imageproof_obs::{micros, Profiler, QueryProfile};
use imageproof_vision::ImageId;

/// One client query: its feature vectors.
pub(crate) type Features<'a> = &'a [Vec<f32>];

/// One answered query.
pub(crate) type Answer = (ShardedResponse, ShardedSpStats);

/// One shard's share of a full-k round.
pub(crate) struct ShardRound {
    /// One answer per query of the round, in query order.
    pub answers: Vec<(QueryResponse, SpStats)>,
    /// The shard's span profile of the round (empty when not recorded).
    pub profile: QueryProfile,
}

/// The shards of one deployment, as the orchestrator sees them: two
/// operations, each one round over the whole fleet. An implementation
/// either returns exactly the shape asked for or its own typed error.
pub(crate) trait Fleet {
    type Error;

    /// Full-k answers for every query from every shard: one [`ShardRound`]
    /// per shard in shard order, each holding `queries.len()` answers.
    fn full_round(
        &mut self,
        queries: &[Features<'_>],
        k: usize,
    ) -> Result<Vec<ShardRound>, Self::Error>;

    /// Trim answers for a per-shard plan: `plan[s]` lists the
    /// `(query index, k')` re-queries of shard `s` (possibly none), and the
    /// result holds one payload per plan entry, in plan order.
    fn trim_round(
        &mut self,
        queries: &[Features<'_>],
        plan: &[Vec<(usize, usize)>],
    ) -> Result<Vec<Vec<TrimPayload>>, Self::Error>;
}

/// Answers `queries` over `fleet`, in input order. `span` names the root
/// of the returned profile; `scheme` labels the registry series (the
/// socket coordinator never learns its shards' scheme and passes `None`).
///
/// Timings of a batch member are the shared round times plus its own
/// merge: `merge_seconds` is the member's merge and assembly,
/// `wall_seconds` adds the fan-out and trim rounds it shared with the rest
/// of the batch. An empty batch issues no round.
pub(crate) fn answer<F: Fleet>(
    fleet: &mut F,
    span: &'static str,
    scheme: Option<&'static str>,
    queries: &[Features<'_>],
    k: usize,
) -> Result<(Vec<Answer>, QueryProfile), F::Error> {
    let mut prof = Profiler::new(span);
    if queries.is_empty() {
        return Ok((Vec::new(), prof.finish()));
    }

    // Phase 1: the full-k query on every shard, regrouped per query.
    prof.enter("fanout");
    let rounds = fleet.full_round(queries, k)?;
    let shard_count = rounds.len();
    let mut fulls: Vec<Vec<QueryResponse>> = vec![Vec::new(); queries.len()];
    let mut per_shard: Vec<Vec<SpStats>> = vec![Vec::new(); queries.len()];
    for (shard, round) in rounds.into_iter().enumerate() {
        prof.attach(round.profile, "shard", shard as u64);
        for (q, (response, stats)) in round.answers.into_iter().enumerate() {
            fulls[q].push(response);
            per_shard[q].push(stats);
        }
    }
    let fanout_seconds = prof.exit();

    // Phase 2: merge each query's local top-ks and keep its k global
    // winners; a shard's winner count becomes its sub-VO's `contributed`.
    let mut merges = Vec::with_capacity(queries.len());
    let mut merge_seconds = Vec::with_capacity(queries.len());
    for full in &fulls {
        prof.enter("merge");
        let merge = merge_candidates(full, k);
        prof.add("candidates", merge.candidates.len() as u64);
        merges.push(merge);
        merge_seconds.push(prof.exit());
    }

    // Phase 3: trim. A shard contributing j entries must prove its local
    // top-k' for k' = min(j + 1, k); shards with j ≥ k − 1 keep their
    // full-k answer, the rest get an inverted-index re-query at k' (the
    // BoVW step is k-independent, so its VO is reused as is). All
    // re-queries of the batch share one round.
    prof.enter("trim");
    let mut plan: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shard_count];
    for (q, merge) in merges.iter().enumerate() {
        for (shard, k_trim) in trim_targets(&merge.contributed, k) {
            plan[shard].push((q, k_trim));
        }
    }
    prof.add("trim_queries", plan.iter().flatten().count() as u64);
    let mut trimmed: Vec<Vec<Option<TrimPayload>>> = vec![vec![None; shard_count]; queries.len()];
    if plan.iter().any(|items| !items.is_empty()) {
        let outcomes = fleet.trim_round(queries, &plan)?;
        for (shard, (items, outcomes)) in plan.iter().zip(outcomes).enumerate() {
            for (&(q, _), outcome) in items.iter().zip(outcomes) {
                trimmed[q][shard] = Some(outcome);
            }
        }
    }
    let trim_seconds = prof.exit();

    // Phase 4: assemble each query's results and sharded VO.
    let mut answers = Vec::with_capacity(queries.len());
    let members = fulls.into_iter().zip(merges).zip(trimmed).zip(per_shard);
    for (q, (((full, merge), trimmed), per_shard)) in members.enumerate() {
        prof.enter("assemble");
        let assembled = assemble_response(full, &merge, trimmed);
        prof.add("dedup_bytes_saved", assembled.dedup_bytes_saved as u64);
        let merge_seconds = merge_seconds[q] + prof.exit();
        let stats = ShardedSpStats {
            per_shard,
            trim_queries: assembled.trim_queries,
            trimmed_entries: assembled.trimmed_entries,
            dedup_bytes_saved: assembled.dedup_bytes_saved,
            merge_seconds,
            wall_seconds: fanout_seconds + merge_seconds + trim_seconds,
        };
        if prof.is_recording() {
            record_sharded_query(scheme, &stats, fanout_seconds, trim_seconds);
        }
        answers.push((assembled.response, stats));
    }
    Ok((answers, prof.finish()))
}

/// Records one answered sharded query into the global registry.
fn record_sharded_query(
    scheme: Option<&'static str>,
    stats: &ShardedSpStats,
    fanout_seconds: f64,
    trim_seconds: f64,
) {
    let reg = imageproof_obs::global();
    let scheme = scheme.map(|slug| ("scheme", slug));
    let labels: Vec<(&str, &str)> = scheme.into_iter().collect();
    reg.counter("imageproof_sharded_queries_total", &labels)
        .inc();
    for (name, n) in [
        ("imageproof_sharded_trim_queries_total", stats.trim_queries),
        (
            "imageproof_sharded_trimmed_entries_total",
            stats.trimmed_entries,
        ),
        (
            "imageproof_sharded_dedup_bytes_saved_total",
            stats.dedup_bytes_saved,
        ),
    ] {
        reg.counter(name, &labels).add(n as u64);
    }
    for (phase, seconds) in [
        ("fanout", fanout_seconds),
        ("merge", stats.merge_seconds),
        ("trim", trim_seconds),
    ] {
        let labels: Vec<(&str, &str)> = scheme.into_iter().chain([("phase", phase)]).collect();
        reg.histogram("imageproof_sharded_phase_micros", &labels)
            .record(micros(seconds));
    }
}

/// The merge verdict over one query's full-k answers: the k global winners
/// (as `(shard, id, score)`, strongest first) and each shard's winner
/// count.
struct MergeOutcome {
    candidates: Vec<(usize, ImageId, f32)>,
    contributed: Vec<usize>,
}

/// Merges the per-shard local top-ks under `(score desc, id asc)` — the
/// same order the per-shard engines use — and keeps the k global winners.
/// Scores are shard-invariant (global impact model), so this merge
/// reproduces the monolith top-k exactly.
fn merge_candidates(full: &[QueryResponse], k: usize) -> MergeOutcome {
    let mut candidates: Vec<(usize, ImageId, f32)> = Vec::new();
    for (shard, resp) in full.iter().enumerate() {
        for r in &resp.results {
            candidates.push((shard, r.id, r.score));
        }
    }
    candidates.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
    candidates.truncate(k);
    let mut contributed = vec![0usize; full.len()];
    for &(shard, _, _) in &candidates {
        contributed[shard] += 1;
    }
    MergeOutcome {
        candidates,
        contributed,
    }
}

/// The shards whose sub-VO can be merge-trimmed, as `(shard, k')` with
/// k' = min(j + 1, k): a shard contributing j entries must prove its local
/// top-k'; shards with j ≥ k − 1 reuse the full-k answer verbatim.
fn trim_targets(contributed: &[usize], k: usize) -> Vec<(usize, usize)> {
    (0..contributed.len())
        .filter_map(|s| {
            let k_trim = (contributed[s] + 1).min(k);
            (k_trim < k).then_some((s, k_trim))
        })
        .collect()
}

/// The assembled sharded answer plus the assembly's own byte accounting.
struct Assembled {
    response: ShardedResponse,
    /// Shards whose sub-VO claims the trimmed top-k' instead of the full k.
    trim_queries: usize,
    /// Entries the merge trim dropped from sub-VO claims, summed over
    /// shards (full-k answer length minus trimmed claim length).
    trimmed_entries: usize,
    /// Response bytes the shared-section dedup removed.
    dedup_bytes_saved: usize,
}

/// Assembles the global results and the sharded VO out of the shards'
/// answers, consuming them: sub-VOs in ascending shard order (the trimmed
/// claim where `trimmed[shard]` holds one, the full-k answer verbatim
/// otherwise), then the shards' common BoVW geometry deduplicated into the
/// response's shared section.
fn assemble_response(
    mut full: Vec<QueryResponse>,
    merge: &MergeOutcome,
    trimmed: Vec<Option<TrimPayload>>,
) -> Assembled {
    let mut results = Vec::with_capacity(merge.candidates.len());
    for &(shard, id, score) in &merge.candidates {
        if let Some(r) = full[shard].results.iter_mut().find(|r| r.id == id) {
            let data = std::mem::take(&mut r.data);
            results.push(ImageResult { id, data, score });
        }
    }
    let shard_count = full.len();
    let mut shard_vos = Vec::with_capacity(shard_count);
    let trim_queries = trimmed.iter().flatten().count();
    let mut trimmed_entries = 0usize;
    for (shard, (resp, trim)) in full.into_iter().zip(trimmed).enumerate() {
        let (claimed, inv, signatures): (Vec<ImageId>, InvVoVariant, Vec<Signature>) = match trim {
            Some(trim) => {
                trimmed_entries += resp.results.len().saturating_sub(trim.topk.len());
                let claimed = trim.topk.iter().map(|&(id, _)| id).collect();
                (claimed, trim.inv, trim.signatures)
            }
            None => (
                resp.results.iter().map(|r| r.id).collect(),
                resp.vo.inv,
                resp.vo.signatures,
            ),
        };
        shard_vos.push(ShardVo {
            shard_id: shard as u32,
            contributed: merge.contributed[shard] as u32,
            claimed,
            bovw: ShardBovw::Inline(resp.vo.bovw),
            inv,
            signatures,
        });
    }
    let (shared, dedup_bytes_saved) = dedup_shared_section(&mut shard_vos);
    Assembled {
        response: ShardedResponse {
            results,
            vo: ShardedVo {
                shard_count: shard_count as u32,
                shared,
                shards: shard_vos,
            },
        },
        trim_queries,
        trimmed_entries,
        dedup_bytes_saved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BovwVoVariant, QueryVo};
    use imageproof_crypto::wire::Encode;
    use imageproof_crypto::Digest;
    use imageproof_invindex::InvVoOf;
    use imageproof_mrkd::{BovwVo, VoTreeBuilder};

    /// A fleet of canned shards: no threads, no sockets, no clock. Shard
    /// `s` of `S` holds images `s, s + S, …`; an image's score depends on
    /// the query's first coordinate, so different queries rank — and trim
    /// — differently.
    struct FakeFleet {
        shards: usize,
        images_per_shard: u64,
        fail_trim: bool,
        full_rounds: usize,
        trim_rounds: usize,
    }

    impl FakeFleet {
        fn new(shards: usize) -> FakeFleet {
            FakeFleet {
                shards,
                images_per_shard: 6,
                fail_trim: false,
                full_rounds: 0,
                trim_rounds: 0,
            }
        }

        fn local_topk(&self, shard: usize, query: Features<'_>, k: usize) -> Vec<(ImageId, f32)> {
            let seed = query[0][0] as u64;
            let mut ranked: Vec<(ImageId, f32)> = (0..self.images_per_shard)
                .map(|i| {
                    let id = shard as u64 + i * self.shards as u64;
                    (id, ((id * 7 + seed * 13) % 31) as f32)
                })
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(k);
            ranked
        }
    }

    fn empty_inv() -> InvVoVariant {
        InvVoVariant::Plain(InvVoOf { lists: Vec::new() })
    }

    fn signatures(topk: &[(ImageId, f32)]) -> Vec<Signature> {
        topk.iter()
            .map(|&(id, _)| Signature::from_bytes([id as u8; 64]))
            .collect()
    }

    impl Fleet for FakeFleet {
        type Error = &'static str;

        fn full_round(
            &mut self,
            queries: &[Features<'_>],
            k: usize,
        ) -> Result<Vec<ShardRound>, Self::Error> {
            self.full_rounds += 1;
            Ok((0..self.shards)
                .map(|shard| ShardRound {
                    answers: queries
                        .iter()
                        .map(|query| {
                            let topk = self.local_topk(shard, query, k);
                            let response = QueryResponse {
                                results: topk
                                    .iter()
                                    .map(|&(id, score)| ImageResult {
                                        id,
                                        data: vec![id as u8; 3],
                                        score,
                                    })
                                    .collect(),
                                vo: QueryVo {
                                    bovw: BovwVoVariant::Shared(BovwVo {
                                        clusters: Vec::new(),
                                        tree: VoTreeBuilder::default()
                                            .pruned(Digest::ZERO)
                                            .finish(),
                                    }),
                                    inv: empty_inv(),
                                    signatures: signatures(&topk),
                                },
                            };
                            let stats = SpStats {
                                popped: topk.len() + shard,
                                ..SpStats::default()
                            };
                            (response, stats)
                        })
                        .collect(),
                    profile: QueryProfile::default(),
                })
                .collect())
        }

        fn trim_round(
            &mut self,
            queries: &[Features<'_>],
            plan: &[Vec<(usize, usize)>],
        ) -> Result<Vec<Vec<TrimPayload>>, Self::Error> {
            self.trim_rounds += 1;
            if self.fail_trim {
                return Err("shard 1 went away mid-trim");
            }
            Ok(plan
                .iter()
                .enumerate()
                .map(|(shard, items)| {
                    items
                        .iter()
                        .map(|&(q, k_trim)| {
                            let topk = self.local_topk(shard, queries[q], k_trim);
                            TrimPayload {
                                signatures: signatures(&topk),
                                topk,
                                inv: empty_inv(),
                            }
                        })
                        .collect()
                })
                .collect())
        }
    }

    fn queries() -> Vec<Vec<Vec<f32>>> {
        [2.0f32, 5.0, 11.0, 17.0]
            .iter()
            .map(|&seed| vec![vec![seed, 0.5]])
            .collect()
    }

    /// Everything deterministic about one answer.
    fn facts(answer: &Answer) -> impl PartialEq + std::fmt::Debug {
        let (response, stats) = answer;
        let results: Vec<(ImageId, u32, Vec<u8>)> = response
            .results
            .iter()
            .map(|r| (r.id, r.score.to_bits(), r.data.clone()))
            .collect();
        let popped: Vec<usize> = stats.per_shard.iter().map(|s| s.popped).collect();
        (
            response.vo.to_wire(),
            results,
            stats.trim_queries,
            stats.trimmed_entries,
            stats.dedup_bytes_saved,
            popped,
        )
    }

    #[test]
    fn a_batch_of_n_equals_n_batches_of_one() {
        let queries = queries();
        let batch: Vec<Features<'_>> = queries.iter().map(Vec::as_slice).collect();
        let k = 4;
        let mut fleet = FakeFleet::new(3);
        let (batched, _) = answer(&mut fleet, "test", None, &batch, k).expect("fake fleet");
        assert_eq!(batched.len(), queries.len());
        assert_eq!(
            (fleet.full_rounds, fleet.trim_rounds),
            (1, 1),
            "the whole batch shares one round of each kind"
        );
        let mut trims = 0;
        for (q, batched) in batched.iter().enumerate() {
            let mut fleet = FakeFleet::new(3);
            let (mut single, _) =
                answer(&mut fleet, "test", None, &[batch[q]], k).expect("fake fleet");
            assert_eq!(single.len(), 1);
            let single = single.pop().expect("one answer");
            assert_eq!(facts(batched), facts(&single), "query {q}");
            assert_eq!(batched.0.results.len(), k);
            trims += batched.1.trim_queries;
        }
        assert!(trims > 0, "fixture must exercise the trim round");
    }

    #[test]
    fn a_trim_round_error_propagates_and_yields_no_partial_response() {
        let queries = queries();
        let batch: Vec<Features<'_>> = queries.iter().map(Vec::as_slice).collect();
        let mut fleet = FakeFleet::new(3);
        fleet.fail_trim = true;
        let outcome = answer(&mut fleet, "test", None, &batch, 4);
        assert_eq!(outcome.err(), Some("shard 1 went away mid-trim"));
        assert_eq!((fleet.full_rounds, fleet.trim_rounds), (1, 1));
    }

    #[test]
    fn an_empty_batch_is_empty_and_issues_no_round() {
        let mut fleet = FakeFleet::new(3);
        let (answers, _) = answer(&mut fleet, "test", None, &[], 4).expect("fake fleet");
        assert!(answers.is_empty());
        assert_eq!((fleet.full_rounds, fleet.trim_rounds), (0, 0));
    }

    #[test]
    fn no_trim_round_is_issued_when_nothing_can_be_trimmed() {
        // k = 1: every shard's k' = min(j + 1, 1) = k, so no claim shrinks.
        let queries = queries();
        let mut fleet = FakeFleet::new(2);
        let (answers, _) =
            answer(&mut fleet, "test", None, &[queries[0].as_slice()], 1).expect("fake fleet");
        assert_eq!(answers[0].1.trim_queries, 0);
        assert_eq!((fleet.full_rounds, fleet.trim_rounds), (1, 0));
    }
}
