//! The service provider: authenticated query processing (paper §V-B,
//! Alg. 5).

use crate::fanout;
use crate::owner::{Database, IndexVariant};
use crate::rpc::TrimPayload;
use crate::scheme::{BovwVoVariant, InvVoVariant, QueryVo, Scheme};
use crate::shard::ShardedResponse;
use imageproof_akm::SparseBovw;
use imageproof_invindex::grouped::grouped_search;
use imageproof_invindex::{inv_search, InvSearchStats};
use imageproof_mrkd::{mrkd_search, mrkd_search_baseline};
use imageproof_obs::{micros, Profiler, QueryProfile};
use imageproof_parallel::{par_map, Concurrency};
use imageproof_vision::ImageId;
use std::collections::BTreeMap;
use std::convert::Infallible;

/// One returned image with its raw payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageResult {
    pub id: ImageId,
    pub data: Vec<u8>,
    /// The SP's claimed similarity score (the client re-derives its own).
    pub score: f32,
}

/// The SP's answer to a top-k query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    pub results: Vec<ImageResult>,
    pub vo: QueryVo,
}

/// SP-side cost breakdown for one query.
///
/// Timings are views over the query's observability spans
/// (`imageproof-obs`): with recording disabled via
/// [`imageproof_obs::set_enabled`]`(false)` the `*_seconds` fields read 0
/// while every counter field — and every VO byte — stays identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpStats {
    /// Wall-clock seconds spent on BoVW encoding + MRKD VO generation.
    pub bovw_seconds: f64,
    /// Wall-clock seconds spent on inverted-index search + VO generation.
    pub inv_seconds: f64,
    /// Shared-node ratio of the MRKD traversal (Figs. 7–8).
    pub shared_ratio: f64,
    /// Postings popped / total postings in relevant lists (Figs. 9–11).
    pub popped: usize,
    pub total_postings: usize,
    /// VO digests that required running Keccak at query time.
    pub hashes_computed: usize,
    /// VO digests copied from build-time memos: MRKD pruned stubs, one list
    /// digest per BoVW cluster-table row, block-summary digests, filter
    /// commitments.
    pub hashes_cached: usize,
    /// Posting blocks the block-max search left unscanned (each proven by
    /// one fence digest in the VO).
    pub blocks_skipped: usize,
    /// Posting blocks the search actually popped.
    pub blocks_scanned: usize,
}

impl SpStats {
    pub fn popped_ratio(&self) -> f64 {
        if self.total_postings == 0 {
            0.0
        } else {
            self.popped as f64 / self.total_postings as f64
        }
    }

    /// Fraction of VO digests served from build-time memos (guarded like
    /// [`SpStats::popped_ratio`] against empty VOs).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.hashes_computed + self.hashes_cached;
        if total == 0 {
            0.0
        } else {
            self.hashes_cached as f64 / total as f64
        }
    }
}

/// Records one finished SP query into the global metrics registry.
fn record_sp_query(scheme: Scheme, stats: &SpStats) {
    let reg = imageproof_obs::global();
    let slug = scheme.slug();
    reg.counter("imageproof_sp_queries_total", &[("scheme", slug)])
        .inc();
    for (phase, seconds) in [("bovw", stats.bovw_seconds), ("inv", stats.inv_seconds)] {
        reg.histogram(
            "imageproof_sp_phase_micros",
            &[("scheme", slug), ("phase", phase)],
        )
        .record(micros(seconds));
    }
    for (kind, n) in [
        ("computed", stats.hashes_computed),
        ("cached", stats.hashes_cached),
    ] {
        reg.counter(
            "imageproof_sp_hashes_total",
            &[("scheme", slug), ("kind", kind)],
        )
        .add(n as u64);
    }
    reg.counter("imageproof_sp_postings_popped_total", &[("scheme", slug)])
        .add(stats.popped as u64);
    for (kind, n) in [
        ("skipped", stats.blocks_skipped),
        ("scanned", stats.blocks_scanned),
    ] {
        reg.counter(
            "imageproof_sp_blocks_total",
            &[("scheme", slug), ("kind", kind)],
        )
        .add(n as u64);
    }
}

/// The service provider hosting one outsourced database.
pub struct ServiceProvider {
    db: Database,
}

impl ServiceProvider {
    pub fn new(db: Database) -> ServiceProvider {
        ServiceProvider { db }
    }

    /// Read access to the hosted database (used by adversarial tests and
    /// ablation benchmarks).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Reclaims the hosted database (e.g. to hand back to the owner for
    /// maintenance).
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Processes a top-k query (Alg. 5): BoVW-encodes the query features
    /// with threshold computation, runs `MRKDSearch` on the MRKD-tree,
    /// searches the inverted index, and assembles the VO. One query runs
    /// on the calling thread; [`ServiceProvider::query_batch`] serves many
    /// at once.
    pub fn query(&self, features: &[Vec<f32>], k: usize) -> (QueryResponse, SpStats) {
        let (response, stats, _) = self.query_profiled(features, k);
        (response, stats)
    }

    /// [`ServiceProvider::query`] that additionally returns the query's
    /// structured span profile (phases `bovw`, `inv`, `assemble` with
    /// their counters). The profile is pure observation: the response and
    /// VO bytes are byte-identical whether or not recording is enabled
    /// (proven by the `obs_equivalence` suite).
    pub fn query_profiled(
        &self,
        features: &[Vec<f32>],
        k: usize,
    ) -> (QueryResponse, SpStats, QueryProfile) {
        let mut prof = Profiler::new("sp.query");
        let (response, stats) = self.query_impl(features, k, &mut prof);
        if prof.is_recording() {
            record_sp_query(self.db.scheme, &stats);
        }
        (response, stats, prof.finish())
    }

    fn query_impl(
        &self,
        features: &[Vec<f32>],
        k: usize,
        prof: &mut Profiler,
    ) -> (QueryResponse, SpStats) {
        let mut stats = SpStats::default();
        let scheme = self.db.scheme;

        // --- BoVW step (Alg. 5 lines 1–4) ---
        prof.enter("bovw");
        prof.add("features", features.len() as u64);
        let mut assignments = Vec::with_capacity(features.len());
        let mut thresholds = Vec::with_capacity(features.len());
        for f in features {
            let (cluster, dist_sq) = self.db.codebook.assign_with_threshold(f);
            assignments.push(cluster);
            thresholds.push(dist_sq);
        }
        let (bovw_vo, mrkd_stats) = if scheme.shares_nodes() {
            let out = mrkd_search(&self.db.mrkd, features, &thresholds);
            (BovwVoVariant::Shared(out.vo), out.stats)
        } else {
            let (vo, s) = mrkd_search_baseline(&self.db.mrkd, features, &thresholds);
            (BovwVoVariant::PerQuery(vo), s)
        };
        let query_bovw = SparseBovw::from_counts(assignments.iter().map(|&c| (c, 1)));
        stats.shared_ratio = mrkd_stats.shared_ratio();
        stats.hashes_cached = mrkd_stats.digests_cached;
        prof.add("hashes_cached", mrkd_stats.digests_cached as u64);
        stats.bovw_seconds = prof.exit();

        // --- Inverted-index step (Alg. 5 line 5) ---
        prof.enter("inv");
        let (topk, inv_vo, inv_stats) = self.inv_step(&query_bovw, k);
        stats.popped = inv_stats.popped;
        stats.total_postings = inv_stats.total_postings;
        stats.hashes_computed += inv_stats.hashes_computed;
        stats.hashes_cached += inv_stats.hashes_cached;
        stats.blocks_skipped = inv_stats.blocks_skipped;
        stats.blocks_scanned = inv_stats.blocks_scanned;
        prof.add("popped", stats.popped as u64);
        prof.add("postings", stats.total_postings as u64);
        prof.add("hashes_computed", stats.hashes_computed as u64);
        prof.add("blocks_skipped", stats.blocks_skipped as u64);
        prof.add("blocks_scanned", stats.blocks_scanned as u64);
        stats.inv_seconds = prof.exit();

        // --- Results + signatures (Alg. 5 lines 6–7) ---
        prof.enter("assemble");
        prof.add("results", topk.len() as u64);
        let mut results = Vec::with_capacity(topk.len());
        let mut signatures = Vec::with_capacity(topk.len());
        for &(id, score) in &topk {
            let stored = &self.db.images[&id];
            results.push(ImageResult {
                id,
                data: stored.data.clone(),
                score,
            });
            signatures.push(stored.signature);
        }
        prof.exit();

        (
            QueryResponse {
                results,
                vo: QueryVo {
                    bovw: bovw_vo,
                    inv: inv_vo,
                    signatures,
                },
            },
            stats,
        )
    }

    /// The inverted-index step alone, at an explicit `k`, over an already
    /// BoVW-encoded query. The BoVW step is k-independent, so the sharded
    /// trim pass re-runs only this step to produce a shard's top-`k'`
    /// claim while reusing the full-k fan-out's BoVW VO verbatim.
    fn inv_step(
        &self,
        query_bovw: &SparseBovw,
        k: usize,
    ) -> (Vec<(ImageId, f32)>, InvVoVariant, InvSearchStats) {
        match &self.db.inv {
            IndexVariant::Plain(index) => {
                let out = inv_search(index, query_bovw, k, self.db.scheme.bounds_mode());
                (out.topk, InvVoVariant::Plain(out.vo), out.stats)
            }
            IndexVariant::Grouped(index) => {
                let out = grouped_search(index, query_bovw, k);
                (out.topk, InvVoVariant::Grouped(out.vo), out.stats)
            }
        }
    }

    /// The sharded trim re-query: BoVW-encodes `features` (k-independent,
    /// so the encoding matches the full-k fan-out's bit-for-bit) and runs
    /// the inverted step at `k_trim`, returning the local top-k', its
    /// proof, and the claimed images' owner signatures in claim order.
    /// This is the request a shard server answers during the coordinator's
    /// trim phase (`crate::rpc`).
    pub fn trim_query(&self, features: &[Vec<f32>], k_trim: usize) -> TrimPayload {
        self.trim_encoded(&self.encode_query(features), k_trim)
    }

    /// The query's BoVW vector under this database's codebook.
    fn encode_query(&self, features: &[Vec<f32>]) -> SparseBovw {
        SparseBovw::from_counts(
            features
                .iter()
                .map(|f| (self.db.codebook.assign_with_threshold(f).0, 1)),
        )
    }

    /// [`ServiceProvider::trim_query`] over an already-encoded query BoVW
    /// (the in-process fan-out encodes once and re-queries every trim
    /// target with it; the codebook is shared, so the bytes are identical
    /// either way).
    fn trim_encoded(&self, query_bovw: &SparseBovw, k_trim: usize) -> TrimPayload {
        let (topk, inv, _) = self.inv_step(query_bovw, k_trim);
        let signatures = topk
            .iter()
            .map(|&(id, _)| self.db.images[&id].signature)
            .collect();
        TrimPayload {
            topk,
            inv,
            signatures,
        }
    }

    /// One shard's share of a sharded full-k round: every query through the
    /// serial engine, in order, under one `shard.batch` span with each
    /// query's own profile grafted below it (tagged `query`). Both sharded
    /// deployments answer a round with this — the in-process fan-out by
    /// calling it, the shard server on receiving a `Query` frame.
    pub(crate) fn serve_round(
        &self,
        queries: &[fanout::Features<'_>],
        k: usize,
    ) -> fanout::ShardRound {
        let mut prof = Profiler::new("shard.batch");
        prof.enter("queries");
        let mut answers = Vec::with_capacity(queries.len());
        for (i, features) in queries.iter().enumerate() {
            let (response, stats, sub) = self.query_profiled(features, k);
            prof.attach(sub, "query", i as u64);
            answers.push((response, stats));
        }
        prof.exit();
        fanout::ShardRound {
            answers,
            profile: prof.finish(),
        }
    }

    /// Serves independent client queries concurrently over the shared
    /// immutable [`Database`] — the millions-of-users serving shape: one
    /// database, many simultaneous top-k queries.
    ///
    /// Each query runs the serial [`ServiceProvider::query`] path on one
    /// worker (inter-query parallelism, not intra-query), and responses are
    /// returned in input order, so `query_batch(qs, k, conc)[i]` is
    /// bit-identical to `query(&qs[i], k)` for every thread count.
    pub fn query_batch(
        &self,
        queries: &[Vec<Vec<f32>>],
        k: usize,
        conc: Concurrency,
    ) -> Vec<(QueryResponse, SpStats)> {
        par_map(conc, queries, |_, features| self.query(features, k))
    }
}

/// The service provider hosting a sharded deployment: one monolith-style
/// engine per shard, answered through an authenticated cross-shard merge
/// (`shard.rs`).
pub struct ShardedSp {
    shards: Vec<ServiceProvider>,
}

/// SP-side cost breakdown for one sharded query. Timings are span views,
/// like [`SpStats`] (0 when observability recording is disabled).
#[derive(Clone, Debug, Default)]
pub struct ShardedSpStats {
    /// Stats of the full-k fan-out, indexed by shard id.
    pub per_shard: Vec<SpStats>,
    /// Number of trimmed (top-k') inverted-index re-queries issued for
    /// shards contributing fewer than k − 1 global winners.
    pub trim_queries: usize,
    /// Entries the merge trim dropped from sub-VO claims, summed over
    /// shards (full-k fan-out length minus trimmed claim length).
    pub trimmed_entries: usize,
    /// Response bytes the shared-section dedup removed (inline BoVW VO
    /// sizes minus patch sizes, net of the template itself).
    pub dedup_bytes_saved: usize,
    /// Wall-clock seconds spent merging and assembling the sharded VO.
    pub merge_seconds: f64,
    /// Wall-clock seconds of the whole sharded query: fan-out, merge,
    /// trim re-queries, and VO assembly.
    pub wall_seconds: f64,
}

impl ShardedSpStats {
    /// Query-time Keccak runs summed over the full-k fan-out.
    pub fn total_hashes_computed(&self) -> usize {
        self.per_shard.iter().map(|s| s.hashes_computed).sum()
    }

    /// Build-time digest memo hits summed over the full-k fan-out.
    pub fn total_hashes_cached(&self) -> usize {
        self.per_shard.iter().map(|s| s.hashes_cached).sum()
    }

    /// Postings popped summed over the full-k fan-out.
    pub fn total_popped(&self) -> usize {
        self.per_shard.iter().map(|s| s.popped).sum()
    }

    /// Total postings in relevant lists summed over the full-k fan-out.
    pub fn total_postings(&self) -> usize {
        self.per_shard.iter().map(|s| s.total_postings).sum()
    }

    /// Deployment-wide digest cache hit ratio (guarded against empty VOs,
    /// like [`SpStats::cache_hit_ratio`]).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.total_hashes_computed() + self.total_hashes_cached();
        if total == 0 {
            0.0
        } else {
            self.total_hashes_cached() as f64 / total as f64
        }
    }

    /// Seconds of the slowest shard's full-k query (BoVW + inverted step)
    /// — the fan-out's critical path when every shard gets its own worker.
    pub fn slowest_shard_seconds(&self) -> f64 {
        self.per_shard
            .iter()
            .map(|s| s.bovw_seconds + s.inv_seconds)
            .fold(0.0, f64::max)
    }

    /// Fraction of the query's wall time spent in merge + VO assembly
    /// (0 when no wall time was recorded).
    pub fn merge_share(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.merge_seconds / self.wall_seconds
        }
    }
}

impl ShardedSp {
    /// Hosts the owner's per-shard databases (`shards[i]` serves shard `i`).
    pub fn new(shards: Vec<Database>) -> ShardedSp {
        ShardedSp {
            shards: shards.into_iter().map(ServiceProvider::new).collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard engines (used by adversarial tests and ablations).
    pub fn shards(&self) -> &[ServiceProvider] {
        &self.shards
    }

    /// Dissolves the in-process fan-out into its per-shard engines — the
    /// handoff point to socket serving: each engine moves into its own
    /// [`crate::rpc::ShardServer`] process/thread.
    pub fn into_shards(self) -> Vec<ServiceProvider> {
        self.shards
    }

    /// Answers a sharded top-k query serially.
    pub fn query(&self, features: &[Vec<f32>], k: usize) -> (ShardedResponse, ShardedSpStats) {
        let (response, stats, _) = self.query_profiled(features, k, Concurrency::serial());
        (response, stats)
    }

    /// [`ShardedSp::query`] with the per-shard full-k queries (and the
    /// trimmed top-k' re-queries) fanned out across `conc` workers, plus
    /// the structured span profile: phases `fanout`, `merge`, `trim`,
    /// `assemble` ([`fanout::answer`]), with each shard's `shard.batch`
    /// sub-profile grafted under `fanout` (tagged with a `shard` counter).
    /// Fan-out preserves shard order and each shard runs the serial
    /// engine, so the response is bit-identical for every thread count.
    pub fn query_profiled(
        &self,
        features: &[Vec<f32>],
        k: usize,
        conc: Concurrency,
    ) -> (ShardedResponse, ShardedSpStats, QueryProfile) {
        let shards = &self.shards;
        let scheme = shards.first().map(|sp| sp.db.scheme.slug());
        let mut fleet = LocalFleet { shards, conc };
        let Ok((mut answers, profile)) =
            fanout::answer(&mut fleet, "sharded.query", scheme, &[features], k);
        let (response, stats) = answers.pop().expect("a batch of one has one answer");
        (response, stats, profile)
    }
}

/// The in-process fleet: a round is a function call per shard, fanned out
/// over `conc` workers. Nothing can fail in transit.
struct LocalFleet<'a> {
    shards: &'a [ServiceProvider],
    conc: Concurrency,
}

impl fanout::Fleet for LocalFleet<'_> {
    type Error = Infallible;

    fn full_round(
        &mut self,
        queries: &[fanout::Features<'_>],
        k: usize,
    ) -> Result<Vec<fanout::ShardRound>, Infallible> {
        Ok(par_map(self.conc, self.shards, |_, sp| {
            sp.serve_round(queries, k)
        }))
    }

    fn trim_round(
        &mut self,
        queries: &[fanout::Features<'_>],
        plan: &[Vec<(usize, usize)>],
    ) -> Result<Vec<Vec<TrimPayload>>, Infallible> {
        // The BoVW encoding is shard-invariant (shared codebook): encode
        // each re-queried query once, whatever number of shards trim it.
        let mut bovws: BTreeMap<usize, SparseBovw> = BTreeMap::new();
        for &(q, _) in plan.iter().flatten() {
            bovws
                .entry(q)
                .or_insert_with(|| self.shards[0].encode_query(queries[q]));
        }
        Ok(par_map(self.conc, plan, |shard, items| {
            items
                .iter()
                .map(|&(q, k_trim)| self.shards[shard].trim_encoded(&bovws[&q], k_trim))
                .collect()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Owner, Scheme};
    use imageproof_akm::AkmParams;
    use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

    #[test]
    fn in_process_fleet_answers_a_batch_like_its_members_one_by_one() {
        let corpus = Corpus::generate(&CorpusConfig {
            n_images: 60,
            n_latent_words: 60,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let akm = AkmParams {
            n_clusters: 48,
            n_trees: 3,
            max_leaf_size: 2,
            max_checks: 8,
            iterations: 1,
            seed: 5,
        };
        let system =
            Owner::new(&[21u8; 32]).build_sharded_system(&corpus, &akm, Scheme::ImageProof, 3);
        let sp = ShardedSp::new(system.shards);
        let queries: Vec<Vec<Vec<f32>>> = [(5u64, 24usize), (33, 20), (11, 16)]
            .iter()
            .map(|&(image, n)| corpus.query_from_image(image, n, image))
            .collect();
        let batch: Vec<&[Vec<f32>]> = queries.iter().map(Vec::as_slice).collect();
        for threads in [1, 4] {
            let mut fleet = LocalFleet {
                shards: sp.shards(),
                conc: Concurrency::new(threads),
            };
            let Ok((answers, _)) = fanout::answer(&mut fleet, "test", None, &batch, 4);
            assert_eq!(answers.len(), queries.len());
            for (features, (response, stats)) in queries.iter().zip(&answers) {
                let (single, single_stats) = sp.query(features, 4);
                assert_eq!(response.vo, single.vo);
                assert_eq!(stats.trim_queries, single_stats.trim_queries);
                assert_eq!(stats.trimmed_entries, single_stats.trimmed_entries);
                assert_eq!(stats.total_popped(), single_stats.total_popped());
            }
        }
    }
}
