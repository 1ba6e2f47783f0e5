//! Regenerates every figure of the paper's evaluation (§VII, Figs. 6–14),
//! plus a thread-count sweep (Fig. 15) for the parallel execution layer and
//! a shard-count sweep (Fig. 16) for sharded SP serving.
//!
//! ```sh
//! cargo run -p imageproof-bench --release --bin figures            # all figures
//! cargo run -p imageproof-bench --release --bin figures -- --fig 9 # one figure
//! cargo run -p imageproof-bench --release --bin figures -- --quick # smoke scale
//! ```
//!
//! Figs. 6–14 are the rows of [`FIGURES`]; every point of every figure runs
//! each query once through the SP and the client ([`measure`]) and prints
//! the means of the step's columns.
//!
//! Axes are scaled from the paper's server-scale setting to laptop scale
//! with identical ratios (DESIGN.md §3.4); the series *shapes* are the
//! reproduction target, not absolute values.

use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_bench::measure::{mean, measure, QueryMeasurement};
use imageproof_bench::table::{kib, ms, pct, Table};
use imageproof_core::{Scheme, SpaceUsage};
use imageproof_crypto::wire::Encode;
use imageproof_vision::DescriptorKind;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sweep axes for one run scale.
struct Scale {
    features_sweep: Vec<usize>,
    codebook_sweep: Vec<usize>,
    dataset_sweep: Vec<usize>,
    k_sweep: Vec<usize>,
    default_features: usize,
    default_k: usize,
    n_queries: usize,
    base: fn(DescriptorKind) -> FixtureConfig,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            features_sweep: vec![100, 200, 300, 400, 500],
            codebook_sweep: vec![1000, 2000, 4000],
            dataset_sweep: vec![1000, 2000, 4000],
            k_sweep: vec![1, 5, 10, 20, 50],
            default_features: 200,
            default_k: 10,
            // The paper averages 10 query images; 5 keeps the full-scale
            // harness within an hour on two cores with the same trends.
            n_queries: 5,
            base: FixtureConfig::default_scale,
        }
    }

    fn quick() -> Scale {
        Scale {
            features_sweep: vec![50, 100],
            codebook_sweep: vec![256, 512],
            dataset_sweep: vec![150, 300],
            k_sweep: vec![1, 10],
            default_features: 60,
            default_k: 5,
            n_queries: 3,
            base: FixtureConfig::quick,
        }
    }
}

/// Caches fixtures across figures (several figures share the default
/// configuration).
struct FixtureCache {
    built: BTreeMap<String, Arc<Fixture>>,
}

impl FixtureCache {
    fn new() -> FixtureCache {
        FixtureCache {
            built: BTreeMap::new(),
        }
    }

    fn get(&mut self, config: &FixtureConfig) -> Arc<Fixture> {
        let key = format!(
            "{:?}/{}/{}",
            config.kind, config.n_images, config.codebook_size
        );
        if let Some(f) = self.built.get(&key) {
            return f.clone();
        }
        eprintln!(
            "[build] {:?} corpus: {} images, codebook {} …",
            config.kind, config.n_images, config.codebook_size
        );
        let t = imageproof_obs::Stopwatch::start();
        let fixture = Arc::new(Fixture::build(config.clone()));
        eprintln!("[build] done in {:.1}s", t.elapsed_seconds());
        self.built.insert(key, fixture.clone());
        fixture
    }
}

/// The axis a paper figure sweeps; every other axis stays at its default.
#[derive(Clone, Copy)]
enum Axis {
    Features,
    Codebook,
    Images,
    K,
}

impl Axis {
    fn header(self) -> &'static str {
        match self {
            Axis::Features => "n_feat",
            Axis::Codebook => "codebook",
            Axis::Images => "images",
            Axis::K => "k",
        }
    }

    fn points(self, scale: &Scale) -> &[usize] {
        match self {
            Axis::Features => &scale.features_sweep,
            Axis::Codebook => &scale.codebook_sweep,
            Axis::Images => &scale.dataset_sweep,
            Axis::K => &scale.k_sweep,
        }
    }
}

/// A column of a figure's table: header, and the cell for one point's
/// measurements (a mean over its queries).
type Column = (&'static str, fn(&[QueryMeasurement]) -> String);

/// The retrieval step a figure reports, which fixes the schemes it
/// compares and its columns.
#[derive(Clone, Copy)]
enum Step {
    /// BoVW encoding and its MRKD proof; client steps (i)–(ii).
    Bovw,
    /// Inverted-index search; client step (iii).
    Inv,
    /// The whole query; client steps (i)–(iv).
    Overall,
}

impl Step {
    fn schemes(self) -> &'static [Scheme] {
        match self {
            Step::Bovw => &[Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBovw],
            Step::Inv => &[Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBoth],
            Step::Overall => &Scheme::ALL,
        }
    }

    fn columns(self) -> &'static [Column] {
        match self {
            Step::Bovw => &[
                ("sp_ms", |m| ms(mean(m, |q| q.sp.bovw_seconds))),
                ("client_ms", |m| ms(mean(m, |q| q.client.bovw_seconds))),
                ("vo_KiB", |m| kib(mean(m, |q| q.bovw_vo_bytes() as f64))),
                ("shared_ratio", |m| {
                    format!("{:.2}", mean(m, |q| q.sp.shared_ratio))
                }),
            ],
            Step::Inv => &[
                ("sp_ms", |m| ms(mean(m, |q| q.sp.inv_seconds))),
                ("client_ms", |m| ms(mean(m, |q| q.client.inv_seconds))),
                ("popped_%", |m| pct(mean(m, |q| q.sp.popped_ratio()))),
            ],
            Step::Overall => &[
                ("vo_KiB", |m| kib(mean(m, |q| q.vo_bytes() as f64))),
                ("sp_ms", |m| ms(mean(m, |q| q.profile.total_seconds()))),
                ("client_ms", |m| ms(mean(m, |q| q.client.total_seconds()))),
            ],
        }
    }
}

/// One of the paper's evaluation figures (§VII).
struct Figure {
    number: u32,
    kind: DescriptorKind,
    axis: Axis,
    step: Step,
    title: &'static str,
    /// What the paper reports for this figure.
    note: &'static str,
}

/// Printed under the note of every [`Step::Bovw`] figure (Figs. 6–8): what
/// their client and VO columns cover.
const BOVW_COLUMNS: &str = "(client_ms covers §V-C steps (i)-(ii), root-signature check\n\
                            included; vo_KiB counts the BoVW VO's one-byte variant tag)";

const FIGURES: [Figure; 9] = [
    Figure {
        number: 6,
        kind: DescriptorKind::Sift,
        axis: Axis::Features,
        step: Step::Bovw,
        title: "BoVW performance vs # Sift feature vectors",
        note: "(paper: Baseline worst everywhere, gap grows with n_Q; ImageProof best CPU;\n\
               Optimized best VO size; shared-node ratio ~0.4-0.5)",
    },
    Figure {
        number: 7,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Bovw,
        title: "BoVW performance vs # Surf feature vectors",
        note: "(paper: Baseline worst everywhere, gap grows with n_Q; ImageProof best CPU;\n\
               Optimized best VO size; shared-node ratio ~0.4-0.5)",
    },
    Figure {
        number: 8,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Bovw,
        title: "BoVW performance vs codebook size (SURF)",
        note: "(paper: costs almost flat in codebook size; VO grows slightly)",
    },
    Figure {
        number: 9,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Inv,
        title: "inverted-index performance vs # feature vectors",
        note: "(paper: Baseline pops ~all postings and is slowest; InvSearch and\n\
               Optimized stop far earlier)",
    },
    Figure {
        number: 10,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Inv,
        title: "inverted-index performance vs codebook size",
        note: "(paper: all CPU costs fall with codebook size; popped % falls for\n\
               InvSearch/Optimized, stays ~100% for Baseline)",
    },
    Figure {
        number: 11,
        kind: DescriptorKind::Surf,
        axis: Axis::K,
        step: Step::Inv,
        title: "inverted-index performance vs k",
        note: "(paper: popped % grows with k for InvSearch/Optimized; Optimized\n\
               reduces client CPU, similar SP CPU)",
    },
    Figure {
        number: 12,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Overall,
        title: "overall performance vs # feature vectors",
        note: "(paper: all costs grow with n_Q; Optimized(BoVW) trades client CPU for\n\
               VO size; Optimized(Both) best client CPU + VO)",
    },
    Figure {
        number: 13,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Overall,
        title: "overall performance vs codebook size",
        note: "(paper: all costs fall as the codebook grows — shorter posting lists)",
    },
    Figure {
        number: 14,
        kind: DescriptorKind::Surf,
        axis: Axis::Images,
        step: Step::Overall,
        title: "overall performance vs dataset size",
        note: "(paper: Baseline degrades fastest; ImageProof's SP CPU and VO are far\n\
               lower; Optimized(Both) best client CPU + VO, advantage grows with data)",
    },
];

/// Prints one paper figure: for every point on its axis and every scheme
/// of its step, one row of means over the point's queries.
fn paper_figure(cache: &mut FixtureCache, scale: &Scale, fig: &Figure) {
    println!("\n== Fig. {}: {} ==\n{}", fig.number, fig.title, fig.note);
    if let Step::Bovw = fig.step {
        println!("{BOVW_COLUMNS}");
    }
    println!();
    let columns = fig.step.columns();
    let mut t = Table::new(
        ["scheme", fig.axis.header()]
            .into_iter()
            .chain(columns.iter().map(|&(header, _)| header)),
    );
    for &point in fig.axis.points(scale) {
        let mut config = (scale.base)(fig.kind);
        let (mut n_features, mut k) = (scale.default_features, scale.default_k);
        match fig.axis {
            Axis::Features => n_features = point,
            Axis::Codebook => config.codebook_size = point,
            Axis::Images => config.n_images = point,
            Axis::K => k = point,
        }
        let fixture = cache.get(&config);
        let queries = fixture.queries(scale.n_queries, n_features);
        for &scheme in fig.step.schemes() {
            let system = fixture.system(scheme);
            let measured = measure(&system.0, &system.1, &queries, k);
            t.row(
                [scheme.label().to_string(), point.to_string()]
                    .into_iter()
                    .chain(columns.iter().map(|(_, cell)| cell(&measured))),
            );
        }
    }
    println!("{}", t.render());
}

/// Accumulates per-query phase timings (from [`QueryProfile`]s) into
/// log-linear histograms, one per top-level phase, and renders them as a
/// JSON object of quantile summaries for the `BENCH_*.json` snapshots.
///
/// [`QueryProfile`]: imageproof_obs::QueryProfile
#[derive(Default)]
struct PhaseQuantiles {
    hists: BTreeMap<&'static str, imageproof_obs::Histogram>,
}

impl PhaseQuantiles {
    fn record(&mut self, profile: &imageproof_obs::QueryProfile) {
        for (phase, seconds) in profile.phases() {
            self.hists
                .entry(phase)
                .or_default()
                .record(imageproof_obs::micros(seconds));
        }
    }

    /// `{"bovw": {"count": …, "mean_us": …, "p50_us": …, "p90_us": …,
    /// "p99_us": …}, …}` — quantiles are log-linear bucket upper bounds
    /// (≤ 25 % high), in microseconds.
    fn json(&self) -> String {
        let phases: Vec<String> = self
            .hists
            .iter()
            .map(|(phase, h)| {
                let s = h.snapshot();
                let q = |p: f64| match s.quantile(p) {
                    Some(v) => v.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "\"{}\": {{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \
                     \"p90_us\": {}, \"p99_us\": {}}}",
                    phase,
                    s.count,
                    s.mean(),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                )
            })
            .collect();
        format!("{{{}}}", phases.join(", "))
    }
}

/// Per-structure ADS footprint as a JSON object (`BENCH_*.json`).
fn space_json(u: &SpaceUsage) -> String {
    format!(
        "{{\"posting_bytes\": {}, \"filter_bytes\": {}, \"digest_bytes\": {}, \
         \"block_summary_bytes\": {}, \"total_bytes\": {}}}",
        u.posting_bytes,
        u.filter_bytes,
        u.digest_bytes,
        u.block_summary_bytes,
        u.total(),
    )
}

/// One `(scheme, threads)` cell of the thread sweep, as written to
/// `BENCH_queries.json`.
struct SweepRecord {
    scheme: &'static str,
    threads: usize,
    build_seconds: f64,
    sp_ms_per_query: f64,
    vo_bytes: f64,
    client_verify_ms: f64,
    hashes_computed: usize,
    hashes_cached: usize,
    blocks_skipped: usize,
    blocks_scanned: usize,
    space: SpaceUsage,
    phases: PhaseQuantiles,
}

impl SweepRecord {
    fn cache_hit_ratio(&self) -> f64 {
        let total = self.hashes_computed + self.hashes_cached;
        if total == 0 {
            0.0
        } else {
            self.hashes_cached as f64 / total as f64
        }
    }

    fn json(&self) -> String {
        format!(
            "    {{\"scheme\": \"{}\", \"threads\": {}, \"build_s\": {:.6}, \
             \"sp_ms_per_query\": {:.6}, \"vo_bytes\": {}, \
             \"client_verify_ms\": {:.6}, \"hashes_computed\": {}, \
             \"hashes_cached\": {}, \"cache_hit_ratio\": {:.6}, \
             \"blocks_skipped\": {}, \"blocks_scanned\": {}, \
             \"space\": {}, \"phases\": {}}}",
            self.scheme,
            self.threads,
            self.build_seconds,
            self.sp_ms_per_query,
            self.vo_bytes.round() as u64,
            self.client_verify_ms,
            self.hashes_computed,
            self.hashes_cached,
            self.cache_hit_ratio(),
            self.blocks_skipped,
            self.blocks_scanned,
            space_json(&self.space),
            self.phases.json(),
        )
    }
}

/// Thread-count sweep for the deterministic parallel execution layer (not a
/// paper figure): owner-side ADS build seconds, SP batch-serving wall time
/// per query (`query_batch`, one query per worker), VO bytes, and client
/// verify CPU for every scheme at 1/2/4/8 workers, with speedups relative
/// to the serial run. Stats, VO bytes, phase quantiles and client times
/// come from one serial pass per build. VOs and signed roots are
/// bit-identical across the sweep (see the `parallel_equivalence` test
/// suite), so only wall-clock moves. The machine-readable results land in
/// `BENCH_queries.json` next to the working directory.
fn fig15(cache: &mut FixtureCache, scale: &Scale, quick: bool) {
    let fixture = cache.get(&(scale.base)(DescriptorKind::Surf));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\n== Fig. 15: thread-count sweep (build + SP batch serving + client verify) ==\n\
         (expected: near-linear build and batch speedup up to the core count\n\
          — this machine has {cores} — and flat VO bytes; threads=1 is the\n\
          exact serial path)\n"
    );
    let mut t = Table::new([
        "scheme",
        "threads",
        "build_s",
        "build_speedup",
        "sp_ms",
        "sp_speedup",
        "vo_KiB",
        "client_ms",
        "cache_hit_%",
    ]);
    let queries = fixture.queries(scale.n_queries, scale.default_features);
    let k = scale.default_k;
    let mut records: Vec<SweepRecord> = Vec::new();
    for scheme in Scheme::ALL {
        let mut serial_build = 0.0f64;
        let mut serial_query = 0.0f64;
        for threads in [1usize, 2, 4, 8] {
            let conc = imageproof_core::Concurrency::new(threads);
            let (sp, client, build_seconds) = fixture.build_system_timed(scheme, conc);
            let space = sp.database().space_usage();
            // One query runs on one thread; `threads` workers serve the
            // batch, one query each.
            let t0 = imageproof_obs::Stopwatch::start();
            let batch = sp.query_batch(&queries, k, conc);
            let query_seconds = t0.elapsed_seconds() / queries.len() as f64;
            let measured = measure(&sp, &client, &queries, k);
            let mut phases = PhaseQuantiles::default();
            for ((batched, _), m) in batch.iter().zip(&measured) {
                assert_eq!(batched.vo, m.vo, "batch serving changed a VO");
                phases.record(&m.profile);
            }
            let sum = |count: fn(&QueryMeasurement) -> usize| measured.iter().map(count).sum();
            let vo_bytes = mean(&measured, |m| m.vo_bytes() as f64);
            let client_seconds = mean(&measured, |m| m.client.total_seconds());
            if threads == 1 {
                serial_build = build_seconds;
                serial_query = query_seconds;
            }
            let record = SweepRecord {
                scheme: scheme.label(),
                threads,
                build_seconds,
                sp_ms_per_query: query_seconds * 1e3,
                vo_bytes,
                client_verify_ms: client_seconds * 1e3,
                hashes_computed: sum(|m| m.sp.hashes_computed),
                hashes_cached: sum(|m| m.sp.hashes_cached),
                blocks_skipped: sum(|m| m.sp.blocks_skipped),
                blocks_scanned: sum(|m| m.sp.blocks_scanned),
                space,
                phases,
            };
            t.row([
                scheme.label().to_string(),
                threads.to_string(),
                format!("{build_seconds:.2}"),
                format!("{:.2}x", serial_build / build_seconds.max(1e-9)),
                ms(query_seconds),
                format!("{:.2}x", serial_query / query_seconds.max(1e-9)),
                kib(vo_bytes),
                ms(client_seconds),
                pct(record.cache_hit_ratio()),
            ]);
            records.push(record);
        }
    }
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"n_queries\": {},\n  \"k\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        queries.len(),
        k,
        records
            .iter()
            .map(SweepRecord::json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match std::fs::write("BENCH_queries.json", &json) {
        Ok(()) => println!("wrote BENCH_queries.json ({} records)", records.len()),
        Err(e) => eprintln!("could not write BENCH_queries.json: {e}"),
    }
}

/// Transport-level numbers for one shard-sweep cell's sockets mode: the
/// same engines served over loopback TCP through the fan-out coordinator
/// (asserted byte-identical to the in-process run before anything is
/// recorded).
struct RpcCell {
    rpc_ms_per_query: f64,
    shard_p50_ms: Vec<f64>,
    shard_p95_ms: Vec<f64>,
    failovers: u64,
    /// Windowed SLO summary (`{"windowed_p50_us": …, …}`) read from the
    /// coordinator's rolling latency window mid-run — already JSON.
    slo_json: String,
    /// Per-kind fleet event counts (`{"failover": …, …}`) — already JSON.
    events_json: String,
}

impl RpcCell {
    fn json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"rpc_ms_per_query\": {:.6}, \"shard_p50_ms\": [{}], \
             \"shard_p95_ms\": [{}], \"failovers\": {}, \"slo\": {}, \
             \"events\": {}}}",
            self.rpc_ms_per_query,
            list(&self.shard_p50_ms),
            list(&self.shard_p95_ms),
            self.failovers,
            self.slo_json,
            self.events_json,
        )
    }
}

/// One `(scheme, shards)` cell of the shard sweep, as written to
/// `BENCH_shards.json`.
struct ShardRecord {
    scheme: &'static str,
    shards: usize,
    build_seconds: f64,
    sp_ms_per_query: f64,
    merge_ms_per_query: f64,
    vo_bytes: f64,
    client_verify_ms: f64,
    trim_queries_per_query: f64,
    trimmed_entries_per_query: f64,
    dedup_bytes_saved_per_query: f64,
    slowest_shard_ms: f64,
    merge_share: f64,
    cache_hit_ratio: f64,
    space: SpaceUsage,
    phases: PhaseQuantiles,
    rpc: RpcCell,
}

impl ShardRecord {
    fn json(&self) -> String {
        format!(
            "    {{\"scheme\": \"{}\", \"shards\": {}, \"build_s\": {:.6}, \
             \"sp_ms_per_query\": {:.6}, \"merge_ms_per_query\": {:.6}, \
             \"vo_bytes\": {}, \"client_verify_ms\": {:.6}, \
             \"trim_queries_per_query\": {:.3}, \"trimmed_entries_per_query\": {:.3}, \
             \"dedup_bytes_saved_per_query\": {:.1}, \"slowest_shard_ms\": {:.6}, \
             \"merge_share\": {:.6}, \"cache_hit_ratio\": {:.6}, \
             \"space\": {}, \"phases\": {}, \"rpc\": {}}}",
            self.scheme,
            self.shards,
            self.build_seconds,
            self.sp_ms_per_query,
            self.merge_ms_per_query,
            self.vo_bytes.round() as u64,
            self.client_verify_ms,
            self.trim_queries_per_query,
            self.trimmed_entries_per_query,
            self.dedup_bytes_saved_per_query,
            self.slowest_shard_ms,
            self.merge_share,
            self.cache_hit_ratio,
            space_json(&self.space),
            self.phases.json(),
            self.rpc.json(),
        )
    }
}

/// Shard-count sweep for sharded SP serving (not a paper figure): owner-side
/// sharded build seconds, SP-side fan-out query CPU (including the top-k
/// merge and the trim re-queries), VO bytes, and client `verify_sharded`
/// CPU for every scheme at 1/2/4/8 shards. The sharded top-k is bit-equal
/// to the monolith's for every cell (see the `shard_equivalence` suite),
/// and the merge-trimmed sub-VOs plus shared-section dedup keep VO bytes
/// near-flat in the shard count for fixed k; shards=1 is the monolith ADS
/// behind the sharded wire format. Every cell also runs a tie-straddle
/// probe: a query whose top-2 cuts through the fixture's three-way tie
/// trio, so multi-shard merges must fence across a contested tie boundary.
/// The machine-readable results land in `BENCH_shards.json` next to the
/// working directory, with per-response `trimmed_entries` /
/// `dedup_bytes_saved` summed from each query's `ShardedSpStats`.
///
/// Every cell also runs a sockets mode: the same engines are served over
/// loopback TCP behind the length-prefixed RPC boundary, the fan-out
/// coordinator replays the identical queries, the VO bytes are asserted
/// equal to the in-process run, and per-shard RPC round-trip latency
/// quantiles plus failover counts land in each record's nested `rpc`
/// object.
fn fig16(cache: &mut FixtureCache, scale: &Scale, quick: bool) {
    let fixture = cache.get(&(scale.base)(DescriptorKind::Surf));
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    println!(
        "\n== Fig. 16: shard-count sweep (sharded build + fan-out query + verify_sharded) ==\n\
         (expected: near-flat build seconds — the same postings are built,\n\
          just partitioned — and near-flat VO bytes: trimmed sub-VOs prove\n\
          only merge contributions plus one fence candidate each, and the\n\
          shared section dedups the common BoVW geometry)\n"
    );
    let mut t = Table::new([
        "scheme",
        "shards",
        "build_s",
        "sp_ms",
        "rpc_ms",
        "merge_ms",
        "merge_%",
        "slow_shard_ms",
        "vo_KiB",
        "client_ms",
        "trim_q",
        "trimmed",
        "dedup_KiB",
    ]);
    let queries = fixture.queries(scale.n_queries, scale.default_features);
    let tie_features = fixture.tie_query(scale.default_features);
    let trio = fixture.tie_trio();
    let k = scale.default_k;
    let mut records: Vec<ShardRecord> = Vec::new();
    for scheme in Scheme::ALL {
        for &shards in shard_counts {
            let (sp, client, manifest, build_seconds) =
                fixture.build_sharded_system_timed(scheme, shards);
            // Aggregate footprint across the shard databases: the same
            // postings partitioned, so this should stay ~flat in S.
            let space = sp.shards().iter().fold(SpaceUsage::default(), |acc, s| {
                acc.merged(&s.database().space_usage())
            });
            let mut vo_bytes = 0.0f64;
            let mut client_seconds = 0.0f64;
            let mut merge_seconds = 0.0f64;
            let mut trim_queries = 0usize;
            let mut slowest_shard_seconds = 0.0f64;
            let mut merge_share = 0.0f64;
            let mut hashes_computed = 0usize;
            let mut hashes_cached = 0usize;
            let mut phases = PhaseQuantiles::default();
            let mut trimmed_entries = 0usize;
            let mut dedup_bytes_saved = 0usize;
            let t0 = imageproof_obs::Stopwatch::start();
            let responses: Vec<_> = queries
                .iter()
                .map(|features| {
                    sp.query_profiled(features, k, imageproof_core::Concurrency::serial())
                })
                .collect();
            let query_seconds = t0.elapsed_seconds() / queries.len().max(1) as f64;
            for (features, (response, stats, profile)) in queries.iter().zip(&responses) {
                phases.record(profile);
                vo_bytes += response.vo.wire_size() as f64;
                merge_seconds += stats.merge_seconds;
                trim_queries += stats.trim_queries;
                trimmed_entries += stats.trimmed_entries;
                dedup_bytes_saved += stats.dedup_bytes_saved;
                slowest_shard_seconds += stats.slowest_shard_seconds();
                merge_share += stats.merge_share();
                hashes_computed += stats.total_hashes_computed();
                hashes_cached += stats.total_hashes_cached();
                let t1 = imageproof_obs::Stopwatch::start();
                client
                    .verify_sharded(features, k, response, &manifest)
                    .expect("honest sharded response verifies");
                client_seconds += t1.elapsed_seconds();
            }
            let n = queries.len().max(1) as f64;

            // Tie-straddle probe: top-2 cuts through the fixture's tie
            // trio, so for multi-shard cells the merge resolves (and
            // fences) a genuine cross-shard tie. Asserted, not hoped.
            let (tie_resp, _, _) =
                sp.query_profiled(&tie_features, 2, imageproof_core::Concurrency::serial());
            let inside = tie_resp
                .results
                .iter()
                .filter(|r| trio.contains(&r.id))
                .count();
            assert!(
                inside > 0 && inside < trio.len(),
                "{} S={shards}: top-2 must straddle the tie trio (got {inside} of {})",
                scheme.label(),
                trio.len(),
            );
            client
                .verify_sharded(&tie_features, 2, &tie_resp, &manifest)
                .expect("tie-straddle response verifies");

            // Sockets mode: dissolve the same engines into one loopback
            // shard server each, fan out through the RPC coordinator, and
            // require byte-identical VOs before recording any transport
            // number — the wire must never change what is served.
            let engines = sp.into_shards();
            let shard_count = engines.len() as u32;
            let mut servers = Vec::new();
            let mut scrapes = Vec::new();
            let mut endpoints = Vec::new();
            for (shard, engine) in engines.into_iter().enumerate() {
                let (server, scrape) =
                    imageproof_core::rpc::ShardServer::new(engine, shard as u32, shard_count)
                        .launch_observed("127.0.0.1:0")
                        .expect("launch loopback shard server with scrape endpoint");
                endpoints.push(imageproof_core::rpc::ShardEndpoint::single(server.addr()));
                servers.push(server);
                scrapes.push(scrape);
            }
            // Generous deadlines: a Baseline VO is tens of MiB, and a
            // loaded single-core CI machine can take far longer than the
            // default 5 s per round-trip. A bench cell must measure, not
            // time out.
            let rpc_config = imageproof_core::rpc::CoordinatorConfig {
                request_timeout_seconds: 600.0,
                connect_timeout_seconds: 30.0,
                hello_timeout_seconds: 60.0,
                ..imageproof_core::rpc::CoordinatorConfig::default()
            };
            let mut coord =
                imageproof_core::rpc::RpcCoordinator::connect(endpoints, &manifest, rpc_config)
                    .expect("coordinator connects to loopback shard servers");
            let coord_scrape = coord
                .launch_scrape("127.0.0.1:0")
                .expect("launch coordinator scrape endpoint");
            let mut rpc_total_seconds = 0.0;
            for (i, (features, (response, _, _))) in queries.iter().zip(&responses).enumerate() {
                let t2 = imageproof_obs::Stopwatch::start();
                let (rpc_resp, _) = coord.query(features, k).expect("loopback rpc query");
                rpc_total_seconds += t2.elapsed_seconds();
                assert_eq!(
                    rpc_resp.vo.to_wire(),
                    response.vo.to_wire(),
                    "{} S={shards}: socket VO bytes must equal in-process bytes",
                    scheme.label(),
                );
                if i == queries.len() / 2 {
                    // Mid-run scrape (untimed): the observability plane
                    // must answer while queries are in flight, with every
                    // shard reporting healthy under its pinned root.
                    let addr = coord_scrape.addr().to_string();
                    let (status, body) = imageproof_obs::http_get(&addr, "/healthz", 10.0)
                        .expect("scrape coordinator /healthz mid-run");
                    assert_eq!(status, 200, "coordinator /healthz must answer mid-run");
                    assert!(
                        body.contains("\"status\": \"healthy\""),
                        "{} S={shards}: fleet must be healthy mid-run, got: {body}",
                        scheme.label(),
                    );
                    for scrape in &scrapes {
                        let addr = scrape.addr().to_string();
                        let (status, metrics) = imageproof_obs::http_get(&addr, "/metrics", 10.0)
                            .expect("scrape shard /metrics mid-run");
                        assert_eq!(status, 200, "shard /metrics must answer mid-run");
                        assert!(
                            metrics.contains("imageproof_shard_queries_served_total"),
                            "shard /metrics must expose its serving counters",
                        );
                    }
                }
            }
            let rpc_seconds = rpc_total_seconds / n;
            let windowed = coord.fleet().windowed_latency();
            let wq = |p: f64| match windowed.quantile(p) {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            let slo = coord.fleet().slo();
            let slo_json = format!(
                "{{\"windowed_p50_us\": {}, \"windowed_p90_us\": {}, \
                 \"windowed_p99_us\": {}, \"burn_rate\": {}, \
                 \"breached_total\": {}, \"observed_total\": {}}}",
                wq(0.5),
                wq(0.9),
                wq(0.99),
                match slo.burn_rate(&windowed) {
                    Some(b) => format!("{b:.6}"),
                    None => "null".to_string(),
                },
                slo.breached_total(),
                slo.observed_total(),
            );
            let events_json = coord.fleet().events().counts_json();
            let cstats = coord.stats();
            let quantile_ms = |q: f64| -> Vec<f64> {
                (0..shards)
                    .map(|s| cstats.latency_quantile(s, q).unwrap_or(0.0) * 1e3)
                    .collect()
            };
            let rpc = RpcCell {
                rpc_ms_per_query: rpc_seconds * 1e3,
                shard_p50_ms: quantile_ms(0.5),
                shard_p95_ms: quantile_ms(0.95),
                failovers: cstats.failovers,
                slo_json,
                events_json,
            };
            drop(coord_scrape);
            drop(coord);
            for scrape in scrapes {
                scrape.shutdown();
            }
            for server in servers {
                server.shutdown();
            }

            vo_bytes /= n;
            client_seconds /= n;
            merge_seconds /= n;
            slowest_shard_seconds /= n;
            merge_share /= n;
            let total_hashes = hashes_computed + hashes_cached;
            let record = ShardRecord {
                scheme: scheme.label(),
                shards,
                build_seconds,
                sp_ms_per_query: query_seconds * 1e3,
                merge_ms_per_query: merge_seconds * 1e3,
                vo_bytes,
                client_verify_ms: client_seconds * 1e3,
                trim_queries_per_query: trim_queries as f64 / n,
                trimmed_entries_per_query: trimmed_entries as f64 / n,
                dedup_bytes_saved_per_query: dedup_bytes_saved as f64 / n,
                slowest_shard_ms: slowest_shard_seconds * 1e3,
                merge_share,
                cache_hit_ratio: if total_hashes == 0 {
                    0.0
                } else {
                    hashes_cached as f64 / total_hashes as f64
                },
                space,
                phases,
                rpc,
            };
            t.row([
                scheme.label().to_string(),
                shards.to_string(),
                format!("{build_seconds:.2}"),
                ms(query_seconds),
                ms(rpc_seconds),
                ms(merge_seconds),
                pct(record.merge_share),
                ms(slowest_shard_seconds),
                kib(vo_bytes),
                ms(client_seconds),
                format!("{:.1}", record.trim_queries_per_query),
                format!("{:.1}", record.trimmed_entries_per_query),
                kib(record.dedup_bytes_saved_per_query),
            ]);
            records.push(record);
        }
    }
    println!("{}", t.render());

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"n_queries\": {},\n  \"k\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        queries.len(),
        k,
        records
            .iter()
            .map(ShardRecord::json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match std::fs::write("BENCH_shards.json", &json) {
        Ok(()) => println!("wrote BENCH_shards.json ({} records)", records.len()),
        Err(e) => eprintln!("could not write BENCH_shards.json: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<u32> = Vec::new();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                figs.push(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if figs.is_empty() {
        figs = (6..=16).collect();
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut cache = FixtureCache::new();

    println!(
        "ImageProof evaluation harness — {} scale, {} queries per point",
        if quick { "quick" } else { "full" },
        scale.n_queries
    );
    // Client times below depend on it: without AVX-512 the batched hashing
    // runs the scalar permutation per message.
    println!(
        "batched SHA3 Keccak instance: {}",
        imageproof_crypto::sha3::Sha3Batch::instance()
    );
    for fig in figs {
        match fig {
            15 => fig15(&mut cache, &scale, quick),
            16 => fig16(&mut cache, &scale, quick),
            _ => match FIGURES.iter().find(|f| f.number == fig) {
                Some(figure) => paper_figure(&mut cache, &scale, figure),
                None => {
                    eprintln!(
                        "unknown figure {fig}; Figs. 6-14 are the paper's, 15 is the \
                         thread sweep, 16 is the shard sweep"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: figures [--fig N]... [--quick]");
    std::process::exit(2);
}
