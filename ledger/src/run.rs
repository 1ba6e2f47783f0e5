//! One run of one workload in this process: set-up, the closed loop of
//! one client, the correctness gate, and the metrics by name.

use crate::fixture::{
    self, insert_input, peak_rss_mib, query_input, Built, Fleet, Scale, SetupTimes,
};
use crate::ops::{self, QuerySample, UpdateSample};
use crate::spec::{Workload, END_TO_END, PER_LAYER, TAIL_PERCENTILE};
use crate::stats;
use crate::tally::{mean, Tally};
use crate::trace::{self, ShardedTrace};
use imageproof_core::{Client, ServiceProvider, ShardedSp};
use imageproof_obs::Stopwatch;

/// What one run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// One metric as printed: name, value, unit, and the samples behind it.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The result of a run.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Reported>,
}

impl Outcome {
    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line per metric for a reader, with the sample count beside it.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<32} {:>16.4} {:<6} n={}\n",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }
}

/// Counts checked operations and keeps the reason of each failure.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failed: usize,
}

impl Gate {
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {reason}");
                None
            }
        }
    }
}

/// Who answers queries once set-up is done. One value exists per run, so
/// the size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Serving {
    Mono {
        sp: ServiceProvider,
        client: Client,
    },
    Sharded {
        fleet: Fleet,
        client: Client,
        reference: Option<ServiceProvider>,
    },
    /// `owner_update` keeps the database with the owner between cycles.
    Owner,
}

/// Hands the built databases to whoever serves them. For the sharded
/// workload this launches the shard servers and connects the coordinator;
/// the seconds it took are the last phase of set-up.
fn serve(workload: Workload, built: &mut Built, times: &mut SetupTimes) -> Result<Serving, String> {
    let client = Client::new(built.published.clone());
    match workload {
        Workload::OwnerUpdate => Ok(Serving::Owner),
        Workload::MonoImageProof | Workload::MonoOptBoth => {
            let db = built.dbs.pop().ok_or("set-up built no database")?;
            Ok(Serving::Mono {
                sp: ServiceProvider::new(db),
                client,
            })
        }
        Workload::ShardedRpcS2 => {
            let manifest = built
                .manifest
                .as_ref()
                .ok_or("sharded set-up built no manifest")?;
            let sw = Stopwatch::start();
            let fleet = Fleet::launch(std::mem::take(&mut built.dbs), manifest)?;
            times.launch_s = sw.elapsed_seconds();
            Ok(Serving::Sharded {
                fleet,
                client,
                reference: None,
            })
        }
    }
}

/// Indices of the inputs each phase draws from the seeded stream; the
/// phases never share an input.
const WARMUP_BASE: u64 = 1 << 40;
const TAMPER_INDEX: u64 = 1 << 41;

fn update_probe(built: &mut Built, config: &RunConfig, gate: &mut Gate) -> Vec<UpdateSample> {
    (0..config.scale.probe_cycles as u64)
        .filter_map(|i| {
            let cycle = insert_input(built, config.seed, i)
                .and_then(|input| ops::update_cycle(built, &input));
            gate.check("update probe", cycle)
        })
        .collect()
}

/// One client operation of the workload on input `index`.
fn client_op(
    serving: &mut Serving,
    built: &mut Built,
    config: &RunConfig,
    index: u64,
) -> Result<(QuerySample, Option<UpdateSample>), String> {
    let k = config.scale.k;
    match serving {
        Serving::Mono { sp, client } => {
            let q = query_input(&built.corpus, &config.scale, config.seed, index);
            ops::mono_query(sp, client, &q, k).map(|c| (c.sample, None))
        }
        Serving::Sharded {
            fleet,
            client,
            reference,
        } => {
            let q = query_input(&built.corpus, &config.scale, config.seed, index);
            let manifest = built.manifest.as_ref().ok_or("no manifest")?;
            ops::sharded_query(
                &mut fleet.coordinator,
                client,
                manifest,
                reference.as_ref(),
                &q,
                k,
            )
            .map(|c| (c.sample, None))
        }
        Serving::Owner => {
            let input = insert_input(built, config.seed, index)?;
            // The query photographs the scene the inserted image shows.
            let query = built.corpus.query_from_image(
                input.source,
                config.scale.query_features,
                fixture::mix(config.seed, index, 2),
            );
            ops::update_query_cycle(built, &input, &query).map(|(u, q)| (q, Some(u)))
        }
    }
}

fn tamper_probe(
    serving: &mut Serving,
    built: &mut Built,
    config: &RunConfig,
) -> Result<(), String> {
    let q = query_input(&built.corpus, &config.scale, config.seed, TAMPER_INDEX);
    let k = config.scale.k;
    match serving {
        Serving::Mono { sp, client } => ops::mono_tamper_probe(sp, client, &q, k),
        Serving::Sharded { fleet, client, .. } => {
            let manifest = built.manifest.as_ref().ok_or("no manifest")?;
            ops::sharded_tamper_probe(&mut fleet.coordinator, client, manifest, &q, k)
        }
        Serving::Owner => {
            let sp = ServiceProvider::new(built.dbs.pop().ok_or("no database")?);
            let client = Client::new(built.published.clone());
            let probe = ops::mono_tamper_probe(&sp, &client, &q, k);
            built.dbs.push(sp.into_database());
            probe
        }
    }
}

fn shutdown(serving: Serving) {
    if let Serving::Sharded { fleet, .. } = serving {
        fleet.shutdown();
    }
}

/// The monolith ImageProof system over the same data set: what the
/// sharded top-k must equal.
fn monolith_reference(built: &Built) -> ServiceProvider {
    let (mut dbs, _, _) = fixture::build_ads(
        &built.owner,
        &built.corpus,
        &built.codebook,
        &built.encodings,
        built.published.scheme,
        1,
        imageproof_core::Concurrency::serial(),
    );
    ServiceProvider::new(dbs.remove(0))
}

fn ms_percentile(seconds: &[f64], p: u32) -> f64 {
    stats::percentile(&stats::sorted(seconds), p).map_or(f64::NAN, |s| s * 1e3)
}

/// The end-to-end run: observability off, one closed-loop client.
pub fn end_to_end(config: &RunConfig) -> Result<Outcome, String> {
    imageproof_obs::set_enabled(false);
    let scale = config.scale;
    let mut gate = Gate::default();

    // Set up several times and report the median: one set-up is a single
    // sample of a multi-second build on a shared machine. The previous
    // system is dropped before the next is built, so peak memory is one
    // system's. The update probe of the read workloads runs on the kept
    // system between the owner's build and the hand-over to the servers.
    let mut setup_seconds = Vec::with_capacity(scale.setup_reps);
    let mut kept: Option<(Built, Serving, Vec<UpdateSample>)> = None;
    for rep in 0..scale.setup_reps {
        if let Some((built, serving, _)) = kept.take() {
            shutdown(serving);
            drop(built);
        }
        let (mut built, mut times) = fixture::build(config.workload, scale);
        let last = rep + 1 == scale.setup_reps;
        let probe = if last && config.workload != Workload::OwnerUpdate {
            update_probe(&mut built, config, &mut gate)
        } else {
            Vec::new()
        };
        let serving = serve(config.workload, &mut built, &mut times)?;
        setup_seconds.push(times.total());
        kept = Some((built, serving, probe));
    }
    let (mut built, mut serving, probe) = kept.ok_or("setup_reps must be at least 1")?;
    if let Serving::Sharded { reference, .. } = &mut serving {
        *reference = Some(monolith_reference(&built));
    }

    for i in 0..scale.warmup_ops as u64 {
        let op = client_op(&mut serving, &mut built, config, WARMUP_BASE + i);
        gate.check("warm-up operation", op);
    }

    let mut queries: Vec<QuerySample> = Vec::new();
    let mut updates: Vec<UpdateSample> = probe;
    let loop_sw = Stopwatch::start();
    let mut index = 0u64;
    while loop_sw.elapsed_seconds() < config.seconds || index < scale.min_ops as u64 {
        let op = client_op(&mut serving, &mut built, config, index);
        if let Some((query, update)) = gate.check("operation", op) {
            queries.push(query);
            updates.extend(update);
        }
        index += 1;
    }

    let tamper = tamper_probe(&mut serving, &mut built, config);
    gate.check("tamper probe", tamper);
    shutdown(serving);

    if !stats::supported(queries.len(), TAIL_PERCENTILE) {
        eprintln!(
            "note: p{TAIL_PERCENTILE} of {} samples has fewer than {} beyond it (highest supported: {:?})",
            queries.len(),
            stats::MIN_BEYOND,
            stats::highest_supported(queries.len())
        );
    }
    let column = |f: fn(&QuerySample) -> f64| queries.iter().map(f).collect::<Vec<f64>>();
    let fixed = &queries[..scale.min_ops.min(queries.len())];
    let vo_bytes = mean(
        &fixed
            .iter()
            .map(|q| q.vo_bytes as f64)
            .collect::<Vec<f64>>(),
    );
    let update_seconds: Vec<f64> = updates.iter().map(UpdateSample::total_s).collect();
    let value_of = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (
                stats::mid_median(&setup_seconds).unwrap_or(f64::NAN),
                setup_seconds.len(),
            ),
            "query_ms_p50" => (ms_percentile(&column(|q| q.query_s), 50), queries.len()),
            "query_ms_p90" => (
                ms_percentile(&column(|q| q.query_s), TAIL_PERCENTILE),
                queries.len(),
            ),
            "sp_ms_p50" => (ms_percentile(&column(|q| q.sp_s), 50), queries.len()),
            "verify_ms_p50" => (ms_percentile(&column(|q| q.verify_s), 50), queries.len()),
            "vo_bytes_per_query" => (
                if fixed.is_empty() { f64::NAN } else { vo_bytes },
                fixed.len(),
            ),
            "peak_rss_mib" => (peak_rss_mib().unwrap_or(f64::NAN), 1),
            "update_ms_p50" => (ms_percentile(&update_seconds, 50), update_seconds.len()),
            _ => (f64::NAN, 0),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = value_of(m.name);
            Reported {
                name: m.name,
                value,
                unit: m.unit,
                samples,
            }
        })
        .collect();
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

/// The traced run: observability on, every layer timed from outside.
pub fn traced(config: &RunConfig) -> Result<Outcome, String> {
    imageproof_obs::set_enabled(true);
    let scale = config.scale;
    let k = scale.k;
    let mut gate = Gate::default();
    let mut tally = Tally::default();

    let (mut built, mut times) = fixture::build(config.workload, scale);
    let space = built
        .dbs
        .iter()
        .map(|db| db.space_usage())
        .fold(imageproof_core::SpaceUsage::default(), |a, b| a.merged(&b));
    tally.add("core.owner.space_bytes", space.total() as f64);
    tally.add("invindex.posting_bytes", space.posting_bytes as f64);
    tally.add("invindex.filter_bytes", space.filter_bytes as f64);
    tally.add("invindex.digest_bytes", space.digest_bytes as f64);
    tally.add(
        "invindex.block_summary_bytes",
        space.block_summary_bytes as f64,
    );

    trace::calibrate(&mut tally);

    for update in update_probe(&mut built, config, &mut gate) {
        tally.add("core.update.insert_us", update.insert_s * 1e6);
        tally.add("core.update.remove_us", update.remove_s * 1e6);
        tally.add("core.update.lists_touched", update.lists_touched as f64);
    }

    // The sharded trace also needs every shard's engine in this process.
    let local =
        (config.workload == Workload::ShardedRpcS2).then(|| ShardedSp::new(built.dbs.clone()));
    let mut serving = match config.workload {
        // The traced pass of owner_update reads the static database; the
        // write side is the update probe above.
        Workload::OwnerUpdate => serve(Workload::MonoImageProof, &mut built, &mut times)?,
        workload => serve(workload, &mut built, &mut times)?,
    };
    tally.add("vision.corpus_s", times.corpus_s);
    tally.add("akm.train_s", times.train_s);
    tally.add("akm.encode_s", times.encode_s);
    tally.add("core.owner.build_s", times.build_s);

    let mut obs_cost_pct = Vec::new();
    let loop_sw = Stopwatch::start();
    let mut index = 0u64;
    while loop_sw.elapsed_seconds() < config.seconds || index < scale.trace_min_ops as u64 {
        // The cost of observing: the same operation with recording off and
        // on, paired so that query-to-query variation cancels, in
        // alternating order so that running second (warm) favours neither.
        let odd = !index.is_multiple_of(2);
        let mut pair = [None; 2];
        for on in [!odd, odd] {
            imageproof_obs::set_enabled(on);
            let op = client_op(&mut serving, &mut built, config, index);
            pair[usize::from(on)] = gate.check("operation", op).map(|(query, _)| query.query_s);
        }
        if let [Some(off), Some(on)] = pair {
            obs_cost_pct.push((on - off) / off * 100.0);
        }
        imageproof_obs::set_enabled(true);
        let q = query_input(&built.corpus, &scale, config.seed, index);
        let layers = match &mut serving {
            Serving::Mono { sp, client } => {
                trace::mono_layers(sp, client, &built.published, &q, k, odd, &mut tally)
            }
            Serving::Sharded { fleet, client, .. } => {
                let mut t = ShardedTrace {
                    local: local.as_ref().ok_or("no in-process shards")?,
                    coordinator: &mut fleet.coordinator,
                    client,
                    published: &built.published,
                    manifest: built.manifest.as_ref().ok_or("no manifest")?,
                };
                trace::sharded_layers(&mut t, &q, k, odd, &mut tally)
            }
            Serving::Owner => Err("the traced pass serves from a monolith".to_string()),
        };
        gate.check("layer pass", layers);
        index += 1;
    }
    trace::add_closures(&mut tally);
    if let Some(pct) = stats::mid_median(&obs_cost_pct) {
        tally.add("obs.overhead_pct", pct);
    }

    let queries: Vec<Vec<Vec<f32>>> = (0..scale.batch_queries as u64)
        .map(|i| query_input(&built.corpus, &scale, config.seed, i))
        .collect();
    match &serving {
        Serving::Mono { sp, .. } => {
            trace::parallel_speedups(&built, sp, &queries, 1, &mut tally);
        }
        Serving::Sharded { fleet, .. } => {
            let stats = fleet.coordinator.stats();
            let shards = fleet.coordinator.shard_count();
            let rtts: Vec<f64> = (0..shards)
                .filter_map(|s| stats.latency_quantile(s, 0.5))
                .collect();
            tally.add("core.rpc.shard_rtt_p50_us", mean(&rtts) * 1e6);
            tally.add("core.rpc.failovers", stats.failovers as f64);
            if stats.failovers != 0 {
                gate.check::<()>(
                    "failover count",
                    Err(format!("{} failovers", stats.failovers)),
                );
            }
            if let Some(sp) = local.as_ref().and_then(|l| l.shards().first()) {
                trace::parallel_speedups(&built, sp, &queries, shards, &mut tally);
            }
        }
        Serving::Owner => {}
    }
    shutdown(serving);

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            // Work counts are means over a fixed window of operations, so
            // they repeat for a seed; times use every operation run.
            let window = m.exact.then_some(scale.trace_min_ops);
            Reported {
                name: m.name,
                value: tally.mean(m.name, window),
                unit: m.unit,
                samples: tally.len(m.name, window),
            }
        })
        .collect();
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}
