//! [`RpcCoordinator`]: the socket deployment's fan-out engine.
//!
//! One nonblocking connection per shard, driven by a single-threaded event
//! loop: a fan-out round writes every shard's request, then multiplexes
//! reads across all connections until every response (or a typed failure)
//! is in. Concurrent client queries batch onto one `Query` / `Trim`
//! round-trip per shard instead of a socket conversation per query; a
//! single query is a batch of one.
//!
//! Fault handling: every transport fault — stalled shard (per-shard
//! timeout on a [`Stopwatch`] deadline), mid-frame reset, short write,
//! hostile frame length, duplicated/replayed response id — maps to a typed
//! [`RpcError`]; if the shard's endpoint chain has untried replicas the
//! coordinator reconnects to the next one (hello re-verified against the
//! owner-signed manifest pin), replays the request, and counts a failover.
//! Only when the chain is exhausted does the triggering error surface.
//!
//! The coordinator only implements the two-round [`fanout::Fleet`] seam;
//! how a sharded query is answered is [`fanout::answer`], the same
//! procedure the in-process [`crate::ShardedSp`] runs, so the assembled
//! [`ShardedResponse`] is bit-equal to it — asserted end-to-end by
//! `tests/rpc_equivalence.rs`.

use super::frame::{frame, FrameBuffer, QueryPayload, Request, Response, TrimPayload, WireHealth};
use super::RpcError;
use crate::fanout;
use crate::shard::{ShardManifest, ShardedResponse};
use crate::sp::ShardedSpStats;
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::Digest;
use imageproof_obs::{
    micros, EventKind, EventLog, MetricId, QueryProfile, RegistrySnapshot, ScrapeProvider,
    SloTracker, Stopwatch, WindowedHistogram,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Events retained by the coordinator's ring.
const COORDINATOR_EVENT_CAPACITY: usize = 1024;

/// Bytes pulled off a shard socket per read.
const READ_BUF_LEN: usize = 256 * 1024;

/// Round-trip latencies kept per shard: the most recent ones, so a
/// long-lived coordinator's memory and quantile cost stay bounded. A 10 s
/// benchmark run makes about 1 000 round-trips per shard.
const RPC_SAMPLES_PER_SHARD: usize = 8192;

/// Where one shard lives: a primary address plus failover replicas, tried
/// in order. Every endpoint must present the same manifest-pinned
/// identity; a replica serving a different ADS root is rejected at hello
/// time exactly like a primary would be.
#[derive(Clone, Debug)]
pub struct ShardEndpoint {
    pub primary: SocketAddr,
    pub replicas: Vec<SocketAddr>,
}

impl ShardEndpoint {
    pub fn single(primary: SocketAddr) -> ShardEndpoint {
        ShardEndpoint {
            primary,
            replicas: Vec::new(),
        }
    }

    pub fn with_replicas(primary: SocketAddr, replicas: Vec<SocketAddr>) -> ShardEndpoint {
        ShardEndpoint { primary, replicas }
    }

    fn chain(&self) -> Vec<SocketAddr> {
        let mut chain = Vec::with_capacity(1 + self.replicas.len());
        chain.push(self.primary);
        chain.extend(self.replicas.iter().copied());
        chain
    }
}

/// Timeouts and health thresholds, all in seconds (converted through
/// `Duration`; the coordinator's only clock is the observability
/// [`Stopwatch`]).
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorConfig {
    /// Per-shard deadline for one request round-trip; a shard that blows
    /// it is treated as stalled and failed over.
    pub request_timeout_seconds: f64,
    /// TCP connect deadline per endpoint attempt.
    pub connect_timeout_seconds: f64,
    /// Deadline for the hello exchange after a connect.
    pub hello_timeout_seconds: f64,
    /// Deadline for one heartbeat round-trip. Deliberately much shorter
    /// than `request_timeout_seconds`: a stalled shard misses heartbeats
    /// and is failed over *before* any query would hit its deadline.
    pub heartbeat_timeout_seconds: f64,
    /// Consecutive heartbeat misses before a shard is marked degraded.
    pub degraded_after_misses: u32,
    /// Consecutive heartbeat misses before the coordinator proactively
    /// fails over to the next replica (dead if the chain is exhausted).
    pub failover_after_misses: u32,
    /// Queries slower than this are recorded in the event log and burn
    /// the SLO budget.
    pub slow_query_threshold_seconds: f64,
    /// Width of the rolling SLO / latency window.
    pub slo_window_seconds: f64,
    /// Allowed fraction of slow queries (the SLO error budget).
    pub slo_budget: f64,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            request_timeout_seconds: 5.0,
            connect_timeout_seconds: 1.0,
            hello_timeout_seconds: 2.0,
            heartbeat_timeout_seconds: 0.5,
            degraded_after_misses: 1,
            failover_after_misses: 2,
            slow_query_threshold_seconds: 1.0,
            slo_window_seconds: 60.0,
            slo_budget: 0.01,
        }
    }
}

/// The coordinator's verdict on one shard, driven by heartbeats.
///
/// `Healthy → Degraded → Dead` on consecutive misses, back to `Healthy`
/// on a verified heartbeat or a successful manifest-pinned failover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealthState {
    /// Heartbeats arrive in time and carry the pinned root.
    Healthy,
    /// At least `degraded_after_misses` consecutive misses.
    Degraded,
    /// The failover threshold was crossed and the endpoint chain is
    /// exhausted — queries to this shard will fail until it recovers.
    Dead,
}

impl ShardHealthState {
    /// Stable exposition name.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealthState::Healthy => "healthy",
            ShardHealthState::Degraded => "degraded",
            ShardHealthState::Dead => "dead",
        }
    }
}

/// One shard's aggregated health, as the coordinator sees it.
#[derive(Clone, Debug)]
pub struct ShardHealthView {
    pub state: ShardHealthState,
    /// Consecutive heartbeat misses (reset by a verified heartbeat).
    pub missed_heartbeats: u32,
    /// Verified heartbeats received in total.
    pub heartbeats_ok: u64,
    /// The last verified report, if any arrived yet.
    pub last_report: Option<WireHealth>,
}

impl Default for ShardHealthView {
    fn default() -> ShardHealthView {
        ShardHealthView {
            state: ShardHealthState::Healthy,
            missed_heartbeats: 0,
            heartbeats_ok: 0,
            last_report: None,
        }
    }
}

/// The coordinator's shareable observability plane: per-shard health,
/// rolling latency windows, the SLO tracker, and the event ring. Lives in
/// an `Arc` so the scrape server's threads read it while the
/// single-threaded coordinator loop writes it.
pub struct FleetHealth {
    health: Mutex<Vec<ShardHealthView>>,
    windows: Vec<WindowedHistogram>,
    slo: SloTracker,
    events: EventLog,
    pinned_roots: Vec<Digest>,
}

/// A poisoned health lock only means a scrape thread panicked mid-read;
/// the data is plain-old-data, so recover the guard instead of poisoning
/// the whole serving plane.
fn lock_health(fleet: &FleetHealth) -> MutexGuard<'_, Vec<ShardHealthView>> {
    fleet.health.lock().unwrap_or_else(|e| e.into_inner())
}

impl FleetHealth {
    fn new(
        shard_count: usize,
        pinned_roots: Vec<Digest>,
        config: &CoordinatorConfig,
    ) -> FleetHealth {
        FleetHealth {
            health: Mutex::new(vec![ShardHealthView::default(); shard_count]),
            windows: (0..shard_count)
                .map(|_| WindowedHistogram::new(config.slo_window_seconds))
                .collect(),
            slo: SloTracker::new(
                micros(config.slow_query_threshold_seconds),
                config.slo_budget,
                config.slo_window_seconds,
            ),
            events: EventLog::new(COORDINATOR_EVENT_CAPACITY),
            pinned_roots,
        }
    }

    /// Per-shard health snapshots, by shard id.
    pub fn views(&self) -> Vec<ShardHealthView> {
        lock_health(self).clone()
    }

    /// Per-shard states only, by shard id.
    pub fn states(&self) -> Vec<ShardHealthState> {
        lock_health(self).iter().map(|v| v.state).collect()
    }

    /// The fleet's bounded structured event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The SLO tracker over coordinator round-trip latencies.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// One shard's rolling latency window (micros), if the shard exists.
    pub fn window(&self, shard: usize) -> Option<&WindowedHistogram> {
        self.windows.get(shard)
    }

    /// The rolling latency view merged across every shard — the windowed
    /// p50/p90/p99 source for fig16 and the scrape endpoint.
    pub fn windowed_latency(&self) -> imageproof_obs::HistogramSnapshot {
        let mut merged = imageproof_obs::HistogramSnapshot::default();
        for w in &self.windows {
            merged = merged.merge(&w.snapshot());
        }
        merged
    }

    /// Moves one shard's state machine, logging the transition. Returns
    /// the new state.
    fn transition(&self, shard: usize, to: ShardHealthState, why: &str) -> ShardHealthState {
        let mut health = lock_health(self);
        let Some(view) = health.get_mut(shard) else {
            return to;
        };
        if view.state != to {
            let from = view.state;
            view.state = to;
            drop(health);
            self.events.record(
                EventKind::HealthTransition,
                Some(shard as u32),
                format!("{} -> {}: {why}", from.name(), to.name()),
            );
        }
        to
    }

    /// The overall fleet verdict: the worst shard state.
    pub fn overall(&self) -> ShardHealthState {
        let mut overall = ShardHealthState::Healthy;
        for v in lock_health(self).iter() {
            overall = match (overall, v.state) {
                (_, ShardHealthState::Dead) | (ShardHealthState::Dead, _) => ShardHealthState::Dead,
                (_, ShardHealthState::Degraded) | (ShardHealthState::Degraded, _) => {
                    ShardHealthState::Degraded
                }
                _ => ShardHealthState::Healthy,
            };
        }
        overall
    }

    /// The `/healthz` body: overall status plus one entry per shard with
    /// its pinned root, state, and last verified report.
    pub fn healthz_json(&self) -> String {
        let views = self.views();
        let shards: Vec<String> = views
            .iter()
            .enumerate()
            .map(|(s, v)| {
                let report = match &v.last_report {
                    Some(h) => format!(
                        "{{\"uptime_seconds\": {:.3}, \"queue_depth\": {}, \"queries_served\": {}, \"last_error\": \"{}\"}}",
                        h.uptime_seconds, h.queue_depth, h.queries_served, h.last_error.name()
                    ),
                    None => "null".to_string(),
                };
                let root = self
                    .pinned_roots
                    .get(s)
                    .map(|r| r.to_hex())
                    .unwrap_or_default();
                format!(
                    "{{\"shard\": {s}, \"state\": \"{}\", \"missed_heartbeats\": {}, \"heartbeats_ok\": {}, \"pinned_root\": \"{root}\", \"report\": {report}}}",
                    v.state.name(),
                    v.missed_heartbeats,
                    v.heartbeats_ok,
                )
            })
            .collect();
        format!(
            "{{\"role\": \"coordinator\", \"status\": \"{}\", \"shards\": [{}]}}",
            self.overall().name(),
            shards.join(", ")
        )
    }
}

/// The scrape-endpoint view of a [`FleetHealth`]: process metrics plus
/// injected windowed-SLO and health-state series.
struct FleetScrapeProvider {
    fleet: Arc<FleetHealth>,
}

impl ScrapeProvider for FleetScrapeProvider {
    fn healthz_json(&self) -> String {
        self.fleet.healthz_json()
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        let mut snap = imageproof_obs::global().snapshot();
        let gauge = |name: &str, labels: Vec<(String, String)>, v: i64| {
            (
                MetricId {
                    name: name.to_string(),
                    labels,
                },
                v,
            )
        };
        for (s, w) in self.fleet.windows.iter().enumerate() {
            let labels = vec![("shard".to_string(), s.to_string())];
            let windowed = w.snapshot();
            for (q, qname) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
                if let Some(v) = windowed.quantile(q) {
                    let mut labels = labels.clone();
                    labels.push(("quantile".to_string(), qname.to_string()));
                    labels.sort();
                    let (id, v) = gauge(
                        "imageproof_rpc_windowed_latency_micros",
                        labels,
                        v.min(i64::MAX as u64) as i64,
                    );
                    snap.gauges.insert(id, v);
                }
            }
        }
        for (s, v) in self.fleet.views().iter().enumerate() {
            let labels = vec![("shard".to_string(), s.to_string())];
            let state = match v.state {
                ShardHealthState::Healthy => 0,
                ShardHealthState::Degraded => 1,
                ShardHealthState::Dead => 2,
            };
            let (id, v) = gauge("imageproof_shard_health_state", labels, state);
            snap.gauges.insert(id, v);
        }
        if let Some(rate) = self.fleet.slo.burn_rate() {
            // Milli-units: gauges are integers and burn rates near 1.0
            // matter at the third decimal.
            let milli = (rate * 1000.0).clamp(0.0, i64::MAX as f64) as i64;
            let (id, v) = gauge("imageproof_slo_burn_rate_milli", Vec::new(), milli);
            snap.gauges.insert(id, v);
        }
        snap.counters.insert(
            MetricId {
                name: "imageproof_slo_breached_total".to_string(),
                labels: Vec::new(),
            },
            self.fleet.slo.breached_total(),
        );
        for kind in imageproof_obs::EVENT_KINDS {
            snap.counters.insert(
                MetricId {
                    name: "imageproof_fleet_events_total".to_string(),
                    labels: vec![("kind".to_string(), kind.name().to_string())],
                },
                self.fleet.events.count(kind),
            );
        }
        snap
    }

    fn events_jsonl(&self) -> String {
        self.fleet.events.jsonl()
    }
}

/// Transport-level accounting, kept outside the query results so the
/// served bytes stay free of anything nondeterministic.
#[derive(Clone, Debug, Default)]
pub struct CoordinatorStats {
    /// Replica failovers performed since connect.
    pub failovers: u64,
    /// The most recent completed round-trip latencies per shard (at most
    /// 8 192), in seconds, in issue order (quantiles are computed by
    /// sorting a copy — see [`CoordinatorStats::latency_quantile`]).
    pub rpc_seconds: Vec<Vec<f64>>,
}

impl CoordinatorStats {
    /// Appends one completed round-trip, dropping the shard's oldest sample
    /// once it holds [`RPC_SAMPLES_PER_SHARD`].
    fn record(&mut self, shard: usize, seconds: f64) {
        if let Some(samples) = self.rpc_seconds.get_mut(shard) {
            if samples.len() == RPC_SAMPLES_PER_SHARD {
                samples.remove(0);
            }
            samples.push(seconds);
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, nearest-rank) of one shard's recorded
    /// round-trip latencies, or `None` when nothing completed yet.
    pub fn latency_quantile(&self, shard: usize, q: f64) -> Option<f64> {
        let samples = self.rpc_seconds.get(shard)?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(sorted.len() - 1);
        Some(sorted[rank])
    }
}

/// One live shard connection.
struct ShardConn {
    stream: TcpStream,
    fb: FrameBuffer,
    /// Index into the endpoint chain this connection is bound to; failover
    /// resumes at the next entry.
    endpoint_index: usize,
}

/// One in-flight request within a fan-out round.
struct Pending {
    shard: usize,
    id: u64,
    outbox: Vec<u8>,
    sent: usize,
    want_telemetry: bool,
    telemetry: Option<QueryProfile>,
    response: Option<Response>,
    sw: Stopwatch,
    /// Round-trip deadline for this request (the request timeout for
    /// query rounds, the much shorter heartbeat timeout for heartbeats).
    timeout_seconds: f64,
}

impl Pending {
    fn new(shard: usize, request: &Request, want_telemetry: bool, timeout_seconds: f64) -> Pending {
        Pending {
            shard,
            id: request_id(request),
            outbox: frame(&request.to_wire()),
            sent: 0,
            want_telemetry,
            telemetry: None,
            response: None,
            sw: Stopwatch::start(),
            timeout_seconds,
        }
    }
}

/// Whether a response is of the kind the outstanding request asked for.
type Accepts = fn(&Response) -> bool;

/// The fan-out coordinator for a socket-deployed [`ShardManifest`].
pub struct RpcCoordinator {
    endpoints: Vec<ShardEndpoint>,
    /// Owner-signed per-shard ADS roots, pinned at connect time; every
    /// (re)connected endpoint's hello is checked against its entry.
    pinned_roots: Vec<Digest>,
    conns: Vec<ShardConn>,
    config: CoordinatorConfig,
    next_id: u64,
    stats: CoordinatorStats,
    /// Shared health/SLO/event plane (scrape threads read it live).
    fleet: Arc<FleetHealth>,
    /// Scratch for socket reads, shared by every round and heartbeat.
    read_buf: Vec<u8>,
}

impl RpcCoordinator {
    /// Connects to every shard and pins each hello against the manifest:
    /// the shard id, the deployment size, and the shard's committed ADS
    /// root must all match the owner-signed entry, or the endpoint is
    /// rejected ([`RpcError::HelloMismatch`]) and its replicas are tried.
    pub fn connect(
        endpoints: Vec<ShardEndpoint>,
        manifest: &ShardManifest,
        config: CoordinatorConfig,
    ) -> Result<RpcCoordinator, RpcError> {
        if endpoints.len() != manifest.shard_roots.len() {
            return Err(RpcError::EndpointCountMismatch {
                expected: manifest.shard_roots.len() as u32,
                got: endpoints.len() as u32,
            });
        }
        let pinned_roots = manifest.shard_roots.clone();
        let shard_count = endpoints.len();
        let fleet = Arc::new(FleetHealth::new(shard_count, pinned_roots.clone(), &config));
        let mut coordinator = RpcCoordinator {
            endpoints,
            pinned_roots,
            conns: Vec::with_capacity(shard_count),
            config,
            next_id: 1,
            stats: CoordinatorStats {
                failovers: 0,
                rpc_seconds: vec![Vec::new(); shard_count],
            },
            fleet,
            read_buf: vec![0u8; READ_BUF_LEN],
        };
        for shard in 0..shard_count {
            let conn = coordinator.connect_shard(shard, 0)?;
            coordinator.conns.push(conn);
        }
        Ok(coordinator)
    }

    pub fn shard_count(&self) -> usize {
        self.conns.len()
    }

    /// Transport accounting so far (failovers, per-shard latencies).
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// The shared health/SLO/event plane.
    pub fn fleet(&self) -> &Arc<FleetHealth> {
        &self.fleet
    }

    /// Per-shard health views, by shard id.
    pub fn health(&self) -> Vec<ShardHealthView> {
        self.fleet.views()
    }

    /// Spawns this coordinator's scrape endpoint on `bind_addr` (e.g.
    /// `127.0.0.1:0`): `/metrics` and `/metrics.json` expose the process
    /// registry plus windowed per-shard latency quantiles, health-state
    /// and SLO burn-rate series; `/healthz` the per-shard health table;
    /// `/events` the fleet event log.
    pub fn launch_scrape(&self, bind_addr: &str) -> std::io::Result<imageproof_obs::RunningServer> {
        let provider = Arc::new(FleetScrapeProvider {
            fleet: Arc::clone(&self.fleet),
        });
        imageproof_obs::launch_scrape(provider, bind_addr)
    }

    /// Establishes (or re-establishes) shard `shard`'s connection, trying
    /// the endpoint chain from `start_index` on. Each candidate must pass
    /// the manifest-pinned hello before it is accepted.
    fn connect_shard(&self, shard: usize, start_index: usize) -> Result<ShardConn, RpcError> {
        let chain = self.endpoints[shard].chain();
        let mut last_err = RpcError::HelloMismatch {
            shard: shard as u32,
        };
        for (offset, addr) in chain.iter().enumerate().skip(start_index) {
            match self.try_endpoint(shard, *addr) {
                Ok(stream) => {
                    return Ok(ShardConn {
                        stream,
                        fb: FrameBuffer::new(),
                        endpoint_index: offset,
                    })
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Connect + blocking hello exchange + manifest pin check against one
    /// candidate address; returns the stream switched to nonblocking mode.
    fn try_endpoint(&self, shard: usize, addr: SocketAddr) -> Result<TcpStream, RpcError> {
        let as_io = |e: std::io::Error| RpcError::Io {
            shard: shard as u32,
            kind: e.kind(),
        };
        let stream = TcpStream::connect_timeout(
            &addr,
            Duration::from_secs_f64(self.config.connect_timeout_seconds.max(0.001)),
        )
        .map_err(as_io)?;
        let _ = stream.set_nodelay(true);
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .map_err(as_io)?;
        stream
            .write_all(&frame(&Request::Hello.to_wire()))
            .map_err(as_io)?;
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 4096];
        let sw = Stopwatch::start();
        let body = loop {
            if let Some(body) = fb.next_frame()? {
                break body;
            }
            if sw.elapsed_seconds() > self.config.hello_timeout_seconds {
                return Err(RpcError::ShardTimeout {
                    shard: shard as u32,
                });
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    return Err(RpcError::ConnectionClosed {
                        shard: shard as u32,
                    })
                }
                Ok(n) => fb.extend(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(as_io(e)),
            }
        };
        let hello = Response::from_wire(&body).map_err(|error| RpcError::Wire {
            shard: shard as u32,
            error,
        })?;
        match hello {
            Response::Hello {
                shard_id,
                shard_count,
                root,
            } if shard_id as usize == shard
                && shard_count as usize == self.pinned_roots.len()
                && root == self.pinned_roots[shard] =>
            {
                stream.set_nonblocking(true).map_err(as_io)?;
                self.fleet.events.record(
                    EventKind::HelloReverify,
                    Some(shard as u32),
                    format!("{addr}: hello matches the manifest pin"),
                );
                Ok(stream)
            }
            _ => {
                self.fleet.events.record(
                    EventKind::HelloReverify,
                    Some(shard as u32),
                    format!("{addr}: hello does not match the manifest pin"),
                );
                Err(RpcError::HelloMismatch {
                    shard: shard as u32,
                })
            }
        }
    }

    /// Allocates the next request id (monotonic across the connection's
    /// whole life, so a replayed or duplicated response can never collide
    /// with a later request).
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Connects the next manifest-pinned endpoint of `shard`'s chain (hello
    /// re-verified), makes it the shard's connection, and accounts the
    /// failover: counter, event, registry series, health back to healthy.
    /// Returns the promoted endpoint's chain index; an exhausted chain
    /// returns the last connect error and changes nothing.
    fn promote_replica(&mut self, shard: usize, why: &str) -> Result<usize, RpcError> {
        let conn = self.connect_shard(shard, self.conns[shard].endpoint_index + 1)?;
        let endpoint = conn.endpoint_index;
        self.conns[shard] = conn;
        self.stats.failovers += 1;
        self.fleet.events.record(
            EventKind::Failover,
            Some(shard as u32),
            format!("promoted endpoint {endpoint} after {why}"),
        );
        if imageproof_obs::enabled() {
            imageproof_obs::global()
                .counter("imageproof_rpc_failovers_total", &[])
                .inc();
        }
        if let Some(view) = lock_health(&self.fleet).get_mut(shard) {
            view.missed_heartbeats = 0;
        }
        self.fleet.transition(
            shard,
            ShardHealthState::Healthy,
            "failed over to a verified replica",
        );
        Ok(endpoint)
    }

    /// Runs one fan-out round: each `(shard, request)` is written to its
    /// shard, all round-trips multiplexed on one event loop. Returns the
    /// completed round-trips in input order.
    fn fanout_round(
        &mut self,
        requests: Vec<(usize, Request)>,
        accepts: Accepts,
        want_telemetry: bool,
    ) -> Result<Vec<Pending>, RpcError> {
        let timeout = self.config.request_timeout_seconds;
        let mut pendings: Vec<Pending> = requests
            .iter()
            .map(|(shard, request)| Pending::new(*shard, request, want_telemetry, timeout))
            .collect();
        loop {
            let mut all_done = true;
            let mut progressed = false;
            for pending in &mut pendings {
                if pending.response.is_some() {
                    continue;
                }
                all_done = false;
                match self.drive_pending(pending, accepts) {
                    Ok(did) => progressed |= did,
                    Err(err) => {
                        // Typed fault: fail over along the endpoint chain
                        // (hello re-verified), replay the request; only an
                        // exhausted chain surfaces the error.
                        if matches!(err, RpcError::ShardTimeout { .. }) {
                            self.fleet.events.record(
                                EventKind::Timeout,
                                Some(pending.shard as u32),
                                format!("query round-trip missed its deadline: {err}"),
                            );
                        }
                        if self
                            .promote_replica(pending.shard, &err.to_string())
                            .is_err()
                        {
                            return Err(err);
                        }
                        pending.sent = 0;
                        pending.telemetry = None;
                        pending.sw = Stopwatch::start();
                        progressed = true;
                    }
                }
            }
            if all_done {
                return Ok(pendings);
            }
            if !progressed {
                // Nothing moved on any connection: yield briefly instead
                // of spinning the core.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Pumps one pending request: drains its outbox, reads whatever the
    /// shard sent, dispatches complete frames. `Ok(true)` when any bytes
    /// or frames moved.
    fn drive_pending(&mut self, pending: &mut Pending, accepts: Accepts) -> Result<bool, RpcError> {
        let shard = pending.shard as u32;
        let mut progressed = false;
        {
            let conn = &mut self.conns[pending.shard];
            while pending.sent < pending.outbox.len() {
                match conn.stream.write(&pending.outbox[pending.sent..]) {
                    Ok(0) => return Err(RpcError::ConnectionClosed { shard }),
                    Ok(n) => {
                        pending.sent += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        return Err(RpcError::Io {
                            shard,
                            kind: e.kind(),
                        })
                    }
                }
            }
            loop {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => return Err(RpcError::ConnectionClosed { shard }),
                    Ok(n) => {
                        conn.fb.extend(&self.read_buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        return Err(RpcError::Io {
                            shard,
                            kind: e.kind(),
                        })
                    }
                }
            }
        }
        while pending.response.is_none() {
            let Some(body) = self.conns[pending.shard].fb.next_frame()? else {
                break;
            };
            progressed = true;
            let response =
                Response::from_wire(&body).map_err(|error| RpcError::Wire { shard, error })?;
            match response {
                Response::Telemetry { id, profile } => {
                    if !pending.want_telemetry || id != pending.id {
                        return Err(RpcError::UnsolicitedTelemetry { shard });
                    }
                    pending.telemetry = Some(profile.to_profile());
                }
                Response::Error { id, message } => {
                    if id != pending.id {
                        return Err(RpcError::ResponseIdMismatch {
                            shard,
                            expected: pending.id,
                            got: id,
                        });
                    }
                    return Err(RpcError::Remote { shard, message });
                }
                other => {
                    if other.id() != pending.id {
                        return Err(RpcError::ResponseIdMismatch {
                            shard,
                            expected: pending.id,
                            got: other.id(),
                        });
                    }
                    if !accepts(&other) {
                        return Err(RpcError::UnexpectedResponse { shard });
                    }
                    let seconds = pending.sw.elapsed_seconds();
                    self.stats.record(pending.shard, seconds);
                    if imageproof_obs::enabled() {
                        imageproof_obs::global()
                            .histogram(
                                "imageproof_rpc_request_micros",
                                &[("shard", &pending.shard.to_string())],
                            )
                            .record(micros(seconds));
                    }
                    // Heartbeats are health traffic, not serving traffic:
                    // only query/trim round-trips feed the rolling window
                    // and burn the SLO budget.
                    if !matches!(other, Response::Health { .. }) {
                        let us = micros(seconds);
                        if let Some(window) = self.fleet.windows.get(pending.shard) {
                            window.record(us);
                        }
                        if self.fleet.slo.record(us) {
                            self.fleet.events.record(
                                EventKind::SlowQuery,
                                Some(pending.shard as u32),
                                format!(
                                    "round-trip {us} us exceeded the {} us threshold",
                                    self.fleet.slo.threshold()
                                ),
                            );
                        }
                    }
                    pending.response = Some(other);
                }
            }
        }
        if pending.response.is_none() && pending.sw.elapsed_seconds() > pending.timeout_seconds {
            return Err(RpcError::ShardTimeout { shard });
        }
        Ok(progressed)
    }

    /// Runs one heartbeat round over every shard and advances the
    /// degraded/healthy/dead state machine. Call it between queries (or
    /// from a service loop): the heartbeat deadline is far shorter than
    /// the request timeout, so a stalled shard is detected and failed
    /// over *before* any query would block on it.
    ///
    /// Per shard: a verified [`WireHealth`] (matching shard id and the
    /// owner-signed manifest root — a replica on the wrong root can never
    /// report healthy) resets the miss counter and the state to healthy.
    /// A miss (timeout, transport fault, or root mismatch) increments the
    /// counter: `degraded_after_misses` marks the shard degraded,
    /// `failover_after_misses` proactively promotes the next manifest-
    /// pinned replica (healthy again on success, dead when the chain is
    /// exhausted). Returns the post-round state per shard.
    pub fn heartbeat(&mut self) -> Vec<ShardHealthState> {
        let shard_count = self.shard_count();
        for shard in 0..shard_count {
            match self.heartbeat_shard(shard) {
                Ok(report) => {
                    let mut health = lock_health(&self.fleet);
                    if let Some(view) = health.get_mut(shard) {
                        view.missed_heartbeats = 0;
                        view.heartbeats_ok += 1;
                        view.last_report = Some(report);
                    }
                    drop(health);
                    self.fleet
                        .transition(shard, ShardHealthState::Healthy, "verified heartbeat");
                }
                Err(err) => {
                    let misses = {
                        let mut health = lock_health(&self.fleet);
                        match health.get_mut(shard) {
                            Some(view) => {
                                view.missed_heartbeats += 1;
                                view.missed_heartbeats
                            }
                            None => 0,
                        }
                    };
                    self.fleet.events.record(
                        EventKind::Timeout,
                        Some(shard as u32),
                        format!("heartbeat miss {misses}: {err}"),
                    );
                    if misses >= self.config.failover_after_misses {
                        let why = format!("{misses} heartbeat misses");
                        if self.promote_replica(shard, &why).is_err() {
                            self.fleet.transition(
                                shard,
                                ShardHealthState::Dead,
                                "heartbeat misses exhausted the endpoint chain",
                            );
                        }
                    } else if misses >= self.config.degraded_after_misses {
                        self.fleet.transition(
                            shard,
                            ShardHealthState::Degraded,
                            "missed heartbeat",
                        );
                    }
                }
            }
        }
        self.fleet.states()
    }

    /// One shard's heartbeat round-trip under the heartbeat deadline,
    /// with the report verified against the manifest pin.
    fn heartbeat_shard(&mut self, shard: usize) -> Result<WireHealth, RpcError> {
        let request = Request::Health {
            id: self.fresh_id(),
        };
        let timeout = self.config.heartbeat_timeout_seconds;
        let mut pending = Pending::new(shard, &request, false, timeout);
        loop {
            let progressed =
                self.drive_pending(&mut pending, |r| matches!(r, Response::Health { .. }))?;
            match pending.response.take() {
                Some(Response::Health { health, .. }) => {
                    // The heartbeat's trust anchor: "healthy" only counts
                    // when attributed to the committed state the owner
                    // signed.
                    if health.shard_id as usize != shard
                        || health.shard_count as usize != self.pinned_roots.len()
                        || health.root != self.pinned_roots[shard]
                    {
                        self.fleet.events.record(
                            EventKind::HelloReverify,
                            Some(shard as u32),
                            "heartbeat report does not match the manifest pin",
                        );
                        return Err(RpcError::HelloMismatch {
                            shard: shard as u32,
                        });
                    }
                    return Ok(health);
                }
                Some(_) => {
                    return Err(RpcError::UnexpectedResponse {
                        shard: shard as u32,
                    })
                }
                None => {
                    if !progressed {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
        }
    }

    /// Answers one sharded top-k query over the wire (the socket
    /// counterpart of [`crate::ShardedSp::query`]).
    pub fn query(
        &mut self,
        features: &[Vec<f32>],
        k: usize,
    ) -> Result<(ShardedResponse, ShardedSpStats), RpcError> {
        let (response, stats, _) = self.query_profiled(features, k)?;
        Ok((response, stats))
    }

    /// [`RpcCoordinator::query`] with the coordinator's own span profile:
    /// the in-process phase structure (`fanout`, `merge`, `trim`,
    /// `assemble`), with each shard's remote `shard.batch` profile grafted
    /// under `fanout` when telemetry is on.
    pub fn query_profiled(
        &mut self,
        features: &[Vec<f32>],
        k: usize,
    ) -> Result<(ShardedResponse, ShardedSpStats, QueryProfile), RpcError> {
        let (mut answers, profile) = fanout::answer(self, "rpc.query", None, &[features], k)?;
        let (response, stats) = answers.pop().expect("a batch of one has one answer");
        Ok((response, stats, profile))
    }

    /// Answers several concurrent client queries with one `Query`
    /// round-trip per shard (plus at most one `Trim` round-trip) instead of
    /// a socket conversation per query. Responses come back in input
    /// order; [`RpcCoordinator::query`] is this with a batch of one.
    pub fn query_batch(
        &mut self,
        queries: &[Vec<Vec<f32>>],
        k: usize,
    ) -> Result<Vec<(ShardedResponse, ShardedSpStats)>, RpcError> {
        let queries: Vec<&[Vec<f32>]> = queries.iter().map(Vec::as_slice).collect();
        fanout::answer(self, "rpc.query", None, &queries, k).map(|(answers, _)| answers)
    }
}

/// The socket fleet: a round is one request frame per shard, multiplexed
/// on the coordinator's event loop; a shard answering with the wrong
/// number of payloads is an [`RpcError::UnexpectedResponse`].
impl fanout::Fleet for RpcCoordinator {
    type Error = RpcError;

    fn full_round(
        &mut self,
        queries: &[fanout::Features<'_>],
        k: usize,
    ) -> Result<Vec<fanout::ShardRound>, RpcError> {
        let want_telemetry = imageproof_obs::enabled();
        let requests = (0..self.shard_count())
            .map(|shard| {
                let request = Request::Query {
                    id: self.fresh_id(),
                    k: k as u32,
                    want_telemetry,
                    queries: queries.iter().map(|q| q.to_vec()).collect(),
                };
                (shard, request)
            })
            .collect();
        let done = self.fanout_round(
            requests,
            |r| matches!(r, Response::Query { .. }),
            want_telemetry,
        )?;
        done.into_iter()
            .map(|pending| match pending.response {
                Some(Response::Query { payloads, .. }) if payloads.len() == queries.len() => {
                    Ok(fanout::ShardRound {
                        answers: payloads
                            .into_iter()
                            .map(QueryPayload::into_response)
                            .collect(),
                        profile: pending.telemetry.unwrap_or_default(),
                    })
                }
                _ => Err(RpcError::UnexpectedResponse {
                    shard: pending.shard as u32,
                }),
            })
            .collect()
    }

    fn trim_round(
        &mut self,
        queries: &[fanout::Features<'_>],
        plan: &[Vec<(usize, usize)>],
    ) -> Result<Vec<Vec<TrimPayload>>, RpcError> {
        // Only shards with something to trim are asked.
        let mut requests = Vec::new();
        for (shard, items) in plan
            .iter()
            .enumerate()
            .filter(|(_, items)| !items.is_empty())
        {
            let items = items
                .iter()
                .map(|&(q, k_trim)| (k_trim as u32, queries[q].to_vec()))
                .collect();
            let id = self.fresh_id();
            requests.push((shard, Request::Trim { id, items }));
        }
        let mut outcomes: Vec<Vec<TrimPayload>> = vec![Vec::new(); plan.len()];
        for pending in self.fanout_round(requests, |r| matches!(r, Response::Trim { .. }), false)? {
            let shard = pending.shard;
            match pending.response {
                Some(Response::Trim { payloads, .. }) if payloads.len() == plan[shard].len() => {
                    outcomes[shard] = payloads;
                }
                _ => {
                    return Err(RpcError::UnexpectedResponse {
                        shard: shard as u32,
                    })
                }
            }
        }
        Ok(outcomes)
    }
}

/// The id a request was stamped with (0 for hello, which has none).
fn request_id(request: &Request) -> u64 {
    match request {
        Request::Hello => 0,
        Request::Query { id, .. } | Request::Trim { id, .. } | Request::Health { id } => *id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_history_keeps_only_the_most_recent_samples() {
        const N: usize = RPC_SAMPLES_PER_SHARD;
        let mut stats = CoordinatorStats {
            failovers: 0,
            rpc_seconds: vec![Vec::new(); 2],
        };
        // A deterministic scramble of 3·N distinct latencies on shard 1.
        let sample = |i: usize| ((i * 7919) % (3 * N)) as f64 * 1e-6;
        for i in 0..3 * N {
            stats.record(1, sample(i));
        }
        assert!(stats.rpc_seconds[0].is_empty());
        assert_eq!(stats.latency_quantile(0, 0.5), None);
        let recent: Vec<f64> = (2 * N..3 * N).map(sample).collect();
        assert_eq!(stats.rpc_seconds[1], recent, "the last N, in issue order");
        // Nearest-rank quantiles over exactly those samples.
        let mut sorted = recent;
        sorted.sort_by(f64::total_cmp);
        for (q, rank) in [
            (0.0, 0),
            (0.5, N / 2 - 1),
            (0.9, (9 * N).div_ceil(10) - 1),
            (1.0, N - 1),
        ] {
            assert_eq!(stats.latency_quantile(1, q), Some(sorted[rank]), "q = {q}");
        }
    }
}
