//! [`RpcCoordinator`]: the socket deployment's fan-out engine.
//!
//! One nonblocking connection per shard and one single-threaded exchange
//! loop for every conversation — a hello, a heartbeat sweep, a query or
//! trim round: it writes each request, then multiplexes reads across all
//! connections until every exchange holds its response or a typed failure.
//! Concurrent client queries batch onto one `Query` / `Trim` round-trip
//! per shard; a single query is a batch of one.
//!
//! Connection policy: an [`RpcError::Remote`] is the shard's answer and the
//! connection keeps serving. Any other fault — stalled shard (timeout on a
//! [`Stopwatch`] deadline), mid-frame reset, short write, hostile frame
//! length, duplicated/replayed response id — retires the connection, and
//! the shard is re-dialled (hello re-verified against the owner-signed
//! manifest pin) before its next exchange: the same endpoint after a
//! heartbeat miss, the next one, wrapping around, after a query-round fault
//! or a heartbeat failover. A round tries each endpoint once, then the
//! triggering error surfaces.
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
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Events retained by the coordinator's ring.
const COORDINATOR_EVENT_CAPACITY: usize = 1024;

/// Consecutive heartbeat misses before a shard is marked degraded.
const DEGRADED_AFTER_MISSES: u32 = 1;

/// Consecutive heartbeat misses before the coordinator proactively fails
/// over to the next replica (dead if the chain is exhausted).
const FAILOVER_AFTER_MISSES: u32 = 2;

/// Queries slower than this, in seconds, are recorded in the event log and
/// burn the SLO budget.
const SLOW_QUERY_THRESHOLD_SECONDS: f64 = 1.0;

/// Width of the rolling SLO / latency window, in seconds.
const SLO_WINDOW_SECONDS: f64 = 60.0;

/// Allowed fraction of slow queries (the SLO error budget).
const SLO_BUDGET: f64 = 0.01;

/// Bytes pulled off a shard socket per read.
const READ_BUF_LEN: usize = 256 * 1024;

/// Round-trip latencies kept per shard: the most recent ones, so a
/// long-lived coordinator's memory and quantile cost stay bounded. A 10 s
/// benchmark run makes about 1 000 round-trips per shard.
const RPC_SAMPLES_PER_SHARD: usize = 8192;

/// Where one shard lives: a primary address plus failover replicas, tried
/// in order, wrapping around. Every endpoint must present the same manifest-pinned
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

    /// The `index`-th endpoint: the primary, then the replicas in order.
    fn at(&self, index: usize) -> SocketAddr {
        index
            .checked_sub(1)
            .map_or(self.primary, |r| self.replicas[r])
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
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            request_timeout_seconds: 5.0,
            connect_timeout_seconds: 1.0,
            hello_timeout_seconds: 2.0,
            heartbeat_timeout_seconds: 0.5,
        }
    }
}

/// The coordinator's verdict on one shard, driven by heartbeats.
///
/// `Healthy → Degraded → Dead` on consecutive misses, back to `Healthy`
/// on a verified heartbeat (over a re-dialled connection if a miss retired
/// the old one) or a successful manifest-pinned failover. Variants are
/// ordered by severity, the order the fleet verdict and the
/// `imageproof_shard_health_state` gauge (0, 1, 2) use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardHealthState {
    /// Heartbeats arrive in time and carry the pinned root.
    Healthy,
    /// At least [`DEGRADED_AFTER_MISSES`] consecutive misses.
    Degraded,
    /// The failover threshold was crossed and no endpoint of the chain
    /// passed the hello — queries to this shard fail until it recovers
    /// (every later heartbeat or query re-dials it).
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
    fn new(shard_count: usize, pinned_roots: Vec<Digest>) -> FleetHealth {
        FleetHealth {
            health: Mutex::new(vec![ShardHealthView::default(); shard_count]),
            windows: (0..shard_count)
                .map(|_| WindowedHistogram::new(SLO_WINDOW_SECONDS))
                .collect(),
            slo: SloTracker::new(micros(SLOW_QUERY_THRESHOLD_SECONDS), SLO_BUDGET),
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

    /// The SLO tracker over coordinator round-trip latencies; its burn
    /// rate reads [`FleetHealth::windowed_latency`].
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The rolling latency view merged across every shard — the source
    /// of the SLO burn rate on the scrape endpoint.
    pub fn windowed_latency(&self) -> imageproof_obs::HistogramSnapshot {
        let mut merged = imageproof_obs::HistogramSnapshot::default();
        for w in &self.windows {
            merged = merged.merge(&w.snapshot());
        }
        merged
    }

    /// Moves one shard's state machine, logging the transition.
    fn transition(&self, shard: usize, to: ShardHealthState, why: &str) {
        let mut health = lock_health(self);
        let Some(view) = health.get_mut(shard) else {
            return;
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
    }

    /// The overall fleet verdict: the worst shard state.
    pub fn overall(&self) -> ShardHealthState {
        let worst = lock_health(self).iter().map(|v| v.state).max();
        worst.unwrap_or(ShardHealthState::Healthy)
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
            let (id, v) = gauge("imageproof_shard_health_state", labels, v.state as i64);
            snap.gauges.insert(id, v);
        }
        if let Some(rate) = self.fleet.slo.burn_rate(&self.fleet.windowed_latency()) {
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
    /// The most recent completed `Query`/`Trim` round-trip latencies per
    /// shard (at most 8 192), in seconds, oldest first (quantiles are
    /// computed by sorting a copy — see
    /// [`CoordinatorStats::latency_quantile`]).
    pub rpc_seconds: Vec<VecDeque<f64>>,
}

impl CoordinatorStats {
    /// Appends one completed round-trip, dropping the shard's oldest sample
    /// once it holds [`RPC_SAMPLES_PER_SHARD`].
    fn record(&mut self, shard: usize, seconds: f64) {
        if let Some(samples) = self.rpc_seconds.get_mut(shard) {
            if samples.len() == RPC_SAMPLES_PER_SHARD {
                samples.pop_front();
            }
            samples.push_back(seconds);
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, nearest-rank) of one shard's recorded
    /// round-trip latencies, or `None` when nothing completed yet.
    pub fn latency_quantile(&self, shard: usize, q: f64) -> Option<f64> {
        let samples = self.rpc_seconds.get(shard)?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(sorted.len() - 1);
        Some(sorted[rank])
    }
}

/// One shard's connection state.
#[derive(Default)]
struct ShardConn {
    /// The hello-verified connection and the bytes read off it that do not
    /// form a whole frame yet; `None` once a fault retired it.
    link: Option<(TcpStream, FrameBuffer)>,
    /// Chain index of the endpoint the shard is served from (while
    /// retired, the one it was last served from).
    endpoint: usize,
}

/// One request/response exchange with one shard.
struct Exchange {
    shard: usize,
    id: u64,
    want_telemetry: bool,
    outbox: Vec<u8>,
    sent: usize,
    telemetry: Option<QueryProfile>,
    /// Started when the exchange loop first moves the exchange.
    sw: Option<Stopwatch>,
    /// Round-trip deadline: the hello, heartbeat or request timeout.
    timeout_seconds: f64,
    /// The response or the typed failure, once settled.
    outcome: Option<Result<Response, RpcError>>,
    /// Seconds from the start to settlement.
    seconds: f64,
}

impl Exchange {
    fn new(shard: usize, request: &Request, timeout_seconds: f64) -> Exchange {
        let (id, want_telemetry) = match request {
            Request::Hello => (0, false),
            Request::Query {
                id, want_telemetry, ..
            } => (*id, *want_telemetry),
            Request::Trim { id, .. } | Request::Health { id } => (*id, false),
        };
        Exchange {
            shard,
            id,
            want_telemetry,
            outbox: frame(&request.to_wire()),
            sent: 0,
            telemetry: None,
            sw: None,
            timeout_seconds,
            outcome: None,
            seconds: 0.0,
        }
    }

    fn settle(&mut self, outcome: Result<Response, RpcError>) {
        self.seconds = self.sw.map_or(0.0, |sw| sw.elapsed_seconds());
        self.outcome = Some(outcome);
    }

    /// Re-arms the exchange to send its request again on a new connection.
    fn replay(&mut self) {
        self.sent = 0;
        self.telemetry = None;
        self.sw = None;
        self.outcome = None;
    }
}

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
    /// Scratch for socket reads, shared by every exchange.
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
        let fleet = Arc::new(FleetHealth::new(shard_count, pinned_roots.clone()));
        let mut coordinator = RpcCoordinator {
            endpoints,
            pinned_roots,
            conns: std::iter::repeat_with(ShardConn::default)
                .take(shard_count)
                .collect(),
            config,
            next_id: 1,
            stats: CoordinatorStats {
                failovers: 0,
                rpc_seconds: vec![VecDeque::new(); shard_count],
            },
            fleet,
            read_buf: vec![0u8; READ_BUF_LEN],
        };
        for (shard, mut tried) in coordinator.untried().into_iter().enumerate() {
            coordinator.redial(shard, &mut tried)?;
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

    /// For every shard, one flag per endpoint of its chain: whether the
    /// current request has tried it. None yet.
    fn untried(&self) -> Vec<Vec<bool>> {
        self.endpoints
            .iter()
            .map(|e| vec![false; 1 + e.replicas.len()])
            .collect()
    }

    /// Dials `shard`'s endpoints from its current one on, wrapping around
    /// the chain and skipping those already `tried`; the first whose hello
    /// matches the manifest pin becomes the shard's connection. Returns
    /// whether that is another endpoint than before (a failover, which the
    /// caller accounts); with no endpoint left, the last error.
    fn redial(&mut self, shard: usize, tried: &mut [bool]) -> Result<bool, RpcError> {
        let from = self.conns[shard].endpoint;
        let mut last_err = RpcError::HelloMismatch {
            shard: shard as u32,
        };
        let len = tried.len();
        for index in (from..from + len).map(|i| i % len) {
            if std::mem::replace(&mut tried[index], true) {
                continue;
            }
            match self.try_endpoint(shard, index) {
                Ok(()) => return Ok(index != from),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Connects endpoint `index` of `shard`'s chain and runs the hello on
    /// the exchange loop under the hello deadline. The connection becomes
    /// the shard's only if the hello matches the manifest pin; a transport
    /// failure is returned as is, any other answer is a
    /// [`RpcError::HelloMismatch`].
    fn try_endpoint(&mut self, shard: usize, index: usize) -> Result<(), RpcError> {
        let addr = self.endpoints[shard].at(index);
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
        stream.set_nonblocking(true).map_err(as_io)?;
        self.conns[shard].link = Some((stream, FrameBuffer::new()));
        let timeout = self.config.hello_timeout_seconds;
        let mut hello = [Exchange::new(shard, &Request::Hello, timeout)];
        self.exchange(&mut hello);
        let [hello] = hello;
        let pinned = match hello.outcome {
            Some(Ok(Response::Hello {
                shard_id,
                shard_count,
                root,
            })) => self.pins(shard, shard_id, shard_count, &root),
            // Nothing answered: the transport failure stands.
            Some(Err(
                err @ (RpcError::ShardTimeout { .. }
                | RpcError::ConnectionClosed { .. }
                | RpcError::Io { .. }
                | RpcError::Wire { .. }
                | RpcError::FrameTooLarge { .. }),
            )) => {
                self.conns[shard].link = None;
                return Err(err);
            }
            _ => false,
        };
        let verdict = if pinned { "matches" } else { "does not match" };
        self.fleet.events.record(
            EventKind::HelloReverify,
            Some(shard as u32),
            format!("{addr}: hello {verdict} the manifest pin"),
        );
        if !pinned {
            self.conns[shard].link = None;
            return Err(RpcError::HelloMismatch {
                shard: shard as u32,
            });
        }
        self.conns[shard].endpoint = index;
        Ok(())
    }

    /// Whether a hello or heartbeat report names `shard`, the deployment
    /// size and the owner-signed root the manifest pins for that slot.
    fn pins(&self, shard: usize, shard_id: u32, shard_count: u32, root: &Digest) -> bool {
        shard_id as usize == shard
            && shard_count as usize == self.pinned_roots.len()
            && self.pinned_roots.get(shard) == Some(root)
    }

    /// Allocates the next request id (monotonic across the connection's
    /// whole life, so a replayed or duplicated response can never collide
    /// with a later request).
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Accounts a failover of `shard` to the endpoint it now serves from:
    /// counter, event, registry series, health back to healthy.
    fn failed_over(&mut self, shard: usize, why: &str) {
        self.stats.failovers += 1;
        let endpoint = self.conns[shard].endpoint;
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
    }

    /// The connection policy for a failed exchange: a [`RpcError::Remote`]
    /// is the shard's answer and the connection keeps serving; any other
    /// failure retires it, so nothing still in flight on it (a late answer,
    /// a duplicate, half a frame) can reach a later exchange. Returns
    /// whether it was retired.
    fn retire_unless_answered(&mut self, shard: usize, err: &RpcError) -> bool {
        let retire = !matches!(err, RpcError::Remote { .. });
        if retire {
            self.conns[shard].link = None;
        }
        retire
    }

    /// Runs one query or trim round: each `(shard, request)` on the exchange
    /// loop; a shard whose exchange faults fails over to its next endpoint
    /// that passes the hello and replays the request there. Returns the
    /// settled exchanges in input order.
    fn fanout_round(&mut self, requests: Vec<(usize, Request)>) -> Result<Vec<Exchange>, RpcError> {
        let timeout = self.config.request_timeout_seconds;
        let mut exchanges: Vec<Exchange> = requests
            .iter()
            .map(|(shard, request)| Exchange::new(*shard, request, timeout))
            .collect();
        let mut tried = self.untried();
        let mut pass: Vec<usize> = (0..exchanges.len()).collect();
        while !pass.is_empty() {
            for &i in &pass {
                let ex = &mut exchanges[i];
                let shard = ex.shard;
                if self.conns[shard].link.is_some() {
                    tried[shard][self.conns[shard].endpoint] = true;
                    continue;
                }
                // Retired by this round's fault, or by an earlier one.
                let fault = ex.outcome.take().and_then(Result::err);
                let why = fault
                    .as_ref()
                    .map_or("a failed re-dial".to_string(), ToString::to_string);
                match self.redial(shard, &mut tried[shard]) {
                    Ok(true) => self.failed_over(shard, &why),
                    Ok(false) => {}
                    Err(e) => return Err(fault.unwrap_or(e)),
                }
                ex.replay();
            }
            self.exchange(&mut exchanges);
            let mut faulted = Vec::new();
            let mut answer = None;
            for i in pass {
                let ex = &exchanges[i];
                match &ex.outcome {
                    Some(Ok(_)) => self.record_round_trip(ex.shard, ex.seconds),
                    Some(Err(err)) if self.retire_unless_answered(ex.shard, err) => {
                        if matches!(err, RpcError::ShardTimeout { .. }) {
                            self.fleet.events.record(
                                EventKind::Timeout,
                                Some(ex.shard as u32),
                                format!("query round-trip missed its deadline: {err}"),
                            );
                        }
                        faulted.push(i);
                    }
                    Some(Err(err)) => {
                        answer.get_or_insert_with(|| err.clone());
                    }
                    None => {}
                }
            }
            if let Some(err) = answer {
                return Err(err);
            }
            pass = faulted;
        }
        Ok(exchanges)
    }

    /// The exchange loop, the only code that reads or writes a shard
    /// socket: drives every unsettled exchange until it holds its response
    /// or a typed failure, and its elapsed time. What a failure means for
    /// the connection is the caller's policy.
    fn exchange(&mut self, exchanges: &mut [Exchange]) {
        loop {
            let mut open = false;
            let mut progressed = false;
            for ex in exchanges.iter_mut().filter(|ex| ex.outcome.is_none()) {
                match self.pump(ex) {
                    Ok(moved) => progressed |= moved,
                    Err(err) => ex.settle(Err(err)),
                }
                open |= ex.outcome.is_none();
            }
            if !open {
                return;
            }
            if !progressed {
                // Nothing moved on any connection: yield briefly instead
                // of spinning the core.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Moves one exchange along: drains its outbox, reads whatever the
    /// shard sent, dispatches complete frames, and settles the exchange
    /// once its response is in. `Ok(true)` when any bytes or frames moved.
    fn pump(&mut self, ex: &mut Exchange) -> Result<bool, RpcError> {
        let shard = ex.shard as u32;
        let sw = *ex.sw.get_or_insert_with(Stopwatch::start);
        let io = |e: std::io::Error| RpcError::Io {
            shard,
            kind: e.kind(),
        };
        let Some((stream, fb)) = self.conns[ex.shard].link.as_mut() else {
            return Err(RpcError::ConnectionClosed { shard });
        };
        let mut progressed = false;
        while ex.sent < ex.outbox.len() {
            match stream.write(&ex.outbox[ex.sent..]) {
                Ok(0) => return Err(RpcError::ConnectionClosed { shard }),
                Ok(n) => {
                    ex.sent += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        loop {
            match stream.read(&mut self.read_buf) {
                Ok(0) => return Err(RpcError::ConnectionClosed { shard }),
                Ok(n) => {
                    fb.extend(&self.read_buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        while ex.outcome.is_none() {
            let Some(body) = fb.next_frame()? else {
                break;
            };
            progressed = true;
            match Response::from_wire(&body).map_err(|error| RpcError::Wire { shard, error })? {
                Response::Telemetry { id, profile } => {
                    if !ex.want_telemetry || id != ex.id {
                        return Err(RpcError::UnsolicitedTelemetry { shard });
                    }
                    ex.telemetry = Some(profile.to_profile());
                }
                response if response.id() != ex.id => {
                    return Err(RpcError::ResponseIdMismatch {
                        shard,
                        expected: ex.id,
                        got: response.id(),
                    })
                }
                Response::Error { message, .. } => return Err(RpcError::Remote { shard, message }),
                response => ex.settle(Ok(response)),
            }
        }
        if ex.outcome.is_none() && sw.elapsed_seconds() > ex.timeout_seconds {
            return Err(RpcError::ShardTimeout { shard });
        }
        Ok(progressed)
    }

    /// Records one completed `Query`/`Trim` round-trip (the only traffic
    /// recorded) in the shard's latency history, the
    /// `imageproof_rpc_request_micros` histogram, its window and the SLO.
    fn record_round_trip(&mut self, shard: usize, seconds: f64) {
        self.stats.record(shard, seconds);
        let us = micros(seconds);
        if imageproof_obs::enabled() {
            imageproof_obs::global()
                .histogram(
                    "imageproof_rpc_request_micros",
                    &[("shard", &shard.to_string())],
                )
                .record(us);
        }
        if let Some(window) = self.fleet.windows.get(shard) {
            window.record(us);
        }
        if self.fleet.slo.record(us) {
            self.fleet.events.record(
                EventKind::SlowQuery,
                Some(shard as u32),
                format!(
                    "round-trip {us} us exceeded the {} us threshold",
                    self.fleet.slo.threshold()
                ),
            );
        }
    }

    /// Runs one heartbeat sweep — one `Health` exchange per shard, all on
    /// the exchange loop, so at most one heartbeat deadline — and advances
    /// the degraded/healthy/dead state machine. Call it between queries
    /// (or from a service loop): the heartbeat deadline is far shorter than
    /// the request timeout, so a stalled shard is detected and failed over
    /// *before* any query would block on it.
    ///
    /// Per shard: a verified [`WireHealth`] (matching shard id and the
    /// owner-signed manifest root — a replica on the wrong root can never
    /// report healthy) resets the miss counter and the state to healthy.
    /// A miss (timeout, transport fault, failed re-dial, or root mismatch)
    /// increments the counter: [`DEGRADED_AFTER_MISSES`] marks the shard
    /// degraded, [`FAILOVER_AFTER_MISSES`] promotes the next manifest-pinned
    /// endpoint (healthy again on success, dead when none passes the
    /// hello). Returns the post-sweep state per shard.
    pub fn heartbeat(&mut self) -> Vec<ShardHealthState> {
        let timeout = self.config.heartbeat_timeout_seconds;
        let mut tried = self.untried();
        let mut exchanges = Vec::new();
        for (shard, tried) in tried.iter_mut().enumerate() {
            let endpoint = self.conns[shard].endpoint;
            tried[endpoint] = true;
            let id = self.fresh_id();
            let mut ex = Exchange::new(shard, &Request::Health { id }, timeout);
            if self.conns[shard].link.is_none() {
                if let Err(err) = self.try_endpoint(shard, endpoint) {
                    ex.settle(Err(err));
                }
            }
            exchanges.push(ex);
        }
        self.exchange(&mut exchanges);
        for ex in exchanges {
            let (shard, id) = (ex.shard, ex.shard as u32);
            let err = match ex.outcome {
                // The heartbeat's trust anchor: "healthy" only counts when
                // attributed to the committed state the owner signed.
                Some(Ok(Response::Health { health, .. }))
                    if self.pins(shard, health.shard_id, health.shard_count, &health.root) =>
                {
                    if let Some(view) = lock_health(&self.fleet).get_mut(shard) {
                        view.missed_heartbeats = 0;
                        view.heartbeats_ok += 1;
                        view.last_report = Some(health);
                    }
                    self.fleet
                        .transition(shard, ShardHealthState::Healthy, "verified heartbeat");
                    continue;
                }
                Some(Ok(Response::Health { .. })) => {
                    self.fleet.events.record(
                        EventKind::HelloReverify,
                        Some(id),
                        "heartbeat report does not match the manifest pin",
                    );
                    RpcError::HelloMismatch { shard: id }
                }
                Some(Err(err)) => err,
                _ => RpcError::UnexpectedResponse { shard: id },
            };
            self.retire_unless_answered(shard, &err);
            let misses = match lock_health(&self.fleet).get_mut(shard) {
                Some(view) => {
                    view.missed_heartbeats += 1;
                    view.missed_heartbeats
                }
                None => 0,
            };
            self.fleet.events.record(
                EventKind::Timeout,
                Some(id),
                format!("heartbeat miss {misses}: {err}"),
            );
            if misses >= FAILOVER_AFTER_MISSES {
                if self.redial(shard, &mut tried[shard]).is_ok() {
                    self.failed_over(shard, &format!("{misses} heartbeat misses"));
                } else {
                    self.fleet.transition(
                        shard,
                        ShardHealthState::Dead,
                        "heartbeat misses exhausted the endpoint chain",
                    );
                }
            } else if misses >= DEGRADED_AFTER_MISSES {
                self.fleet
                    .transition(shard, ShardHealthState::Degraded, "missed heartbeat");
            }
        }
        self.fleet.states()
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
/// on the coordinator's exchange loop; a shard answering with another kind
/// of response or the wrong number of payloads is an
/// [`RpcError::UnexpectedResponse`].
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
        self.fanout_round(requests)?
            .into_iter()
            .map(|ex| match ex.outcome {
                Some(Ok(Response::Query { payloads, .. })) if payloads.len() == queries.len() => {
                    Ok(fanout::ShardRound {
                        answers: payloads
                            .into_iter()
                            .map(QueryPayload::into_response)
                            .collect(),
                        profile: ex.telemetry.unwrap_or_default(),
                    })
                }
                _ => Err(RpcError::UnexpectedResponse {
                    shard: ex.shard as u32,
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
        for ex in self.fanout_round(requests)? {
            let shard = ex.shard;
            match ex.outcome {
                Some(Ok(Response::Trim { payloads, .. }))
                    if payloads.len() == plan[shard].len() =>
                {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_history_keeps_only_the_most_recent_samples() {
        const N: usize = RPC_SAMPLES_PER_SHARD;
        let mut stats = CoordinatorStats {
            failovers: 0,
            rpc_seconds: vec![VecDeque::new(); 2],
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
