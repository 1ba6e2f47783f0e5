//! [`ShardServer`]: one shard's query engine behind a TCP socket.
//!
//! The server wraps a [`ServiceProvider`] (exactly the engine the
//! in-process [`crate::ShardedSp`] fan-out would call) and answers the
//! frame protocol of [`super::frame`]. Query handling runs the *serial*
//! engine path — the same path the in-process fan-out runs per shard — so
//! every payload byte a healthy server produces is bit-equal to the
//! in-process deployment by construction.
//!
//! Threading: one nonblocking accept loop polling a stop flag, one thread
//! per connection with a short read timeout (so shutdown is prompt even
//! with idle clients). Malformed input never panics the server: a frame
//! that fails to decode earns the client a [`Response::Error`] frame and a
//! closed connection.
//!
//! Observability: the server keeps a small health ledger ([`ServerObs`]:
//! uptime, in-flight queue depth, queries served, classified last error,
//! bounded event ring) that feeds both the [`Request::Health`] heartbeat
//! answer and the optional HTTP-lite scrape endpoint
//! ([`ShardServer::launch_observed`]) serving `/metrics`,
//! `/metrics.json`, `/healthz`, and `/events`. Everything on that path is
//! a read of atomic counters or registry snapshots — it can never change
//! a payload byte (`tests/obs_equivalence.rs`).

use super::frame::{
    frame, ErrorClass, FrameBuffer, Request, Response, WireHealth, WireProfile, WireRegistry,
};
use super::{QueryPayload, RpcError};
use crate::sp::ServiceProvider;
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_obs::{EventKind, EventLog, RunningScrape, ScrapeProvider, Stopwatch};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread blocks in `read` before re-checking the
/// stop flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Events retained by one shard server's ring.
const SERVER_EVENT_CAPACITY: usize = 256;

/// The server's health ledger, shared by every connection thread, the
/// heartbeat answer, and the scrape endpoint.
pub struct ServerObs {
    started: Stopwatch,
    queue_depth: AtomicU64,
    queries_served: AtomicU64,
    last_error: AtomicU8,
    events: EventLog,
    /// Connection threads the accept loop currently tracks (finished ones
    /// are reaped every loop turn).
    tracked_connections: AtomicU64,
}

impl ServerObs {
    fn new() -> ServerObs {
        ServerObs {
            started: Stopwatch::start(),
            queue_depth: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            last_error: AtomicU8::new(0),
            events: EventLog::new(SERVER_EVENT_CAPACITY),
            tracked_connections: AtomicU64::new(0),
        }
    }

    fn note_error(&self, class: ErrorClass, shard_id: u32, detail: &str) {
        self.last_error
            .store(error_class_byte(class), Ordering::SeqCst);
        self.events
            .record(EventKind::WireError, Some(shard_id), detail);
    }

    fn last_error(&self) -> ErrorClass {
        ErrorClass::from_u8(self.last_error.load(Ordering::SeqCst)).unwrap_or(ErrorClass::None)
    }

    /// The report the heartbeat answer and `/healthz` both serve.
    fn health(
        &self,
        shard_id: u32,
        shard_count: u32,
        root: imageproof_crypto::Digest,
    ) -> WireHealth {
        WireHealth {
            shard_id,
            shard_count,
            root,
            uptime_seconds: self.started.elapsed_seconds(),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            queries_served: self.queries_served.load(Ordering::SeqCst),
            last_error: self.last_error(),
        }
    }
}

fn error_class_byte(class: ErrorClass) -> u8 {
    match class {
        ErrorClass::None => 0,
        ErrorClass::Wire => 1,
        ErrorClass::Oversize => 2,
        ErrorClass::Io => 3,
    }
}

/// Decrements the queue-depth gauge when a request finishes, however it
/// exits.
struct QueueGuard<'a>(&'a ServerObs);

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        self.0.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One shard's engine plus its wire identity.
pub struct ShardServer {
    sp: Arc<ServiceProvider>,
    shard_id: u32,
    shard_count: u32,
}

/// Handle to a spawned [`ShardServer`]: its bound address and a shutdown
/// switch that joins every server thread.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    obs: Arc<ServerObs>,
}

impl RunningServer {
    /// The loopback address the server accepted on (port picked by the OS).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's bounded event ring (wire errors and the like).
    pub fn events(&self) -> &EventLog {
        &self.obs.events
    }

    /// Connection threads the accept loop tracks right now.
    pub fn tracked_connections(&self) -> usize {
        self.obs.tracked_connections.load(Ordering::SeqCst) as usize
    }

    /// Signals every server thread to stop and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

/// The shard's scrape endpoint state: health identity plus handles to the
/// process-global registry and the server's event ring.
struct ShardScrapeProvider {
    shard_id: u32,
    shard_count: u32,
    root: imageproof_crypto::Digest,
    obs: Arc<ServerObs>,
}

impl ScrapeProvider for ShardScrapeProvider {
    fn healthz_json(&self) -> String {
        let h = self.obs.health(self.shard_id, self.shard_count, self.root);
        format!(
            "{{\"role\": \"shard\", \"id\": {}, \"shard_count\": {}, \"status\": \"healthy\", \"root\": \"{}\", \"uptime_seconds\": {:.3}, \"queue_depth\": {}, \"queries_served\": {}, \"last_error\": \"{}\"}}",
            h.shard_id,
            h.shard_count,
            h.root.to_hex(),
            h.uptime_seconds,
            h.queue_depth,
            h.queries_served,
            h.last_error.name(),
        )
    }

    fn registry_snapshot(&self) -> imageproof_obs::RegistrySnapshot {
        let mut snap = imageproof_obs::global().snapshot();
        let shard = self.shard_id.to_string();
        let labels = vec![("shard".to_string(), shard)];
        snap.gauges.insert(
            imageproof_obs::MetricId {
                name: "imageproof_shard_queue_depth".to_string(),
                labels: labels.clone(),
            },
            self.obs.queue_depth.load(Ordering::SeqCst) as i64,
        );
        snap.gauges.insert(
            imageproof_obs::MetricId {
                name: "imageproof_shard_uptime_seconds".to_string(),
                labels: labels.clone(),
            },
            self.obs.started.elapsed_seconds() as i64,
        );
        snap.counters.insert(
            imageproof_obs::MetricId {
                name: "imageproof_shard_queries_served_total".to_string(),
                labels,
            },
            self.obs.queries_served.load(Ordering::SeqCst),
        );
        snap
    }

    fn events_jsonl(&self) -> String {
        self.obs.events.jsonl()
    }
}

impl ShardServer {
    pub fn new(sp: ServiceProvider, shard_id: u32, shard_count: u32) -> ShardServer {
        ShardServer {
            sp: Arc::new(sp),
            shard_id,
            shard_count,
        }
    }

    /// Binds `127.0.0.1:0` (deterministic *allocation*: the OS picks a free
    /// port, so parallel test binaries never collide) and serves until
    /// [`RunningServer::shutdown`].
    pub fn launch(self) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let obs = Arc::new(ServerObs::new());
        let accept_stop = Arc::clone(&stop);
        let accept_obs = Arc::clone(&obs);
        let accept_handle =
            std::thread::spawn(move || self.accept_loop(listener, accept_stop, accept_obs));
        Ok(RunningServer {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            obs,
        })
    }

    /// [`ShardServer::launch`] plus a scrape endpoint on `scrape_addr`
    /// (e.g. `127.0.0.1:0`) serving this shard's `/metrics`,
    /// `/metrics.json`, `/healthz`, and `/events`.
    pub fn launch_observed(
        self,
        scrape_addr: &str,
    ) -> std::io::Result<(RunningServer, RunningScrape)> {
        let shard_id = self.shard_id;
        let shard_count = self.shard_count;
        let root = self.sp.database().mrkd.combined_root_digest();
        let server = self.launch()?;
        let provider = Arc::new(ShardScrapeProvider {
            shard_id,
            shard_count,
            root,
            obs: Arc::clone(&server.obs),
        });
        let scrape = imageproof_obs::launch_scrape(provider, scrape_addr)?;
        Ok((server, scrape))
    }

    fn accept_loop(self, listener: TcpListener, stop: Arc<AtomicBool>, obs: Arc<ServerObs>) {
        let mut conn_handles: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            imageproof_obs::scrape::reap_finished(&mut conn_handles);
            obs.tracked_connections
                .store(conn_handles.len() as u64, Ordering::SeqCst);
            match listener.accept() {
                Ok((stream, _)) => {
                    let sp = Arc::clone(&self.sp);
                    let conn_stop = Arc::clone(&stop);
                    let conn_obs = Arc::clone(&obs);
                    let (shard_id, shard_count) = (self.shard_id, self.shard_count);
                    conn_handles.push(std::thread::spawn(move || {
                        serve_connection(stream, sp, shard_id, shard_count, conn_stop, conn_obs);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        for handle in conn_handles {
            let _ = handle.join();
        }
    }
}

/// Reads frames off one connection and answers them until the peer hangs
/// up, sends garbage, or the server stops.
fn serve_connection(
    mut stream: TcpStream,
    sp: Arc<ServiceProvider>,
    shard_id: u32,
    shard_count: u32,
    stop: Arc<AtomicBool>,
    obs: Arc<ServerObs>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => fb.extend(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                obs.note_error(ErrorClass::Io, shard_id, "connection read failed");
                break;
            }
        }
        loop {
            let body = match fb.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(RpcError::FrameTooLarge { len }) => {
                    // Hostile length prefix: refuse before allocating.
                    let msg = format!("frame length {len} exceeds the cap");
                    obs.note_error(ErrorClass::Oversize, shard_id, &msg);
                    let _ = send(
                        &mut stream,
                        &Response::Error {
                            id: 0,
                            message: msg,
                        },
                    );
                    break 'conn;
                }
                Err(_) => break 'conn,
            };
            let request = match Request::from_wire(&body) {
                Ok(req) => req,
                Err(e) => {
                    let msg = format!("malformed request frame: {e}");
                    obs.note_error(ErrorClass::Wire, shard_id, &msg);
                    let _ = send(
                        &mut stream,
                        &Response::Error {
                            id: 0,
                            message: msg,
                        },
                    );
                    break 'conn;
                }
            };
            if !handle_request(&mut stream, &sp, shard_id, shard_count, request, &obs) {
                break 'conn;
            }
        }
    }
}

/// Serves one decoded request; returns false when the connection should
/// close (write failure).
fn handle_request(
    stream: &mut TcpStream,
    sp: &ServiceProvider,
    shard_id: u32,
    shard_count: u32,
    request: Request,
    obs: &ServerObs,
) -> bool {
    obs.queue_depth.fetch_add(1, Ordering::SeqCst);
    let _guard = QueueGuard(obs);
    match request {
        Request::Hello => send(
            stream,
            &Response::Hello {
                shard_id,
                shard_count,
                root: sp.database().mrkd.combined_root_digest(),
            },
        )
        .is_ok(),
        Request::Health { id } => {
            let root = sp.database().mrkd.combined_root_digest();
            send(
                stream,
                &Response::Health {
                    id,
                    health: obs.health(shard_id, shard_count, root),
                },
            )
            .is_ok()
        }
        Request::Query {
            id,
            k,
            want_telemetry,
            queries,
        } => {
            // One span per round, each query's own profile grafted under
            // it — exactly what the in-process fleet attaches per shard.
            let queries: Vec<&[Vec<f32>]> = queries.iter().map(Vec::as_slice).collect();
            let round = sp.serve_round(&queries, k as usize);
            obs.queries_served
                .fetch_add(queries.len() as u64, Ordering::SeqCst);
            if want_telemetry && !send_telemetry(stream, id, &round.profile) {
                return false;
            }
            let payloads = round
                .answers
                .into_iter()
                .map(|(resp, stats)| QueryPayload::from_response(resp, &stats))
                .collect();
            send(stream, &Response::Query { id, payloads }).is_ok()
        }
        Request::Trim { id, items } => {
            let payloads = items
                .iter()
                .map(|(k_trim, features)| sp.trim_query(features, *k_trim as usize))
                .collect();
            send(stream, &Response::Trim { id, payloads }).is_ok()
        }
    }
}

/// Ships the observability sidecar frame: the query's span profile plus a
/// snapshot of this shard process's cumulative metrics registry.
fn send_telemetry(stream: &mut TcpStream, id: u64, profile: &imageproof_obs::QueryProfile) -> bool {
    let registry = WireRegistry::from_snapshot(&imageproof_obs::global().snapshot());
    send(
        stream,
        &Response::Telemetry {
            id,
            profile: WireProfile::from_profile(profile),
            registry,
        },
    )
    .is_ok()
}

fn send(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    stream.write_all(&frame(&resp.to_wire()))
}
