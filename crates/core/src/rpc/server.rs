//! [`ShardServer`]: one shard's query engine behind a TCP socket.
//!
//! The server wraps a [`ServiceProvider`] (exactly the engine the
//! in-process [`crate::ShardedSp`] fan-out would call) and answers the
//! frame protocol of [`super::frame`]. Query handling runs the *serial*
//! engine path — the same path the in-process fan-out runs per shard — so
//! every payload byte a healthy server produces is bit-equal to the
//! in-process deployment by construction.
//!
//! Threading: the workspace's one acceptor ([`imageproof_obs::serve`]),
//! one thread per connection with a short read timeout (so shutdown is
//! prompt even with idle clients). Malformed input never panics the
//! server: a frame that fails to decode earns the client a
//! [`Response::Error`] frame and a closed connection; a well-formed query
//! whose features the codebook cannot assign earns an error frame for that
//! request id, and the connection keeps serving.
//!
//! Observability: the server keeps a small health ledger ([`ServerObs`]:
//! uptime, in-flight queue depth, queries served, classified last error,
//! bounded event ring) that feeds both the [`Request::Health`] heartbeat
//! answer and the optional HTTP-lite scrape endpoint
//! ([`ShardServer::launch_observed`]) serving `/metrics`,
//! `/metrics.json`, `/healthz`, and `/events`. Everything on that path is
//! a read of atomic counters or registry snapshots — it can never change
//! a payload byte (`tests/obs_equivalence.rs`).

use super::frame::{frame, ErrorClass, FrameBuffer, Request, Response, WireHealth, WireProfile};
use super::{QueryPayload, RpcError};
use crate::sp::ServiceProvider;
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_obs::{EventKind, EventLog, RunningServer, ScrapeProvider, Stopwatch, READ_POLL};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

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
}

impl ServerObs {
    fn new() -> ServerObs {
        ServerObs {
            started: Stopwatch::start(),
            queue_depth: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            last_error: AtomicU8::new(0),
            events: EventLog::new(SERVER_EVENT_CAPACITY),
        }
    }

    fn note_error(&self, class: ErrorClass, shard_id: u32, detail: &str) {
        self.last_error.store(class.to_u8(), Ordering::SeqCst);
        self.events
            .record(EventKind::WireError, Some(shard_id), detail);
    }

    fn last_error(&self) -> ErrorClass {
        ErrorClass::from_u8(self.last_error.load(Ordering::SeqCst)).unwrap_or(ErrorClass::None)
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

/// One shard's engine plus its wire identity and health ledger.
pub struct ShardServer {
    sp: ServiceProvider,
    shard_id: u32,
    shard_count: u32,
    obs: ServerObs,
}

/// The shard's scrape endpoint: its health report at `/healthz`, the
/// process-global registry plus the ledger's series at `/metrics`, the
/// ledger's event ring at `/events`.
impl ScrapeProvider for ShardServer {
    fn healthz_json(&self) -> String {
        let h = self.health();
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
            sp,
            shard_id,
            shard_count,
            obs: ServerObs::new(),
        }
    }

    /// Binds `127.0.0.1:0` (deterministic *allocation*: the OS picks a free
    /// port, so parallel test binaries never collide) and serves until
    /// [`RunningServer::shutdown`].
    pub fn launch(self) -> std::io::Result<RunningServer> {
        Arc::new(self).listen()
    }

    /// [`ShardServer::launch`] plus a scrape endpoint on `scrape_addr`
    /// (e.g. `127.0.0.1:0`) serving this shard's `/metrics`,
    /// `/metrics.json`, `/healthz`, and `/events`.
    pub fn launch_observed(
        self,
        scrape_addr: &str,
    ) -> std::io::Result<(RunningServer, RunningServer)> {
        let server = Arc::new(self);
        let rpc = Arc::clone(&server).listen()?;
        Ok((rpc, imageproof_obs::launch_scrape(server, scrape_addr)?))
    }

    fn listen(self: Arc<Self>) -> std::io::Result<RunningServer> {
        imageproof_obs::serve(("127.0.0.1", 0), move |stream, stop| {
            self.serve_connection(stream, stop)
        })
    }

    fn root(&self) -> imageproof_crypto::Digest {
        self.sp.database().mrkd.combined_root_digest()
    }

    /// The report the heartbeat answer and `/healthz` both serve.
    fn health(&self) -> WireHealth {
        WireHealth {
            shard_id: self.shard_id,
            shard_count: self.shard_count,
            root: self.root(),
            uptime_seconds: self.obs.started.elapsed_seconds(),
            queue_depth: self.obs.queue_depth.load(Ordering::SeqCst),
            queries_served: self.obs.queries_served.load(Ordering::SeqCst),
            last_error: self.obs.last_error(),
        }
    }

    /// Reads frames off one connection and answers them until the peer
    /// hangs up, sends garbage, or the server stops.
    fn serve_connection(&self, mut stream: TcpStream, stop: &AtomicBool) {
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
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.obs
                        .note_error(ErrorClass::Io, self.shard_id, "connection read failed");
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
                        self.refuse(&mut stream, ErrorClass::Oversize, msg);
                        break 'conn;
                    }
                    Err(_) => break 'conn,
                };
                let request = match Request::from_wire(&body) {
                    Ok(req) => req,
                    Err(e) => {
                        let msg = format!("malformed request frame: {e}");
                        self.refuse(&mut stream, ErrorClass::Wire, msg);
                        break 'conn;
                    }
                };
                if !self.handle_request(&mut stream, request) {
                    break 'conn;
                }
            }
        }
    }

    /// Records a protocol fault and tells the peer before the connection
    /// closes.
    fn refuse(&self, stream: &mut TcpStream, class: ErrorClass, message: String) {
        self.obs.note_error(class, self.shard_id, &message);
        let _ = send(stream, &Response::Error { id: 0, message });
    }

    /// Serves one decoded request; returns false when the connection should
    /// close (write failure).
    fn handle_request(&self, stream: &mut TcpStream, request: Request) -> bool {
        self.obs.queue_depth.fetch_add(1, Ordering::SeqCst);
        let _guard = QueueGuard(&self.obs);
        if let Some((id, message)) = self.unassignable(&request) {
            self.obs
                .note_error(ErrorClass::Wire, self.shard_id, &message);
            return send(stream, &Response::Error { id, message }).is_ok();
        }
        let sp = &self.sp;
        match request {
            Request::Hello => send(
                stream,
                &Response::Hello {
                    shard_id: self.shard_id,
                    shard_count: self.shard_count,
                    root: self.root(),
                },
            )
            .is_ok(),
            Request::Health { id } => send(
                stream,
                &Response::Health {
                    id,
                    health: self.health(),
                },
            )
            .is_ok(),
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
                self.obs
                    .queries_served
                    .fetch_add(queries.len() as u64, Ordering::SeqCst);
                if want_telemetry {
                    // The observability sidecar: this round's span profile,
                    // sent ahead of the payload frame.
                    let profile = WireProfile::from_profile(&round.profile);
                    if send(stream, &Response::Telemetry { id, profile }).is_err() {
                        return false;
                    }
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

    /// The id of a query or trim request carrying a feature the codebook
    /// cannot assign, and why. The engine indexes features by split
    /// dimension and reads them in descriptor-width chunks, so a feature of
    /// another width panics it, and a non-finite coordinate assigns no
    /// cluster.
    fn unassignable(&self, request: &Request) -> Option<(u64, String)> {
        let dim = self.sp.database().codebook.kind.dim();
        let fault = |features: &Vec<Vec<f32>>| {
            features.iter().find_map(|f| {
                if f.len() != dim {
                    Some(format!("a feature has {} coordinates, not {dim}", f.len()))
                } else if !f.iter().all(|x| x.is_finite()) {
                    Some("a feature has a non-finite coordinate".to_string())
                } else {
                    None
                }
            })
        };
        match request {
            Request::Query { id, queries, .. } => Some((*id, queries.iter().find_map(fault)?)),
            Request::Trim { id, items } => Some((*id, items.iter().find_map(|(_, f)| fault(f))?)),
            Request::Hello | Request::Health { .. } => None,
        }
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    stream.write_all(&frame(&resp.to_wire()))
}
