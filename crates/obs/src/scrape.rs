//! A dependency-free HTTP-lite scrape server.
//!
//! Serving-plane observability needs a pull endpoint an operator (or
//! `imageproof-obstop`) can hit while the fleet is live, without dragging
//! an HTTP framework into the workspace. This module speaks just enough
//! HTTP/1.0 for a scraper: it answers `GET` on four fixed routes and
//! closes the connection after each response.
//!
//! | route           | body                                        |
//! |-----------------|---------------------------------------------|
//! | `/metrics`      | byte-stable Prometheus text exposition      |
//! | `/metrics.json` | byte-stable JSON exposition                 |
//! | `/healthz`      | provider-defined health JSON                |
//! | `/events`       | JSON-lines event log                        |
//!
//! The module also owns the workspace's one TCP acceptor, [`serve`], which
//! the scrape server and `rpc/server.rs` both run on: a nonblocking accept
//! loop polling a stop flag, one thread per connection up to
//! [`MAX_CONNECTIONS`], and a prompt shutdown that joins every thread. A
//! scrape connection reads at most [`MAX_REQUEST_BYTES`] before it is
//! refused. The server only ever *reads* snapshots from its
//! [`ScrapeProvider`] — it can never block a query, and the
//! zero-perturbation suite proves payload bytes are identical with
//! scraping on or off.

use crate::metrics::{snapshot_json, snapshot_prometheus_text, RegistrySnapshot};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread blocks in `read` before re-checking the
/// stop flag. Connection handlers on [`serve`] poll at this cadence.
pub const READ_POLL: Duration = Duration::from_millis(25);

/// Most connections [`serve`] runs at once. Its handlers hold an idle peer
/// until it hangs up, so without a cap every idle dial would pin a thread
/// for the life of the server; a connection accepted at the cap is closed
/// at once.
pub const MAX_CONNECTIONS: usize = 64;

/// Upper bound on a scrape request's header bytes; anything larger is not
/// a scraper and earns `431` + close before the buffer grows further.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Upper bound on the response [`http_get`] buffers, head and body; a
/// longer response is refused with `InvalidData`. An honest `/events`
/// body at a full ring is well under 1 MiB.
pub const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

/// How long a connection may idle mid-request before the server gives up
/// on it.
const REQUEST_DEADLINE_SECONDS: f64 = 5.0;

/// What a scrape endpoint exposes. Implementations return point-in-time
/// copies — the server holds no locks of the caller's while rendering.
pub trait ScrapeProvider: Send + Sync {
    /// Body served at `/healthz` (a JSON object; shape is the provider's).
    fn healthz_json(&self) -> String;
    /// Snapshot rendered at `/metrics` (Prometheus text) and
    /// `/metrics.json` (JSON).
    fn registry_snapshot(&self) -> RegistrySnapshot;
    /// JSON-lines body served at `/events`.
    fn events_jsonl(&self) -> String;
}

/// Handle to a server spawned by [`serve`]: its bound address and a
/// shutdown switch that joins every thread. Dropping it shuts it down too.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    /// Connection threads the accept loop currently tracks (finished ones
    /// are reaped every loop turn, so this stays near the live count).
    tracked: Arc<AtomicUsize>,
}

impl RunningServer {
    /// The address the server accepted on (port picked by the OS when the
    /// bind address asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads the accept loop tracks right now.
    pub fn tracked_connections(&self) -> usize {
        self.tracked.load(Ordering::SeqCst)
    }

    /// Signals every server thread to stop and joins them (the work is
    /// `Drop`'s; this names it at call sites).
    pub fn shutdown(self) {}
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `bind_addr` (port 0 for an OS-picked port) and, until the
/// returned handle shuts down, accepts without blocking and runs
/// `handler(stream, stop)` on one thread per connection, closing any
/// connection accepted while [`MAX_CONNECTIONS`] are live. Handlers must
/// return soon after `stop` turns true (poll it every [`READ_POLL`]).
pub fn serve<H>(bind_addr: impl ToSocketAddrs, handler: H) -> std::io::Result<RunningServer>
where
    H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let tracked = Arc::new(AtomicUsize::new(0));
    let (loop_stop, loop_tracked) = (Arc::clone(&stop), Arc::clone(&tracked));
    let handler = Arc::new(handler);
    let accept_handle = std::thread::spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !loop_stop.load(Ordering::SeqCst) {
            reap_finished(&mut conns);
            loop_tracked.store(conns.len(), Ordering::SeqCst);
            match listener.accept() {
                // At the cap: dropping the stream closes it.
                Ok((stream, _)) if conns.len() >= MAX_CONNECTIONS => drop(stream),
                Ok((stream, _)) => {
                    let (handler, stop) = (Arc::clone(&handler), Arc::clone(&loop_stop));
                    conns.push(std::thread::spawn(move || handler(stream, &stop)));
                }
                // Nothing pending (`WouldBlock`) or a transient accept
                // failure: poll again shortly.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        loop_tracked.store(0, Ordering::SeqCst);
    });
    Ok(RunningServer {
        addr,
        stop,
        accept_handle: Some(accept_handle),
        tracked,
    })
}

/// Joins every thread in `handles` that has already finished and drops its
/// handle, so a long-lived server tracks its live connections, not every
/// connection it ever accepted.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while let Some(handle) = handles.get(i) {
        if handle.is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Binds `bind_addr` (e.g. `127.0.0.1:0` for an OS-picked port) and
/// serves the provider's routes until [`RunningServer::shutdown`].
pub fn launch_scrape(
    provider: Arc<dyn ScrapeProvider>,
    bind_addr: &str,
) -> std::io::Result<RunningServer> {
    serve(bind_addr, move |stream, stop| {
        serve_connection(stream, &*provider, stop)
    })
}

/// Reads one request, answers it, closes. HTTP/1.0 semantics keep the
/// server trivially stateless.
fn serve_connection(mut stream: TcpStream, provider: &dyn ScrapeProvider, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let deadline = crate::Stopwatch::start();
    let mut request = Vec::new();
    let mut buf = [0u8; 1024];
    let header_end = loop {
        if stop.load(Ordering::SeqCst) || deadline.elapsed_seconds() > REQUEST_DEADLINE_SECONDS {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                request.extend_from_slice(&buf[..n]);
                if let Some(end) = find_header_end(&request) {
                    break end;
                }
                if request.len() > MAX_REQUEST_BYTES {
                    let _ = respond(&mut stream, 431, "text/plain", "request header too large\n");
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    };
    let head = String::from_utf8_lossy(&request[..header_end]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        let _ = respond(&mut stream, 405, "text/plain", "method not allowed\n");
        return;
    }
    // Ignore any query string: routes are fixed.
    let path = target.split('?').next().unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            snapshot_prometheus_text(&provider.registry_snapshot()),
        ),
        "/metrics.json" => (
            200,
            "application/json",
            snapshot_json(&provider.registry_snapshot()),
        ),
        "/healthz" => (200, "application/json", provider.healthz_json()),
        "/events" => (200, "application/jsonl", provider.events_jsonl()),
        _ => (404, "text/plain", "not found\n".to_string()),
    };
    let _ = respond(&mut stream, status, content_type, &body);
}

/// Position one past the `\r\n\r\n` (or bare `\n\n`) terminating the
/// request head, if it has arrived.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP GET against a scrape endpoint: returns
/// `(status, body)`. Shared by `imageproof-obstop`, the bench harness,
/// and the CI smoke test so nobody grows their own client. A response
/// longer than [`MAX_RESPONSE_BYTES`] is an error, not a buffer that
/// grows until the deadline.
pub fn http_get(addr: &str, path: &str, timeout_seconds: f64) -> std::io::Result<(u16, String)> {
    let timeout = Duration::from_secs_f64(timeout_seconds.clamp(0.05, 600.0));
    let sock_addr: SocketAddr = addr.parse().map_err(|e| {
        std::io::Error::new(ErrorKind::InvalidInput, format!("bad addr {addr}: {e}"))
    })?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let _ = stream.set_nodelay(true);
    let request = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let deadline = crate::Stopwatch::start();
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if deadline.elapsed_seconds() > timeout.as_secs_f64() {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "scrape response deadline exceeded",
            ));
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) if response.len() + n > MAX_RESPONSE_BYTES => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "scrape response exceeds MAX_RESPONSE_BYTES",
                ));
            }
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let header_end = find_header_end(&response).ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidData, "response missing header terminator")
    })?;
    let head = String::from_utf8_lossy(&response[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "response missing status"))?;
    let body = String::from_utf8_lossy(&response[header_end..]).to_string();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    struct TestProvider {
        registry: Registry,
        events: crate::events::EventLog,
    }

    impl ScrapeProvider for TestProvider {
        fn healthz_json(&self) -> String {
            "{\"status\":\"healthy\",\"role\":\"test\"}".to_string()
        }
        fn registry_snapshot(&self) -> RegistrySnapshot {
            self.registry.snapshot()
        }
        fn events_jsonl(&self) -> String {
            self.events.jsonl()
        }
    }

    fn provider() -> Arc<TestProvider> {
        let registry = Registry::new();
        registry
            .counter("scrape_test_total", &[("route", "q")])
            .add(7);
        registry.histogram("scrape_test_micros", &[]).record(1500);
        let events = crate::events::EventLog::new(8);
        events.record_at(0.25, crate::events::EventKind::SlowQuery, Some(0), "1.5ms");
        Arc::new(TestProvider { registry, events })
    }

    #[test]
    fn serves_all_routes_with_correct_bodies() {
        let p = provider();
        let server = launch_scrape(p.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        let (status, text) = http_get(&addr, "/metrics", 5.0).unwrap();
        assert_eq!(status, 200);
        assert_eq!(text, snapshot_prometheus_text(&p.registry.snapshot()));
        assert!(text.contains("scrape_test_total{route=\"q\"} 7\n"));

        let (status, json) = http_get(&addr, "/metrics.json", 5.0).unwrap();
        assert_eq!(status, 200);
        assert_eq!(json, snapshot_json(&p.registry.snapshot()));

        let (status, health) = http_get(&addr, "/healthz", 5.0).unwrap();
        assert_eq!(status, 200);
        assert_eq!(health, "{\"status\":\"healthy\",\"role\":\"test\"}");

        let (status, events) = http_get(&addr, "/events", 5.0).unwrap();
        assert_eq!(status, 200);
        assert!(events.contains("\"kind\":\"slow_query\""));

        let (status, _) = http_get(&addr, "/nope", 5.0).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_and_oversized_requests() {
        let server = launch_scrape(provider(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.0 405"), "{out}");

        let mut s = TcpStream::connect(addr).unwrap();
        let junk = vec![b'x'; MAX_REQUEST_BYTES + 1024];
        s.write_all(&junk).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.0 431"), "{out}");
        server.shutdown();
    }

    #[test]
    fn http_get_refuses_a_response_over_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Take the request first so closing does not reset the socket.
            let mut request = [0u8; 1024];
            let _ = s.read(&mut request);
            let body_len = MAX_RESPONSE_BYTES + 1;
            let head = format!("HTTP/1.0 200 OK\r\nContent-Length: {body_len}\r\n\r\n");
            // The client hangs up once over the cap; a failed write is expected.
            let _ = s
                .write_all(head.as_bytes())
                .and_then(|()| s.write_all(&vec![b'x'; body_len]));
        });
        let err = http_get(&addr, "/events", 30.0).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn finished_connection_threads_are_reaped_while_serving() {
        // Every scrape is a fresh HTTP/1.0 connection: a server scraped for
        // days must not keep one finished thread handle per scrape.
        let server = launch_scrape(provider(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let mut most = 0;
        for _ in 0..300 {
            let (status, _) = http_get(&addr, "/healthz", 5.0).unwrap();
            assert_eq!(status, 200);
            most = most.max(server.tracked_connections());
        }
        assert!(
            most < 50,
            "accept loop tracked {most} of 300 finished threads"
        );
        let settle = crate::Stopwatch::start();
        while server.tracked_connections() > 0 && settle.elapsed_seconds() < 5.0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.tracked_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_idle_connections_and_clears_the_count() {
        let server = launch_scrape(provider(), "127.0.0.1:0").unwrap();
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let settle = crate::Stopwatch::start();
        while server.tracked_connections() < 1 && settle.elapsed_seconds() < 5.0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.tracked_connections(), 1);
        let tracked = Arc::clone(&server.tracked);
        let sw = crate::Stopwatch::start();
        server.shutdown();
        assert!(
            sw.elapsed_seconds() < 1.0,
            "shutdown took {}s",
            sw.elapsed_seconds()
        );
        assert_eq!(tracked.load(Ordering::SeqCst), 0);
        idle.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        assert!(
            matches!(idle.read(&mut [0u8; 1]), Ok(0)),
            "server closed its end"
        );
    }

    #[test]
    fn concurrent_scrapes_do_not_interfere() {
        let p = provider();
        let server = launch_scrape(p.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let expected = snapshot_prometheus_text(&p.registry.snapshot());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let (status, body) = http_get(&addr, "/metrics", 5.0).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, expected);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }
}
