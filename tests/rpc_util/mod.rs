//! Shared helpers for the socket-RPC test suites: launching shard servers
//! from a built sharded system, and a fault-injection proxy that sits
//! between the coordinator and a shard server, mangling the byte stream
//! in controlled ways (partial writes, mid-frame resets, stalls,
//! duplicated frames, hostile lengths, and frame-aware response
//! rewriting for wire-level adversaries).
//!
//! Each test binary compiles this module independently and uses a
//! different slice of it, so item-level dead-code analysis is noise here.
#![allow(dead_code)]

use imageproof_core::rpc::{
    frame, CoordinatorConfig, FrameBuffer, Response, RpcCoordinator, RunningServer, ShardEndpoint,
    ShardServer,
};
use imageproof_core::{Client, Owner, Scheme, ShardManifest, ShardedSp, SystemConfig};
use imageproof_crypto::wire::{Decode, Encode};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub const OWNER_SEED: [u8; 32] = [21u8; 32];

/// A deterministic sharded deployment: in-process fan-out engine, client,
/// manifest, plus a second identical build whose engines feed the socket
/// servers (builds are deterministic, so both serve identical bytes).
pub struct Fixture {
    pub sp: ShardedSp,
    pub client: Client,
    pub manifest: ShardManifest,
    pub servers: Vec<RunningServer>,
    pub endpoints: Vec<ShardEndpoint>,
}

impl Fixture {
    pub fn corpus(&self) -> &'static imageproof_vision::Corpus {
        &prepared().corpus
    }
}

pub fn akm() -> imageproof_akm::AkmParams {
    imageproof_akm::AkmParams {
        n_clusters: 48,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 16,
        iterations: 2,
        seed: 7,
    }
}

/// Corpus + codebook + encodings, trained once per test binary and shared
/// across every scheme and shard count.
pub struct Prepared {
    pub corpus: imageproof_vision::Corpus,
    pub codebook: imageproof_akm::Codebook,
    pub encodings: Vec<(imageproof_vision::ImageId, imageproof_akm::SparseBovw)>,
}

pub fn prepared() -> &'static Prepared {
    static PREPARED: std::sync::OnceLock<Prepared> = std::sync::OnceLock::new();
    PREPARED.get_or_init(|| {
        let corpus = imageproof_vision::Corpus::generate(&imageproof_vision::CorpusConfig {
            kind: imageproof_vision::DescriptorKind::Surf,
            n_images: 60,
            n_latent_words: 60,
            ..imageproof_vision::CorpusConfig::small(imageproof_vision::DescriptorKind::Surf)
        });
        let codebook =
            imageproof_akm::Codebook::train(corpus.config.kind, corpus.all_features(), &akm());
        let encodings: Vec<_> = corpus
            .images
            .iter()
            .map(|img| {
                (
                    img.id,
                    imageproof_akm::SparseBovw::encode(
                        &codebook,
                        img.features.iter().map(Vec::as_slice),
                    ),
                )
            })
            .collect();
        Prepared {
            corpus,
            codebook,
            encodings,
        }
    })
}

/// One deterministic sharded system build over the shared [`Prepared`].
pub fn build_system(scheme: Scheme, shard_count: usize) -> imageproof_core::ShardedSystem {
    let p = prepared();
    Owner::new(&OWNER_SEED).build_sharded_system_prepared_config(
        &p.corpus,
        p.codebook.clone(),
        p.encodings.clone(),
        SystemConfig::new(scheme),
        shard_count,
    )
}

/// Builds the deployment twice from the same seed — once kept in-process,
/// once dissolved into socket servers — and returns both halves.
pub fn fixture(scheme: Scheme, shard_count: usize) -> Fixture {
    let system = build_system(scheme, shard_count);
    let served = build_system(scheme, shard_count);
    let client = Client::new(system.published);
    let manifest = system.manifest;
    let sp = ShardedSp::new(system.shards);
    let (servers, endpoints) = launch_shards(ShardedSp::new(served.shards));
    Fixture {
        sp,
        client,
        manifest,
        servers,
        endpoints,
    }
}

/// The honest BoVW VO `db`'s SP would serve for `features` had the owner
/// committed a *different* tree of the same codebook: same centroids, same
/// list digests, a tree grown from another seed. Internally consistent
/// and proving the right assignment — under a root nobody signed.
pub fn bovw_over_another_tree(
    db: &imageproof_core::Database,
    features: &[Vec<f32>],
) -> imageproof_core::BovwVoVariant {
    use imageproof_core::BovwVoVariant;
    use rand::SeedableRng;
    let codebook = &db.codebook;
    let reseeded = imageproof_akm::rkd::RkdTree::build(
        &codebook.centers,
        akm().max_leaf_size,
        &mut rand::rngs::StdRng::seed_from_u64(akm().seed ^ 0xD1FF),
    );
    let other = imageproof_mrkd::MrkdTree::build(
        &reseeded,
        &codebook.centers,
        &db.inv.list_digests(),
        db.scheme.candidate_mode(),
    );
    let thresholds: Vec<f32> = features
        .iter()
        .map(|f| codebook.assign_with_threshold(f).1)
        .collect();
    if db.scheme.shares_nodes() {
        BovwVoVariant::Shared(imageproof_mrkd::mrkd_search(&other, features, &thresholds).vo)
    } else {
        let (vo, _) = imageproof_mrkd::mrkd_search_baseline(&other, features, &thresholds);
        BovwVoVariant::PerQuery(vo)
    }
}

/// Dissolves an in-process fan-out into one [`ShardServer`] per shard and
/// returns the running servers with their single-endpoint list.
pub fn launch_shards(sp: ShardedSp) -> (Vec<RunningServer>, Vec<ShardEndpoint>) {
    let engines = sp.into_shards();
    let shard_count = engines.len() as u32;
    let mut servers = Vec::new();
    let mut endpoints = Vec::new();
    for (shard, engine) in engines.into_iter().enumerate() {
        let server = ShardServer::new(engine, shard as u32, shard_count)
            .launch()
            .expect("launch shard server");
        endpoints.push(ShardEndpoint::single(server.addr()));
        servers.push(server);
    }
    (servers, endpoints)
}

/// A coordinator config with short timeouts so stall tests stay fast.
/// The heartbeat deadline stays well under the request deadline so
/// heartbeat-driven failover can beat a stalled query to the punch.
pub fn quick_config() -> CoordinatorConfig {
    CoordinatorConfig {
        request_timeout_seconds: 0.8,
        connect_timeout_seconds: 1.0,
        hello_timeout_seconds: 1.0,
        heartbeat_timeout_seconds: 0.2,
    }
}

pub fn connect(fx: &Fixture) -> RpcCoordinator {
    RpcCoordinator::connect(fx.endpoints.clone(), &fx.manifest, quick_config())
        .expect("connect coordinator")
}

// ---------------------------------------------------------------------------
// Fault-injection proxy.

/// What the proxy does to the server→coordinator byte stream (the
/// coordinator→server direction is always forwarded transparently, except
/// for [`Fault::StallRequests`]).
#[derive(Clone)]
pub enum Fault {
    /// Forward both directions untouched.
    Transparent,
    /// Forward the response stream one byte at a time (worst-case partial
    /// writes; every frame arrives in `len` fragments).
    Trickle,
    /// Forward exactly `n` response bytes, then close both sockets — a
    /// mid-frame reset when `n` lands inside a frame.
    ResetAfterResponseBytes(usize),
    /// Swallow every response byte: the shard looks alive but stalled.
    StallResponses,
    /// Swallow every request byte (the server never even sees the query).
    StallRequests,
    /// Forward the first complete *payload* response frame twice,
    /// everything else once. Telemetry sidecar frames are exempt: a
    /// duplicated telemetry frame is idempotently absorbed (it carries no
    /// answer), so the interesting duplicate is the answer itself.
    DuplicateFirstResponseFrame,
    /// Answer the first request bytes with a frame header announcing a
    /// hostile length, then stall.
    HostileLengthHeader,
    /// Decode each response frame and rewrite it (`None` drops the
    /// frame). Used for in-flight sub-VO substitution and id replay.
    MapResponses(Arc<dyn Fn(Response) -> Option<Response> + Send + Sync>),
    /// Inject these raw bytes into the response stream before the first
    /// genuine response byte (spoofed telemetry, replayed captures).
    InjectBeforeResponses(Vec<u8>),
    /// Hold the first response bytes this long, then forward everything:
    /// an answer that arrives after its deadline.
    DelayFirstResponse(Duration),
}

pub struct Proxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Starts a proxy on a fresh loopback port forwarding to `target`.
    pub fn start(target: SocketAddr, fault: Fault) -> Proxy {
        Proxy::start_at(SocketAddr::from(([127, 0, 0, 1], 0)), target, fault)
    }

    /// Starts a proxy on `addr`, e.g. where a dropped proxy listened, so a
    /// shard comes back on its old address (std sets `SO_REUSEADDR`, so
    /// the port can be bound again at once).
    pub fn start_at(addr: SocketAddr, target: SocketAddr, fault: Fault) -> Proxy {
        let listener = TcpListener::bind(addr).expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        listener.set_nonblocking(true).expect("nonblocking proxy");
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let fault = fault.clone();
                        let stop = Arc::clone(&accept_stop);
                        conns.push(std::thread::spawn(move || {
                            let _ = relay(client, target, fault, stop);
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Proxy {
            addr,
            stop,
            handle: Some(handle),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Pumps one proxied connection until either side closes, the fault says
/// to cut it, or the proxy stops.
///
/// The opening hello exchange always passes through untouched (one
/// request frame up, one response frame down), so every fault strikes the
/// *query* path of an already-verified connection — the adversarial shape
/// the coordinator's failover logic has to survive.
fn relay(
    mut client: TcpStream,
    target: SocketAddr,
    fault: Fault,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let mut server = TcpStream::connect(target)?;
    client.set_read_timeout(Some(Duration::from_millis(10)))?;
    server.set_read_timeout(Some(Duration::from_millis(10)))?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let mut cbuf = [0u8; 16 * 1024];
    let mut sbuf = [0u8; 16 * 1024];
    let mut hello_done = false; // one response frame forwarded untouched
    let mut responded = 0usize; // post-hello response bytes forwarded
    let mut injected = false;
    let mut fb = FrameBuffer::new(); // frame-aware faults reassemble here
    let mut duplicated = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Coordinator → server direction.
        match client.read(&mut cbuf) {
            Ok(0) => return Ok(()),
            Ok(n) => match &fault {
                Fault::StallRequests if hello_done => {}
                Fault::HostileLengthHeader if hello_done => {
                    // Answer with a poisoned header instead of forwarding.
                    client.write_all(&u32::MAX.to_le_bytes())?;
                }
                _ => server.write_all(&cbuf[..n])?,
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
        // Server → coordinator direction.
        match server.read(&mut sbuf) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                let mut bytes = &sbuf[..n];
                if !hello_done {
                    // Pass the hello response through verbatim, then arm
                    // the fault for everything after it.
                    fb.extend(bytes);
                    bytes = &[];
                    if let Ok(Some(body)) = fb.next_frame() {
                        client.write_all(&frame(&body))?;
                        hello_done = true;
                    }
                }
                if bytes.is_empty() && fb.pending() == 0 {
                    continue;
                }
                match &fault {
                    Fault::Trickle => {
                        for b in bytes {
                            client.write_all(std::slice::from_ref(b))?;
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                    Fault::ResetAfterResponseBytes(cut) => {
                        let room = cut.saturating_sub(responded).min(bytes.len());
                        client.write_all(&bytes[..room])?;
                        responded += room;
                        if responded >= *cut {
                            // Abrupt close, mid-frame when `cut` says so.
                            return Ok(());
                        }
                    }
                    Fault::StallResponses | Fault::StallRequests | Fault::HostileLengthHeader => {}
                    Fault::Transparent => client.write_all(bytes)?,
                    Fault::DelayFirstResponse(delay) => {
                        if responded == 0 {
                            std::thread::sleep(*delay);
                        }
                        responded += bytes.len();
                        client.write_all(bytes)?;
                    }
                    Fault::InjectBeforeResponses(pre) => {
                        if !injected {
                            injected = true;
                            client.write_all(pre)?;
                        }
                        client.write_all(bytes)?;
                    }
                    Fault::DuplicateFirstResponseFrame => {
                        fb.extend(bytes);
                        while let Ok(Some(body)) = fb.next_frame() {
                            let framed = frame(&body);
                            client.write_all(&framed)?;
                            let is_telemetry = matches!(
                                Response::from_wire(&body),
                                Ok(Response::Telemetry { .. })
                            );
                            if !duplicated && !is_telemetry {
                                duplicated = true;
                                client.write_all(&framed)?;
                            }
                        }
                    }
                    Fault::MapResponses(map) => {
                        fb.extend(bytes);
                        while let Ok(Some(body)) = fb.next_frame() {
                            let resp = Response::from_wire(&body).expect("proxy decodes response");
                            if let Some(mapped) = map(resp) {
                                client.write_all(&frame(&mapped.to_wire()))?;
                            }
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
}
