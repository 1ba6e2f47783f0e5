//! `imageproof-shardd` — the sharded deployment over real sockets.
//!
//! Both halves of a split deployment rebuild the same deterministic
//! synthetic catalogue from fixed seeds, so a shard process and the
//! coordinator agree on the codebook, the manifest, and every committed
//! ADS root without exchanging any files — the only thing crossing the
//! process boundary is the length-prefixed RPC protocol itself.
//!
//! ```sh
//! # one-command demo: every shard on its own loopback port, coordinator
//! # fans out, the client verifies, RPC latency quantiles are printed
//! cargo run --release --bin imageproof-shardd -- demo --shards 4
//!
//! # or run each shard as its own OS process...
//! cargo run --release --bin imageproof-shardd -- shard --index 0 --shards 2
//! cargo run --release --bin imageproof-shardd -- shard --index 1 --shards 2
//! # ...and point the coordinator at the two printed addresses
//! cargo run --release --bin imageproof-shardd -- coordinator --shards 2 \
//!     --connect 127.0.0.1:PORT0,127.0.0.1:PORT1
//! ```
//!
//! Build parameters (`--images`, `--codebook`, `--scheme`) must match
//! between the shard processes and the coordinator: the coordinator pins
//! every shard's hello (shard id, deployment size, committed ADS root)
//! against its own owner-signed manifest and refuses any mismatch.

use imageproof_akm::AkmParams;
use imageproof_core::rpc::{CoordinatorConfig, RpcCoordinator, ShardEndpoint, ShardServer};
use imageproof_core::{Client, Owner, Scheme, ShardManifest, ShardedSp, SystemConfig};
use imageproof_crypto::wire::Encode;
use imageproof_obs::Stopwatch;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};
use std::net::SocketAddr;

const OWNER_SEED: [u8; 32] = [0x21; 32];

enum Mode {
    Demo,
    Shard,
    Coordinator,
}

struct Args {
    mode: Mode,
    shards: usize,
    index: usize,
    connect: Vec<SocketAddr>,
    images: usize,
    codebook: usize,
    scheme: Scheme,
    k: usize,
    queries: usize,
    /// Scrape-endpoint bind address for this role (`--obs-addr`). The
    /// demo autobinds `127.0.0.1:0` for every shard and the coordinator
    /// and prints the resulting addresses.
    obs_addr: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            mode: Mode::Demo,
            shards: 2,
            index: 0,
            connect: Vec::new(),
            images: 120,
            codebook: 96,
            scheme: Scheme::ImageProof,
            k: 5,
            queries: 3,
            obs_addr: None,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = argv.first() else { usage() };
    args.mode = match mode.as_str() {
        "demo" => Mode::Demo,
        "shard" => Mode::Shard,
        "coordinator" => Mode::Coordinator,
        _ => usage(),
    };
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--shards" => args.shards = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--index" => args.index = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--images" => args.images = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--codebook" => args.codebook = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "-k" | "--topk" => args.k = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => args.queries = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--connect" => {
                args.connect = value(&mut i)
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--obs-addr" => args.obs_addr = Some(value(&mut i)),
            "--scheme" => {
                args.scheme = match value(&mut i).to_lowercase().as_str() {
                    "baseline" => Scheme::Baseline,
                    "imageproof" => Scheme::ImageProof,
                    "optimized-bovw" | "opt-bovw" => Scheme::OptimizedBovw,
                    "optimized" | "optimized-both" | "opt-both" => Scheme::OptimizedBoth,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if args.shards == 0 || args.index >= args.shards {
        usage();
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: imageproof-shardd <demo|shard|coordinator> [options]\n\
         \n\
         demo         launch every shard server on a loopback port, fan out,\n\
         \x20            verify, and print per-shard RPC latency quantiles\n\
         shard        serve one shard of the deployment on a loopback port\n\
         \x20            (--index I, blocks until killed)\n\
         coordinator  connect to running shard processes (--connect a,b,...)\n\
         \n\
         options: [--shards N] [--index I] [--connect addr,addr,...]\n\
         \x20        [--images N] [--codebook N] [-k N] [--queries N]\n\
         \x20        [--scheme baseline|imageproof|opt-bovw|opt-both]\n\
         \x20        [--obs-addr HOST:PORT]\n\
         \n\
         --obs-addr serves /metrics, /metrics.json, /healthz, and /events\n\
         for the role (the demo autobinds one per shard plus one for the\n\
         coordinator and prints the addresses)\n\
         \n\
         build parameters must match across all processes of one deployment"
    );
    std::process::exit(2);
}

/// The deterministic build both sides derive independently.
fn build(args: &Args) -> (Corpus, imageproof_core::ShardedSystem) {
    let corpus = Corpus::generate(&CorpusConfig {
        kind: DescriptorKind::Surf,
        n_images: args.images,
        n_latent_words: (args.codebook / 2).max(50),
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    let akm = AkmParams {
        n_clusters: args.codebook,
        ..AkmParams::default()
    };
    let system = Owner::new(&OWNER_SEED).build_sharded_system(
        &corpus,
        &akm,
        SystemConfig::new(args.scheme),
        args.shards,
    );
    (corpus, system)
}

fn main() {
    let args = parse_args();
    println!(
        "building deterministic deployment: {} images, codebook {}, scheme {}, {} shards",
        args.images,
        args.codebook,
        args.scheme.label(),
        args.shards
    );
    let t = Stopwatch::start();
    let (corpus, system) = build(&args);
    println!("  built in {:.1}s", t.elapsed_seconds());

    match args.mode {
        Mode::Shard => run_shard(args, system),
        Mode::Coordinator => {
            let client = Client::new(system.published);
            let endpoints: Vec<ShardEndpoint> = args
                .connect
                .iter()
                .map(|a| ShardEndpoint::single(*a))
                .collect();
            if endpoints.len() != args.shards {
                eprintln!(
                    "--connect must list exactly {} addresses (got {})",
                    args.shards,
                    endpoints.len()
                );
                std::process::exit(2);
            }
            run_coordinator(&args, &corpus, &client, &system.manifest, endpoints, &[]);
        }
        Mode::Demo => {
            let client = Client::new(system.published);
            let manifest = system.manifest;
            let engines = ShardedSp::new(system.shards).into_shards();
            let shard_count = engines.len() as u32;
            let mut servers = Vec::new();
            let mut scrapes = Vec::new();
            let mut endpoints = Vec::new();
            for (shard, engine) in engines.into_iter().enumerate() {
                let (server, scrape) = ShardServer::new(engine, shard as u32, shard_count)
                    .launch_observed("127.0.0.1:0")
                    .unwrap_or_else(|e| {
                        eprintln!("failed to launch shard {shard}: {e}");
                        std::process::exit(1);
                    });
                println!(
                    "  shard {shard} listening on {} (obs http://{})",
                    server.addr(),
                    scrape.addr()
                );
                endpoints.push(ShardEndpoint::single(server.addr()));
                servers.push(server);
                scrapes.push(scrape);
            }
            let mut demo_args = args;
            if demo_args.obs_addr.is_none() {
                demo_args.obs_addr = Some("127.0.0.1:0".to_string());
            }
            let scrape_addrs: Vec<SocketAddr> = scrapes.iter().map(|s| s.addr()).collect();
            run_coordinator(
                &demo_args,
                &corpus,
                &client,
                &manifest,
                endpoints,
                &scrape_addrs,
            );
            for scrape in scrapes {
                scrape.shutdown();
            }
            for server in servers {
                server.shutdown();
            }
        }
    }
}

fn run_shard(args: Args, system: imageproof_core::ShardedSystem) -> ! {
    let mut engines = ShardedSp::new(system.shards).into_shards();
    let engine = engines.remove(args.index);
    let builder = ShardServer::new(engine, args.index as u32, args.shards as u32);
    let (server, scrape) = match &args.obs_addr {
        Some(addr) => {
            let (server, scrape) = builder.launch_observed(addr).unwrap_or_else(|e| {
                eprintln!("failed to launch shard {}: {e}", args.index);
                std::process::exit(1);
            });
            (server, Some(scrape))
        }
        None => {
            let server = builder.launch().unwrap_or_else(|e| {
                eprintln!("failed to launch shard {}: {e}", args.index);
                std::process::exit(1);
            });
            (server, None)
        }
    };
    match &scrape {
        Some(s) => println!(
            "shard {}/{} listening on {} (obs http://{}, kill the process to stop)",
            args.index,
            args.shards,
            server.addr(),
            s.addr()
        ),
        None => println!(
            "shard {}/{} listening on {} (kill the process to stop)",
            args.index,
            args.shards,
            server.addr()
        ),
    }
    loop {
        std::thread::park();
    }
}

fn run_coordinator(
    args: &Args,
    corpus: &Corpus,
    client: &Client,
    manifest: &ShardManifest,
    endpoints: Vec<ShardEndpoint>,
    shard_obs: &[SocketAddr],
) {
    let shard_count = endpoints.len();
    let mut coord = RpcCoordinator::connect(endpoints, manifest, CoordinatorConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("coordinator failed to connect: {e}");
            std::process::exit(1);
        });
    println!("coordinator connected: all {shard_count} hellos matched the manifest pin");
    let scrape = args.obs_addr.as_deref().map(|addr| {
        let scrape = coord.launch_scrape(addr).unwrap_or_else(|e| {
            eprintln!("coordinator failed to bind obs endpoint {addr}: {e}");
            std::process::exit(1);
        });
        println!("coordinator obs on http://{}", scrape.addr());
        scrape
    });

    for q in 0..args.queries {
        let source = ((q * 71 + 13) % args.images) as u64;
        let query = corpus.query_from_image(source, 60, 5000 + q as u64);
        let t = Stopwatch::start();
        let (response, _stats) = coord.query(&query, args.k).unwrap_or_else(|e| {
            eprintln!("query {q} failed: {e}");
            std::process::exit(1);
        });
        let rpc_time = t.elapsed_seconds();
        let t = Stopwatch::start();
        let verified = client
            .verify_sharded(&query, args.k, &response, manifest)
            .expect("honest deployment must verify");
        let verify_time = t.elapsed_seconds();
        let hit = verified.topk.iter().any(|&(id, _)| id == source);
        println!(
            "  query {q}: source {source:>4} {} | rpc {:.0} ms | verify {:.0} ms | VO {} KiB",
            if hit { "FOUND" } else { "miss " },
            rpc_time * 1e3,
            verify_time * 1e3,
            response.vo.wire_size() / 1024,
        );
    }

    // One explicit heartbeat sweep: every shard must report a verified
    // health frame under its manifest-pinned root.
    let states = coord.heartbeat();
    println!(
        "heartbeat sweep: [{}]",
        states
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let stats = coord.stats();
    println!(
        "per-shard RPC round-trip latency (over {} queries):",
        args.queries
    );
    for shard in 0..shard_count {
        let ms = |q: f64| match stats.latency_quantile(shard, q) {
            Some(s) => format!("{:.1}", s * 1e3),
            None => "n/a".to_string(),
        };
        println!(
            "  shard {shard}: p50 {} ms | p95 {} ms | max {} ms",
            ms(0.5),
            ms(0.95),
            ms(1.0),
        );
    }
    let windowed = coord.fleet().windowed_latency();
    let wq = |p: f64| match windowed.quantile(p) {
        Some(us) => format!("{:.1}", us as f64 / 1e3),
        None => "n/a".to_string(),
    };
    println!(
        "windowed RPC latency: p50 {} ms | p90 {} ms | p99 {} ms | SLO burn rate {}",
        wq(0.5),
        wq(0.9),
        wq(0.99),
        match coord.fleet().slo().burn_rate(&windowed) {
            Some(b) => format!("{b:.3}"),
            None => "n/a".to_string(),
        },
    );
    println!("fleet events: {}", coord.fleet().events().counts_json());
    println!("failovers: {}", stats.failovers);

    // Self-scrape smoke: when an obs endpoint is up, scrape ourselves and
    // every known shard endpoint the way an external monitor would, and
    // only claim success if the whole fleet answers healthy.
    if let Some(scrape) = &scrape {
        let all_healthy = states
            .iter()
            .all(|s| *s == imageproof_core::rpc::ShardHealthState::Healthy);
        obs_smoke(scrape.addr(), shard_obs, all_healthy);
    }
}

/// Scrapes the coordinator's `/healthz` and every shard's `/metrics` over
/// plain HTTP and prints `OBS SMOKE OK` (grep target for CI) only when the
/// whole fleet answers and reports healthy, and every shard's `/metrics`
/// carries its registry's query series.
fn obs_smoke(coordinator: SocketAddr, shard_obs: &[SocketAddr], fleet_healthy: bool) {
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("OBS SMOKE FAILED: {what}: {detail}");
        std::process::exit(1);
    };
    let (status, body) = imageproof_obs::http_get(&coordinator.to_string(), "/healthz", 5.0)
        .unwrap_or_else(|e| fail("coordinator /healthz", &e.to_string()));
    if status != 200 {
        fail("coordinator /healthz", &format!("status {status}"));
    }
    if !body.contains("\"status\": \"healthy\"") {
        fail("coordinator /healthz", &format!("not healthy: {body}"));
    }
    if !fleet_healthy {
        fail("heartbeat sweep", "not every shard reported healthy");
    }
    for (shard, addr) in shard_obs.iter().enumerate() {
        let (status, metrics) = imageproof_obs::http_get(&addr.to_string(), "/metrics", 5.0)
            .unwrap_or_else(|e| fail(&format!("shard {shard} /metrics"), &e.to_string()));
        if status != 200 {
            fail(
                &format!("shard {shard} /metrics"),
                &format!("status {status}"),
            );
        }
        // The shard's own serving counters, and the registry series that
        // reach an operator only through this endpoint.
        for series in [
            "imageproof_shard_queries_served_total",
            "imageproof_sp_queries_total",
        ] {
            if !metrics.contains(series) {
                fail(
                    &format!("shard {shard} /metrics"),
                    &format!("missing {series}"),
                );
            }
        }
    }
    println!("OBS SMOKE OK ({} shard scrape endpoints)", shard_obs.len());
}
