//! Zero-perturbation proof for the observability layer: with recording
//! enabled vs disabled, every scheme must produce byte-identical
//! wire-serialized VOs and identical top-k results, for both the monolithic
//! SP and the sharded fan-out path (at every fan-out thread count).
//! Observability may only change what is *measured*, never what is
//! *served*.
//!
//! The whole matrix lives in one `#[test]` because the enable flag is a
//! process-wide global — toggling it from concurrently running tests
//! would race the flag itself (the VO bytes are unaffected either way,
//! but the span/seconds assertions would become flaky).
//!
//! The socket section extends the proof to the RPC deployment: a
//! recording proxy captures every payload frame a shard serves, and the
//! captured *payload bytes* must be identical with recording on and off —
//! telemetry rides a separate sidecar frame that appears only when
//! recording is enabled, never inside the served payload.

mod rpc_util;

use imageproof_core::rpc::{CoordinatorConfig, Response, RpcCoordinator, ShardEndpoint};
use imageproof_suite::akm::{AkmParams, Codebook, SparseBovw};
use imageproof_suite::core::{
    Client, Concurrency, Owner, Scheme, ServiceProvider, ShardedSp, SpStats, SystemConfig,
};
use imageproof_suite::crypto::wire::Encode;
use imageproof_suite::obs;
use imageproof_suite::vision::{Corpus, CorpusConfig, DescriptorKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SHARDS: usize = 3;
const K: usize = 5;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        n_images: 48,
        n_latent_words: 64,
        seed: 0x0B5,
        ..CorpusConfig::small(DescriptorKind::Surf)
    })
}

fn akm() -> AkmParams {
    AkmParams {
        n_clusters: 48,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 12,
        iterations: 1,
        seed: 23,
    }
}

/// Restores the recording flag even if an assertion panics, so one failure
/// cannot cascade into unrelated tests of this binary observing a
/// half-disabled registry.
struct FlagGuard;

impl Drop for FlagGuard {
    fn drop(&mut self) {
        obs::set_enabled(true);
    }
}

#[test]
fn vo_bytes_and_topk_identical_with_obs_on_and_off() {
    let _guard = FlagGuard;
    let corpus = corpus();
    let owner = Owner::new(&[0x51u8; 32]);
    let params = akm();
    let codebook = Codebook::train(corpus.config.kind, corpus.all_features(), &params);
    let encodings: Vec<_> = corpus
        .images
        .iter()
        .map(|img| {
            (
                img.id,
                SparseBovw::encode(&codebook, img.features.iter().map(Vec::as_slice)),
            )
        })
        .collect();
    let features = corpus.query_from_image(11, 20, 0x0DD5);

    for scheme in Scheme::ALL {
        // Builds happen with recording ON; the query path is what the
        // on/off matrix exercises (build determinism is covered by the
        // parallel_equivalence suite).
        let (db, published) = owner.build_system_with_codebook(&corpus, codebook.clone(), scheme);
        let sp = ServiceProvider::new(db);
        let client = Client::new(published);

        let sharded_system = owner.build_sharded_system_prepared_config(
            &corpus,
            codebook.clone(),
            encodings.clone(),
            SystemConfig::new(scheme),
            SHARDS,
        );
        let sharded_sp = ShardedSp::new(sharded_system.shards);
        let sharded_client = Client::new(sharded_system.published);
        let manifest = sharded_system.manifest;

        // Monolithic SP.
        obs::set_enabled(true);
        let (resp_on, stats_on, prof_on) = sp.query_profiled(&features, K);
        obs::set_enabled(false);
        let (resp_off, stats_off, prof_off) = sp.query_profiled(&features, K);
        obs::set_enabled(true);

        assert_eq!(
            resp_on.vo.to_wire(),
            resp_off.vo.to_wire(),
            "{scheme:?}: monolith VO bytes must not depend on obs"
        );
        let ids = |r: &imageproof_suite::core::QueryResponse| -> Vec<u64> {
            r.results.iter().map(|x| x.id).collect()
        };
        assert_eq!(ids(&resp_on), ids(&resp_off), "{scheme:?}: top-k");
        assert_counters_equal(&stats_on, &stats_off, scheme);
        // Seconds are span views: populated when recording, zero when
        // disabled; either way the served bytes above are identical.
        assert!(stats_on.bovw_seconds >= 0.0 && stats_on.inv_seconds >= 0.0);
        assert_eq!(
            stats_off.bovw_seconds, 0.0,
            "{scheme:?}: disabled spans read 0"
        );
        assert_eq!(
            stats_off.inv_seconds, 0.0,
            "{scheme:?}: disabled spans read 0"
        );
        assert!(!prof_on.is_empty(), "{scheme:?}: enabled profile has spans");
        assert!(prof_off.is_empty(), "{scheme:?}: disabled profile is empty");

        // Both responses verify to the same top-k.
        let v_on = client.verify(&features, K, &resp_on).expect("on verifies");
        let v_off = client
            .verify(&features, K, &resp_off)
            .expect("off verifies");
        assert_eq!(v_on.topk, v_off.topk);

        for threads in THREAD_COUNTS {
            let conc = Concurrency::new(threads);

            // Sharded fan-out.
            obs::set_enabled(true);
            let (sresp_on, sstats_on, sprof_on) = sharded_sp.query_profiled(&features, K, conc);
            obs::set_enabled(false);
            let (sresp_off, sstats_off, sprof_off) = sharded_sp.query_profiled(&features, K, conc);
            obs::set_enabled(true);

            assert_eq!(
                sresp_on.vo.to_wire(),
                sresp_off.vo.to_wire(),
                "{scheme:?}/{threads}t: sharded VO bytes must not depend on obs"
            );
            let sids: Vec<u64> = sresp_on.results.iter().map(|x| x.id).collect();
            let sids_off: Vec<u64> = sresp_off.results.iter().map(|x| x.id).collect();
            assert_eq!(sids, sids_off, "{scheme:?}/{threads}t: sharded top-k");
            assert_eq!(sstats_on.trim_queries, sstats_off.trim_queries);
            assert_eq!(sstats_on.trimmed_entries, sstats_off.trimmed_entries);
            assert_eq!(sstats_on.dedup_bytes_saved, sstats_off.dedup_bytes_saved);
            assert_eq!(sstats_on.total_popped(), sstats_off.total_popped());
            assert_eq!(
                sstats_on.total_hashes_computed(),
                sstats_off.total_hashes_computed()
            );
            assert_eq!(sstats_off.merge_seconds, 0.0);
            assert_eq!(sstats_off.wall_seconds, 0.0);
            assert!(!sprof_on.is_empty() && sprof_off.is_empty());

            let sv_on = sharded_client
                .verify_sharded(&features, K, &sresp_on, &manifest)
                .expect("sharded on verifies");
            let sv_off = sharded_client
                .verify_sharded(&features, K, &sresp_off, &manifest)
                .expect("sharded off verifies");
            assert_eq!(sv_on.topk, sv_off.topk);

            // The sharded top-k equals the monolith's for the same corpus
            // (obs must not perturb the cross-shard merge either).
            assert_eq!(
                sids,
                ids(&resp_on),
                "{scheme:?}/{threads}t: sharded == monolith"
            );
        }

        // --- Socket path: zero wire-byte perturbation over RPC ---
        // Serve an identical build over the socket boundary with a
        // recording proxy in front of shard 0. The proxy captures the
        // *payload* bytes of every Query/Trim frame the shard emits and
        // counts telemetry sidecar frames separately. Toggling recording
        // must leave the payload bytes captured off the wire identical,
        // keep the assembled VO equal to the in-process deployment's
        // bytes, and only add/remove the telemetry sidecar frame.
        let served = owner.build_sharded_system_prepared_config(
            &corpus,
            codebook.clone(),
            encodings.clone(),
            SystemConfig::new(scheme),
            SHARDS,
        );
        let (servers, endpoints) = rpc_util::launch_shards(ShardedSp::new(served.shards));
        let payloads: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let telemetry_frames = Arc::new(AtomicUsize::new(0));
        let (rec, tel) = (Arc::clone(&payloads), Arc::clone(&telemetry_frames));
        let proxy = rpc_util::Proxy::start(
            endpoints[0].primary,
            rpc_util::Fault::MapResponses(Arc::new(move |resp| {
                match &resp {
                    Response::Telemetry { .. } => {
                        tel.fetch_add(1, Ordering::SeqCst);
                    }
                    Response::Query { payloads, .. } => {
                        rec.lock().unwrap().push(payloads[0].to_wire());
                    }
                    Response::Trim { payloads, .. } => {
                        rec.lock().unwrap().push(payloads[0].to_wire());
                    }
                    _ => {}
                }
                Some(resp)
            })),
        );
        let mut wired = endpoints.clone();
        wired[0] = ShardEndpoint::single(proxy.addr());
        let mut coord = RpcCoordinator::connect(wired, &manifest, CoordinatorConfig::default())
            .expect("coordinator connects through recording proxy");

        // Shard 0's `shard.batch` span, as grafted under the coordinator's
        // `fanout` phase from its telemetry frame.
        let shard0_batch = |profile: &obs::QueryProfile| {
            profile.root.as_ref().is_some_and(|root| {
                root.children
                    .iter()
                    .filter(|phase| phase.name == "fanout")
                    .flat_map(|phase| &phase.children)
                    .any(|span| span.name == "shard.batch" && span.counter("shard") == 0)
            })
        };

        obs::set_enabled(true);
        let (rpc_on, _, profile_on) = coord
            .query_profiled(&features, K)
            .expect("socket query, obs on");
        let frames_on = std::mem::take(&mut *payloads.lock().unwrap());
        let sidecars_on = telemetry_frames.load(Ordering::SeqCst);
        assert!(
            sidecars_on >= 1,
            "{scheme:?}: enabled query carries a telemetry sidecar frame"
        );
        assert!(
            shard0_batch(&profile_on),
            "{scheme:?}: shard 0's span profile is grafted when enabled"
        );

        obs::set_enabled(false);
        let (rpc_off, _, profile_off) = coord
            .query_profiled(&features, K)
            .expect("socket query, obs off");
        obs::set_enabled(true);
        assert!(
            !shard0_batch(&profile_off),
            "{scheme:?}: no shard span profile when disabled"
        );
        let frames_off = std::mem::take(&mut *payloads.lock().unwrap());
        assert_eq!(
            telemetry_frames.load(Ordering::SeqCst),
            sidecars_on,
            "{scheme:?}: disabled query must not send a telemetry frame"
        );

        assert!(
            !frames_on.is_empty(),
            "{scheme:?}: proxy captured payload frames"
        );
        assert_eq!(
            frames_on, frames_off,
            "{scheme:?}: payload bytes on the wire must not depend on obs"
        );
        let in_process = sharded_sp.query(&features, K).0.vo.to_wire();
        assert_eq!(
            rpc_on.vo.to_wire(),
            in_process,
            "{scheme:?}: socket VO (obs on) == in-process VO"
        );
        assert_eq!(
            rpc_off.vo.to_wire(),
            in_process,
            "{scheme:?}: socket VO (obs off) == in-process VO"
        );
        sharded_client
            .verify_sharded(&features, K, &rpc_on, &manifest)
            .expect("socket response verifies");
        drop(coord);
        drop(proxy);
        for server in servers {
            server.shutdown();
        }
    }
}

fn assert_counters_equal(on: &SpStats, off: &SpStats, scheme: Scheme) {
    let ctx = format!("{scheme:?}");
    assert_eq!(on.popped, off.popped, "{ctx}: popped");
    assert_eq!(on.total_postings, off.total_postings, "{ctx}: postings");
    assert_eq!(on.hashes_computed, off.hashes_computed, "{ctx}: hashes");
    assert_eq!(on.hashes_cached, off.hashes_cached, "{ctx}: cached");
    assert_eq!(
        on.blocks_skipped, off.blocks_skipped,
        "{ctx}: blocks skipped"
    );
    assert_eq!(
        on.blocks_scanned, off.blocks_scanned,
        "{ctx}: blocks scanned"
    );
    assert_eq!(on.shared_ratio, off.shared_ratio, "{ctx}: shared ratio");
}

// --- satellite: zero-denominator guards on the stats ratios ---

#[test]
fn sp_stats_ratios_guard_zero_denominators() {
    let stats = SpStats::default();
    assert_eq!(stats.popped_ratio(), 0.0);
    assert_eq!(stats.cache_hit_ratio(), 0.0);
    assert_eq!(stats.shared_ratio, 0.0);
}

#[test]
fn sharded_stats_accessors_guard_empty_and_zero() {
    let stats = imageproof_suite::core::ShardedSpStats::default();
    assert_eq!(stats.total_hashes_computed(), 0);
    assert_eq!(stats.total_hashes_cached(), 0);
    assert_eq!(stats.total_popped(), 0);
    assert_eq!(stats.total_postings(), 0);
    assert_eq!(stats.cache_hit_ratio(), 0.0);
    assert_eq!(stats.slowest_shard_seconds(), 0.0);
    assert_eq!(stats.merge_share(), 0.0, "0/0 wall seconds must not be NaN");
}

// --- satellite: the scrape plane is invisible to the served bytes ---

/// Zero-perturbation for the *scrape* plane: the same deployment served
/// with no scrape endpoints vs. with every shard observed, the
/// coordinator's fleet endpoint live, and a monitor hammering `/metrics`
/// and `/healthz` concurrently with the queries must put byte-identical
/// payload frames on the RPC wire and assemble byte-identical VOs. A
/// scrape can never block a query (every scrape answers mid-run) and can
/// never change what is served.
///
/// Runs on one scheme: the full scheme × threads matrix is the main
/// test's job; this one isolates the scrape variable. It deliberately
/// never touches the global recording flag, so it can run concurrently
/// with the matrix test that does.
#[test]
fn scrape_plane_never_blocks_or_perturbs_served_bytes() {
    use std::sync::atomic::AtomicBool;

    const SCHEME: Scheme = Scheme::ImageProof;
    const N_SHARDS: usize = 2;
    const ROUNDS: usize = 2;
    let k = 4;
    let system = rpc_util::build_system(SCHEME, N_SHARDS);
    let client = Client::new(system.published);
    let manifest = system.manifest;
    let in_process = ShardedSp::new(system.shards);
    let features = rpc_util::prepared().corpus.query_from_image(7, 20, 0xA11CE);
    let expected_bytes = in_process.query(&features, k).0.vo.to_wire();

    // One captured run of the deployment: fresh identical build, a
    // recording proxy in front of shard 0, `ROUNDS` identical queries.
    // With `observed` set, every shard gets a scrape endpoint, the
    // coordinator serves its fleet endpoint, and a monitor thread hammers
    // all of them for the whole run.
    let run = |observed: bool| -> Vec<Vec<u8>> {
        let served = ShardedSp::new(rpc_util::build_system(SCHEME, N_SHARDS).shards);
        let engines = served.into_shards();
        let mut servers = Vec::new();
        let mut scrapes = Vec::new();
        let mut endpoints = Vec::new();
        for (shard, engine) in engines.into_iter().enumerate() {
            let builder =
                imageproof_core::rpc::ShardServer::new(engine, shard as u32, N_SHARDS as u32);
            if observed {
                let (server, scrape) = builder
                    .launch_observed("127.0.0.1:0")
                    .expect("launch observed shard server");
                endpoints.push(ShardEndpoint::single(server.addr()));
                servers.push(server);
                scrapes.push(scrape);
            } else {
                let server = builder.launch().expect("launch shard server");
                endpoints.push(ShardEndpoint::single(server.addr()));
                servers.push(server);
            }
        }
        let payloads: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = Arc::clone(&payloads);
        let proxy = rpc_util::Proxy::start(
            endpoints[0].primary,
            rpc_util::Fault::MapResponses(Arc::new(move |resp| {
                match &resp {
                    Response::Query { payloads, .. } => {
                        rec.lock().unwrap().push(payloads[0].to_wire())
                    }
                    Response::Trim { payloads, .. } => {
                        rec.lock().unwrap().push(payloads[0].to_wire())
                    }
                    _ => {}
                }
                Some(resp)
            })),
        );
        endpoints[0] = ShardEndpoint::single(proxy.addr());
        let mut coord = RpcCoordinator::connect(endpoints, &manifest, CoordinatorConfig::default())
            .expect("coordinator connects");
        let coord_scrape = observed.then(|| {
            coord
                .launch_scrape("127.0.0.1:0")
                .expect("launch coordinator scrape endpoint")
        });

        // The concurrent monitor: loops over every scrape endpoint for
        // the whole query run; each round-trip must answer 200.
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = coord_scrape.as_ref().map(|cs| {
            let mut addrs: Vec<String> = scrapes.iter().map(|s| s.addr().to_string()).collect();
            addrs.push(cs.addr().to_string());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> usize {
                let mut ok = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    for addr in &addrs {
                        for path in ["/metrics", "/healthz"] {
                            let (status, body) = imageproof_suite::obs::http_get(addr, path, 5.0)
                                .expect("mid-run scrape must not fail");
                            assert_eq!(status, 200, "mid-run scrape of {path} must answer");
                            assert!(!body.is_empty());
                            ok += 1;
                        }
                    }
                }
                ok
            })
        });

        for round in 0..ROUNDS {
            let (resp, _) = coord.query(&features, k).expect("scraped query");
            assert_eq!(
                resp.vo.to_wire(),
                expected_bytes,
                "round {round} (observed={observed}): served VO bytes changed"
            );
            client
                .verify_sharded(&features, k, &resp, &manifest)
                .expect("response verifies");
        }

        stop.store(true, Ordering::SeqCst);
        if let Some(handle) = monitor {
            let scrapes_answered = handle.join().expect("monitor thread");
            assert!(
                scrapes_answered > 0,
                "the monitor must have scraped the fleet at least once mid-run"
            );
        }
        // Every shard answered a query round-trip per round, and each one
        // fed the SLO tracker.
        let observed_total = coord.fleet().slo().observed_total();
        assert!(
            observed_total >= (ROUNDS * N_SHARDS) as u64,
            "the SLO tracker saw {observed_total} round-trips, expected at least {}",
            ROUNDS * N_SHARDS
        );
        // After the queries the coordinator's /metrics carries the fleet
        // series the scrape provider injects: each shard's windowed
        // round-trip quantiles, the SLO burn rate and one counter per
        // event kind.
        if let Some(cs) = &coord_scrape {
            let (status, metrics) = obs::http_get(&cs.addr().to_string(), "/metrics", 5.0)
                .expect("scrape coordinator /metrics");
            assert_eq!(status, 200, "coordinator /metrics must answer");
            let has = |series: &str| {
                metrics.lines().any(|line| {
                    line.strip_prefix(series)
                        .is_some_and(|v| v.starts_with(' '))
                })
            };
            let mut expected = vec!["imageproof_slo_burn_rate_milli".to_string()];
            for shard in 0..N_SHARDS {
                for q in ["p50", "p90", "p99"] {
                    expected.push(format!(
                        "imageproof_rpc_windowed_latency_micros{{quantile=\"{q}\",shard=\"{shard}\"}}"
                    ));
                }
            }
            for kind in obs::EVENT_KINDS {
                expected.push(format!(
                    "imageproof_fleet_events_total{{kind=\"{}\"}}",
                    kind.name()
                ));
            }
            for series in &expected {
                assert!(
                    has(series),
                    "coordinator /metrics lacks {series}:\n{metrics}"
                );
            }
        }
        drop(coord_scrape);
        drop(coord);
        drop(proxy);
        for scrape in scrapes {
            scrape.shutdown();
        }
        for server in servers {
            server.shutdown();
        }
        // Telemetry sidecars (if the concurrently running matrix test has
        // recording enabled) were never pushed: only payload frames count.
        let frames = payloads.lock().unwrap().clone();
        frames
    };

    let frames_unobserved = run(false);
    let frames_observed = run(true);
    assert!(
        !frames_unobserved.is_empty(),
        "the proxy must capture payload frames"
    );
    assert_eq!(
        frames_unobserved, frames_observed,
        "payload bytes on the wire must not depend on the scrape plane"
    );
}
