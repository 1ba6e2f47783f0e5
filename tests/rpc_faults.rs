//! Fault-injection suite for the socket RPC layer.
//!
//! A byte-mangling proxy (see `rpc_util::Proxy`) sits between the
//! coordinator and a shard server and injects transport faults: partial
//! writes, mid-frame connection resets, stalled shards, duplicated and
//! rewritten response frames, and hostile length prefixes. The contract
//! under test is the module's robustness claim: every fault surfaces as
//! exactly one typed `RpcError` **or** as a successful failover to a
//! manifest-pinned replica — never a panic, and never a response that
//! differs from the in-process deployment's bytes.

mod rpc_util;

use imageproof_core::rpc::{CoordinatorConfig, Response, RpcCoordinator, RpcError, ShardEndpoint};
use imageproof_core::Scheme;
use imageproof_crypto::wire::Encode;
use rpc_util::{fixture, quick_config, Fault, Proxy};
use std::sync::Arc;

/// Connects a coordinator whose single shard is reached through `proxy`.
fn connect_via_proxy(
    fx: &rpc_util::Fixture,
    proxy: &Proxy,
    config: CoordinatorConfig,
) -> Result<RpcCoordinator, RpcError> {
    assert_eq!(fx.endpoints.len(), 1, "proxy harness is single-shard");
    RpcCoordinator::connect(
        vec![ShardEndpoint::single(proxy.addr())],
        &fx.manifest,
        config,
    )
}

#[test]
fn partial_writes_reassemble_into_identical_bytes() {
    // Worst-case fragmentation: every response byte arrives in its own
    // read. The frame buffer must reassemble the stream into the same
    // bytes the in-process engine produces.
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::Trickle);
    let mut config = quick_config();
    config.request_timeout_seconds = 30.0; // trickling is slow by design
    let mut coord = connect_via_proxy(&fx, &proxy, config).expect("connect through trickle proxy");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let (resp, _) = coord.query(&features, 3).expect("trickled query");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(
        resp.vo.to_wire(),
        local.vo.to_wire(),
        "trickled bytes diverged from in-process bytes"
    );
    fx.client
        .verify_sharded(&features, 3, &resp, &fx.manifest)
        .expect("client verifies trickled response");
    assert_eq!(coord.stats().failovers, 0);
}

#[test]
fn mid_frame_reset_is_a_typed_close_not_a_panic() {
    // Cut the connection 10 bytes into the first response frame. With no
    // replica to fail over to, the close must surface as the typed
    // connection fault that triggered it.
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::ResetAfterResponseBytes(10));
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let err = coord.query(&features, 3).expect_err("mid-frame reset");
    assert!(
        matches!(
            err,
            RpcError::ConnectionClosed { shard: 0 } | RpcError::Io { shard: 0, .. }
        ),
        "expected a typed connection fault, got: {err}"
    );
}

#[test]
fn stalled_shard_times_out_when_no_replica_exists() {
    // The proxy forwards the request but swallows every response byte:
    // the shard looks alive but never answers. The per-shard deadline
    // must convert that into ShardTimeout.
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::StallResponses);
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let err = coord.query(&features, 3).expect_err("stalled shard");
    assert_eq!(err, RpcError::ShardTimeout { shard: 0 }, "got: {err}");
}

#[test]
fn swallowed_request_times_out_too() {
    // Same deadline when the stall is on the request path (the server
    // never even sees the query).
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::StallRequests);
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let err = coord.query(&features, 3).expect_err("swallowed request");
    assert_eq!(err, RpcError::ShardTimeout { shard: 0 }, "got: {err}");
}

#[test]
fn stalled_primary_fails_over_to_replica_with_identical_bytes() {
    // Endpoint chain: stalled proxy first, healthy server as replica. The
    // timeout must trigger exactly one failover — hello re-verified
    // against the manifest pin — and the replayed query must produce the
    // same bytes as the in-process deployment.
    let fx = fixture(Scheme::ImageProof, 1);
    let healthy = fx.endpoints[0].primary;
    let proxy = Proxy::start(healthy, Fault::StallResponses);
    let endpoints = vec![ShardEndpoint::with_replicas(proxy.addr(), vec![healthy])];
    let mut coord =
        RpcCoordinator::connect(endpoints, &fx.manifest, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let (resp, _) = coord.query(&features, 3).expect("failover query");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(
        resp.vo.to_wire(),
        local.vo.to_wire(),
        "failover response diverged from in-process bytes"
    );
    fx.client
        .verify_sharded(&features, 3, &resp, &fx.manifest)
        .expect("client verifies failover response");
    assert_eq!(coord.stats().failovers, 1, "expected exactly one failover");
    // The replica connection keeps serving subsequent queries.
    let follow = fx.corpus().query_from_image(9, 18, 2);
    let (resp2, _) = coord.query(&follow, 3).expect("post-failover query");
    let (local2, _) = fx.sp.query(&follow, 3);
    assert_eq!(resp2.vo.to_wire(), local2.vo.to_wire());
    assert_eq!(coord.stats().failovers, 1, "no further failover expected");
}

#[test]
fn duplicated_response_frame_is_an_id_mismatch_on_the_next_request() {
    // The proxy forwards the first response frame twice. The first query
    // consumes one copy and succeeds; the stale duplicate then collides
    // with the next request's fresh id.
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::DuplicateFirstResponseFrame);
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let (resp, _) = coord.query(&features, 3).expect("first query succeeds");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
    let err = coord
        .query(&features, 3)
        .expect_err("stale duplicate must not satisfy a fresh request");
    assert!(
        matches!(err, RpcError::ResponseIdMismatch { shard: 0, .. }),
        "got: {err}"
    );
}

#[test]
fn rewritten_response_ids_are_rejected_as_replays() {
    // A wire-level adversary re-stamps every response with a different
    // request id (a replay/substitution attempt at the id layer).
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(
        fx.endpoints[0].primary,
        Fault::MapResponses(Arc::new(|resp| {
            Some(match resp {
                Response::Query { id, payloads } => Response::Query {
                    id: id + 1000,
                    payloads,
                },
                other => other,
            })
        })),
    );
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let err = coord.query(&features, 3).expect_err("re-stamped response");
    assert!(
        matches!(
            err,
            RpcError::ResponseIdMismatch {
                shard: 0,
                expected,
                got,
            } if got == expected + 1000
        ),
        "got: {err}"
    );
}

#[test]
fn wrong_payload_count_is_an_unexpected_response() {
    // A shard answering a batch with more (or fewer) payloads than were
    // asked is well-formed on the wire and wrong in shape: the fleet seam
    // refuses it instead of handing the orchestrator a ragged round.
    for extra in [true, false] {
        let fx = fixture(Scheme::ImageProof, 1);
        let proxy = Proxy::start(
            fx.endpoints[0].primary,
            Fault::MapResponses(Arc::new(move |resp| {
                Some(match resp {
                    Response::Query { id, mut payloads } => {
                        if extra {
                            payloads.push(payloads[0].clone());
                        } else {
                            payloads.pop();
                        }
                        Response::Query { id, payloads }
                    }
                    other => other,
                })
            })),
        );
        let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
        let queries = vec![
            fx.corpus().query_from_image(5, 20, 1),
            fx.corpus().query_from_image(9, 18, 2),
        ];
        let err = coord.query_batch(&queries, 3).expect_err("ragged round");
        assert_eq!(err, RpcError::UnexpectedResponse { shard: 0 }, "got: {err}");
    }
}

#[test]
fn finished_connection_threads_are_reaped_while_serving() {
    // A coordinator that keeps re-dialling (or a prober that says hello
    // and hangs up) must not leave one finished-but-unjoined thread per
    // connection behind for the life of the shard process.
    use imageproof_core::rpc::{frame, Request};
    use std::io::{Read, Write};
    let fx = fixture(Scheme::ImageProof, 1);
    let server = &fx.servers[0];
    let hello = frame(&Request::Hello.to_wire());
    let mut most = 0;
    for _ in 0..300 {
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("dial shard");
        stream.write_all(&hello).expect("send hello");
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).expect("hello answer");
        drop(stream);
        most = most.max(server.tracked_connections());
    }
    assert!(
        most < 50,
        "accept loop tracked {most} of 300 finished threads"
    );
    let settle = imageproof_obs::Stopwatch::start();
    while server.tracked_connections() > 0 && settle.elapsed_seconds() < 5.0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(server.tracked_connections(), 0);
}

#[test]
fn hostile_length_prefix_is_refused_before_allocation() {
    // The proxy answers the query with a frame header announcing
    // u32::MAX bytes. The coordinator must refuse it as FrameTooLarge
    // without ever allocating the announced length.
    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::HostileLengthHeader);
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let err = coord.query(&features, 3).expect_err("hostile length");
    assert_eq!(
        err,
        RpcError::FrameTooLarge {
            len: u32::MAX as u64
        },
        "got: {err}"
    );
}

#[test]
fn transparent_proxy_is_invisible() {
    // Control: the proxy with no fault armed changes nothing.
    let fx = fixture(Scheme::OptimizedBoth, 1);
    let proxy = Proxy::start(fx.endpoints[0].primary, Fault::Transparent);
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    let (resp, _) = coord.query(&features, 3).expect("proxied query");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
    assert_eq!(coord.stats().failovers, 0);
}

#[test]
fn swapped_endpoints_fail_the_manifest_pin() {
    // Pointing shard 0's endpoint at shard 1's server: the hello carries
    // the wrong shard id and the wrong pinned root, so connect must
    // reject the deployment outright.
    let fx = fixture(Scheme::ImageProof, 2);
    let swapped = vec![fx.endpoints[1].clone(), fx.endpoints[0].clone()];
    let err = RpcCoordinator::connect(swapped, &fx.manifest, quick_config())
        .err()
        .expect("swapped endpoints must not connect");
    assert!(matches!(err, RpcError::HelloMismatch { .. }), "got: {err}");
}

#[test]
fn endpoint_count_must_cover_the_manifest() {
    let fx = fixture(Scheme::ImageProof, 2);
    let err = RpcCoordinator::connect(vec![fx.endpoints[0].clone()], &fx.manifest, quick_config())
        .err()
        .expect("short endpoint list must not connect");
    assert_eq!(
        err,
        RpcError::EndpointCountMismatch {
            expected: 2,
            got: 1
        },
        "got: {err}"
    );
}

#[test]
fn heartbeat_loss_fails_over_before_any_query_times_out() {
    // Proactive failure detection: with a generous *request* deadline (so
    // a stalled query would block for a long time) but a tight heartbeat
    // deadline, two heartbeat sweeps must walk the state machine
    // healthy → degraded → failed-over-healthy and promote the
    // manifest-pinned replica — all before any query is even issued. The
    // query that follows then completes promptly on the replica with
    // bytes identical to the in-process deployment.
    use imageproof_core::rpc::ShardHealthState;
    use imageproof_obs::EventKind;

    let fx = fixture(Scheme::ImageProof, 1);
    let healthy = fx.endpoints[0].primary;
    let proxy = Proxy::start(healthy, Fault::StallResponses);
    let endpoints = vec![ShardEndpoint::with_replicas(proxy.addr(), vec![healthy])];
    let mut config = quick_config();
    config.request_timeout_seconds = 30.0; // heartbeats must win, not this
    let request_deadline = config.request_timeout_seconds;
    let mut coord = RpcCoordinator::connect(endpoints, &fx.manifest, config).expect("connect");
    assert_eq!(coord.health()[0].state, ShardHealthState::Healthy);

    // Sweep 1: the stalled primary misses its heartbeat — degraded, but
    // the endpoint chain is not walked yet.
    let detect = imageproof_obs::Stopwatch::start();
    assert_eq!(coord.heartbeat(), vec![ShardHealthState::Degraded]);
    assert_eq!(
        coord.stats().failovers,
        0,
        "degraded must not fail over yet"
    );

    // Sweep 2: the second miss crosses failover_after_misses — the
    // replica is promoted (hello re-verified against the manifest pin)
    // and the shard is healthy again.
    assert_eq!(coord.heartbeat(), vec![ShardHealthState::Healthy]);
    assert_eq!(coord.stats().failovers, 1, "expected exactly one failover");
    let detection_seconds = detect.elapsed_seconds();
    assert!(
        detection_seconds < request_deadline / 2.0,
        "heartbeat failover took {detection_seconds:.2}s — not ahead of the \
         {request_deadline:.0}s query deadline"
    );

    // The promoted replica serves the identical bytes, well under the
    // request deadline (nothing is waiting on the stalled primary).
    let features = fx.corpus().query_from_image(5, 20, 1);
    let served = imageproof_obs::Stopwatch::start();
    let (resp, _) = coord.query(&features, 3).expect("post-failover query");
    assert!(
        served.elapsed_seconds() < request_deadline / 2.0,
        "post-failover query still crawled"
    );
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(
        resp.vo.to_wire(),
        local.vo.to_wire(),
        "post-failover response diverged from in-process bytes"
    );
    fx.client
        .verify_sharded(&features, 3, &resp, &fx.manifest)
        .expect("client verifies post-failover response");

    // The event log tells the whole story with typed causes.
    let events = coord.fleet().events();
    assert!(
        events.count(EventKind::Timeout) >= 2,
        "both heartbeat misses must be logged"
    );
    assert_eq!(events.count(EventKind::Failover), 1);
    assert!(
        events.count(EventKind::HealthTransition) >= 2,
        "healthy→degraded and degraded→healthy must both be logged"
    );
    assert!(
        events.count(EventKind::HelloReverify) >= 1,
        "the replica promotion must log its manifest re-verification"
    );
}

#[test]
fn unassignable_query_features_get_an_error_frame_and_the_connection_keeps_serving() {
    // A feature of the wrong width or with NaN coordinates would panic the
    // shard's engine (the k-d descent indexes by split dimension, the
    // distance kernel slices by descriptor width, and NaN assigns no
    // cluster). The server answers that request with an error frame under
    // its id and keeps the connection serving.
    use imageproof_core::rpc::{frame, ErrorClass, FrameBuffer, Request};
    use imageproof_crypto::wire::Decode;
    use std::io::{Read, Write};

    let fx = fixture(Scheme::ImageProof, 1);
    let mut coord = rpc_util::connect(&fx);
    let honest = fx.corpus().query_from_image(5, 20, 1);
    for bad in [vec![0.5f32; 3], vec![0.5f32; 100], vec![f32::NAN; 64]] {
        let mut features = honest.clone();
        features.push(bad);
        let err = coord.query(&features, 3).expect_err("unassignable feature");
        assert!(
            matches!(err, RpcError::Remote { shard: 0, .. }),
            "got: {err}"
        );
    }
    assert_eq!(coord.stats().failovers, 0);
    let (resp, _) = coord
        .query(&honest, 3)
        .expect("honest query, same connection");
    let (local, _) = fx.sp.query(&honest, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
    fx.client
        .verify_sharded(&honest, 3, &resp, &fx.manifest)
        .expect("client verifies");
    coord.heartbeat();
    let report = coord.health()[0].last_report.clone().expect("heartbeat");
    assert_eq!(report.last_error, ErrorClass::Wire);

    // The trim round is checked the same way.
    let mut stream = std::net::TcpStream::connect(fx.endpoints[0].primary).expect("dial shard");
    let mut fb = FrameBuffer::new();
    let mut ask = |request: Request| -> Response {
        stream.write_all(&frame(&request.to_wire())).expect("send");
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = fb.next_frame().expect("frame") {
                return Response::from_wire(&body).expect("response");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "the shard closed the connection");
            fb.extend(&buf[..n]);
        }
    };
    let trim = Request::Trim {
        id: 7,
        items: vec![(2, vec![vec![0.5f32; 3]])],
    };
    assert!(matches!(ask(trim), Response::Error { id: 7, .. }));
    assert!(matches!(
        ask(Request::Health { id: 8 }),
        Response::Health { id: 8, .. }
    ));
}

#[test]
fn a_late_heartbeat_answer_never_reaches_the_next_query() {
    // The shard answers the heartbeat 400 ms late, after its 0.2 s
    // deadline. The miss retires the connection, so the late Health frame
    // dies with it instead of answering the next query's fresh id.
    use imageproof_core::rpc::ShardHealthState;
    use std::time::Duration;

    let fx = fixture(Scheme::ImageProof, 1);
    let proxy = Proxy::start(
        fx.endpoints[0].primary,
        Fault::DelayFirstResponse(Duration::from_millis(400)),
    );
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    assert_eq!(coord.heartbeat(), vec![ShardHealthState::Degraded]);
    std::thread::sleep(Duration::from_millis(600));
    let features = fx.corpus().query_from_image(5, 20, 1);
    let (resp, _) = coord
        .query(&features, 3)
        .expect("query after a late heartbeat answer");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
}

#[test]
fn a_shard_that_comes_back_is_served_again() {
    // The only endpoint disappears and comes back on the same address:
    // the next heartbeat re-dials it (hello re-verified) and the shard
    // serves again, whatever state the misses left it in.
    use imageproof_core::rpc::ShardHealthState;

    let fx = fixture(Scheme::ImageProof, 1);
    let target = fx.endpoints[0].primary;
    let proxy = Proxy::start(target, Fault::Transparent);
    let addr = proxy.addr();
    let mut coord = connect_via_proxy(&fx, &proxy, quick_config()).expect("connect");
    let features = fx.corpus().query_from_image(5, 20, 1);
    coord.query(&features, 3).expect("query before the outage");
    drop(proxy);
    coord
        .query(&features, 3)
        .expect_err("query while the shard is gone");
    let _proxy = Proxy::start_at(addr, target, Fault::Transparent);
    let mut sweeps = Vec::new();
    while sweeps.last() != Some(&vec![ShardHealthState::Healthy]) {
        assert!(sweeps.len() < 5, "never healthy again: {sweeps:?}");
        sweeps.push(coord.heartbeat());
    }
    let (resp, _) = coord.query(&features, 3).expect("query after recovery");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
}

#[test]
fn a_client_input_error_is_not_a_failover() {
    // A malformed query is answered by the shard with an error frame; that
    // is the shard's answer, not a fault of its endpoint, so the
    // coordinator must not walk the chain (here the same server twice).
    use imageproof_obs::EventKind;

    let fx = fixture(Scheme::ImageProof, 1);
    let addr = fx.endpoints[0].primary;
    let endpoints = vec![ShardEndpoint::with_replicas(addr, vec![addr])];
    let mut coord =
        RpcCoordinator::connect(endpoints, &fx.manifest, quick_config()).expect("connect");
    let honest = fx.corpus().query_from_image(5, 20, 1);
    let mut bad = honest.clone();
    bad.push(vec![0.5f32; 3]);
    let err = coord.query(&bad, 3).expect_err("3-float feature");
    assert!(
        matches!(err, RpcError::Remote { shard: 0, .. }),
        "got: {err}"
    );
    assert_eq!(coord.stats().failovers, 0);
    assert_eq!(coord.fleet().events().count(EventKind::Failover), 0);
    let (resp, _) = coord.query(&honest, 3).expect("honest query");
    let (local, _) = fx.sp.query(&honest, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
    assert_eq!(coord.stats().failovers, 0, "served by the primary");
}

#[test]
fn a_heartbeat_sweep_waits_one_deadline_not_one_per_shard() {
    // Both shards stall: their heartbeats run on one exchange loop, so the
    // sweep costs one heartbeat deadline, not two.
    use imageproof_core::rpc::ShardHealthState;

    let fx = fixture(Scheme::ImageProof, 2);
    let proxies: Vec<Proxy> = fx
        .endpoints
        .iter()
        .map(|e| Proxy::start(e.primary, Fault::StallResponses))
        .collect();
    let endpoints = proxies
        .iter()
        .map(|p| ShardEndpoint::single(p.addr()))
        .collect();
    let config = quick_config();
    let mut coord = RpcCoordinator::connect(endpoints, &fx.manifest, config).expect("connect");
    let sweep = imageproof_obs::Stopwatch::start();
    assert_eq!(coord.heartbeat(), vec![ShardHealthState::Degraded; 2]);
    let seconds = sweep.elapsed_seconds();
    assert!(
        seconds < 1.5 * config.heartbeat_timeout_seconds,
        "sweep took {seconds:.3}s"
    );
}
