//! Socket-coordinator vs in-process differential harness.
//!
//! The RPC deployment's claim mirrors the sharded one's: moving the
//! shards behind sockets changes *transport only*. For every scheme and
//! shard count the coordinator must produce the same verified top-k and a
//! byte-identical assembled `ShardedVo` as the in-process `ShardedSp` —
//! the merge/trim/assemble code is literally shared (`core::fanout`), and
//! these tests pin the remaining surface: the wire round-trip of per-shard
//! responses, the trim re-query protocol, and batch multiplexing. (The
//! sharded rows of `wire_golden` pin the same bytes across commits.)

mod rpc_util;

use imageproof_core::{Concurrency, Scheme};
use imageproof_crypto::wire::Encode;
use rpc_util::{connect, fixture};
use std::collections::VecDeque;

#[test]
fn coordinator_matches_in_process_for_every_scheme_and_shard_count() {
    for scheme in Scheme::ALL {
        for &shards in &[1usize, 2, 4, 8] {
            let fx = fixture(scheme, shards);
            let mut coord = connect(&fx);
            for (source, n_features, seed, k) in [(5u64, 24, 1u64, 5usize), (33, 20, 2, 3)] {
                let features = fx.corpus().query_from_image(source, n_features, seed);
                let label = format!("{scheme:?} S={shards} q={source} k={k}");

                let (local_resp, local_stats) = fx.sp.query(&features, k);
                let (rpc_resp, rpc_stats) = coord
                    .query(&features, k)
                    .unwrap_or_else(|e| panic!("{label}: rpc query failed: {e}"));

                // The assembled VO must be byte-identical — not just
                // verifiable, the same bytes the in-process merge built.
                assert_eq!(
                    rpc_resp.vo.to_wire(),
                    local_resp.vo.to_wire(),
                    "{label}: socket VO diverged from in-process VO"
                );
                let rpc_ids: Vec<_> = rpc_resp.results.iter().map(|r| (r.id, r.score)).collect();
                let local_ids: Vec<_> =
                    local_resp.results.iter().map(|r| (r.id, r.score)).collect();
                assert_eq!(rpc_ids, local_ids, "{label}: top-k diverged");
                for (r, l) in rpc_resp.results.iter().zip(&local_resp.results) {
                    assert_eq!(r.data, l.data, "{label}: payload bytes diverged");
                }

                // Deterministic counters survive the wire; span-derived
                // seconds never cross it.
                assert_eq!(
                    rpc_stats.trim_queries, local_stats.trim_queries,
                    "{label}: trim accounting diverged"
                );
                assert_eq!(
                    rpc_stats.trimmed_entries, local_stats.trimmed_entries,
                    "{label}"
                );
                assert_eq!(
                    rpc_stats.dedup_bytes_saved, local_stats.dedup_bytes_saved,
                    "{label}"
                );
                for (r, l) in rpc_stats.per_shard.iter().zip(&local_stats.per_shard) {
                    assert_eq!(r.popped, l.popped, "{label}: per-shard counters diverged");
                    assert_eq!(r.hashes_computed, l.hashes_computed, "{label}");
                    assert_eq!(r.blocks_skipped, l.blocks_skipped, "{label}");
                }

                // The client accepts the socket-served response against
                // the owner-signed manifest.
                let verified = fx
                    .client
                    .verify_sharded(&features, k, &rpc_resp, &fx.manifest)
                    .unwrap_or_else(|e| panic!("{label}: client rejected socket response: {e}"));
                assert_eq!(verified.topk.len(), k.min(verified.topk.len()), "{label}");
            }
            let stats = coord.stats();
            assert_eq!(
                stats.failovers, 0,
                "{scheme:?} S={shards}: phantom failover"
            );
            assert!(
                stats.rpc_seconds.iter().any(|s| !s.is_empty()),
                "{scheme:?} S={shards}: no latency samples recorded"
            );
            for server in fx.servers {
                server.shutdown();
            }
        }
    }
}

#[test]
fn batched_queries_match_single_queries_bit_for_bit() {
    let fx = fixture(Scheme::OptimizedBoth, 4);
    let queries: Vec<Vec<Vec<f32>>> = [(5u64, 24, 1u64), (33, 20, 2), (11, 16, 3)]
        .iter()
        .map(|&(source, n, seed)| fx.corpus().query_from_image(source, n, seed))
        .collect();
    let k = 4;

    let mut coord = connect(&fx);
    let round_trips = |coord: &imageproof_core::rpc::RpcCoordinator| -> Vec<usize> {
        coord
            .stats()
            .rpc_seconds
            .iter()
            .map(VecDeque::len)
            .collect()
    };
    let before = round_trips(&coord);
    let batched = coord.query_batch(&queries, k).expect("batched query");
    // Batching collapses the socket conversation: whatever the batch size,
    // every shard saw exactly one Query round-trip plus at most one Trim
    // round-trip — not one conversation per query.
    let after = round_trips(&coord);
    let mut trim_round_trips = 0;
    for (shard, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(
            (1..=2).contains(&(a - b)),
            "shard {shard}: {} round-trips for one batch",
            a - b
        );
        trim_round_trips += a - b - 1;
    }
    assert!(trim_round_trips > 0, "fixture must exercise the trim round");
    assert_eq!(batched.len(), queries.len());
    for (q, (batch_resp, batch_stats)) in batched.iter().enumerate() {
        // A single query is a batch of one over the same code path, so the
        // comparison that matters is against the in-process engine.
        let (local_resp, local_stats) = fx.sp.query(&queries[q], k);
        assert_eq!(
            batch_resp.vo.to_wire(),
            local_resp.vo.to_wire(),
            "query {q}: batched VO diverged from in-process VO"
        );
        assert_eq!(batch_stats.trim_queries, local_stats.trim_queries, "q{q}");
        // A batch member's timings are the shared rounds plus its own
        // merge — recorded, not zero (obs is on by default).
        assert!(batch_stats.wall_seconds > 0.0, "q{q}: wall_seconds");
        assert!(
            batch_stats.merge_seconds > 0.0 && batch_stats.merge_seconds < batch_stats.wall_seconds,
            "q{q}: merge_seconds {} of wall {}",
            batch_stats.merge_seconds,
            batch_stats.wall_seconds
        );
        fx.client
            .verify_sharded(&queries[q], k, batch_resp, &fx.manifest)
            .unwrap_or_else(|e| panic!("query {q}: client rejected batched response: {e}"));
    }
    // The coordinator records the sharded series itself, one sample per
    // batch member (unlabelled: it never learns its shards' scheme).
    let recorded = imageproof_obs::global()
        .counter("imageproof_sharded_queries_total", &[])
        .get();
    assert!(recorded >= queries.len() as u64, "recorded {recorded}");
    // And the batch of one: same bytes, one Query round-trip per shard.
    let before = round_trips(&coord);
    let (single_resp, _) = coord.query(&queries[0], k).expect("single query");
    assert_eq!(single_resp.vo.to_wire(), batched[0].0.vo.to_wire());
    for (b, a) in before.iter().zip(round_trips(&coord)) {
        assert!((1..=2).contains(&(a - b)));
    }
    let empty: Vec<Vec<Vec<f32>>> = Vec::new();
    assert!(coord
        .query_batch(&empty, k)
        .expect("empty batch")
        .is_empty());
    for server in fx.servers {
        server.shutdown();
    }
}

#[test]
fn replicated_endpoints_serve_identically() {
    // Two full replica sets for the same manifest: the coordinator pinned
    // to (primary, replica) chains serves the same bytes as one pinned to
    // primaries only.
    use imageproof_core::rpc::{RpcCoordinator, ShardEndpoint};
    use imageproof_core::ShardedSp;
    let fx = fixture(Scheme::ImageProof, 2);
    // A third identical build acts as the replica set.
    let replica_system = rpc_util::build_system(Scheme::ImageProof, 2);
    let (replica_servers, replica_endpoints) =
        rpc_util::launch_shards(ShardedSp::new(replica_system.shards));
    let endpoints: Vec<ShardEndpoint> = fx
        .endpoints
        .iter()
        .zip(&replica_endpoints)
        .map(|(p, r)| ShardEndpoint::with_replicas(p.primary, vec![r.primary]))
        .collect();
    let mut coord = RpcCoordinator::connect(endpoints, &fx.manifest, rpc_util::quick_config())
        .expect("connect with replicas");
    let features = fx.corpus().query_from_image(7, 20, 4);
    let (resp, _) = coord.query(&features, 3).expect("replicated query");
    let (local, _) = fx.sp.query(&features, 3);
    assert_eq!(resp.vo.to_wire(), local.vo.to_wire());
    assert_eq!(coord.stats().failovers, 0);
    for server in fx.servers.into_iter().chain(replica_servers) {
        server.shutdown();
    }
}

#[test]
fn thread_concurrency_of_in_process_baseline_is_irrelevant_to_the_wire() {
    // The in-process engine may fan out across threads; the coordinator
    // always matches its serial per-shard path. Sanity-check the baseline
    // assumption the equivalence tests lean on.
    let fx = fixture(Scheme::OptimizedBovw, 2);
    let features = fx.corpus().query_from_image(9, 18, 6);
    let (serial, _, _) = fx.sp.query_profiled(&features, 4, Concurrency::serial());
    let (threaded, _, _) = fx.sp.query_profiled(&features, 4, Concurrency::new(4));
    assert_eq!(serial.vo.to_wire(), threaded.vo.to_wire());
    let mut coord = connect(&fx);
    let (rpc, _) = coord.query(&features, 4).expect("rpc query");
    assert_eq!(rpc.vo.to_wire(), serial.vo.to_wire());
    for server in fx.servers {
        server.shutdown();
    }
}
