//! Per-layer attribution from outside: every layer is timed by calling
//! its existing public functions with the inputs the composite call
//! (`ServiceProvider::query`, `Client::verify`) would hand it, and the
//! children are compared with the composite (the closure metrics). No
//! span inside the library is read for a time, except the sharded merge
//! split, which only `ShardedSpStats` exposes.

use crate::fixture::{build_ads, Built};
use crate::tally::{mean, Tally};
use imageproof_akm::SparseBovw;
use imageproof_core::owner::{image_signing_message, root_signing_message};
use imageproof_core::{
    BovwVoVariant, Client, Concurrency, IndexVariant, InvVoVariant, PublishedParams, QueryResponse,
    QueryVo, Scheme, ServiceProvider, ShardManifest, ShardedResponse, ShardedSp, ShardedSpStats,
    ShardedVo, SpStats,
};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::{verify_batch, Digest, PublicKey, Signature, SigningKey};
use imageproof_invindex::grouped::{grouped_search, verify_grouped_topk};
use imageproof_invindex::{inv_search, verify_topk, BoundsMode};
use imageproof_mrkd::{mrkd_search, verify_bovw};
use imageproof_obs::Stopwatch;
use imageproof_vision::ImageId;
use std::hint::black_box;

const US: f64 = 1e6;

/// Children over composite, from the means of the whole pass (a mean of
/// per-query ratios would weight a 5 ms query like a 50 ms one). Near 1
/// the attribution can be trusted; if it drifts, fix the ledger before
/// believing a layer number.
pub fn add_closures(tally: &mut Tally) {
    let of = |name: &str| tally.mean(name, None);
    let sp = (of("akm.assign_us") + of("mrkd.search_us") + of("invindex.search_us"))
        / of("core.sp.query_us");
    let client = (of("mrkd.verify_us") + of("invindex.verify_us") + of("crypto.sig_check_us"))
        / of("core.client.verify_us");
    tally.add("core.sp.closure", sp);
    tally.add("core.client.closure", client);
}

/// SP-side children and composite of one database for one query.
struct SpLayers {
    assign_s: f64,
    mrkd_s: f64,
    inv_s: f64,
    composite_s: f64,
    stats: SpStats,
    response: QueryResponse,
}

/// Runs `call` and returns its output with the seconds it took. The
/// output is handed back alive, for the caller to free outside the timed
/// region.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = black_box(call());
    let seconds = sw.elapsed_seconds();
    (out, seconds)
}

/// The children's outputs stay alive until the last child has run, as the
/// parts of a response do inside the composite. Freeing a multi-megabyte
/// VO tree between children makes the allocator hand the pages back and
/// fault them in again for the next child, which put the children 12-18%
/// above the composite. The composite runs before the children on every
/// other query: whichever runs second finds the caches warm, and
/// alternating keeps that from leaning the closure either way.
fn sp_layers(
    sp: &ServiceProvider,
    features: &[Vec<f32>],
    k: usize,
    composite_first: bool,
) -> SpLayers {
    let db = sp.database();
    assert!(
        db.scheme.shares_nodes() && db.scheme.uses_filters(),
        "the ledger's workloads run the shared-traversal, cuckoo-filtered schemes"
    );
    let mut composite = composite_first.then(|| timed(|| sp.query(features, k)));
    let (assigned, assign_s) = timed(|| {
        features
            .iter()
            .map(|f| db.codebook.assign_with_threshold(f))
            .collect::<Vec<(u32, f32)>>()
    });
    let thresholds: Vec<f32> = assigned.iter().map(|&(_, t)| t).collect();
    let query_bovw = SparseBovw::from_counts(assigned.iter().map(|&(c, _)| (c, 1)));
    let (bovw_out, mrkd_s) = timed(|| mrkd_search(&db.mrkd, features, &thresholds));
    let inv_s = match &db.inv {
        IndexVariant::Plain(index) => {
            let (inv_out, seconds) =
                timed(|| inv_search(index, &query_bovw, k, BoundsMode::CuckooFiltered));
            drop((bovw_out, inv_out));
            seconds
        }
        IndexVariant::Grouped(index) => {
            let (inv_out, seconds) = timed(|| grouped_search(index, &query_bovw, k));
            drop((bovw_out, inv_out));
            seconds
        }
    };
    let ((response, stats), composite_s) = composite
        .take()
        .unwrap_or_else(|| timed(|| sp.query(features, k)));
    SpLayers {
        assign_s,
        mrkd_s,
        inv_s,
        composite_s,
        stats,
        response,
    }
}

/// Client-side children of one (sub-)VO: `verify_bovw`, then
/// `verify_topk` / `verify_grouped_topk` over the digests it
/// authenticated. Returns the seconds of each and the reconstructed root.
fn client_layers(
    scheme: Scheme,
    features: &[Vec<f32>],
    k: usize,
    bovw: &BovwVoVariant,
    inv: &InvVoVariant,
    claimed: &[ImageId],
) -> Result<(f64, f64, Digest), String> {
    let BovwVoVariant::Shared(bovw) = bovw else {
        return Err("per-query BoVW VO in a shared-traversal workload".to_string());
    };
    let (verified, mrkd_s) = timed(|| verify_bovw(bovw, features, scheme.candidate_mode()));
    let verified = verified.map_err(|e| format!("verify_bovw rejected an honest VO: {e}"))?;
    let query_bovw = SparseBovw::from_counts(verified.assignments.iter().map(|&c| (c, 1)));
    let digests = &verified.inv_digests;
    let (topk, inv_s) = match inv {
        InvVoVariant::Plain(vo) => timed(|| {
            verify_topk(
                vo,
                &query_bovw,
                digests,
                claimed,
                k,
                BoundsMode::CuckooFiltered,
            )
        }),
        InvVoVariant::Grouped(vo) => {
            timed(|| verify_grouped_topk(vo, &query_bovw, digests, claimed, k))
        }
    };
    topk.map_err(|e| format!("inverted-index verification rejected an honest VO: {e}"))?;
    Ok((mrkd_s, inv_s, verified.combined_root))
}

/// Seconds to batch-verify the winners' image signatures (Eq. 15).
fn image_signatures_s(
    key: PublicKey,
    items: &[(ImageId, &[u8], Signature)],
) -> Result<f64, String> {
    let (accepted, seconds) = timed(|| {
        let messages: Vec<[u8; 32]> = items
            .iter()
            .map(|&(id, data, _)| image_signing_message(id, data))
            .collect();
        let batch: Vec<(&[u8], PublicKey, Signature)> = messages
            .iter()
            .zip(items)
            .map(|(m, &(_, _, s))| (m.as_slice(), key, s))
            .collect();
        verify_batch(&batch)
    });
    if accepted {
        Ok(seconds)
    } else {
        Err("honest image signatures failed the batch check".to_string())
    }
}

fn add_sp_counts(tally: &mut Tally, stats: &[SpStats], shared_ratio: f64) {
    let sum = |f: fn(&SpStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let popped = sum(|s| s.popped);
    let total = sum(|s| s.total_postings);
    tally.add("mrkd.shared_ratio", shared_ratio);
    tally.add("invindex.popped", popped);
    tally.add(
        "invindex.popped_ratio",
        if total > 0.0 { popped / total } else { 0.0 },
    );
    tally.add("invindex.blocks_skipped", sum(|s| s.blocks_skipped));
    tally.add("invindex.blocks_scanned", sum(|s| s.blocks_scanned));
    tally.add("core.sp.hashes_computed", sum(|s| s.hashes_computed));
    tally.add("core.sp.hashes_cached", sum(|s| s.hashes_cached));
}

fn add_sp_times(tally: &mut Tally, assign_s: f64, mrkd_s: f64, inv_s: f64, composite_s: f64) {
    let children = assign_s + mrkd_s + inv_s;
    tally.add("akm.assign_us", assign_s * US);
    tally.add("mrkd.search_us", mrkd_s * US);
    tally.add("invindex.search_us", inv_s * US);
    tally.add("core.sp.query_us", composite_s * US);
    tally.add("core.sp.self_us", (composite_s - children) * US);
}

fn add_client_times(tally: &mut Tally, mrkd_s: f64, inv_s: f64, sig_s: f64, composite_s: f64) {
    let children = mrkd_s + inv_s + sig_s;
    tally.add("mrkd.verify_us", mrkd_s * US);
    tally.add("invindex.verify_us", inv_s * US);
    tally.add("crypto.sig_check_us", sig_s * US);
    tally.add("core.client.verify_us", composite_s * US);
    tally.add("core.client.self_us", (composite_s - children) * US);
}

/// One monolith query taken apart layer by layer.
pub fn mono_layers(
    sp: &ServiceProvider,
    client: &Client,
    published: &PublishedParams,
    features: &[Vec<f32>],
    k: usize,
    composite_first: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let scheme = sp.database().scheme;
    let SpLayers {
        assign_s,
        mrkd_s,
        inv_s,
        composite_s,
        stats,
        response,
    } = sp_layers(sp, features, k, composite_first);
    add_sp_times(tally, assign_s, mrkd_s, inv_s, composite_s);
    add_sp_counts(tally, &[stats], stats.shared_ratio);
    tally.add("mrkd.vo_bytes", response.vo.bovw.wire_size() as f64);
    tally.add("invindex.vo_bytes", response.vo.inv.wire_size() as f64);

    let (bytes, encode_s) = timed(|| response.vo.to_wire());
    tally.add("crypto.wire_encode_us", encode_s * US);
    let (vo, decode_s) = timed(|| QueryVo::from_wire(&bytes));
    tally.add("crypto.wire_decode_us", decode_s * US);
    let vo = vo.map_err(|e| format!("VO does not decode: {e}"))?;
    let received = QueryResponse {
        results: response.results,
        vo,
    };

    let claimed: Vec<ImageId> = received.results.iter().map(|r| r.id).collect();
    let (mrkd_s, inv_s, root) = client_layers(
        scheme,
        features,
        k,
        &received.vo.bovw,
        &received.vo.inv,
        &claimed,
    )?;
    let (root_signed, root_sig_s) = timed(|| {
        published
            .public_key
            .verify(&root_signing_message(&root), &published.root_signature)
    });
    if !root_signed {
        return Err("reconstructed root does not match the owner's signature".to_string());
    }
    let items: Vec<(ImageId, &[u8], Signature)> = received
        .results
        .iter()
        .zip(&received.vo.signatures)
        .map(|(r, &s)| (r.id, r.data.as_slice(), s))
        .collect();
    let sig_s = root_sig_s + image_signatures_s(published.public_key, &items)?;

    let (verified, verify_s) = timed(|| client.verify(features, k, &received));
    verified.map_err(|e| format!("client rejected an honest response: {e}"))?;
    add_client_times(tally, mrkd_s, inv_s, sig_s, verify_s);
    Ok(())
}

/// The sharded deployment three ways: every shard's engine directly, the
/// in-process fan-out, and the socket coordinator.
pub struct ShardedTrace<'a> {
    pub local: &'a ShardedSp,
    pub coordinator: &'a mut imageproof_core::rpc::RpcCoordinator,
    pub client: &'a Client,
    pub published: &'a PublishedParams,
    pub manifest: &'a ShardManifest,
}

fn add_shard_stats(tally: &mut Tally, stats: &ShardedSpStats) {
    tally.add("core.shard.merge_us", stats.merge_seconds * US);
    tally.add("core.shard.merge_share", stats.merge_share());
    tally.add(
        "core.shard.slowest_shard_us",
        stats.slowest_shard_seconds() * US,
    );
    tally.add("core.shard.trim_queries", stats.trim_queries as f64);
    tally.add("core.shard.trimmed_entries", stats.trimmed_entries as f64);
    tally.add(
        "core.shard.dedup_bytes_saved",
        stats.dedup_bytes_saved as f64,
    );
}

/// One sharded query taken apart. The SP-side children are summed over
/// the shards (the work done); `core.shard.slowest_shard_us` is what the
/// result waits for.
pub fn sharded_layers(
    t: &mut ShardedTrace<'_>,
    features: &[Vec<f32>],
    k: usize,
    composite_first: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let scheme = t.published.scheme;
    let (mut assign_s, mut mrkd_s, mut inv_s, mut composite_s) = (0.0, 0.0, 0.0, 0.0);
    let mut per_shard = Vec::new();
    for sp in t.local.shards() {
        let layers = sp_layers(sp, features, k, composite_first);
        assign_s += layers.assign_s;
        mrkd_s += layers.mrkd_s;
        inv_s += layers.inv_s;
        composite_s += layers.composite_s;
        per_shard.push(layers.stats);
    }
    add_sp_times(tally, assign_s, mrkd_s, inv_s, composite_s);
    tally.add("core.shard.shard_query_us", composite_s * US);
    // Every shard traverses the same forest geometry: the mean is the ratio.
    let shared_ratio = mean(
        &per_shard
            .iter()
            .map(|s| s.shared_ratio)
            .collect::<Vec<f64>>(),
    );
    add_sp_counts(tally, &per_shard, shared_ratio);

    let ((_inproc_response, stats), inproc_s) = timed(|| t.local.query(features, k));
    tally.add("core.shard.inproc_query_us", inproc_s * US);
    add_shard_stats(tally, &stats);

    let (answer, rpc_s) = timed(|| t.coordinator.query(features, k));
    let (response, _) = answer.map_err(|e| format!("rpc query failed: {e}"))?;
    tally.add("core.rpc.query_us", rpc_s * US);
    tally.add("core.rpc.overhead_us", (rpc_s - inproc_s) * US);

    let (bytes, encode_s) = timed(|| response.vo.to_wire());
    tally.add("crypto.wire_encode_us", encode_s * US);
    let (vo, decode_s) = timed(|| ShardedVo::from_wire(&bytes));
    tally.add("crypto.wire_decode_us", decode_s * US);
    let vo = vo.map_err(|e| format!("sharded VO does not decode: {e}"))?;
    let received = ShardedResponse {
        results: response.results,
        vo,
    };
    let vo = &received.vo;
    let bovw_bytes =
        vo.shared.wire_size() + vo.shards.iter().map(|s| s.bovw.wire_size()).sum::<usize>();
    tally.add("mrkd.vo_bytes", bovw_bytes as f64);
    tally.add(
        "invindex.vo_bytes",
        vo.shards.iter().map(|s| s.inv.wire_size()).sum::<usize>() as f64,
    );

    // Resolving a patched sub-VO against the shared section is the shard
    // layer's own work: it shows as `core.client.self_us`, not as mrkd's.
    let (mut mrkd_s, mut inv_s) = (0.0, 0.0);
    for sub in &vo.shards {
        let bovw = sub
            .resolve_bovw(&vo.shared)
            .map_err(|e| format!("shared section does not resolve: {e}"))?;
        let k_trim = (sub.contributed as usize + 1).min(k);
        let (m, i, root) = client_layers(scheme, features, k_trim, &bovw, &sub.inv, &sub.claimed)?;
        if t.manifest.root_of(sub.shard_id) != Some(&root) {
            return Err(format!(
                "shard {} root differs from the manifest",
                sub.shard_id
            ));
        }
        mrkd_s += m;
        inv_s += i;
    }
    let (manifest_signed, manifest_s) = timed(|| t.manifest.verify(&t.published.public_key));
    if !manifest_signed {
        return Err("manifest signature invalid".to_string());
    }
    let mut items: Vec<(ImageId, &[u8], Signature)> = Vec::new();
    for result in &received.results {
        let signature = vo.shards.iter().find_map(|sub| {
            let pos = sub.claimed.iter().position(|&c| c == result.id)?;
            sub.signatures.get(pos).copied()
        });
        let signature = signature.ok_or("a winner has no signature in any sub-VO")?;
        items.push((result.id, result.data.as_slice(), signature));
    }
    let sig_s = manifest_s + image_signatures_s(t.published.public_key, &items)?;

    let (verified, verify_s) =
        timed(|| t.client.verify_sharded(features, k, &received, t.manifest));
    verified.map_err(|e| format!("client rejected an honest sharded response: {e}"))?;
    add_client_times(tally, mrkd_s, inv_s, sig_s, verify_s);
    tally.add("core.shard.verify_us", verify_s * US);
    Ok(())
}

/// Median over `BATCHES` batches of the nanoseconds one call takes.
fn floor_ns(iters: usize, mut call: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..iters {
                call();
            }
            sw.elapsed_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::mid_median(&per_call).unwrap_or(0.0)
}

/// Calibration floors: what the primitives every layer is made of cost
/// on this machine, so a layer's time can be held against hashes x
/// ns/hash or distance evaluations x ns/evaluation.
pub fn calibrate(tally: &mut Tally) {
    let block = vec![0xabu8; 64 * 1024];
    tally.add(
        "crypto.sha3_ns_per_byte",
        floor_ns(40, || {
            black_box(Digest::of(black_box(&block)));
        }) / block.len() as f64,
    );
    // The Merkle-node shape: two child digests in, one digest out.
    let (left, right) = (Digest::of(b"left"), Digest::of(b"right"));
    tally.add(
        "crypto.sha3_ns_per_hash64",
        floor_ns(4000, || {
            black_box(
                Digest::builder()
                    .digest(black_box(&left))
                    .digest(&right)
                    .finish(),
            );
        }),
    );
    let key = SigningKey::from_seed(&[1u8; 32]);
    let public = key.public_key();
    let message = [0x5au8; 32];
    let signature = key.sign(&message);
    tally.add(
        "crypto.ed25519_sign_us",
        floor_ns(40, || {
            black_box(key.sign(black_box(&message)));
        }) / 1e3,
    );
    tally.add(
        "crypto.ed25519_verify_us",
        floor_ns(40, || {
            black_box(public.verify(black_box(&message), &signature));
        }) / 1e3,
    );
    let a: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
    let b: Vec<f32> = (0..64).map(|i| 1.0 - i as f32 / 64.0).collect();
    tally.add(
        "akm.dist_sq_ns",
        floor_ns(200_000, || {
            black_box(imageproof_akm::kernel::dist_sq(
                black_box(&a),
                black_box(&b),
            ));
        }),
    );
    let mut filter = imageproof_cuckoo::CuckooFilter::with_capacity(10_000);
    for item in 0..10_000u64 {
        // A filter sized for its items; a full one would only shorten the probe.
        let _ = filter.insert(item);
    }
    let mut item = 0u64;
    tally.add(
        "cuckoo.lookup_ns",
        floor_ns(200_000, || {
            item = (item + 1) % 20_000;
            black_box(filter.contains(black_box(item)));
        }),
    );
}

/// Serial time over two-thread time of one `query_batch` and of the ADS
/// build. Meaningless on one core; `nproc` is printed beside the result.
pub fn parallel_speedups(
    built: &Built,
    sp: &ServiceProvider,
    queries: &[Vec<Vec<f32>>],
    shards: usize,
    tally: &mut Tally,
) {
    let k = built.scale.k;
    let batch = |conc: Concurrency| {
        let seconds: Vec<f64> = (0..3)
            .map(|_| timed(|| sp.query_batch(queries, k, conc)).1)
            .collect();
        crate::stats::mid_median(&seconds).unwrap_or(0.0)
    };
    tally.add(
        "parallel.batch_speedup_t2",
        batch(Concurrency::serial()) / batch(Concurrency::new(2)),
    );
    let rebuild = |conc: Concurrency| {
        timed(|| {
            build_ads(
                &built.owner,
                &built.corpus,
                &built.codebook,
                &built.encodings,
                built.published.scheme,
                shards,
                conc,
            )
        })
        .1
    };
    tally.add(
        "parallel.build_speedup_t2",
        rebuild(Concurrency::serial()) / rebuild(Concurrency::new(2)),
    );
}
