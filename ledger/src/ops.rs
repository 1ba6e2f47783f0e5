//! The timed operations and the correctness gate around each of them.
//!
//! One operation is what one closed-loop client does: ask, receive the VO
//! over the wire encoding, verify. A failed check returns `Err` with the
//! reason; the caller counts the operation as failed and keeps no latency
//! sample from it.

use crate::fixture::{Built, InsertInput};
use imageproof_core::rpc::RpcCoordinator;
use imageproof_core::{
    adversary, shard_of, Client, Database, InvVoVariant, QueryResponse, QueryVo, ServiceProvider,
    ShardManifest, ShardedResponse, ShardedVo,
};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::Digest;
use imageproof_obs::Stopwatch;
use imageproof_vision::ImageId;

/// Latency split and VO size of one verified query.
#[derive(Clone, Copy, Debug)]
pub struct QuerySample {
    /// Answer + VO encode + VO decode + verify.
    pub query_s: f64,
    /// Server-side share: answer + VO encode.
    pub sp_s: f64,
    /// Client-side share: VO decode + verify.
    pub verify_s: f64,
    pub vo_bytes: usize,
}

/// What a checked query returns: its sample and the verified top-k.
pub struct Checked {
    pub sample: QuerySample,
    pub topk: Vec<(ImageId, f32)>,
}

fn ids_match(claimed: &[ImageId], verified: &[(ImageId, f32)]) -> Result<(), String> {
    let verified_ids: Vec<ImageId> = verified.iter().map(|&(id, _)| id).collect();
    if claimed == verified_ids.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "verified ids {verified_ids:?} differ from the SP's claimed ids {claimed:?}"
        ))
    }
}

/// One monolith query: `ServiceProvider::query` -> `to_wire` ->
/// `from_wire` -> `Client::verify`, which must accept and return exactly
/// the SP's claimed ids.
pub fn mono_query(
    sp: &ServiceProvider,
    client: &Client,
    features: &[Vec<f32>],
    k: usize,
) -> Result<Checked, String> {
    let sw = Stopwatch::start();
    let (response, _) = sp.query(features, k);
    let bytes = response.vo.to_wire();
    let sp_s = sw.elapsed_seconds();
    let vo = QueryVo::from_wire(&bytes).map_err(|e| format!("VO does not decode: {e}"))?;
    let received = QueryResponse {
        results: response.results,
        vo,
    };
    let verified = client
        .verify(features, k, &received)
        .map_err(|e| format!("client rejected an honest response: {e}"))?;
    let query_s = sw.elapsed_seconds();
    let claimed: Vec<ImageId> = received.results.iter().map(|r| r.id).collect();
    ids_match(&claimed, &verified.topk)?;
    Ok(Checked {
        sample: QuerySample {
            query_s,
            sp_s,
            verify_s: query_s - sp_s,
            vo_bytes: bytes.len(),
        },
        topk: verified.topk,
    })
}

/// One sharded query over sockets: `RpcCoordinator::query` -> `to_wire`
/// -> `from_wire` -> `Client::verify_sharded`. Outside the timed region,
/// the top-k (ids and scores) must equal the monolith `reference`'s, when
/// one is given.
pub fn sharded_query(
    coordinator: &mut RpcCoordinator,
    client: &Client,
    manifest: &ShardManifest,
    reference: Option<&ServiceProvider>,
    features: &[Vec<f32>],
    k: usize,
) -> Result<Checked, String> {
    let sw = Stopwatch::start();
    let (response, _) = coordinator
        .query(features, k)
        .map_err(|e| format!("rpc query failed: {e}"))?;
    let bytes = response.vo.to_wire();
    let sp_s = sw.elapsed_seconds();
    let vo =
        ShardedVo::from_wire(&bytes).map_err(|e| format!("sharded VO does not decode: {e}"))?;
    let received = ShardedResponse {
        results: response.results,
        vo,
    };
    let verified = client
        .verify_sharded(features, k, &received, manifest)
        .map_err(|e| format!("client rejected an honest sharded response: {e}"))?;
    let query_s = sw.elapsed_seconds();
    let claimed: Vec<ImageId> = received.results.iter().map(|r| r.id).collect();
    ids_match(&claimed, &verified.topk)?;
    if let Some(reference) = reference {
        let (mono, _) = reference.query(features, k);
        let scored = |results: &[imageproof_core::ImageResult]| -> Vec<(ImageId, u32)> {
            results.iter().map(|r| (r.id, r.score.to_bits())).collect()
        };
        let (sharded_topk, mono_topk) = (scored(&received.results), scored(&mono.results));
        if sharded_topk != mono_topk {
            return Err(format!(
                "sharded top-k {sharded_topk:?} differs from the monolith's {mono_topk:?}"
            ));
        }
    }
    Ok(Checked {
        sample: QuerySample {
            query_s,
            sp_s,
            verify_s: query_s - sp_s,
            vo_bytes: bytes.len(),
        },
        topk: verified.topk,
    })
}

/// Seconds of one owner update cycle and the posting lists it rebuilt.
#[derive(Clone, Copy, Debug)]
pub struct UpdateSample {
    pub insert_s: f64,
    pub remove_s: f64,
    pub lists_touched: usize,
}

impl UpdateSample {
    pub fn total_s(&self) -> f64 {
        self.insert_s + self.remove_s
    }
}

fn roots(dbs: &[Database]) -> Vec<Digest> {
    dbs.iter()
        .map(|db| db.mrkd.combined_root_digest())
        .collect()
}

/// `Owner::insert_image` into the shard that owns the id. A sharded owner
/// must also re-sign the manifest over the new roots; that is part of the
/// update's time. Returns the seconds and the parameters clients now need.
fn timed_insert(
    built: &mut Built,
    input: &InsertInput,
) -> Result<(f64, imageproof_core::PublishedParams), String> {
    let shard = shard_of(input.id, built.dbs.len());
    let sw = Stopwatch::start();
    let mut published = built
        .owner
        .insert_image(
            &mut built.dbs[shard],
            input.id,
            input.data.clone(),
            &input.features,
        )
        .map_err(|e| format!("insert of image {} failed: {e}", input.id))?;
    if built.manifest.is_some() {
        let manifest = built.owner.sign_manifest(roots(&built.dbs));
        published.root_signature = manifest.signature;
        built.manifest = Some(manifest);
    }
    Ok((sw.elapsed_seconds(), published))
}

fn timed_remove(built: &mut Built, id: ImageId) -> Result<f64, String> {
    let shard = shard_of(id, built.dbs.len());
    let sw = Stopwatch::start();
    built
        .owner
        .remove_image(&mut built.dbs[shard], id)
        .map_err(|e| format!("remove of image {id} failed: {e}"))?;
    if built.manifest.is_some() {
        built.manifest = Some(built.owner.sign_manifest(roots(&built.dbs)));
    }
    Ok(sw.elapsed_seconds())
}

/// One insert + remove with no query between: the update probe of the
/// read workloads. The remove must restore the pre-insert roots.
pub fn update_cycle(built: &mut Built, input: &InsertInput) -> Result<UpdateSample, String> {
    let before = roots(&built.dbs);
    let (insert_s, _) = timed_insert(built, input)?;
    if roots(&built.dbs) == before {
        return Err(format!(
            "insert of image {} left every root unchanged",
            input.id
        ));
    }
    let remove_s = timed_remove(built, input.id)?;
    if roots(&built.dbs) != before {
        return Err(format!(
            "remove of image {} did not restore the root",
            input.id
        ));
    }
    Ok(UpdateSample {
        insert_s,
        remove_s,
        // The insert rebuilds each touched list once, the remove once more.
        lists_touched: 2 * input.lists,
    })
}

/// One `owner_update` cycle on a monolith: insert, query the inserted
/// scene, verify against the republished parameters (the inserted id
/// must be in the verified top-k), remove (the root must be restored).
pub fn update_query_cycle(
    built: &mut Built,
    input: &InsertInput,
    query: &[Vec<f32>],
) -> Result<(UpdateSample, QuerySample), String> {
    let before = roots(&built.dbs);
    let (insert_s, published) = timed_insert(built, input)?;
    let db = built
        .dbs
        .pop()
        .ok_or("owner_update needs a monolith database")?;
    let sp = ServiceProvider::new(db);
    let checked = mono_query(&sp, &Client::new(published), query, built.scale.k);
    built.dbs.push(sp.into_database());
    let remove_s = timed_remove(built, input.id)?;
    let checked = checked?;
    if !checked.topk.iter().any(|&(id, _)| id == input.id) {
        return Err(format!(
            "inserted image {} is missing from the verified top-k {:?}",
            input.id, checked.topk
        ));
    }
    if roots(&built.dbs) != before {
        return Err(format!(
            "remove of image {} did not restore the root",
            input.id
        ));
    }
    Ok((
        UpdateSample {
            insert_s,
            remove_s,
            // The insert rebuilds each touched list once, the remove once more.
            lists_touched: 2 * input.lists,
        },
        checked.sample,
    ))
}

fn halve_first_popped_impact(inv: &mut InvVoVariant) -> bool {
    match inv {
        InvVoVariant::Plain(vo) => vo
            .lists
            .iter_mut()
            .find_map(|list| list.popped.first_mut())
            .map(|posting| posting.1 *= 0.5)
            .is_some(),
        InvVoVariant::Grouped(_) => false,
    }
}

/// The tamper probe of the monolith workloads: an honest response with
/// one popped posting's impact changed must be rejected. A "speed-up"
/// that skips a check fails here.
pub fn mono_tamper_probe(
    sp: &ServiceProvider,
    client: &Client,
    features: &[Vec<f32>],
    k: usize,
) -> Result<(), String> {
    let (mut response, _) = sp.query(features, k);
    if !adversary::tamper_posting(&mut response) {
        return Err("tamper probe found no popped posting to change".to_string());
    }
    match client.verify(features, k, &response) {
        Err(_) => Ok(()),
        Ok(_) => Err("client ACCEPTED a response with a tampered posting".to_string()),
    }
}

/// The tamper probe of the sharded workload: the same change inside one
/// shard's sub-VO must be rejected by `verify_sharded`.
pub fn sharded_tamper_probe(
    coordinator: &mut RpcCoordinator,
    client: &Client,
    manifest: &ShardManifest,
    features: &[Vec<f32>],
    k: usize,
) -> Result<(), String> {
    let (mut response, _) = coordinator
        .query(features, k)
        .map_err(|e| format!("rpc query failed: {e}"))?;
    if !response
        .vo
        .shards
        .iter_mut()
        .any(|sub| halve_first_popped_impact(&mut sub.inv))
    {
        return Err("tamper probe found no popped posting in any sub-VO".to_string());
    }
    match client.verify_sharded(features, k, &response, manifest) {
        Err(_) => Ok(()),
        Ok(_) => Err("client ACCEPTED a sharded response with a tampered sub-VO".to_string()),
    }
}
