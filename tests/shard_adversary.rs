//! Sharded-serving adversary matrix: every way a malicious SP (who
//! controls *all* shards) can tamper with a sharded response must be
//! detected by `Client::verify_sharded`, each with a distinct error.
//!
//! Attacks covered: shard withholding, shard-id swapping, manifest
//! tampering (wrong root, replayed smaller-deployment manifest),
//! trimming abuse (over-trimmed sub-VOs hiding surviving entries,
//! demote-and-backfill behind a fence, stale fence proofs, inflated
//! contribution counts, impossible claim shapes), shared-section abuse
//! (out-of-range template references, truncated or corrupted digest
//! patches), a forged interior stub of the MRKD VO tree, a sub-VO walked
//! over a tree the owner never committed, tampered winner payloads, and
//! merge manipulation. A reordered-but-genuine response
//! must still verify (Definition 1 is a set property).
//!
//! The wire-level section at the bottom replays the same adversary through
//! the socket RPC path: a man-in-the-middle on a shard link substitutes
//! sub-VOs in flight, spoofs telemetry, and replays captured responses.
//! The RPC layer either surfaces a typed error or delivers bytes that the
//! client's manifest-pinned verification rejects — never a
//! wrong-but-verified result.

mod rpc_util;

use std::sync::OnceLock;

use imageproof_akm::AkmParams;
use imageproof_core::{
    shard_of, BovwVoVariant, Client, ClientError, Owner, Scheme, ShardBovw, ShardManifest, ShardVo,
    ShardedError, ShardedResponse, ShardedSp, ShardedVo,
};
use imageproof_crypto::Digest;
use imageproof_mrkd::VoNode;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

struct Fx {
    corpus: Corpus,
    sp: ShardedSp,
    client: Client,
    manifest: ShardManifest,
    /// Genuine manifest of a 2-shard deployment by the same owner (for the
    /// replay attack).
    manifest_s2: ShardManifest,
    features: Vec<Vec<f32>>,
    k: usize,
    response: ShardedResponse,
    /// A genuine response to a *different* query (for stale-proof replays).
    stale: ShardedResponse,
}

const S: usize = 4;

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images: 60,
            n_latent_words: 60,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let akm = AkmParams {
            n_clusters: 48,
            n_trees: 3,
            max_leaf_size: 2,
            max_checks: 16,
            iterations: 2,
            seed: 7,
        };
        let owner = Owner::new(&[21u8; 32]);
        let system = owner.build_sharded_system(&corpus, &akm, Scheme::ImageProof, S);
        let manifest_s2 = owner
            .build_sharded_system(&corpus, &akm, Scheme::ImageProof, 2)
            .manifest;
        let sp = ShardedSp::new(system.shards);
        let client = Client::new(system.published);
        let manifest = system.manifest;
        let features = corpus.query_from_image(5, 24, 1);
        let k = 2;
        let (response, _) = sp.query(&features, k);
        // The attack matrix needs contributing shards, fence-only trimmed
        // shards, and shared-section patches all present in the fixture.
        assert!(
            response.vo.shards.iter().any(|s| s.contributed > 0),
            "fixture query must have a contributing shard"
        );
        assert!(
            response.vo.shards.iter().any(|s| s.contributed == 0),
            "fixture query must have a fence-only trimmed shard"
        );
        assert!(
            response
                .vo
                .shards
                .iter()
                .any(|s| matches!(s.bovw, ShardBovw::Patched { .. })),
            "fixture response must deduplicate BoVW material into the shared section"
        );
        let stale_features = corpus.query_from_image(33, 24, 2);
        let (stale, _) = sp.query(&stale_features, k);
        Fx {
            corpus,
            sp,
            client,
            manifest,
            manifest_s2,
            features,
            k,
            response,
            stale,
        }
    })
}

fn verify(f: &Fx, response: &ShardedResponse) -> Result<(), ShardedError> {
    f.client
        .verify_sharded(&f.features, f.k, response, &f.manifest)
        .map(|_| ())
}

/// Index of the first sub-VO claiming at least one contribution.
fn contributing_index(vo: &ShardedVo) -> usize {
    vo.shards
        .iter()
        .position(|s| s.contributed > 0)
        .expect("fixture has a contributing shard")
}

/// Index of the first fence-only (zero-contribution) sub-VO.
fn trimmed_index(vo: &ShardedVo) -> usize {
    vo.shards
        .iter()
        .position(|s| s.contributed == 0)
        .expect("fixture has a trimmed shard")
}

/// Index of the first sub-VO that patches against the shared section.
fn patched_index(vo: &ShardedVo) -> usize {
    vo.shards
        .iter()
        .position(|s| matches!(s.bovw, ShardBovw::Patched { .. }))
        .expect("fixture has a patched shard")
}

/// Index of the first patched sub-VO carrying a non-empty digest payload
/// (the template-seeding shard ships an empty patch, which has no bytes
/// to corrupt).
fn payload_patched_index(vo: &ShardedVo) -> usize {
    vo.shards
        .iter()
        .position(|s| matches!(&s.bovw, ShardBovw::Patched { unique, .. } if !unique.is_empty()))
        .expect("fixture has a patched shard with a digest payload")
}

/// An honest trimmed sub-VO for one shard, built from a direct per-shard
/// query at `k_local` and labelled with an arbitrary `contributed` count —
/// the raw material for trimming attacks.
fn honest_shard_vo(f: &Fx, shard: u32, k_local: usize, contributed: u32) -> ShardVo {
    let (resp, _) = f.sp.shards()[shard as usize].query(&f.features, k_local);
    ShardVo {
        shard_id: shard,
        contributed,
        claimed: resp.results.iter().map(|r| r.id).collect(),
        bovw: ShardBovw::Inline(resp.vo.bovw),
        inv: resp.vo.inv,
        signatures: resp.vo.signatures,
    }
}

#[test]
fn the_honest_sharded_response_verifies() {
    let f = fx();
    let verified = f
        .client
        .verify_sharded(&f.features, f.k, &f.response, &f.manifest)
        .expect("honest sharded SP must verify");
    assert_eq!(verified.topk.len(), f.k);
    // The query derives from image 5; it must rank in the top-k.
    assert!(verified.topk.iter().any(|&(id, _)| id == 5));
}

#[test]
fn reordered_genuine_results_still_verify() {
    let f = fx();
    let mut tampered = f.response.clone();
    tampered.results.reverse();
    verify(f, &tampered).expect("reordered genuine winner set must verify");
}

#[test]
fn withholding_a_shard_is_detected() {
    let f = fx();
    // Drop a contributing sub-VO entirely.
    let mut tampered = f.response.clone();
    let dropped = tampered
        .vo
        .shards
        .remove(contributing_index(&f.response.vo));
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::ShardMissing {
            shard: dropped.shard_id
        })
    );
    // Same for a fence-only trimmed shard's sub-VO.
    let mut tampered = f.response.clone();
    let dropped = tampered.vo.shards.remove(trimmed_index(&f.response.vo));
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::ShardMissing {
            shard: dropped.shard_id
        })
    );
}

#[test]
fn over_trimming_a_winning_shard_is_detected() {
    // The SP hides a contributing shard's winners by serving an *honest*
    // fence-only sub-VO for it (a genuine local top-1 labelled j = 0).
    // Every piece verifies — but now fewer than k contributions exist, so
    // a verified fence candidate stands next to a free result slot.
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = contributing_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    tampered.vo.shards[idx] = honest_shard_vo(f, shard, 1, 0);
    assert!(
        matches!(
            verify(f, &tampered),
            Err(ShardedError::FenceWithFreeSlot { .. })
        ),
        "over-trimmed winning shard must leave a provably free slot"
    );
}

#[test]
fn demoting_a_winner_and_backfilling_from_another_shard_is_detected() {
    // Full demote-and-backfill: shard X's winners vanish behind an honest
    // fence-only sub-VO while another shard Y inflates its contribution
    // count to keep all k slots filled. Every sub-VO verifies and the
    // contribution counts still sum to k — but the claimed k-th winner is
    // now weaker than some verified fence candidate, so the fence check
    // must fire.
    let f = fx();
    let mut tampered = f.response.clone();
    let xi = contributing_index(&f.response.vo);
    let x = tampered.vo.shards[xi].shard_id;
    let jx = tampered.vo.shards[xi].contributed;
    let yi = (0..tampered.vo.shards.len())
        .find(|&i| i != xi)
        .expect("more than one shard");
    let y = tampered.vo.shards[yi].shard_id;
    let jy = tampered.vo.shards[yi].contributed + jx;
    let k_local = ((jy as usize) + 1).min(f.k);
    tampered.vo.shards[xi] = honest_shard_vo(f, x, 1, 0);
    tampered.vo.shards[yi] = honest_shard_vo(f, y, k_local, jy);
    assert!(
        matches!(
            verify(f, &tampered),
            Err(ShardedError::FenceExceeded { .. })
        ),
        "backfilled k-th winner must lose to a verified fence candidate"
    );
}

#[test]
fn replaying_a_stale_fence_proof_is_detected() {
    // The SP reuses a genuine sub-VO from an earlier, different query as
    // this query's fence proof. The VO authenticates against the shard's
    // committed root, but its revealed search path does not match the
    // current query's traversal, so sub-VO verification rejects it.
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = trimmed_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    let stale_sub = f
        .stale
        .vo
        .shards
        .iter()
        .find(|s| s.shard_id == shard)
        .expect("stale response covers every shard");
    // Resolve against the *stale* shared section so the splice carries a
    // self-contained (inline) proof — the staleness itself must be caught.
    let stale_bovw = stale_sub
        .resolve_bovw(&f.stale.vo.shared)
        .expect("stale sub-VO resolves in its own response")
        .into_owned();
    // Keep the stale sub-VO's own (internally consistent) trim shape —
    // the *staleness*, not the shape, must be what gets rejected.
    let mut spliced = stale_sub.clone();
    spliced.bovw = ShardBovw::Inline(stale_bovw);
    tampered.vo.shards[idx] = spliced;
    match verify(f, &tampered) {
        Err(ShardedError::Shard { shard: s, .. }) => assert_eq!(s, shard),
        other => panic!("stale fence proof not detected: {other:?}"),
    }
}

#[test]
fn inflating_the_contributed_count_is_detected() {
    // A fence-only shard re-labels itself as contributing the full k by
    // shipping an honest local top-k sub-VO. Everything verifies locally,
    // but the contribution counts now sum past k: the merge provably
    // dropped a claimed contribution.
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = trimmed_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    tampered.vo.shards[idx] = honest_shard_vo(f, shard, f.k, f.k as u32);
    assert!(
        matches!(
            verify(f, &tampered),
            Err(ShardedError::ContributionInflated { .. })
        ),
        "inflated contribution counts must be rejected"
    );
}

#[test]
fn swapping_shard_ids_is_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    let a = tampered.vo.shards[0].shard_id;
    let b = tampered.vo.shards[1].shard_id;
    tampered.vo.shards[0].shard_id = b;
    tampered.vo.shards[1].shard_id = a;
    // Coverage still looks complete, but each sub-VO now checks against
    // the other shard's committed root.
    match verify(f, &tampered) {
        Err(ShardedError::Shard {
            error: ClientError::RootSignatureInvalid,
            ..
        }) => {}
        other => panic!("shard-id swap not detected as a root mismatch: {other:?}"),
    }
}

#[test]
fn duplicated_shard_coverage_is_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    let dup = tampered.vo.shards[0].clone();
    let shard = dup.shard_id;
    tampered.vo.shards.push(dup);
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::DuplicateShard { shard })
    );
}

#[test]
fn unknown_shard_ids_are_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    tampered.vo.shards[trimmed_index(&f.response.vo)].shard_id = 99;
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::UnknownShard { shard: 99 })
    );
}

#[test]
fn tampered_manifest_root_is_detected() {
    let f = fx();
    let mut manifest = f.manifest.clone();
    manifest.shard_roots[1].0[0] ^= 1;
    assert!(matches!(
        f.client
            .verify_sharded(&f.features, f.k, &f.response, &manifest),
        Err(ShardedError::ManifestInvalid)
    ));
}

#[test]
fn replayed_smaller_deployment_manifest_is_detected() {
    // The S=2 manifest carries a genuine owner signature, so it passes the
    // signature check — the shard-count binding must reject it.
    let f = fx();
    assert!(f.manifest_s2.verify(&f.client_public_key()));
    assert_eq!(
        f.client
            .verify_sharded(&f.features, f.k, &f.response, &f.manifest_s2)
            .err(),
        Some(ShardedError::ShardCountMismatch {
            manifest: 2,
            vo: S as u32
        })
    );
}

#[test]
fn trimmed_claim_substituting_a_weaker_candidate_is_detected() {
    // Replace a fence-only shard's claimed best with a different image of
    // the same shard: the VO's termination conditions no longer support
    // the claim.
    let f = fx();
    let mut tampered = f.response.clone();
    let sub = &mut tampered.vo.shards[trimmed_index(&f.response.vo)];
    let shard = sub.shard_id;
    let winner = sub.claimed[0];
    let substitute = f
        .corpus
        .images
        .iter()
        .map(|img| img.id)
        .find(|&id| shard_of(id, S) == shard as usize && id != winner)
        .expect("shard has another image");
    sub.claimed[0] = substitute;
    match verify(f, &tampered) {
        Err(ShardedError::Shard {
            shard: s,
            error: ClientError::Inv(_),
        }) => assert_eq!(s, shard),
        other => panic!("tampered trimmed claim not detected: {other:?}"),
    }
}

#[test]
fn truncated_trimmed_claim_is_detected() {
    // An empty claim asserts "this shard has no candidate at all"; with
    // postings remaining, the termination conditions must reject it.
    let f = fx();
    let mut tampered = f.response.clone();
    let sub = &mut tampered.vo.shards[trimmed_index(&f.response.vo)];
    let shard = sub.shard_id;
    sub.claimed.clear();
    sub.signatures.clear();
    match verify(f, &tampered) {
        Err(ShardedError::Shard {
            shard: s,
            error: ClientError::Inv(_),
        }) => assert_eq!(s, shard),
        other => panic!("truncated trimmed claim not detected: {other:?}"),
    }
}

#[test]
fn overlong_trimmed_claim_is_detected() {
    // A fence-only shard (j = 0) may claim at most one entry; a second
    // claimed id makes the trim shape impossible regardless of content.
    let f = fx();
    let mut tampered = f.response.clone();
    let sub = &mut tampered.vo.shards[trimmed_index(&f.response.vo)];
    let shard = sub.shard_id;
    let extra = sub.claimed[0].wrapping_add(1);
    sub.claimed.push(extra);
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::TrimShapeInvalid { shard })
    );
}

#[test]
fn contribution_count_beyond_k_is_detected() {
    // `j > k` is impossible on its face: the merge only has k slots.
    let f = fx();
    let mut tampered = f.response.clone();
    let sub = &mut tampered.vo.shards[0];
    let shard = sub.shard_id;
    sub.contributed = (f.k + 5) as u32;
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::TrimShapeInvalid { shard })
    );
}

#[test]
fn shared_template_index_out_of_range_is_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = patched_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    match &mut tampered.vo.shards[idx].bovw {
        ShardBovw::Patched { template, .. } => *template = 9,
        ShardBovw::Inline(_) => unreachable!("patched_index returned an inline sub-VO"),
    }
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::SharedIndexInvalid { shard, index: 9 })
    );
}

#[test]
fn truncated_shared_patch_payload_is_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = payload_patched_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    match &mut tampered.vo.shards[idx].bovw {
        ShardBovw::Patched { unique, .. } => {
            unique.pop().expect("patch carries digests");
        }
        ShardBovw::Inline(_) => unreachable!("payload_patched_index returned an inline sub-VO"),
    }
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::SharedPatchMismatch { shard })
    );
}

#[test]
fn corrupted_shared_patch_digest_is_detected() {
    // A bit-flipped patch digest still *fits* the template, but the
    // resolved sub-VO no longer authenticates against the shard's
    // committed root (the exact inner error depends on whether the flipped
    // slot was a pruned-subtree digest or a leaf's inverted-list digest).
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = payload_patched_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    match &mut tampered.vo.shards[idx].bovw {
        ShardBovw::Patched { unique, .. } => unique[0].0[0] ^= 1,
        ShardBovw::Inline(_) => unreachable!("payload_patched_index returned an inline sub-VO"),
    }
    match verify(f, &tampered) {
        Err(ShardedError::Shard { shard: s, .. }) => assert_eq!(s, shard),
        other => panic!("corrupted patch digest not detected: {other:?}"),
    }
}

#[test]
fn forged_interior_stub_is_detected() {
    // A pruned stub no query reaches is never walked: a forged one must
    // fail the shard's manifest-committed root instead. (The query is two
    // centroids, threshold 0, so that the walk prunes; the fixture's 24
    // features open the whole tree.) One shard's resolved sub-VO goes back
    // inline with its last stub replaced.
    let f = fx();
    let features = &f.sp.shards()[0].database().codebook.centers[..2];
    let (honest, _) = f.sp.query(features, f.k);
    let verdict = |response: &ShardedResponse| {
        f.client
            .verify_sharded(features, f.k, response, &f.manifest)
            .map(|_| ())
    };
    assert_eq!(verdict(&honest), Ok(()));
    let mut tampered = honest.clone();
    let shard = tampered.vo.shards[0].shard_id;
    let resolved = honest.vo.shards[0].resolve_bovw(&honest.vo.shared);
    let mut forged = resolved.expect("honest sub-VO resolves").into_owned();
    let BovwVoVariant::Shared(vo) = &mut forged else {
        unreachable!("the fixture's scheme shares one BoVW VO");
    };
    let is_stub = |node: &VoNode| matches!(node, VoNode::Pruned(_));
    let at = vo.tree.nodes().iter().rposition(is_stub);
    let at = at.expect("two zero-radius queries leave most of the tree pruned");
    vo.tree = vo.tree.splice(at..at + 1, |b| {
        b.pruned(Digest::of(b"another shard's subtree"));
    });
    tampered.vo.shards[0].bovw = ShardBovw::Inline(forged);
    assert_eq!(
        verdict(&tampered),
        Err(ShardedError::Shard {
            shard,
            error: ClientError::RootSignatureInvalid,
        })
    );
}

#[test]
fn a_sub_vo_over_a_tree_the_owner_never_committed_is_detected() {
    // The owner commits the codebook's one tree. A sub-VO that
    // is the honest walk of any other tree over the same centroids and the
    // same list digests checks out in every respect but the root.
    let f = fx();
    let mut tampered = f.response.clone();
    let idx = patched_index(&f.response.vo);
    let shard = tampered.vo.shards[idx].shard_id;
    let db = f.sp.shards()[shard as usize].database();
    let other = rpc_util::bovw_over_another_tree(db, &f.features);
    tampered.vo.shards[idx].bovw = ShardBovw::Inline(other);
    assert_eq!(
        verify(f, &tampered),
        Err(ShardedError::Shard {
            shard,
            error: ClientError::RootSignatureInvalid,
        })
    );
}

#[test]
fn tampered_winner_payload_is_detected() {
    let f = fx();
    let mut tampered = f.response.clone();
    tampered.results[0].data[0] ^= 1;
    let id = tampered.results[0].id;
    match verify(f, &tampered) {
        Err(ShardedError::Shard {
            error: ClientError::ImageSignatureInvalid { id: bad },
            ..
        }) => assert_eq!(bad, id),
        other => panic!("tampered payload not detected: {other:?}"),
    }
}

#[test]
fn manipulated_merge_is_detected() {
    let f = fx();
    // Dropping a winner row shrinks the result set below the verified merge.
    let mut tampered = f.response.clone();
    tampered.results.pop();
    assert_eq!(verify(f, &tampered), Err(ShardedError::MergeMismatch));

    // Duplicating a winner row keeps the length but corrupts the set.
    let mut tampered = f.response.clone();
    let dup = tampered.results[0].clone();
    tampered.results.pop();
    tampered.results.push(dup);
    assert_eq!(verify(f, &tampered), Err(ShardedError::MergeMismatch));
}

impl Fx {
    fn client_public_key(&self) -> imageproof_crypto::PublicKey {
        // Rebuild the key from the owner seed instead of exposing client
        // internals.
        Owner::new(&[21u8; 32]).public_key()
    }
}

// ---------------------------------------------------------------------------
// Wire-level adversaries: the same attacker, now sitting on a shard's
// socket link instead of inside the SP process.

mod wire_attacks {
    use super::Scheme;
    use crate::rpc_util::{self, Fault, Proxy};
    use imageproof_core::rpc::{frame, Response, RpcCoordinator, RpcError, ShardEndpoint};
    use imageproof_core::ShardedError;
    use imageproof_crypto::wire::Encode;
    use std::sync::{Arc, Mutex};

    /// Connects a coordinator whose shard-0 link runs through `proxy`,
    /// with every other shard reached directly.
    fn connect_with_proxied_shard0(fx: &rpc_util::Fixture, proxy: &Proxy) -> RpcCoordinator {
        let mut endpoints = fx.endpoints.clone();
        endpoints[0] = ShardEndpoint::single(proxy.addr());
        RpcCoordinator::connect(endpoints, &fx.manifest, rpc_util::quick_config())
            .expect("connect through adversarial proxy")
    }

    /// A man-in-the-middle swaps a shard's sub-VO for the shard's genuine
    /// VO *for a different query*, leaving the candidate list (and hence
    /// the merge) untouched. The target is the shard whose full fan-out
    /// response survives assembly verbatim — the one contributing the
    /// k-th winner, which the merge never trims (a trimmed shard's inv
    /// proof would be replaced by the honest trim re-query, voiding the
    /// attack). The RPC layer cannot tell — the frame is well-formed and
    /// correctly addressed — so the substitution must die in
    /// `verify_sharded`: the stale inv VO cannot support this query's
    /// claims against the owner-signed shard root.
    #[test]
    fn in_flight_sub_vo_substitution_is_rejected_by_the_client() {
        let fx = rpc_util::fixture(Scheme::ImageProof, 4);
        let features = fx.corpus().query_from_image(5, 24, 1);
        let stale_features = fx.corpus().query_from_image(33, 24, 2);
        let k = 2;
        let (local, _) = fx.sp.query(&features, k);
        let target = super::shard_of(local.results.last().expect("k winners").id, 4);
        let stale_vo = fx.sp.shards()[target].query(&stale_features, k).0.vo;
        let honest_vo = &fx.sp.shards()[target].query(&features, k).0.vo;
        assert_ne!(
            stale_vo.inv.to_wire(),
            honest_vo.inv.to_wire(),
            "attack setup: the stale inv proof must actually differ"
        );
        let proxy = Proxy::start(
            fx.endpoints[target].primary,
            Fault::MapResponses(Arc::new(move |resp| {
                Some(match resp {
                    Response::Query { id, mut payloads } => {
                        payloads[0].vo = stale_vo.clone();
                        Response::Query { id, payloads }
                    }
                    other => other,
                })
            })),
        );
        let mut endpoints = fx.endpoints.clone();
        endpoints[target] = ShardEndpoint::single(proxy.addr());
        let mut coord = RpcCoordinator::connect(endpoints, &fx.manifest, rpc_util::quick_config())
            .expect("connect through adversarial proxy");
        // Transport-wise the exchange is flawless...
        let (resp, _) = coord
            .query(&features, k)
            .expect("substituted frames are well-formed RPC");
        assert_ne!(
            resp.vo.to_wire(),
            local.vo.to_wire(),
            "attack setup: the substitution must reach the assembled VO"
        );
        // ...but the client holds the owner-signed manifest, and the
        // spliced VO cannot support this query's claims.
        match fx.client.verify_sharded(&features, k, &resp, &fx.manifest) {
            Err(ShardedError::Shard { shard, .. }) => assert_eq!(shard as usize, target),
            other => panic!("in-flight sub-VO substitution survived: {other:?}"),
        }
    }

    /// The adversary injects a telemetry frame for a request id the
    /// coordinator never issued. Telemetry is unauthenticated diagnostics,
    /// so the coordinator's only defence — and the required one — is the
    /// id/solicitation check.
    #[test]
    fn spoofed_telemetry_is_rejected_as_unsolicited() {
        let fx = rpc_util::fixture(Scheme::ImageProof, 1);
        let spoof = Response::Telemetry {
            id: 999,
            profile: imageproof_core::rpc::WireProfile { root: None },
        };
        let proxy = Proxy::start(
            fx.endpoints[0].primary,
            Fault::InjectBeforeResponses(frame(&spoof.to_wire())),
        );
        let mut coord = connect_with_proxied_shard0(&fx, &proxy);
        let features = fx.corpus().query_from_image(5, 20, 1);
        let err = coord.query(&features, 3).expect_err("spoofed telemetry");
        assert_eq!(
            err,
            RpcError::UnsolicitedTelemetry { shard: 0 },
            "got: {err}"
        );
    }

    /// A captured response replayed verbatim for a later request: the
    /// monotonic request ids make every replay a typed mismatch.
    #[test]
    fn replayed_captured_response_is_rejected_by_id() {
        let fx = rpc_util::fixture(Scheme::ImageProof, 1);
        let captured: Arc<Mutex<Option<Response>>> = Arc::new(Mutex::new(None));
        let proxy = Proxy::start(
            fx.endpoints[0].primary,
            Fault::MapResponses(Arc::new(move |resp| {
                Some(match resp {
                    Response::Query { id, payloads } => {
                        let mut slot = captured.lock().expect("capture slot");
                        match slot.take() {
                            // First query response: record and forward.
                            None => {
                                let genuine = Response::Query { id, payloads };
                                *slot = Some(genuine.clone());
                                genuine
                            }
                            // Every later one: replay the capture.
                            Some(replay) => {
                                *slot = Some(replay.clone());
                                replay
                            }
                        }
                    }
                    other => other,
                })
            })),
        );
        let mut coord = connect_with_proxied_shard0(&fx, &proxy);
        let features = fx.corpus().query_from_image(5, 20, 1);
        let (first, _) = coord.query(&features, 3).expect("first query is genuine");
        fx.client
            .verify_sharded(&features, 3, &first, &fx.manifest)
            .expect("genuine first response verifies");
        let err = coord
            .query(&features, 3)
            .expect_err("replayed capture must not satisfy a fresh request");
        assert!(
            matches!(err, RpcError::ResponseIdMismatch { shard: 0, .. }),
            "got: {err}"
        );
    }
}

/// Exhaustiveness reminder: the matrix above exercises ManifestInvalid,
/// ShardCountMismatch, UnknownShard, DuplicateShard, ShardMissing,
/// Shard{RootSignatureInvalid | Inv | ImageSignatureInvalid | stale VO},
/// TrimShapeInvalid (overlong claim and j > k), ContributionInflated,
/// FenceExceeded, FenceWithFreeSlot, SharedIndexInvalid,
/// SharedPatchMismatch, and MergeMismatch. Adding a ShardedError variant
/// makes this match non-exhaustive — extend the attack matrix when that
/// happens.
#[test]
fn the_attack_matrix_tracks_every_error_variant() {
    let probe = |e: &ShardedError| match e {
        ShardedError::ManifestInvalid
        | ShardedError::ShardCountMismatch { .. }
        | ShardedError::UnknownShard { .. }
        | ShardedError::DuplicateShard { .. }
        | ShardedError::ShardMissing { .. }
        | ShardedError::Shard { .. }
        | ShardedError::TrimShapeInvalid { .. }
        | ShardedError::ContributionInflated { .. }
        | ShardedError::FenceExceeded { .. }
        | ShardedError::FenceWithFreeSlot { .. }
        | ShardedError::SharedIndexInvalid { .. }
        | ShardedError::SharedPatchMismatch { .. }
        | ShardedError::DuplicateCandidate { .. }
        | ShardedError::AssignmentMismatch { .. }
        | ShardedError::MergeMismatch => (),
    };
    probe(&ShardedError::MergeMismatch);
}
