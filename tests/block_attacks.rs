//! Block-skip attack matrix: a hostile SP who tampers with the blocked
//! posting-list skip proofs must be caught by `verify_topk`, and each attack
//! must surface as the *specific* error variant that names what broke —
//! soundness claims are only as good as the failure they map to.
//!
//! | attack                               | rejected as            |
//! |--------------------------------------|------------------------|
//! | inflate the fence `block_max`        | `DigestMismatch`       |
//! | stale / substituted fence digest     | `DigestMismatch`       |
//! | reorder popped blocks                | `DigestMismatch`       |
//! | splice to a non-block-sized prefix   | `BlockShapeInvalid`    |
//! | hide a winner inside a skipped block | `Condition1Failed`     |
//!
//! The VO commitments themselves come from an honest `inv_search` run over a
//! deterministic index, so every test starts from a verifying baseline.

use std::collections::BTreeMap;

use imageproof_akm::bovw::ImpactModel;
use imageproof_akm::SparseBovw;
use imageproof_crypto::Digest;
use imageproof_invindex::search::{inv_search, SearchResult};
use imageproof_invindex::{
    verify_topk, BoundsMode, FilterVo, Index, InvVerifyError, InvVoOf, ListVoOf, Posting,
    RemainingVo, BLOCK_SIZE,
};

const N_CLUSTERS: usize = 3;
const K: usize = 5;

/// Deterministic corpus: cluster 0 holds most images (48 postings, 6
/// blocks — not all 60, so its idf weight stays positive), cluster 1 the
/// first 24 (3 blocks), cluster 2 the even ids (30 postings, 4 blocks).
/// Impact variety comes from the count `1 + i % 7`.
fn build_index() -> Index<Posting> {
    let images: Vec<(u64, SparseBovw)> = (0..60u64)
        .map(|i| {
            let mut pairs = Vec::new();
            if i % 5 != 0 {
                pairs.push((0u32, 1 + (i % 7) as u32));
            }
            if i < 24 {
                pairs.push((1, 2 + (i % 3) as u32));
            }
            if i % 2 == 0 {
                pairs.push((2, 1 + (i % 5) as u32));
            }
            (i, SparseBovw::from_counts(pairs))
        })
        .collect();
    let encodings: Vec<SparseBovw> = images.iter().map(|(_, e)| e.clone()).collect();
    let model = ImpactModel::build(N_CLUSTERS, &encodings);
    Index::<Posting>::build(N_CLUSTERS, &images, &model)
}

struct Fixture {
    index: Index<Posting>,
    digests: BTreeMap<u32, Digest>,
    query: SparseBovw,
    honest: SearchResult<Posting>,
    claimed: Vec<u64>,
}

fn fixture() -> Fixture {
    let index = build_index();
    let digests: BTreeMap<u32, Digest> = index
        .list_digests()
        .into_iter()
        .enumerate()
        .map(|(c, d)| (c as u32, d))
        .collect();
    let query = SparseBovw::from_counts([(0u32, 2u32), (1, 1), (2, 1)]);
    let honest = inv_search(&index, &query, K, BoundsMode::CuckooFiltered);
    let claimed: Vec<u64> = honest.topk.iter().map(|&(i, _)| i).collect();
    Fixture {
        index,
        digests,
        query,
        honest,
        claimed,
    }
}

fn verify(fx: &Fixture, vo: &InvVoOf<Posting>, claimed: &[u64]) -> Result<(), InvVerifyError> {
    verify_topk(
        vo,
        &fx.query,
        &fx.digests,
        claimed,
        K,
        BoundsMode::CuckooFiltered,
    )
    .map(|_| ())
}

/// Index of a list whose remaining is a skip proof (panics if the fixture
/// never skips — then the whole feature is untested and should fail loudly).
fn skipped_list(vo: &InvVoOf<Posting>) -> usize {
    vo.lists
        .iter()
        .position(|l| matches!(l.remaining, RemainingVo::Skipped { .. }))
        .expect("fixture must leave at least one list partially scanned")
}

#[test]
fn honest_blocked_vo_verifies() {
    let fx = fixture();
    assert!(verify(&fx, &fx.honest.vo, &fx.claimed).is_ok());
    assert!(
        fx.honest.stats.blocks_skipped > 0,
        "fixture must actually skip blocks, else the attacks are vacuous"
    );
}

#[test]
fn inflated_fence_bound_is_a_digest_mismatch() {
    let fx = fixture();
    let mut vo = fx.honest.vo.clone();
    let i = skipped_list(&vo);
    let cluster = vo.lists[i].cluster;
    match &mut vo.lists[i].remaining {
        RemainingVo::Skipped { max_impact, .. } => *max_impact *= 4.0,
        RemainingVo::Exhausted { .. } => unreachable!(),
    }
    assert_eq!(
        verify(&fx, &vo, &fx.claimed),
        Err(InvVerifyError::DigestMismatch { cluster })
    );
}

#[test]
fn stale_fence_digest_is_a_digest_mismatch() {
    let fx = fixture();
    let mut vo = fx.honest.vo.clone();
    let i = skipped_list(&vo);
    let cluster = vo.lists[i].cluster;
    match &mut vo.lists[i].remaining {
        // An SP replaying a pre-update fence digest (or any digest it
        // likes) changes the pair the last popped block committed, hence
        // the re-sealed list root.
        RemainingVo::Skipped { fence_digest, .. } => *fence_digest = Digest::of(b"stale block"),
        RemainingVo::Exhausted { .. } => unreachable!(),
    }
    assert_eq!(
        verify(&fx, &vo, &fx.claimed),
        Err(InvVerifyError::DigestMismatch { cluster })
    );
}

#[test]
fn reordered_popped_blocks_are_a_digest_mismatch() {
    let fx = fixture();
    let mut vo = fx.honest.vo.clone();
    // Any list with at least two popped blocks will do; the block chain
    // fixes their order even though each block's own contents are intact.
    let i = vo
        .lists
        .iter()
        .position(|l| l.popped.len() >= 2 * BLOCK_SIZE)
        .expect("fixture must pop at least two blocks somewhere");
    let cluster = vo.lists[i].cluster;
    let popped = &mut vo.lists[i].popped;
    let (a, b) = popped.split_at_mut(BLOCK_SIZE);
    a.swap_with_slice(&mut b[..BLOCK_SIZE]);
    assert_eq!(
        verify(&fx, &vo, &fx.claimed),
        Err(InvVerifyError::DigestMismatch { cluster })
    );
}

#[test]
fn spliced_unaligned_prefix_is_a_block_shape_error() {
    let fx = fixture();
    let mut vo = fx.honest.vo.clone();
    let i = skipped_list(&vo);
    let cluster = vo.lists[i].cluster;
    // Splice one genuine posting from the fence block onto the popped
    // prefix, leaving the skip proof in place: the prefix is no longer a
    // whole number of blocks, so no honest block-granular search produced
    // it — rejected on shape before any hashing.
    let donor = fx.index.list(cluster).postings[vo.lists[i].popped.len()];
    vo.lists[i].popped.push(donor);
    assert_eq!(
        verify(&fx, &vo, &fx.claimed),
        Err(InvVerifyError::BlockShapeInvalid { cluster })
    );
}

#[test]
fn winner_hidden_in_skipped_blocks_fails_condition1() {
    let fx = fixture();
    // The strongest form of the attack: the SP re-seals every list at block
    // 0 — commitments all check out (it used the real fence preimages) —
    // and claims the true top-k without disclosing a single posting. Every
    // winner now "lives in a skipped block", and the authenticated fence
    // bounds make the undisclosed mass exceed the k-th score, so the skip
    // test the client re-runs must reject.
    let lists = fx
        .honest
        .vo
        .lists
        .iter()
        .map(|l| {
            let list = fx.index.list(l.cluster);
            let fence = list.blocks()[0];
            ListVoOf::<Posting> {
                cluster: l.cluster,
                weight: l.weight,
                popped: Vec::new(),
                remaining: RemainingVo::Skipped {
                    max_impact: fence.max_impact,
                    fence_digest: fence.digest,
                    filter: FilterVo::Bytes(list.filter.to_bytes()),
                },
            }
        })
        .collect();
    let vo = InvVoOf::<Posting> { lists };
    assert_eq!(
        verify(&fx, &vo, &fx.claimed),
        Err(InvVerifyError::Condition1Failed)
    );
}

/// The skip proof costs one fence pair regardless of how many blocks it
/// covers: a partially-scanned list's VO carries exactly one digest and one
/// bound — never one entry per skipped block — four bytes more than the old
/// per-posting seal's single next-digest.
#[test]
fn skip_proof_is_constant_size_in_skipped_blocks() {
    use imageproof_crypto::wire::Encode;
    let fx = fixture();
    let i = skipped_list(&fx.honest.vo);
    let list = &fx.honest.vo.lists[i];
    let skipped_blocks = fx
        .index
        .list(list.cluster)
        .postings
        .len()
        .div_ceil(BLOCK_SIZE)
        - list.popped.len() / BLOCK_SIZE;
    assert!(skipped_blocks >= 1);
    let overhead = list.remaining.to_wire().len();
    // tag + f32 bound + one digest + varint-length-prefixed filter bytes —
    // independent of `skipped_blocks`.
    let filter_bytes = match &list.remaining {
        RemainingVo::Skipped {
            filter: FilterVo::Bytes(b),
            ..
        } => b.len(),
        _ => unreachable!(),
    };
    // LEB128 length of the filter-length prefix itself.
    let mut len_prefix = 1;
    let mut v = filter_bytes as u64 >> 7;
    while v > 0 {
        len_prefix += 1;
        v >>= 7;
    }
    assert_eq!(overhead, 1 + 4 + 32 + len_prefix + filter_bytes);
}
