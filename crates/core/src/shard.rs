//! Sharded serving: the owner partitions the corpus across independent
//! per-shard ADS sets, commits every shard root in one signed manifest,
//! and the client verifies a cross-shard top-k merge — the §VI bound
//! machinery lifted from "remaining postings" to "remaining shards".
//!
//! Trust model: the SP controls *all* shards, so nothing here assumes
//! honest placement or honest merging. Soundness rests on three facts:
//!
//! 1. Every per-shard sub-VO is a complete monolith-style VO verified
//!    against that shard's root, which the signed [`ShardManifest`]
//!    commits to (a Merkle tree over `h(shard_id ‖ root)` leaves, one
//!    signature for the whole deployment).
//! 2. A shard contributing `j` of the `k` global winners proves exactly
//!    its local top-`min(j+1, k)`: the `j` contributions plus one *fence
//!    candidate* — its `(j+1)`-th best — whose verified score bounds every
//!    entry the trim hid. The client re-derives the merge and checks each
//!    fence loses the merge order `(score desc, id asc)` to the k-th
//!    winner, so nothing behind any fence can displace a winner. A shard
//!    with `j = 0` degenerates to the old excluded-shard k=1 bound; a
//!    shard with `j = k` is untrimmed.
//! 3. Claim sizes are policed structurally: Σ`j` over shards may not
//!    exceed `k` (inflation), a shard claiming fewer than `min(j+1, k)`
//!    entries must prove local exhaustion, and a fence may not coexist
//!    with a free result slot.
//!
//! Sub-VOs additionally deduplicate BoVW/MRKD proof material: all shards
//! traverse the same codebook geometry for one query, so their BoVW VOs
//! differ only in a digest sequence. The response hoists one VO into a
//! [`SharedSection`] template and ships the rest as digest patches —
//! untrusted compression, since every re-instantiated VO must still
//! reproduce its shard's manifest-committed root.
//!
//! Scores are shard-invariant: list weights come from the owner's global
//! impact model and an image's postings live only in its own shard, so a
//! shard computes bit-identical scores to the monolith and the merged
//! top-k equals the monolith top-k exactly, ties included (proven by the
//! `shard_equivalence` suite).

use crate::client::{Client, ClientError};
use crate::scheme::{BovwVoVariant, InvVoVariant};
use crate::sp::ImageResult;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::{Digest, MerkleTree, PublicKey, Signature};
use imageproof_mrkd::{BaselineBovwVo, BovwVo};
use imageproof_obs::{Profiler, QueryProfile};
use imageproof_vision::ImageId;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// The protocol's deterministic partition function: image `id` lives in
/// shard `id mod shard_count`. Fixed protocol-wide so the client can check
/// result placement without any extra proof material.
// audit:allow(panic) the zero divisor is handled by the explicit shard_count == 0 branch
pub fn shard_of(id: ImageId, shard_count: usize) -> usize {
    if shard_count == 0 {
        0
    } else {
        (id % shard_count as u64) as usize
    }
}

/// Manifest leaf: `h("IPSHLEAF" ‖ shard_id ‖ root)` — binds each root to
/// its position, so a shard's sub-VO can never be replayed under another
/// shard id.
pub fn manifest_leaf_digest(shard_id: u32, root: &Digest) -> Digest {
    Digest::builder()
        .bytes(b"IPSHLEAF")
        .u32(shard_id)
        .digest(root)
        .finish()
}

/// Merkle root over the per-shard leaf digests; `None` for zero shards (an
/// empty deployment commits to nothing and can never verify).
pub fn manifest_root(shard_roots: &[Digest]) -> Option<Digest> {
    if shard_roots.is_empty() {
        return None;
    }
    let leaves: Vec<Digest> = shard_roots
        .iter()
        .enumerate()
        .map(|(i, r)| manifest_leaf_digest(i as u32, r))
        .collect();
    Some(MerkleTree::from_leaf_digests(leaves).root())
}

/// The message the manifest signature covers: a domain tag (distinct from
/// the monolith's `IPROOF.1` root messages and from image messages), the
/// manifest Merkle root, and the shard count — so a manifest signed for a
/// smaller deployment can never be replayed against a larger one.
pub fn manifest_signing_message(root: &Digest, shard_count: u32) -> Vec<u8> {
    let mut msg = Vec::with_capacity(44);
    msg.extend_from_slice(b"IPROOF.2");
    msg.extend_from_slice(&root.0);
    msg.extend_from_slice(&shard_count.to_le_bytes());
    msg
}

/// The owner's signed commitment to one sharded deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Combined MRKD root digest of each shard, indexed by shard id.
    pub shard_roots: Vec<Digest>,
    /// Signature over [`manifest_signing_message`].
    pub signature: Signature,
}

impl ShardManifest {
    pub fn shard_count(&self) -> usize {
        self.shard_roots.len()
    }

    /// The committed root of one shard.
    pub fn root_of(&self, shard_id: u32) -> Option<&Digest> {
        self.shard_roots.get(shard_id as usize)
    }

    /// Recomputes the manifest root and checks the owner's signature.
    pub fn verify(&self, public_key: &PublicKey) -> bool {
        match manifest_root(&self.shard_roots) {
            Some(root) => {
                let msg = manifest_signing_message(&root, self.shard_roots.len() as u32);
                public_key.verify(&msg, &self.signature)
            }
            None => false,
        }
    }
}

impl Encode for ShardManifest {
    fn encode(&self, w: &mut Writer) {
        w.seq_of(&self.shard_roots);
        self.signature.encode(w);
    }
}

impl Decode for ShardManifest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardManifest {
            shard_roots: r.seq()?,
            signature: Signature::decode(r)?,
        })
    }
}

/// Collects a BoVW VO variant's shard-varying digests — per VO, the
/// cluster table's inverted-list digests in row order, then the tree's
/// pruned-subtree stubs in node order (per-query VOs concatenate). Everything
/// else in the VO depends only on the query features and the
/// deployment-wide codebook, so two shards' VOs for one query differ in
/// exactly this digest sequence.
pub fn bovw_variant_digests(vo: &BovwVoVariant) -> Vec<Digest> {
    let mut out = Vec::new();
    for v in vos(vo) {
        v.collect_digests(&mut out);
    }
    out
}

/// The BoVW VOs of a variant: the shared one, or one per query vector.
fn vos(vo: &BovwVoVariant) -> &[BovwVo] {
    match vo {
        BovwVoVariant::Shared(v) => std::slice::from_ref(v),
        BovwVoVariant::PerQuery(v) => &v.per_query,
    }
}

/// Re-instantiates `template` with another shard's digest sequence;
/// `None` when the payload does not fill the template's digest slots
/// exactly (a shape mismatch — the patch proves nothing either way until
/// the result reproduces a committed root).
pub fn bovw_variant_with_digests(
    template: &BovwVoVariant,
    digests: &[Digest],
) -> Option<BovwVoVariant> {
    let mut cur = digests.iter();
    let out = match template {
        BovwVoVariant::Shared(v) => BovwVoVariant::Shared(v.with_digests(&mut cur)?),
        BovwVoVariant::PerQuery(v) => {
            let mut per_query = Vec::with_capacity(v.per_query.len());
            for q in &v.per_query {
                per_query.push(q.with_digests(&mut cur)?);
            }
            BovwVoVariant::PerQuery(BaselineBovwVo { per_query })
        }
    };
    cur.next().is_none().then_some(out)
}

/// Whether two shards' BoVW VOs differ in nothing but the digests
/// [`bovw_variant_digests`] lists — so that either is the other with its
/// own digests patched in.
fn same_geometry(a: &BovwVoVariant, b: &BovwVoVariant) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
        && vos(a).len() == vos(b).len()
        && vos(a).iter().zip(vos(b)).all(|(a, b)| a.same_geometry(b))
}

/// Proof material shared by every sub-VO of one response: BoVW/MRKD VO
/// templates (all shards traverse the same codebook geometry for one
/// query, so their VOs differ only in digests). The section is pure
/// transport-level compression — nothing in it is trusted until a
/// re-instantiated VO reproduces a manifest-committed root.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SharedSection {
    pub templates: Vec<BovwVoVariant>,
}

impl Encode for SharedSection {
    fn encode(&self, w: &mut Writer) {
        w.seq_of(&self.templates);
    }
}

impl Decode for SharedSection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SharedSection {
            templates: r.seq()?,
        })
    }
}

const TAG_BOVW_INLINE: u8 = 0;
const TAG_BOVW_PATCHED: u8 = 1;

/// How one shard's BoVW proof material ships.
///
/// A patch stores its digest payload *slot-deduplicated*: the same
/// inverted-list digest re-appears in every per-query VO's cluster table
/// (and equal lists share a digest), so the payload ships each distinct
/// digest once in `unique` plus a compact `slots` map assigning one unique
/// index per template digest slot. An empty patch (`unique` and `slots`
/// both empty) means "the template's embedded digests *are* this shard's"
/// — the shard whose VO seeded the template re-ships nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardBovw {
    /// A complete BoVW VO carried inline (deduplication found no match, or
    /// the deployment is too small for a shared section to pay off).
    Inline(BovwVoVariant),
    /// A reference to [`SharedSection::templates`]`[template]` with this
    /// shard's own digest sequence patched into the template's slots.
    Patched {
        template: u32,
        /// Distinct digests, in first-occurrence order.
        unique: Vec<Digest>,
        /// One index into `unique` per template digest slot, in
        /// [`bovw_variant_digests`] order.
        slots: Vec<u32>,
    },
}

impl Encode for ShardBovw {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardBovw::Inline(vo) => {
                w.u8(TAG_BOVW_INLINE);
                vo.encode(w);
            }
            ShardBovw::Patched {
                template,
                unique,
                slots,
            } => {
                w.u8(TAG_BOVW_PATCHED);
                w.u32(*template);
                w.seq_of(unique);
                w.seq_of(slots);
            }
        }
    }
}

impl Decode for ShardBovw {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_BOVW_INLINE => Ok(ShardBovw::Inline(BovwVoVariant::decode(r)?)),
            TAG_BOVW_PATCHED => Ok(ShardBovw::Patched {
                template: r.u32()?,
                unique: r.seq()?,
                slots: r.seq()?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// One shard's merge-trimmed sub-VO.
///
/// A shard that contributed `j = contributed` entries to the global top-k
/// proves exactly its local top-`k'` for `k' = min(j + 1, k)`: the `j`
/// contributions plus — when the shard has more than `j` entries — one
/// *fence candidate*, its `(j+1)`-th best, whose verified score bounds
/// everything the trim hid. `claimed` order is untrusted (Definition 1 is
/// a set property); the client derives contributions vs. fence by sorting
/// the verified entries under the global merge order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardVo {
    pub shard_id: u32,
    /// Entries this shard claims the global merge consumed (`j`).
    pub contributed: u32,
    /// Local claimed top-`k'` ids: the contributions plus at most one
    /// fence candidate; shorter only when the shard is provably exhausted.
    pub claimed: Vec<ImageId>,
    pub bovw: ShardBovw,
    pub inv: InvVoVariant,
    /// Owner image signatures, one per claimed id.
    pub signatures: Vec<Signature>,
}

impl Encode for ShardVo {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.shard_id);
        w.u32(self.contributed);
        w.seq_of(&self.claimed);
        self.bovw.encode(w);
        self.inv.encode(w);
        w.seq_of(&self.signatures);
    }
}

impl Decode for ShardVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardVo {
            shard_id: r.u32()?,
            contributed: r.u32()?,
            claimed: r.seq()?,
            bovw: ShardBovw::decode(r)?,
            inv: InvVoVariant::decode(r)?,
            signatures: r.seq()?,
        })
    }
}

impl ShardVo {
    /// Resolves this shard's BoVW VO against the response's shared
    /// section: inline VOs verbatim, patched references by re-instantiating
    /// the named template with this shard's digest payload. Resolution is
    /// untrusted — the caller only accepts the result after it reproduces
    /// the shard's manifest-committed root.
    pub fn resolve_bovw<'a>(
        &'a self,
        shared: &'a SharedSection,
    ) -> Result<std::borrow::Cow<'a, BovwVoVariant>, ShardedError> {
        match &self.bovw {
            ShardBovw::Inline(vo) => Ok(std::borrow::Cow::Borrowed(vo)),
            ShardBovw::Patched {
                template,
                unique,
                slots,
            } => {
                let Some(t) = shared.templates.get(*template as usize) else {
                    return Err(ShardedError::SharedIndexInvalid {
                        shard: self.shard_id,
                        index: *template,
                    });
                };
                // Empty patch: the template's embedded digests are this
                // shard's own (the template-seeding shard ships nothing).
                if unique.is_empty() && slots.is_empty() {
                    return Ok(std::borrow::Cow::Borrowed(t));
                }
                let mut digests = Vec::with_capacity(slots.len());
                for &s in slots {
                    match unique.get(s as usize) {
                        Some(d) => digests.push(*d),
                        None => {
                            return Err(ShardedError::SharedPatchMismatch {
                                shard: self.shard_id,
                            })
                        }
                    }
                }
                match bovw_variant_with_digests(t, &digests) {
                    Some(vo) => Ok(std::borrow::Cow::Owned(vo)),
                    None => Err(ShardedError::SharedPatchMismatch {
                        shard: self.shard_id,
                    }),
                }
            }
        }
    }
}

/// Deduplicates identical BoVW/MRKD geometry across sub-VOs: the first
/// inline BoVW VO becomes a response-level template, and every shard whose
/// VO is the template up to its digests ships only the digest patch.
/// Shards with divergent geometry stay inline, and when
/// fewer than two shards patch, the section is dropped entirely (a
/// template plus a single patch saves nothing). Returns the section and
/// the net wire bytes saved.
pub fn dedup_shared_section(shards: &mut [ShardVo]) -> (SharedSection, usize) {
    let template = shards.iter().find_map(|s| match &s.bovw {
        ShardBovw::Inline(v) => Some(v.clone()),
        ShardBovw::Patched { .. } => None,
    });
    let Some(template) = template else {
        return (SharedSection::default(), 0);
    };
    let mut patches: Vec<(usize, Vec<Digest>)> = Vec::new();
    for (i, sub) in shards.iter().enumerate() {
        let ShardBovw::Inline(v) = &sub.bovw else {
            continue;
        };
        if same_geometry(&template, v) {
            patches.push((i, bovw_variant_digests(v)));
        }
    }
    if patches.len() < 2 {
        return (SharedSection::default(), 0);
    }
    let mut saved = 0usize;
    for (i, digests) in patches {
        let Some(sub) = shards.get_mut(i) else {
            continue;
        };
        let patched = if matches!(&sub.bovw, ShardBovw::Inline(v) if *v == template) {
            // This shard seeded the template; its digests already ride in
            // the shared section, so the patch ships nothing at all.
            ShardBovw::Patched {
                template: 0,
                unique: Vec::new(),
                slots: Vec::new(),
            }
        } else {
            // Slot-dedup the payload: one copy of each distinct digest
            // plus a unique-index per template slot. Inverted-list digests
            // recur across per-query VOs, so this is much smaller than the
            // raw digest sequence there.
            let mut index: BTreeMap<Digest, u32> = BTreeMap::new();
            let mut unique: Vec<Digest> = Vec::new();
            let mut slots: Vec<u32> = Vec::with_capacity(digests.len());
            for d in digests {
                let id = *index.entry(d).or_insert_with(|| {
                    unique.push(d);
                    (unique.len() - 1) as u32
                });
                slots.push(id);
            }
            ShardBovw::Patched {
                template: 0,
                unique,
                slots,
            }
        };
        saved += sub.bovw.wire_size().saturating_sub(patched.wire_size());
        sub.bovw = patched;
    }
    let section = SharedSection {
        templates: vec![template],
    };
    let saved = saved.saturating_sub(section.wire_size());
    (section, saved)
}

/// The complete VO of one sharded top-k query: a once-per-response shared
/// section plus one merge-trimmed sub-VO per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedVo {
    /// Shard count the SP served under; must match the manifest.
    pub shard_count: u32,
    /// Deduplicated BoVW/MRKD proof material referenced by index.
    pub shared: SharedSection,
    /// Every shard's trimmed sub-VO, one entry per shard.
    pub shards: Vec<ShardVo>,
}

impl Encode for ShardedVo {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.shard_count);
        self.shared.encode(w);
        w.seq_of(&self.shards);
    }
}

impl Decode for ShardedVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardedVo {
            shard_count: r.u32()?,
            shared: SharedSection::decode(r)?,
            shards: r.seq()?,
        })
    }
}

/// The SP's answer to a sharded top-k query.
#[derive(Clone, Debug)]
pub struct ShardedResponse {
    /// Global winners in merge order, with raw payloads.
    pub results: Vec<ImageResult>,
    pub vo: ShardedVo,
}

/// Why the client rejected a sharded response.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardedError {
    /// The manifest signature (or its root recomputation) failed.
    ManifestInvalid,
    /// The VO's shard count differs from the manifest's (e.g. a replayed
    /// manifest from a smaller deployment of the same owner).
    ShardCountMismatch { manifest: u32, vo: u32 },
    /// A sub-VO names a shard id outside the manifest.
    UnknownShard { shard: u32 },
    /// Two sub-VOs claim the same shard.
    DuplicateShard { shard: u32 },
    /// No sub-VO covers this shard (shard withholding).
    ShardMissing { shard: u32 },
    /// A sub-VO failed monolith verification against its committed root.
    Shard { shard: u32, error: ClientError },
    /// A sub-VO's trim shape is impossible: it claims more contributions
    /// than result slots exist, or more entries than its contribution
    /// count plus one fence admits.
    TrimShapeInvalid { shard: u32 },
    /// The shards together claim more contributions than the merge could
    /// have consumed — `image` is the first provably dropped candidate.
    ContributionInflated { image: ImageId },
    /// A shard's verified fence candidate would beat the claimed global
    /// k-th winner (a surviving entry withheld behind the trim).
    FenceExceeded { shard: u32 },
    /// A shard ships a fence candidate while the claimed result list has a
    /// free slot the candidate should have filled.
    FenceWithFreeSlot { shard: u32 },
    /// A patched sub-VO references a shared-section template index that
    /// does not exist.
    SharedIndexInvalid { shard: u32, index: u32 },
    /// A patched sub-VO's digest payload does not fill its template's
    /// slots exactly.
    SharedPatchMismatch { shard: u32 },
    /// The same image was claimed by more than one shard.
    DuplicateCandidate { image: ImageId },
    /// A winner sits in a shard other than the one [`shard_of`] assigns
    /// it to.
    AssignmentMismatch { image: ImageId },
    /// The returned results differ from the verified cross-shard merge.
    MergeMismatch,
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedError::ManifestInvalid => write!(f, "shard manifest signature invalid"),
            ShardedError::ShardCountMismatch { manifest, vo } => {
                write!(f, "manifest has {manifest} shards but the VO claims {vo}")
            }
            ShardedError::UnknownShard { shard } => {
                write!(f, "sub-VO names unknown shard {shard}")
            }
            ShardedError::DuplicateShard { shard } => {
                write!(f, "shard {shard} covered by more than one sub-VO")
            }
            ShardedError::ShardMissing { shard } => {
                write!(f, "no sub-VO covers shard {shard}")
            }
            ShardedError::Shard { shard, error } => {
                write!(f, "shard {shard} failed verification: {error}")
            }
            ShardedError::TrimShapeInvalid { shard } => {
                write!(
                    f,
                    "trimmed sub-VO of shard {shard} has an impossible claim shape"
                )
            }
            ShardedError::ContributionInflated { image } => {
                write!(
                    f,
                    "shards claim more contributions than result slots (image {image} dropped)"
                )
            }
            ShardedError::FenceExceeded { shard } => {
                write!(f, "shard {shard}'s fence candidate beats the claimed top-k")
            }
            ShardedError::FenceWithFreeSlot { shard } => {
                write!(
                    f,
                    "shard {shard} fences a candidate although a result slot is free"
                )
            }
            ShardedError::SharedIndexInvalid { shard, index } => {
                write!(
                    f,
                    "shard {shard} references missing shared template {index}"
                )
            }
            ShardedError::SharedPatchMismatch { shard } => {
                write!(
                    f,
                    "shard {shard}'s digest patch does not fit its shared template"
                )
            }
            ShardedError::DuplicateCandidate { image } => {
                write!(f, "image {image} claimed by more than one shard")
            }
            ShardedError::AssignmentMismatch { image } => {
                write!(f, "image {image} claimed by a shard it is not assigned to")
            }
            ShardedError::MergeMismatch => {
                write!(f, "returned results differ from the verified merge")
            }
        }
    }
}

impl std::error::Error for ShardedError {}

/// What the monolith verification helper checks the reconstructed MRKD
/// root against: the owner's root signature (monolith deployments) or a
/// root committed by an already-verified [`ShardManifest`].
#[derive(Debug, Clone, Copy)]
pub enum RootExpectation<'a> {
    OwnerSignature,
    Committed(&'a Digest),
}

/// Outcome of verifying one (sub-)VO: the verified local top-k and BoVW
/// assignments, with the client's cost split.
#[derive(Debug, Clone)]
pub struct SubVerify {
    /// `(image id, verified score)` in the claimed order.
    pub topk: Vec<(ImageId, f32)>,
    /// The verified BoVW assignment of each query feature vector.
    pub assignments: Vec<u32>,
    pub bovw_seconds: f64,
    pub inv_seconds: f64,
}

/// A fully verified sharded query result.
#[derive(Debug, Clone)]
pub struct ShardedVerifiedResult {
    /// `(image id, verified score)` in global merge order.
    pub topk: Vec<(ImageId, f32)>,
    /// The verified BoVW assignment of each query feature vector.
    pub assignments: Vec<u32>,
}

/// The global merge order: score descending, ties broken by ascending id —
/// exactly the order the monolith's exhaustive top-k uses, so the sharded
/// winner set (ties included) equals the monolith's.
fn merge_cmp(a: &(u32, ImageId, f32), b: &(u32, ImageId, f32)) -> Ordering {
    b.2.total_cmp(&a.2).then_with(|| a.1.cmp(&b.1))
}

/// True when `(score, id)` would displace the k-th winner under the merge
/// order (equal score with a larger id legitimately loses the merge).
fn beats(score: f32, id: ImageId, kth_score: f32, kth_id: ImageId) -> bool {
    match score.total_cmp(&kth_score) {
        Ordering::Greater => true,
        Ordering::Equal => id < kth_id,
        Ordering::Less => false,
    }
}

impl Client {
    /// Verifies a sharded response end to end: the manifest signature,
    /// shard coverage, every merge-trimmed sub-VO against its committed
    /// root (resolving shared-section references), the contribution-count
    /// and fence-proof checks, the cross-shard merge, and the winners'
    /// image signatures.
    pub fn verify_sharded(
        &self,
        features: &[Vec<f32>],
        k: usize,
        response: &ShardedResponse,
        manifest: &ShardManifest,
    ) -> Result<ShardedVerifiedResult, ShardedError> {
        self.verify_sharded_profiled(features, k, response, manifest)
            .map(|(verified, _)| verified)
    }

    /// [`Client::verify_sharded`] that additionally returns the structured
    /// span profile: phases `manifest`, `shards`, `merge`, `signatures`,
    /// with each sub-VO's `shard.verify` span (tagged by a `shard`
    /// counter) nested under the phase that checked it. The profile is
    /// pure observation: accept/reject is identical whether or not
    /// recording is enabled.
    pub fn verify_sharded_profiled(
        &self,
        features: &[Vec<f32>],
        k: usize,
        response: &ShardedResponse,
        manifest: &ShardManifest,
    ) -> Result<(ShardedVerifiedResult, QueryProfile), ShardedError> {
        let mut prof = Profiler::new("client.verify_sharded");
        prof.enter("manifest");
        if !manifest.verify(&self.params.public_key) {
            return Err(ShardedError::ManifestInvalid);
        }
        let shard_count = manifest.shard_roots.len() as u32;
        let vo = &response.vo;
        if vo.shard_count != shard_count {
            return Err(ShardedError::ShardCountMismatch {
                manifest: shard_count,
                vo: vo.shard_count,
            });
        }

        // Coverage: every shard exactly once.
        let mut covered: Vec<bool> = (0..shard_count).map(|_| false).collect();
        for sub in &vo.shards {
            match covered.get_mut(sub.shard_id as usize) {
                None => {
                    return Err(ShardedError::UnknownShard {
                        shard: sub.shard_id,
                    })
                }
                Some(slot) if *slot => {
                    return Err(ShardedError::DuplicateShard {
                        shard: sub.shard_id,
                    })
                }
                Some(slot) => *slot = true,
            }
        }
        if let Some(missing) = covered.iter().position(|c| !c) {
            return Err(ShardedError::ShardMissing {
                shard: missing as u32,
            });
        }
        prof.exit();

        // Trimmed sub-VOs: each shard claiming j contributions is verified
        // as the true local top-k' for k' = min(j + 1, k) against its
        // committed root. Sorted under the merge order, the first j
        // verified entries are the shard's contributions and an optional
        // (j+1)-th is its fence candidate — the verified upper bound on
        // everything the trim hid. A claim shorter than k' only verifies
        // when the sub-VO proves local exhaustion, so fences cannot be
        // silently omitted.
        prof.enter("shards");
        let mut assignments: Vec<u32> = Vec::new();
        let mut candidates: Vec<(u32, ImageId, f32)> = Vec::new();
        let mut fences: Vec<(u32, ImageId, f32)> = Vec::new();
        let mut seen_images = BTreeSet::new();
        for sub in &vo.shards {
            let j = sub.contributed as usize;
            let k_trim = (j + 1).min(k);
            if j > k || sub.claimed.len() > k_trim {
                return Err(ShardedError::TrimShapeInvalid {
                    shard: sub.shard_id,
                });
            }
            let Some(root) = manifest.root_of(sub.shard_id) else {
                return Err(ShardedError::UnknownShard {
                    shard: sub.shard_id,
                });
            };
            let bovw = sub.resolve_bovw(&vo.shared)?;
            prof.enter("shard.verify");
            prof.add("shard", sub.shard_id as u64);
            let verified = self
                .verify_query_vo(
                    features,
                    k_trim,
                    bovw.as_ref(),
                    &sub.inv,
                    sub.signatures.len(),
                    &sub.claimed,
                    RootExpectation::Committed(root),
                    &mut prof,
                )
                .map_err(|error| ShardedError::Shard {
                    shard: sub.shard_id,
                    error,
                })?;
            prof.exit();
            // The claimed order is untrusted; the shard's true local
            // ranking is the verified set under the global merge order.
            let mut local: Vec<(u32, ImageId, f32)> = verified
                .topk
                .iter()
                .map(|&(id, score)| (sub.shard_id, id, score))
                .collect();
            local.sort_by(merge_cmp);
            for &(_, id, _) in &local {
                if !seen_images.insert(id) {
                    return Err(ShardedError::DuplicateCandidate { image: id });
                }
            }
            if local.len() > j {
                // claimed.len() ≤ j + 1, so at most one verified entry
                // sits past the contributions: the fence candidate.
                if let Some(&fence) = local.last() {
                    fences.push(fence);
                }
                local.truncate(j);
            }
            candidates.extend(local);
            if assignments.is_empty() {
                assignments = verified.assignments;
            }
        }
        prof.exit();

        // Cross-shard merge: the global top-k over every shard's proven
        // contributions, under (score desc, id asc).
        prof.enter("merge");
        candidates.sort_by(merge_cmp);
        // More proven contributions than result slots: some shard inflated
        // its contributed count, because the real merge would have dropped
        // the (k+1)-th ranked candidate.
        if let Some(&(_, image, _)) = candidates.get(k) {
            return Err(ShardedError::ContributionInflated { image });
        }

        // Fence checks: with all k slots filled, no fence candidate may
        // beat the k-th winner; with a free slot, a verified fence
        // candidate is itself a result the SP withheld.
        let kth: Option<(ImageId, f32)> = if candidates.len() == k {
            candidates.last().map(|&(_, id, score)| (id, score))
        } else {
            None
        };
        for &(shard, id, score) in &fences {
            match kth {
                None => return Err(ShardedError::FenceWithFreeSlot { shard }),
                Some((kth_id, kth_score)) => {
                    if beats(score, id, kth_score, kth_id) {
                        return Err(ShardedError::FenceExceeded { shard });
                    }
                }
            }
        }

        // The returned results must be exactly the merged winner set
        // (order-insensitive, like the monolith: scores are re-derived).
        if response.results.len() != candidates.len() {
            return Err(ShardedError::MergeMismatch);
        }
        let mut claimed_ids: Vec<ImageId> = response.results.iter().map(|r| r.id).collect();
        let mut merged_ids: Vec<ImageId> = candidates.iter().map(|&(_, id, _)| id).collect();
        claimed_ids.sort_unstable();
        merged_ids.sort_unstable();
        if claimed_ids != merged_ids {
            return Err(ShardedError::MergeMismatch);
        }

        // Placement: every winner must live in the shard the partition
        // function assigns it to (its sub-VO proved it exists *there*).
        for &(shard, id, _) in &candidates {
            if shard_of(id, shard_count as usize) != shard as usize {
                return Err(ShardedError::AssignmentMismatch { image: id });
            }
        }
        prof.add("winners", candidates.len() as u64);
        prof.exit();

        // Winner image signatures (Eq. 15), read from each winner's
        // sub-VO at its local claimed position and batch-verified.
        prof.enter("signatures");
        let by_shard: BTreeMap<u32, &ShardVo> = vo.shards.iter().map(|s| (s.shard_id, s)).collect();
        let mut items: Vec<(ImageId, &[u8], Signature)> =
            Vec::with_capacity(response.results.len());
        for result in &response.results {
            let shard = shard_of(result.id, shard_count as usize) as u32;
            let signature = by_shard.get(&shard).and_then(|sub| {
                let pos = sub.claimed.iter().position(|&c| c == result.id)?;
                sub.signatures.get(pos)
            });
            let Some(signature) = signature else {
                return Err(ShardedError::AssignmentMismatch { image: result.id });
            };
            items.push((result.id, &result.data, *signature));
        }
        if let Err(error) = self.check_image_signatures(&items) {
            let shard = match &error {
                ClientError::ImageSignatureInvalid { id } => {
                    shard_of(*id, shard_count as usize) as u32
                }
                _ => 0,
            };
            return Err(ShardedError::Shard { shard, error });
        }
        prof.exit();

        if prof.is_recording() {
            let reg = imageproof_obs::global();
            let slug = self.params.scheme.slug();
            reg.counter(
                "imageproof_client_sharded_verifies_total",
                &[("scheme", slug)],
            )
            .inc();
        }
        Ok((
            ShardedVerifiedResult {
                topk: candidates
                    .iter()
                    .map(|&(_, id, score)| (id, score))
                    .collect(),
                assignments,
            },
            prof.finish(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imageproof_crypto::SigningKey;

    fn roots(n: usize) -> Vec<Digest> {
        (0..n).map(|i| Digest::of(&[i as u8, 0xA5])).collect()
    }

    #[test]
    fn shard_of_partitions_deterministically() {
        assert_eq!(shard_of(0, 4), 0);
        assert_eq!(shard_of(7, 4), 3);
        assert_eq!(shard_of(7, 1), 0);
        assert_eq!(
            shard_of(7, 0),
            0,
            "degenerate count must not divide by zero"
        );
    }

    #[test]
    fn manifest_signs_and_verifies() {
        let key = SigningKey::from_seed(&[3u8; 32]);
        let shard_roots = roots(5);
        let root = manifest_root(&shard_roots).unwrap();
        let signature = key.sign(&manifest_signing_message(&root, 5));
        let manifest = ShardManifest {
            shard_roots,
            signature,
        };
        assert!(manifest.verify(&key.public_key()));
        assert!(!manifest.verify(&SigningKey::from_seed(&[4u8; 32]).public_key()));
    }

    #[test]
    fn manifest_rejects_root_and_count_tampering() {
        let key = SigningKey::from_seed(&[3u8; 32]);
        let shard_roots = roots(4);
        let root = manifest_root(&shard_roots).unwrap();
        let signature = key.sign(&manifest_signing_message(&root, 4));
        let good = ShardManifest {
            shard_roots: shard_roots.clone(),
            signature,
        };
        assert!(good.verify(&key.public_key()));

        let mut wrong_root = good.clone();
        wrong_root.shard_roots[2].0[0] ^= 1;
        assert!(!wrong_root.verify(&key.public_key()));

        let mut dropped = good.clone();
        dropped.shard_roots.pop();
        assert!(!dropped.verify(&key.public_key()));

        let empty = ShardManifest {
            shard_roots: Vec::new(),
            signature: good.signature,
        };
        assert!(!empty.verify(&key.public_key()));
    }

    #[test]
    fn manifest_leaves_bind_position() {
        // Swapping two shard roots changes the manifest root even when the
        // multiset of roots is unchanged.
        let mut a = roots(4);
        let ra = manifest_root(&a).unwrap();
        a.swap(1, 2);
        let rb = manifest_root(&a).unwrap();
        assert_ne!(ra, rb);
        assert_ne!(
            manifest_leaf_digest(0, &roots(1)[0]),
            manifest_leaf_digest(1, &roots(1)[0])
        );
    }

    #[test]
    fn manifest_message_is_domain_separated() {
        let root = Digest::of(b"root");
        let msg = manifest_signing_message(&root, 3);
        assert_eq!(msg.len(), 44);
        assert!(msg.starts_with(b"IPROOF.2"));
        // Differs from the monolith's root message prefix.
        assert_ne!(&msg[..8], b"IPROOF.1");
        assert_ne!(
            manifest_signing_message(&root, 3),
            manifest_signing_message(&root, 4)
        );
    }

    #[test]
    fn shard_manifest_round_trips_from_wire() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let shard_roots = roots(6);
        let root = manifest_root(&shard_roots).unwrap();
        let signature = key.sign(&manifest_signing_message(&root, 6));
        let manifest = ShardManifest {
            shard_roots,
            signature,
        };
        let bytes = manifest.to_wire();
        let decoded = ShardManifest::from_wire(&bytes).expect("round trip");
        assert_eq!(decoded, manifest);
        assert!(decoded.verify(&key.public_key()));
        // Truncations must error, never panic.
        for cut in 0..bytes.len() {
            assert!(ShardManifest::from_wire(&bytes[..cut]).is_err());
        }
    }

    fn sample_bovw_variant() -> BovwVoVariant {
        use imageproof_mrkd::{BovwVo, Reveal, VoCluster, VoTreeBuilder};
        BovwVoVariant::Shared(BovwVo {
            clusters: vec![VoCluster {
                cluster: 7,
                inv_digest: Digest::of(b"inv"),
                reveal: Reveal::Full {
                    coords: vec![1.0, -2.0],
                },
            }],
            tree: VoTreeBuilder::default()
                .internal(0, 0.5)
                .pruned(Digest::of(b"pruned"))
                .leaf([7])
                .finish(),
        })
    }

    fn sample_shard_vo(shard_id: u32, bovw: ShardBovw) -> ShardVo {
        ShardVo {
            shard_id,
            contributed: 2,
            claimed: vec![11, 19, 4],
            bovw,
            inv: InvVoVariant::Plain(imageproof_invindex::InvVoOf { lists: Vec::new() }),
            signatures: vec![Signature::from_bytes([7u8; 64])],
        }
    }

    fn assert_truncations_error<T: Decode>(bytes: &[u8]) {
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn shard_bovw_round_trips_from_wire() {
        for bovw in [
            ShardBovw::Inline(sample_bovw_variant()),
            ShardBovw::Patched {
                template: 3,
                unique: vec![Digest::of(b"a"), Digest::of(b"b")],
                slots: vec![0, 1, 0],
            },
            ShardBovw::Patched {
                template: 0,
                unique: Vec::new(),
                slots: Vec::new(),
            },
        ] {
            let bytes = bovw.to_wire();
            assert_eq!(ShardBovw::from_wire(&bytes).expect("round trip"), bovw);
            assert_truncations_error::<ShardBovw>(&bytes);
        }
        assert!(ShardBovw::from_wire(&[9u8]).is_err(), "unknown tag");
    }

    #[test]
    fn shared_section_round_trips_from_wire() {
        let section = SharedSection {
            templates: vec![sample_bovw_variant()],
        };
        let bytes = section.to_wire();
        assert_eq!(
            SharedSection::from_wire(&bytes).expect("round trip"),
            section
        );
        assert_truncations_error::<SharedSection>(&bytes);
        let empty = SharedSection::default();
        assert_eq!(
            SharedSection::from_wire(&empty.to_wire()).expect("round trip"),
            empty
        );
    }

    #[test]
    fn shard_vo_round_trips_from_wire() {
        let sub = sample_shard_vo(
            2,
            ShardBovw::Patched {
                template: 0,
                unique: vec![Digest::of(b"d")],
                slots: vec![0, 0],
            },
        );
        let bytes = sub.to_wire();
        assert_eq!(ShardVo::from_wire(&bytes).expect("round trip"), sub);
        assert_truncations_error::<ShardVo>(&bytes);
    }

    #[test]
    fn sharded_vo_round_trips_from_wire() {
        let vo = ShardedVo {
            shard_count: 2,
            shared: SharedSection {
                templates: vec![sample_bovw_variant()],
            },
            shards: vec![
                sample_shard_vo(0, ShardBovw::Inline(sample_bovw_variant())),
                sample_shard_vo(
                    1,
                    ShardBovw::Patched {
                        template: 0,
                        unique: vec![Digest::of(b"x"), Digest::of(b"y")],
                        slots: vec![1, 0],
                    },
                ),
            ],
        };
        let bytes = vo.to_wire();
        assert_eq!(ShardedVo::from_wire(&bytes).expect("round trip"), vo);
        assert_truncations_error::<ShardedVo>(&bytes);
    }

    #[test]
    fn resolve_bovw_patches_templates_and_rejects_bad_references() {
        let template = sample_bovw_variant();
        let shared = SharedSection {
            templates: vec![template.clone()],
        };
        // A fresh digest payload resolves to the template with exactly
        // those digests swapped in (the sample template has two slots).
        let digests = vec![Digest::of(b"i2"), Digest::of(b"p2")];
        let sub = sample_shard_vo(
            1,
            ShardBovw::Patched {
                template: 0,
                unique: digests.clone(),
                slots: vec![0, 1],
            },
        );
        let resolved = sub.resolve_bovw(&shared).expect("resolves");
        assert_eq!(bovw_variant_digests(resolved.as_ref()), digests);
        assert_eq!(
            bovw_variant_with_digests(&template, &digests).as_ref(),
            Some(resolved.as_ref())
        );
        // Inline sub-VOs never consult the section.
        let inline = sample_shard_vo(0, ShardBovw::Inline(template.clone()));
        assert_eq!(
            inline
                .resolve_bovw(&SharedSection::default())
                .expect("inline")
                .as_ref(),
            &template
        );
        // An empty patch resolves to the template verbatim (the seeding
        // shard's digests already ride in the shared section).
        let seeded = sample_shard_vo(
            2,
            ShardBovw::Patched {
                template: 0,
                unique: Vec::new(),
                slots: Vec::new(),
            },
        );
        let resolved = seeded.resolve_bovw(&shared).expect("empty patch");
        assert!(
            matches!(resolved, std::borrow::Cow::Borrowed(t) if std::ptr::eq(t, &shared.templates[0])),
            "an empty patch borrows the template instead of copying it"
        );
        // Out-of-range template index.
        let dangling = sample_shard_vo(
            1,
            ShardBovw::Patched {
                template: 9,
                unique: digests.clone(),
                slots: vec![0, 1],
            },
        );
        assert_eq!(
            dangling.resolve_bovw(&shared).unwrap_err(),
            ShardedError::SharedIndexInvalid { shard: 1, index: 9 }
        );
        // Slot maps too short or too long for the template, and slots
        // referencing unique indexes that do not exist.
        for bad in [vec![0u32], vec![0, 1, 0], vec![0, 7]] {
            let sub = sample_shard_vo(
                1,
                ShardBovw::Patched {
                    template: 0,
                    unique: digests.clone(),
                    slots: bad,
                },
            );
            assert_eq!(
                sub.resolve_bovw(&shared).unwrap_err(),
                ShardedError::SharedPatchMismatch { shard: 1 }
            );
        }
    }

    #[test]
    fn dedup_seeds_a_template_and_slot_dedups_the_other_patches() {
        let template = sample_bovw_variant();
        let other_digests = vec![Digest::of(b"other-inv"), Digest::of(b"other-pruned")];
        let other = bovw_variant_with_digests(&template, &other_digests).expect("same shape");
        let mut shards = vec![
            sample_shard_vo(0, ShardBovw::Inline(template.clone())),
            sample_shard_vo(1, ShardBovw::Inline(other.clone())),
        ];
        let (shared, _saved) = dedup_shared_section(&mut shards);
        assert_eq!(shared.templates, vec![template.clone()]);
        // The seeding shard ships an empty patch; the other a slot map.
        assert_eq!(
            shards[0].bovw,
            ShardBovw::Patched {
                template: 0,
                unique: Vec::new(),
                slots: Vec::new(),
            }
        );
        assert_eq!(
            shards[1].bovw,
            ShardBovw::Patched {
                template: 0,
                unique: other_digests,
                slots: vec![0, 1],
            }
        );
        // Both resolve back to their original inline VOs.
        assert_eq!(shards[0].resolve_bovw(&shared).unwrap().as_ref(), &template);
        assert_eq!(shards[1].resolve_bovw(&shared).unwrap().as_ref(), &other);
        // A shard whose geometry diverges — here a split moved — stays
        // inline beside the two that patch.
        let BovwVoVariant::Shared(mut vo) = template.clone() else {
            unreachable!("the sample is a shared VO");
        };
        vo.tree = vo.tree.splice(0..1, |b| {
            b.internal(0, 0.75);
        });
        let divergent = BovwVoVariant::Shared(vo);
        let mut shards = vec![
            sample_shard_vo(0, ShardBovw::Inline(template.clone())),
            sample_shard_vo(1, ShardBovw::Inline(divergent.clone())),
            sample_shard_vo(2, ShardBovw::Inline(other)),
        ];
        let (shared, _saved) = dedup_shared_section(&mut shards);
        assert_eq!(shared.templates, vec![template.clone()]);
        assert_eq!(shards[1].bovw, ShardBovw::Inline(divergent));
        assert!(matches!(shards[2].bovw, ShardBovw::Patched { .. }));
        // A lone shard stays inline: a template plus one patch saves nothing.
        let mut solo = vec![sample_shard_vo(0, ShardBovw::Inline(template.clone()))];
        let (section, saved) = dedup_shared_section(&mut solo);
        assert!(section.templates.is_empty());
        assert_eq!(saved, 0);
        assert_eq!(solo[0].bovw, ShardBovw::Inline(template));
    }

    #[test]
    fn merge_order_breaks_ties_by_ascending_id() {
        let mut c = [(0u32, 9u64, 0.5f32), (1, 2, 0.5), (2, 4, 0.7)];
        c.sort_by(merge_cmp);
        let ids: Vec<u64> = c.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ids, vec![4, 2, 9]);
        assert!(beats(0.6, 10, 0.5, 2));
        assert!(beats(0.5, 1, 0.5, 2), "equal score, smaller id wins");
        assert!(!beats(0.5, 3, 0.5, 2), "equal score, larger id loses");
        assert!(!beats(0.4, 1, 0.5, 2));
    }
}
