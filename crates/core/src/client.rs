//! The client: result verification (paper §V-C).
//!
//! Four steps, mirroring the paper: (i) verify the BoVW encoding against
//! the MRKD VOs and the owner's root signature; (ii) rebuild `B_Q` from the
//! verified assignments; (iii) verify the inverted-index termination
//! conditions against the authenticated list digests; (iv) verify each
//! returned image's signature over its raw bytes.
//!
//! Steps (i)–(iii) are shared with sharded verification (`shard.rs`),
//! which runs them once per sub-VO against a manifest-committed root
//! instead of the owner's root signature.

use crate::owner::{image_signing_message, root_signing_message, PublishedParams};
use crate::scheme::{BovwVoVariant, InvVoVariant};
use crate::shard::{RootExpectation, SubVerify};
use crate::sp::QueryResponse;
use imageproof_akm::SparseBovw;
use imageproof_crypto::Signature;
use imageproof_invindex::grouped::verify_grouped_topk;
use imageproof_invindex::{verify_topk, InvVerifyError};
use imageproof_mrkd::{verify_bovw, verify_bovw_baseline, VerifyError as BovwError};
use imageproof_obs::{micros, Profiler, QueryProfile};
use imageproof_vision::ImageId;

/// Why the client rejected a response.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The BoVW-step VO failed verification.
    Bovw(BovwError),
    /// The reconstructed root does not match the owner's signature (or, for
    /// a shard, the manifest-committed root).
    RootSignatureInvalid,
    /// The VO variants do not match the published scheme.
    SchemeMismatch,
    /// The inverted-index VO failed verification.
    Inv(InvVerifyError),
    /// Result count does not match the signature count.
    ResultShapeMismatch,
    /// An image signature failed (case-3 attack of §V-D).
    ImageSignatureInvalid { id: ImageId },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Bovw(e) => write!(f, "BoVW verification failed: {e}"),
            ClientError::RootSignatureInvalid => write!(f, "root signature invalid"),
            ClientError::SchemeMismatch => write!(f, "VO variant does not match scheme"),
            ClientError::Inv(e) => write!(f, "inverted-index verification failed: {e}"),
            ClientError::ResultShapeMismatch => write!(f, "results and signatures disagree"),
            ClientError::ImageSignatureInvalid { id } => {
                write!(f, "signature of image {id} invalid")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<BovwError> for ClientError {
    fn from(e: BovwError) -> Self {
        ClientError::Bovw(e)
    }
}

impl From<InvVerifyError> for ClientError {
    fn from(e: InvVerifyError) -> Self {
        ClientError::Inv(e)
    }
}

/// A fully verified query result.
#[derive(Debug, Clone)]
pub struct VerifiedResult {
    /// `(image id, verified similarity score)`, in the SP's claimed order.
    pub topk: Vec<(ImageId, f32)>,
    /// The verified BoVW assignment of each query feature vector.
    pub assignments: Vec<u32>,
    /// Client-side cost breakdown.
    pub stats: ClientStats,
}

/// Client-side verification cost breakdown.
///
/// Timings are views over the verification's observability spans: with
/// recording disabled ([`imageproof_obs::set_enabled`]`(false)`) they read
/// 0 while the accept/reject outcome stays identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    pub bovw_seconds: f64,
    pub inv_seconds: f64,
    pub signature_seconds: f64,
}

impl ClientStats {
    pub fn total_seconds(&self) -> f64 {
        self.bovw_seconds + self.inv_seconds + self.signature_seconds
    }
}

/// The verifying client.
pub struct Client {
    pub(crate) params: PublishedParams,
}

impl Client {
    pub fn new(params: PublishedParams) -> Client {
        Client { params }
    }

    /// Steps (i)–(iii) for one VO: verify the BoVW encoding, check the
    /// reconstructed MRKD root against `root`, check the result shape, and
    /// verify the inverted-index termination conditions for `claimed`.
    ///
    /// The monolith path calls this once per response with
    /// [`RootExpectation::OwnerSignature`]; the sharded path calls it once
    /// per sub-VO with the shard's manifest-committed root. The VO comes in
    /// parts because trimmed sharded sub-VOs resolve their BoVW VO out of
    /// a response-level shared section, so no contiguous
    /// [`QueryVo`](crate::QueryVo) exists to borrow.
    ///
    /// Timing comes from `prof` spans (`bovw`, `inv`); on an error return
    /// the open span is discarded along with the caller's profiler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify_query_vo(
        &self,
        features: &[Vec<f32>],
        k: usize,
        bovw: &BovwVoVariant,
        inv: &InvVoVariant,
        n_signatures: usize,
        claimed: &[ImageId],
        root: RootExpectation<'_>,
        prof: &mut Profiler,
    ) -> Result<SubVerify, ClientError> {
        let scheme = self.params.scheme;

        // (i) + (ii): BoVW encoding.
        prof.enter("bovw");
        prof.add("features", features.len() as u64);
        let verified_bovw = match (bovw, scheme.shares_nodes()) {
            (BovwVoVariant::Shared(v), true) => verify_bovw(v, features, scheme.candidate_mode())?,
            (BovwVoVariant::PerQuery(v), false) => verify_bovw_baseline(v, features)?,
            _ => return Err(ClientError::SchemeMismatch),
        };
        match root {
            RootExpectation::OwnerSignature => {
                if !self.params.public_key.verify(
                    &root_signing_message(&verified_bovw.combined_root),
                    &self.params.root_signature,
                ) {
                    return Err(ClientError::RootSignatureInvalid);
                }
            }
            RootExpectation::Committed(expected) => {
                if verified_bovw.combined_root != *expected {
                    return Err(ClientError::RootSignatureInvalid);
                }
            }
        }
        let query_bovw = SparseBovw::from_counts(verified_bovw.assignments.iter().map(|&c| (c, 1)));
        let bovw_seconds = prof.exit();

        // (iii): inverted-index search.
        prof.enter("inv");
        if claimed.len() != n_signatures {
            return Err(ClientError::ResultShapeMismatch);
        }
        let digests = &verified_bovw.inv_digests;
        let mode = scheme.bounds_mode();
        let verified_topk = match (inv, scheme.grouped_index()) {
            (InvVoVariant::Plain(v), false) => {
                verify_topk(v, &query_bovw, digests, claimed, k, mode)
            }
            (InvVoVariant::Grouped(v), true) => {
                verify_grouped_topk(v, &query_bovw, digests, claimed, k)
            }
            _ => return Err(ClientError::SchemeMismatch),
        }?;
        prof.add("claimed", claimed.len() as u64);
        let inv_seconds = prof.exit();

        Ok(SubVerify {
            topk: verified_topk.topk,
            assignments: verified_bovw.assignments,
            bovw_seconds,
            inv_seconds,
        })
    }

    /// Step (iv): verifies the winners' signatures over their raw payloads
    /// — batch-verified (one shared doubling chain); on failure, falls back
    /// to individual checks to name the forged image.
    pub(crate) fn check_image_signatures(
        &self,
        items: &[(ImageId, &[u8], Signature)],
    ) -> Result<(), ClientError> {
        let messages: Vec<[u8; 32]> = items
            .iter()
            .map(|&(id, data, _)| image_signing_message(id, data))
            .collect();
        let batch: Vec<(&[u8], imageproof_crypto::PublicKey, Signature)> = messages
            .iter()
            .zip(items)
            .map(|(m, &(_, _, s))| (m.as_slice(), self.params.public_key, s))
            .collect();
        if imageproof_crypto::verify_batch(&batch) {
            return Ok(());
        }
        for (&(id, _, s), msg) in items.iter().zip(&messages) {
            if !self.params.public_key.verify(msg, &s) {
                return Err(ClientError::ImageSignatureInvalid { id });
            }
        }
        // The batch equation failed but every member verifies — can only
        // happen with astronomically small probability or a bug.
        Err(ClientError::ImageSignatureInvalid {
            id: items.first().map(|&(id, _, _)| id).unwrap_or(0),
        })
    }

    /// Verifies a response to `query(features, k)` end to end (§V-C).
    pub fn verify(
        &self,
        features: &[Vec<f32>],
        k: usize,
        response: &QueryResponse,
    ) -> Result<VerifiedResult, ClientError> {
        self.verify_profiled(features, k, response)
            .map(|(verified, _)| verified)
    }

    /// [`Client::verify`] that additionally returns the verification's
    /// structured span profile (phases `bovw`, `inv`, `signatures`). The
    /// profile is pure observation: accept/reject is identical whether or
    /// not recording is enabled.
    pub fn verify_profiled(
        &self,
        features: &[Vec<f32>],
        k: usize,
        response: &QueryResponse,
    ) -> Result<(VerifiedResult, QueryProfile), ClientError> {
        let mut prof = Profiler::new("client.verify");
        let claimed: Vec<ImageId> = response.results.iter().map(|r| r.id).collect();
        let sub = self.verify_query_vo(
            features,
            k,
            &response.vo.bovw,
            &response.vo.inv,
            response.vo.signatures.len(),
            &claimed,
            RootExpectation::OwnerSignature,
            &mut prof,
        )?;

        // (iv): image signatures.
        prof.enter("signatures");
        let items: Vec<(ImageId, &[u8], Signature)> = response
            .results
            .iter()
            .zip(&response.vo.signatures)
            .map(|(r, &s)| (r.id, r.data.as_slice(), s))
            .collect();
        prof.add("signatures", items.len() as u64);
        self.check_image_signatures(&items)?;
        let signature_seconds = prof.exit();

        if prof.is_recording() {
            self.record_verify(sub.bovw_seconds, sub.inv_seconds, signature_seconds);
        }
        Ok((
            VerifiedResult {
                topk: sub.topk,
                assignments: sub.assignments,
                stats: ClientStats {
                    bovw_seconds: sub.bovw_seconds,
                    inv_seconds: sub.inv_seconds,
                    signature_seconds,
                },
            },
            prof.finish(),
        ))
    }

    /// Records one accepted verification into the global registry.
    fn record_verify(&self, bovw_seconds: f64, inv_seconds: f64, signature_seconds: f64) {
        let reg = imageproof_obs::global();
        let slug = self.params.scheme.slug();
        reg.counter("imageproof_client_verifies_total", &[("scheme", slug)])
            .inc();
        for (phase, seconds) in [
            ("bovw", bovw_seconds),
            ("inv", inv_seconds),
            ("signatures", signature_seconds),
        ] {
            reg.histogram(
                "imageproof_client_phase_micros",
                &[("scheme", slug), ("phase", phase)],
            )
            .record(micros(seconds));
        }
    }
}
