//! Scheme variants evaluated in the paper's experiments (§VII-A) and the
//! shared protocol types.

use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::Signature;
use imageproof_invindex::grouped::Group;
use imageproof_invindex::{BoundsMode, InvVoOf, Posting};
use imageproof_mrkd::{BaselineBovwVo, BovwVo, CandidateMode};
use imageproof_parallel::Concurrency;

/// The four authentication schemes of §VII.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scheme {
    /// No-sharing `MRKDSearch` + the maximal-bound inverted search of
    /// Pang & Mouratidis \[15\].
    Baseline,
    /// The ImageProof scheme of §V: shared MRKD traversal + cuckoo-filtered
    /// inverted search.
    ImageProof,
    /// ImageProof + the §VI-A BoVW candidate-compression optimization
    /// ("Optimized (BoVW)" in §VII-D).
    OptimizedBovw,
    /// ImageProof + both optimizations: compressed candidates and the
    /// frequency-grouped inverted index ("Optimized (Both)").
    OptimizedBoth,
}

impl Scheme {
    /// All four, in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Baseline,
        Scheme::ImageProof,
        Scheme::OptimizedBovw,
        Scheme::OptimizedBoth,
    ];

    /// How cluster centroids are committed in MRKD leaves.
    pub fn candidate_mode(self) -> CandidateMode {
        match self {
            Scheme::Baseline | Scheme::ImageProof => CandidateMode::Full,
            Scheme::OptimizedBovw | Scheme::OptimizedBoth => CandidateMode::Compressed,
        }
    }

    /// Whether MRKD traversals share nodes across query vectors.
    pub fn shares_nodes(self) -> bool {
        !matches!(self, Scheme::Baseline)
    }

    /// Whether the inverted search uses cuckoo-filtered bounds.
    pub fn uses_filters(self) -> bool {
        !matches!(self, Scheme::Baseline)
    }

    /// The bounds machinery of the scheme's inverted search.
    pub fn bounds_mode(self) -> BoundsMode {
        if self.uses_filters() {
            BoundsMode::CuckooFiltered
        } else {
            BoundsMode::MaxBound
        }
    }

    /// Whether the inverted index is frequency-grouped.
    pub fn grouped_index(self) -> bool {
        matches!(self, Scheme::OptimizedBoth)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::ImageProof => "ImageProof",
            Scheme::OptimizedBovw => "Optimized (BoVW)",
            Scheme::OptimizedBoth => "Optimized (Both)",
        }
    }

    /// Machine-friendly label used as the `scheme` value of observability
    /// metrics (lowercase, no spaces — stable across releases).
    pub fn slug(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::ImageProof => "imageproof",
            Scheme::OptimizedBovw => "optimized-bovw",
            Scheme::OptimizedBoth => "optimized-both",
        }
    }
}

/// Everything that shapes one outsourced system: the authentication scheme
/// plus the execution knobs the owner and SP run under.
///
/// Concurrency never changes *what* is computed — VOs, digests, and
/// signatures are bit-identical for every thread count (enforced by the
/// `parallel_equivalence` test suite) — only how many workers compute it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    pub scheme: Scheme,
    pub concurrency: Concurrency,
}

impl SystemConfig {
    /// Serial execution of `scheme` — the configuration every pre-existing
    /// single-argument API maps to.
    pub fn new(scheme: Scheme) -> SystemConfig {
        SystemConfig {
            scheme,
            concurrency: Concurrency::serial(),
        }
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> SystemConfig {
        self.concurrency = Concurrency::new(threads);
        self
    }
}

/// A bare scheme is its serial configuration, so every `config: impl
/// Into<SystemConfig>` entry point takes either.
impl From<Scheme> for SystemConfig {
    fn from(scheme: Scheme) -> SystemConfig {
        SystemConfig::new(scheme)
    }
}

/// BoVW-step VO, shared or per-query depending on the scheme.
#[derive(Clone, Debug, PartialEq)]
pub enum BovwVoVariant {
    Shared(BovwVo),
    PerQuery(BaselineBovwVo),
}

/// Inverted-index VO, plain or frequency-grouped.
#[derive(Clone, Debug, PartialEq)]
pub enum InvVoVariant {
    Plain(InvVoOf<Posting>),
    Grouped(InvVoOf<Group>),
}

/// The complete VO of one top-k query (Alg. 5 line 7): the BoVW VOs, the
/// inverted-index VO, and the winners' image signatures.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryVo {
    pub bovw: BovwVoVariant,
    pub inv: InvVoVariant,
    pub signatures: Vec<Signature>,
}

impl Encode for BovwVoVariant {
    fn encode(&self, w: &mut Writer) {
        match self {
            BovwVoVariant::Shared(vo) => {
                w.u8(0);
                vo.encode(w);
            }
            BovwVoVariant::PerQuery(vo) => {
                w.u8(1);
                vo.encode(w);
            }
        }
    }
}

impl Decode for BovwVoVariant {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BovwVoVariant::Shared(BovwVo::decode(r)?)),
            1 => Ok(BovwVoVariant::PerQuery(BaselineBovwVo::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Encode for InvVoVariant {
    fn encode(&self, w: &mut Writer) {
        match self {
            InvVoVariant::Plain(vo) => {
                w.u8(0);
                vo.encode(w);
            }
            InvVoVariant::Grouped(vo) => {
                w.u8(1);
                vo.encode(w);
            }
        }
    }
}

impl Decode for InvVoVariant {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(InvVoVariant::Plain(InvVoOf::<Posting>::decode(r)?)),
            1 => Ok(InvVoVariant::Grouped(InvVoOf::<Group>::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Encode for QueryVo {
    fn encode(&self, w: &mut Writer) {
        self.bovw.encode(w);
        self.inv.encode(w);
        w.seq_of(&self.signatures);
    }
}

impl Decode for QueryVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QueryVo {
            bovw: BovwVoVariant::decode(r)?,
            inv: InvVoVariant::decode(r)?,
            signatures: r.seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties_match_the_paper() {
        assert!(!Scheme::Baseline.shares_nodes());
        assert!(!Scheme::Baseline.uses_filters());
        assert!(Scheme::ImageProof.shares_nodes());
        assert!(Scheme::ImageProof.uses_filters());
        assert_eq!(Scheme::ImageProof.candidate_mode(), CandidateMode::Full);
        assert_eq!(
            Scheme::OptimizedBovw.candidate_mode(),
            CandidateMode::Compressed
        );
        assert!(!Scheme::OptimizedBovw.grouped_index());
        assert!(Scheme::OptimizedBoth.grouped_index());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
