//! # imageproof-vision
//!
//! Synthetic image corpus and local-feature substrate.
//!
//! The paper evaluates on MirFlickr1M with real SIFT (128-d) and SURF (64-d)
//! descriptors. Neither the corpus nor a mature Rust SIFT extractor is
//! available offline, so this crate substitutes a *latent visual-word model*
//! (see `DESIGN.md` §3): a fixed set of ground-truth word centers in
//! descriptor space; each synthetic image draws its features from a small
//! per-image subset of words (its "topics"), with word popularity following a
//! Zipf distribution and per-feature Gaussian perturbation. This preserves
//! everything the authenticated data structures exercise — descriptor
//! dimensionality, BoVW sparsity, skewed inverted-list lengths, and a
//! meaningful nearest-neighbour structure — while remaining fully
//! deterministic under a seed.

pub mod corpus;
pub mod descriptor;
pub mod zipf;

pub use corpus::{Corpus, CorpusConfig, SyntheticImage};
pub use descriptor::{DescriptorKind, ImageId};
pub use zipf::Zipf;
