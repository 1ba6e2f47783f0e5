//! # imageproof-mrkd
//!
//! The Merkle randomized k-d tree (MRKD-tree), the first of ImageProof's two
//! authenticated data structures (paper §IV-A), which authenticates the BoVW
//! encoding step of SIFT-based image retrieval.
//!
//! * [`tree`] — the ADS itself: digests over the codebook's k-d tree
//!   (Defs. 2–3) and the per-cluster dimension-block commitments of the
//!   §VI-A optimization.
//! * [`traverse`] — the multi-query traversal engine shared *verbatim* by SP
//!   search and client verification, so pruning bounds are bit-identical on
//!   both sides.
//! * [`search`] — SP-side `MRKDSearch` (Alg. 1) with node sharing, the Baseline per-query variant, and partial-disclosure
//!   selection.
//! * [`vo`] — verification-object types and their canonical wire encoding.
//! * [`verify`] — client-side verification: digest reconstruction, verified
//!   thresholds, and completeness checks.

pub mod search;
pub mod traverse;
pub mod tree;
pub mod verify;
pub mod vo;

pub use search::{mrkd_search, mrkd_search_baseline, BaselineBovwVo, SearchOutput, SearchStats};
pub use tree::{CandidateMode, MrkdTree};
pub use verify::{verify_bovw, verify_bovw_baseline, VerifiedBovw, VerifyError};
pub use vo::{BovwVo, Reveal, VoCluster, VoNode, VoTree, VoTreeBuilder};
