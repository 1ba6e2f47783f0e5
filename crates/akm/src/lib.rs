//! # imageproof-akm
//!
//! The approximate-k-means retrieval substrate of SIFT-based CBIR
//! (paper §II-A):
//!
//! * [`rkd`] — randomized k-d trees: one tree's exact nearest-cluster
//!   search, the assignment rule, and a forest's best-bin-first search for
//!   training. The tree layout here is what `imageproof-mrkd` Merkle-izes.
//! * [`kmeans`] — AKM codebook training (approximate Lloyd assignments) and
//!   the [`kmeans::Codebook`], which assigns exactly on its one tree.
//! * [`bovw`] — sparse bag-of-visual-words encodings, tf-idf impact values
//!   (Eq. 1), and the cosine similarity of Eq. 3.
//! * [`kernel`] — chunked distance kernels (bit-identical to the scalar
//!   fold, plus a monotone early-exit variant) shared by this crate's
//!   search loops and `imageproof-mrkd`'s authenticated traversal.

pub mod bovw;
pub mod kernel;
pub mod kmeans;
pub mod rkd;

pub use bovw::{impact_value, impacts_with_weights, similarity, ImpactModel, SparseBovw};
pub use kernel::{dist_sq_scalar, dist_sq_within};
pub use kmeans::{AkmParams, Codebook};
pub use rkd::{Neighbor, Node, OrdF32, RkdForest, RkdTree};
