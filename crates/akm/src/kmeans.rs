//! Approximate k-means (AKM) codebook training (Philbin et al., CVPR '07;
//! paper §II-A).
//!
//! Classic Lloyd iterations, except each assignment step finds the
//! *approximate* nearest center through a randomized k-d forest rebuilt over
//! the current centers. This is what makes million-word codebooks tractable.
//! The trained codebook keeps one randomized k-d tree over its centers and
//! assigns with that tree's exact search — the rule the paper's BoVW
//! encoding authenticates, over the tree the MRKD-tree commits.

use crate::rkd::{RkdForest, RkdTree};
use imageproof_vision::DescriptorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for AKM training.
#[derive(Clone, Debug)]
pub struct AkmParams {
    /// Codebook size (number of clusters to train).
    pub n_clusters: usize,
    /// Number of randomized k-d trees in each Lloyd step's forest
    /// (paper: 8). Training only.
    pub n_trees: usize,
    /// Maximum clusters per tree leaf (paper: 2).
    pub max_leaf_size: usize,
    /// Leaf-visit budget per Lloyd-step assignment (paper: 32). Training
    /// only: [`Codebook::assign`] is exact.
    pub max_checks: usize,
    /// Lloyd iterations. Codebook quality saturates quickly; training is
    /// offline at the owner so a handful suffices.
    pub iterations: usize,
    /// RNG seed for initialization and tree randomization.
    pub seed: u64,
}

impl Default for AkmParams {
    fn default() -> Self {
        AkmParams {
            n_clusters: 1000,
            n_trees: 8,
            max_leaf_size: 2,
            max_checks: 32,
            iterations: 3,
            seed: 0xa3f9,
        }
    }
}

/// A trained visual codebook: the cluster centroids plus the one
/// randomized k-d tree that both assigns features and, Merkle-ized, proves
/// the assignments.
#[derive(Clone, Debug)]
pub struct Codebook {
    pub kind: DescriptorKind,
    /// Centroids, `n_clusters` rows of `kind.dim()` columns.
    pub centers: Vec<Vec<f32>>,
    /// The tree over `centers` that [`Codebook::assign`] searches and the
    /// MRKD-tree commits.
    pub tree: RkdTree,
}

impl Codebook {
    /// Trains a codebook with AKM over `features`.
    ///
    /// # Panics
    /// Panics when fewer features than clusters are supplied.
    pub fn train<'a, I>(kind: DescriptorKind, features: I, params: &AkmParams) -> Codebook
    where
        I: Iterator<Item = &'a [f32]>,
    {
        let data: Vec<&[f32]> = features.collect();
        assert!(
            data.len() >= params.n_clusters,
            "need at least as many features ({}) as clusters ({})",
            data.len(),
            params.n_clusters
        );
        let dim = kind.dim();
        assert!(data.iter().all(|f| f.len() == dim), "dimension mismatch");

        let mut rng = StdRng::seed_from_u64(params.seed);

        // Forgy initialization: k distinct random features.
        let mut centers: Vec<Vec<f32>> = Vec::with_capacity(params.n_clusters);
        let mut chosen = std::collections::BTreeSet::new();
        while centers.len() < params.n_clusters {
            let i = rng.gen_range(0..data.len());
            if chosen.insert(i) {
                centers.push(data[i].to_vec());
            }
        }

        for iter in 0..params.iterations {
            let forest = RkdForest::build(
                &centers,
                params.n_trees,
                params.max_leaf_size,
                params.seed ^ 0x5eed ^ iter as u64,
            );
            // Assignment (approximate) + accumulation.
            let mut sums = vec![vec![0.0f64; dim]; params.n_clusters];
            let mut counts = vec![0u64; params.n_clusters];
            for f in &data {
                let n = forest.approx_nearest(&centers, f, params.max_checks);
                let c = n.cluster as usize;
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(*f) {
                    *s += v as f64;
                }
            }
            // Update; empty clusters keep their center (standard AKM
            // behaviour — with huge codebooks re-seeding is not worth it).
            for ((center, sum), &count) in centers.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    for (c, s) in center.iter_mut().zip(sum) {
                        *c = (*s / count as f64) as f32;
                    }
                }
            }
        }

        let seed = params.seed ^ 0x5eed ^ params.iterations as u64;
        Codebook::with_tree(kind, centers, params.max_leaf_size, seed)
    }

    /// Builds a codebook directly from given centroids (used by tests and by
    /// experiments that reuse the corpus generator's latent words).
    pub fn from_centers(
        kind: DescriptorKind,
        centers: Vec<Vec<f32>>,
        params: &AkmParams,
    ) -> Codebook {
        assert!(!centers.is_empty(), "codebook cannot be empty");
        assert!(centers.iter().all(|c| c.len() == kind.dim()));
        Codebook::with_tree(kind, centers, params.max_leaf_size, params.seed ^ 0x5eed)
    }

    fn with_tree(
        kind: DescriptorKind,
        centers: Vec<Vec<f32>>,
        max_leaf_size: usize,
        seed: u64,
    ) -> Codebook {
        let tree = RkdTree::build(&centers, max_leaf_size, &mut StdRng::seed_from_u64(seed));
        Codebook {
            kind,
            centers,
            tree,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Codebooks are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The protocol's assignment: the exact nearest center (see
    /// [`RkdTree::nearest`]).
    pub fn assign(&self, feature: &[f32]) -> u32 {
        self.tree.nearest(&self.centers, feature).cluster
    }

    /// Assignment together with the auxiliary threshold (squared distance to
    /// the assigned cluster) that the SP feeds to `MRKDSearch` (Alg. 5
    /// line 1).
    pub fn assign_with_threshold(&self, feature: &[f32]) -> (u32, f32) {
        let n = self.tree.nearest(&self.centers, feature);
        (n.cluster, n.dist_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imageproof_vision::{Corpus, CorpusConfig};

    fn tiny_params(k: usize) -> AkmParams {
        AkmParams {
            n_clusters: k,
            n_trees: 4,
            max_leaf_size: 2,
            max_checks: 16,
            iterations: 3,
            seed: 42,
        }
    }

    #[test]
    fn training_produces_requested_codebook_size() {
        let corpus = Corpus::generate(&CorpusConfig::small(DescriptorKind::Surf));
        let cb = Codebook::train(
            DescriptorKind::Surf,
            corpus.all_features(),
            &tiny_params(64),
        );
        assert_eq!(cb.len(), 64);
        assert!(cb.centers.iter().all(|c| c.len() == 64));
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = Corpus::generate(&CorpusConfig::small(DescriptorKind::Surf));
        let a = Codebook::train(
            DescriptorKind::Surf,
            corpus.all_features(),
            &tiny_params(32),
        );
        let b = Codebook::train(
            DescriptorKind::Surf,
            corpus.all_features(),
            &tiny_params(32),
        );
        assert_eq!(a.centers, b.centers);
    }

    #[test]
    fn centers_reduce_quantization_error_vs_init() {
        let corpus = Corpus::generate(&CorpusConfig::small(DescriptorKind::Surf));
        let features: Vec<&[f32]> = corpus.all_features().collect();
        let trained = Codebook::train(
            DescriptorKind::Surf,
            features.iter().copied(),
            &tiny_params(32),
        );
        let init = Codebook::train(
            DescriptorKind::Surf,
            features.iter().copied(),
            &AkmParams {
                iterations: 0,
                ..tiny_params(32)
            },
        );
        let err = |cb: &Codebook| -> f64 {
            features
                .iter()
                .map(|f| cb.assign_with_threshold(f).1 as f64)
                .sum()
        };
        assert!(err(&trained) <= err(&init), "training must not hurt");
    }

    #[test]
    fn assignment_is_the_brute_force_nearest() {
        let corpus = Corpus::generate(&CorpusConfig::small(DescriptorKind::Surf));
        let cb = Codebook::train(
            DescriptorKind::Surf,
            corpus.all_features(),
            &tiny_params(32),
        );
        let q = &corpus.images[0].features[0];
        let assigned = cb.assign(q);
        let brute = cb
            .centers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                crate::kernel::dist_sq(q, a).total_cmp(&crate::kernel::dist_sq(q, b))
            })
            .map(|(i, _)| i as u32)
            .expect("non-empty");
        assert_eq!(assigned, brute);
    }

    #[test]
    fn from_centers_round_trips() {
        let centers = vec![vec![0.0f32; 64], vec![1.0f32; 64]];
        let cb = Codebook::from_centers(DescriptorKind::Surf, centers, &tiny_params(2));
        assert_eq!(cb.assign(&vec![0.1f32; 64]), 0);
        assert_eq!(cb.assign(&vec![0.9f32; 64]), 1);
    }

    #[test]
    #[should_panic(expected = "need at least as many features")]
    fn too_few_features_rejected() {
        let features = [vec![0.0f32; 64]];
        let _ = Codebook::train(
            DescriptorKind::Surf,
            features.iter().map(Vec::as_slice),
            &tiny_params(5),
        );
    }
}
