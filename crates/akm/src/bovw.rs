//! Bag-of-visual-words encoding and the tf-idf impact model
//! (paper §II-A, Eqs. 1–3).

use crate::kmeans::Codebook;
use std::collections::BTreeMap;

/// A sparse BoVW vector: cluster id → frequency (`f_{I,c_i}`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseBovw {
    counts: BTreeMap<u32, u32>,
}

impl SparseBovw {
    /// Encodes a feature set with the codebook's assignment rule.
    pub fn encode<'a, I>(codebook: &Codebook, features: I) -> SparseBovw
    where
        I: Iterator<Item = &'a [f32]>,
    {
        let mut counts = BTreeMap::new();
        for f in features {
            *counts.entry(codebook.assign(f)).or_insert(0) += 1;
        }
        SparseBovw { counts }
    }

    /// Builds a vector directly from (cluster, frequency) pairs.
    pub fn from_counts<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> SparseBovw {
        let mut counts = BTreeMap::new();
        for (c, f) in pairs {
            if f > 0 {
                *counts.entry(c).or_insert(0) += f;
            }
        }
        SparseBovw { counts }
    }

    /// Frequency of `cluster` (zero when absent).
    pub fn frequency(&self, cluster: u32) -> u32 {
        self.counts.get(&cluster).copied().unwrap_or(0)
    }

    /// Iterates `(cluster, frequency)` in ascending cluster order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.counts.iter().map(|(&c, &f)| (c, f))
    }

    /// Number of distinct clusters touched.
    pub fn nnz(&self) -> usize {
        self.counts.len()
    }

    /// True when no feature was encoded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `||B_I||`: the L2 norm of the raw count vector (the normalizer in
    /// Eq. 1).
    pub fn norm(&self) -> f32 {
        let sq: f64 = self.counts.values().map(|&f| (f as f64) * (f as f64)).sum();
        sq.sqrt() as f32
    }
}

/// Corpus-level tf-idf statistics: document frequencies and cluster weights
/// `w_{c_i} = ln(n_D / n_{D,c_i})` (Eq. 1).
#[derive(Clone, Debug)]
pub struct ImpactModel {
    n_images: u64,
    doc_freq: Vec<u32>,
    weights: Vec<f32>,
}

impl ImpactModel {
    /// Builds the model from every database image's encoding.
    pub fn build(n_clusters: usize, encodings: &[SparseBovw]) -> ImpactModel {
        let mut doc_freq = vec![0u32; n_clusters];
        for enc in encodings {
            for (c, _) in enc.iter() {
                doc_freq[c as usize] += 1;
            }
        }
        let n_images = encodings.len() as u64;
        let weights = doc_freq
            .iter()
            .map(|&df| {
                if df == 0 {
                    0.0
                } else {
                    ((n_images as f64) / (df as f64)).ln() as f32
                }
            })
            .collect();
        ImpactModel {
            n_images,
            doc_freq,
            weights,
        }
    }

    /// Number of database images (`n_D`).
    pub fn n_images(&self) -> u64 {
        self.n_images
    }

    /// `n_{D,c}` for one cluster.
    pub fn doc_freq(&self, cluster: u32) -> u32 {
        self.doc_freq[cluster as usize]
    }

    /// `w_{c}` for one cluster.
    pub fn weight(&self, cluster: u32) -> f32 {
        self.weights[cluster as usize]
    }

    /// Impact of `cluster` on the image encoded as `bovw`
    /// (`p_{I,c} = w_c f_{I,c} / ||B_I||`, Eq. 1).
    pub fn impact(&self, bovw: &SparseBovw, cluster: u32) -> f32 {
        let f = bovw.frequency(cluster);
        if f == 0 {
            return 0.0;
        }
        impact_value(self.weight(cluster), f, bovw.norm())
    }

    /// The full sparse impact vector `p_I`, ascending by cluster.
    pub fn impact_vector(&self, bovw: &SparseBovw) -> Vec<(u32, f32)> {
        let norm = bovw.norm();
        bovw.iter()
            .map(|(c, f)| (c, impact_value(self.weight(c), f, norm)))
            .collect()
    }
}

/// The impact formula of Eq. 1 as a single expression, so the owner, the SP,
/// and the client all compute bit-identical `f32` impacts.
#[inline]
// audit:allow(panic) f32 division never panics; a zero norm yields inf/NaN, not a crash
pub fn impact_value(weight: f32, frequency: u32, norm: f32) -> f32 {
    weight * frequency as f32 / norm
}

/// Builds the query impact vector `p_Q` from a BoVW vector and per-cluster
/// weights. The client calls this with weights taken from the (verified) VO;
/// the SP with weights from the index — both must agree exactly, hence the
/// shared helper.
pub fn impacts_with_weights(
    bovw: &SparseBovw,
    mut weight_of: impl FnMut(u32) -> f32,
) -> Vec<(u32, f32)> {
    let norm = bovw.norm();
    bovw.iter()
        .map(|(c, f)| (c, impact_value(weight_of(c), f, norm)))
        .collect()
}

/// Sparse dot product of two ascending-sorted impact vectors — the cosine
/// similarity of Eq. 3.
pub fn similarity(a: &[(u32, f32)], b: &[(u32, f32)]) -> f32 {
    let mut i = 0;
    let mut j = 0;
    let mut acc = 0.0f32;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::AkmParams;
    use imageproof_vision::DescriptorKind;

    fn axis_codebook() -> Codebook {
        // Four well-separated centers on coordinate axes of a 64-d space.
        let mut centers = vec![vec![0.0f32; 64]; 4];
        for (i, c) in centers.iter_mut().enumerate() {
            c[i] = 1.0;
        }
        Codebook::from_centers(
            DescriptorKind::Surf,
            centers,
            &AkmParams {
                n_clusters: 4,
                n_trees: 2,
                max_leaf_size: 1,
                max_checks: 8,
                iterations: 0,
                seed: 1,
            },
        )
    }

    fn feature(axis: usize) -> Vec<f32> {
        let mut f = vec![0.0f32; 64];
        f[axis] = 0.9;
        f
    }

    #[test]
    fn encode_counts_assignments() {
        let cb = axis_codebook();
        let feats = [feature(0), feature(0), feature(2)];
        let b = SparseBovw::encode(&cb, feats.iter().map(Vec::as_slice));
        assert_eq!(b.frequency(0), 2);
        assert_eq!(b.frequency(2), 1);
        assert_eq!(b.frequency(1), 0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn norm_matches_hand_computation() {
        let b = SparseBovw::from_counts([(0, 3), (5, 4)]);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn zero_frequency_pairs_are_dropped() {
        let b = SparseBovw::from_counts([(0, 0), (1, 2)]);
        assert_eq!(b.nnz(), 1);
    }

    #[test]
    fn weights_follow_idf() {
        // Cluster 0 appears in all 4 images (weight ln(1) = 0); cluster 1 in
        // one image (weight ln 4).
        let encodings = vec![
            SparseBovw::from_counts([(0, 1), (1, 1)]),
            SparseBovw::from_counts([(0, 1)]),
            SparseBovw::from_counts([(0, 2)]),
            SparseBovw::from_counts([(0, 1)]),
        ];
        let model = ImpactModel::build(2, &encodings);
        assert_eq!(model.weight(0), 0.0);
        assert!((model.weight(1) - (4.0f64.ln() as f32)).abs() < 1e-6);
        assert_eq!(model.doc_freq(0), 4);
        assert_eq!(model.doc_freq(1), 1);
    }

    #[test]
    fn unused_cluster_weight_is_zero() {
        let encodings = vec![SparseBovw::from_counts([(0, 1)])];
        let model = ImpactModel::build(3, &encodings);
        assert_eq!(model.weight(2), 0.0);
    }

    #[test]
    fn impact_normalizes_by_count_norm() {
        let encodings = vec![
            SparseBovw::from_counts([(0, 3), (1, 4)]),
            SparseBovw::from_counts([(1, 1)]),
        ];
        let model = ImpactModel::build(2, &encodings);
        let b = &encodings[0];
        // w_0 = ln(2/1), f = 3, ||B|| = 5.
        let expected = (2.0f64.ln() as f32) * 3.0 / 5.0;
        assert!((model.impact(b, 0) - expected).abs() < 1e-6);
        assert_eq!(model.impact(b, 1), model.impact(b, 1));
    }

    #[test]
    fn similarity_is_sparse_dot() {
        let a = vec![(1u32, 0.5f32), (3, 0.5)];
        let b = vec![(1u32, 0.2f32), (2, 0.9), (3, 0.4)];
        let s = similarity(&a, &b);
        assert!((s - (0.5 * 0.2 + 0.5 * 0.4)).abs() < 1e-6);
    }

    #[test]
    fn similarity_of_disjoint_supports_is_zero() {
        let a = vec![(1u32, 0.5f32)];
        let b = vec![(2u32, 0.5f32)];
        assert_eq!(similarity(&a, &b), 0.0);
    }

    #[test]
    fn impact_vector_orders_by_cluster() {
        let encodings = vec![SparseBovw::from_counts([(7, 1), (2, 2), (9, 3)])];
        let model = ImpactModel::build(10, &encodings);
        let v = model.impact_vector(&encodings[0]);
        let clusters: Vec<u32> = v.iter().map(|&(c, _)| c).collect();
        assert_eq!(clusters, vec![2, 7, 9]);
    }
}
