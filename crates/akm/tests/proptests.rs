//! Property-based tests for the retrieval substrate: exactness of the
//! nearest-cluster assignment over arbitrary point sets.

use imageproof_akm::bovw::{similarity, SparseBovw};
use imageproof_akm::kernel::dist_sq;
use imageproof_akm::rkd::RkdTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn points_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, dim..=dim), 2..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The protocol's exact-nearest assignment matches brute force, id and
    /// distance bits.
    #[test]
    fn nearest_is_exact(points in points_strategy(5),
                        query in proptest::collection::vec(0.0f32..1.0, 5)) {
        let tree = RkdTree::build(&points, 2, &mut StdRng::seed_from_u64(2));
        let got = tree.nearest(&points, &query);
        let brute = (0..points.len() as u32)
            .min_by(|&a, &b| dist_sq(&query, &points[a as usize])
                .total_cmp(&dist_sq(&query, &points[b as usize]))
                .then(a.cmp(&b)))
            .unwrap();
        prop_assert_eq!(got.cluster, brute);
        let want = dist_sq(&query, &points[brute as usize]);
        prop_assert_eq!(got.dist_sq.to_bits(), want.to_bits());
    }

    /// BoVW norms follow the L2 definition for arbitrary count vectors.
    #[test]
    fn bovw_norm_is_l2(pairs in proptest::collection::vec((0u32..100, 1u32..50), 0..30)) {
        let b = SparseBovw::from_counts(pairs.clone());
        let expected: f64 = b.iter()
            .map(|(_, f)| (f as f64) * (f as f64))
            .sum::<f64>()
            .sqrt();
        prop_assert!((b.norm() as f64 - expected).abs() < 1e-3);
    }

    /// Sparse similarity is symmetric and zero on disjoint supports.
    #[test]
    fn similarity_symmetry(a in proptest::collection::vec((0u32..50, 0.0f32..1.0), 0..20),
                           b in proptest::collection::vec((0u32..50, 0.0f32..1.0), 0..20)) {
        let mut a = a; a.sort_by_key(|&(c, _)| c); a.dedup_by_key(|e| e.0);
        let mut b = b; b.sort_by_key(|&(c, _)| c); b.dedup_by_key(|e| e.0);
        prop_assert_eq!(similarity(&a, &b).to_bits(), similarity(&b, &a).to_bits());
    }
}
