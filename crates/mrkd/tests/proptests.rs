//! Property-based tests for the MRKD-tree: for arbitrary cluster sets and
//! perturbed queries, the SP's search verifies and yields the exact nearest
//! clusters, in both candidate modes and at every thread count, with each
//! disclosed cluster revealed exactly once.

use imageproof_akm::rkd::{dist_sq, RkdForest};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::Digest;
use imageproof_mrkd::{
    mrkd_search, mrkd_search_with, verify_bovw, BovwVo, CandidateMode, MrkdForest, VoNode,
};
use imageproof_parallel::Concurrency;
use proptest::prelude::*;

const DIM: usize = 32;

/// Every cluster id named by a disclosed leaf of `node`, with repeats.
fn named_clusters(node: &VoNode, out: &mut Vec<u32>) {
    match node {
        VoNode::Pruned(_) => {}
        VoNode::Leaf { clusters } => out.extend(clusters),
        VoNode::Internal { left, right, .. } => {
            named_clusters(left, out);
            named_clusters(right, out);
        }
    }
}

fn centers_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, DIM..=DIM), 2..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn search_verifies_and_is_exact(
        centers in centers_strategy(),
        picks in proptest::collection::vec((any::<prop::sample::Index>(), -0.05f32..0.05), 1..6),
        mode_compressed in any::<bool>(),
    ) {
        let mode = if mode_compressed {
            CandidateMode::Compressed
        } else {
            CandidateMode::Full
        };
        let inv: Vec<Digest> = (0..centers.len() as u32)
            .map(|c| Digest::of(format!("inv{c}").as_bytes()))
            .collect();
        let forest = RkdForest::build(&centers, 3, 2, 99);
        let mrkd = MrkdForest::build(&forest, &centers, &inv, mode);

        // Queries are perturbations of existing centers.
        let queries: Vec<Vec<f32>> = picks
            .iter()
            .map(|(idx, eps)| {
                let base = &centers[idx.index(centers.len())];
                base.iter().map(|&v| (v + eps).clamp(0.0, 1.0)).collect()
            })
            .collect();
        let thresholds: Vec<f32> = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();

        let out = mrkd_search(&mrkd, &queries, &thresholds);
        let wire = out.vo.to_wire();
        for threads in [1usize, 2, 4, 8] {
            let par = mrkd_search_with(&mrkd, &queries, &thresholds, Concurrency::new(threads));
            prop_assert_eq!(&par.vo.to_wire(), &wire, "VO bytes differ at {} threads", threads);
            prop_assert_eq!(&par.candidates, &out.candidates);
            prop_assert_eq!(par.stats.digests_cached, out.stats.digests_cached);
        }

        // The table holds exactly the clusters the trees' leaves name,
        // once each, ascending.
        let mut named = Vec::new();
        for tree in &out.vo.trees {
            named_clusters(tree, &mut named);
        }
        named.sort_unstable();
        named.dedup();
        let rows: Vec<u32> = out.vo.clusters.iter().map(|row| row.cluster).collect();
        prop_assert_eq!(rows, named);

        let verified = verify_bovw(&out.vo, &queries, mode).expect("honest VO verifies");
        prop_assert_eq!(verified.combined_root, mrkd.combined_root_digest());

        for (qi, q) in queries.iter().enumerate() {
            let brute = (0..centers.len() as u32)
                .min_by(|&a, &b| {
                    dist_sq(q, &centers[a as usize])
                        .total_cmp(&dist_sq(q, &centers[b as usize]))
                        .then(a.cmp(&b))
                })
                .expect("non-empty");
            prop_assert_eq!(verified.assignments[qi], brute, "query {}", qi);
        }
    }

    /// The VO wire encoding round-trips for arbitrary searches.
    #[test]
    fn vo_wire_roundtrip(centers in centers_strategy(), n_queries in 1usize..5) {
        let inv: Vec<Digest> = (0..centers.len() as u32)
            .map(|c| Digest::of(format!("inv{c}").as_bytes()))
            .collect();
        let forest = RkdForest::build(&centers, 2, 2, 7);
        let mrkd = MrkdForest::build(&forest, &centers, &inv, CandidateMode::Compressed);
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|i| centers[i % centers.len()].clone())
            .collect();
        let thresholds: Vec<f32> = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        let out = mrkd_search(&mrkd, &queries, &thresholds);
        let decoded = BovwVo::from_wire(&out.vo.to_wire()).expect("round trip");
        prop_assert_eq!(decoded, out.vo);
    }
}
