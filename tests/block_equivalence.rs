//! Blocked top-k is *exact*: block-granular popping and block-max skip
//! proofs change how much the SP discloses, never what it answers. For
//! random tie-heavy corpora (a trio of images shares one encoding, so the
//! k-cut routinely lands inside a tie), the authenticated search of every
//! scheme's inverted path must return bit-for-bit the exhaustive oracle's
//! `(id, score)` list — and its VO must verify to the same winners:
//!
//! * `inv_search` + `BoundsMode::CuckooFiltered` — ImageProof and
//!   Optimized(BoVW);
//! * `inv_search` + `BoundsMode::MaxBound` — Baseline;
//! * `grouped_search` — Optimized(Both);
//! * `inv_search_with_tuning` at the degenerate one-posting batch — the
//!   maximally block-misaligned pop schedule.

use std::collections::BTreeMap;

use imageproof_akm::bovw::{impacts_with_weights, ImpactModel};
use imageproof_akm::SparseBovw;
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, verify_grouped_topk, Group};
use imageproof_invindex::{
    exhaustive_topk, inv_search, inv_search_with_tuning, verify_topk, BoundsMode, Index, Posting,
    SearchTuning,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_CLUSTERS: usize = 8;
const N_IMAGES: u64 = 40;

fn tie_heavy_images(seed: u64) -> Vec<(u64, SparseBovw)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images: Vec<(u64, SparseBovw)> = (0..N_IMAGES)
        .map(|id| {
            let pairs: Vec<(u32, u32)> = (0..rng.gen_range(2..6))
                .map(|_| (rng.gen_range(0..N_CLUSTERS as u32), rng.gen_range(1..4u32)))
                .collect();
            (id, SparseBovw::from_counts(pairs))
        })
        .collect();
    // The trio scores identically for every query, so the k-cut often has
    // to resolve (and prove) a three-way tie.
    let trio = [9usize, 18, 23];
    let shared = images[trio[0]].1.clone();
    for &dup in &trio[1..] {
        images[dup].1 = shared.clone();
    }
    images
}

fn digest_map(digests: Vec<Digest>) -> BTreeMap<u32, Digest> {
    digests
        .into_iter()
        .enumerate()
        .map(|(c, d)| (c as u32, d))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_search_is_bit_equal_to_the_exhaustive_oracle(
        seed in 0u64..10_000,
        k in 1usize..8,
    ) {
        let images = tie_heavy_images(seed);
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, e)| e.clone()).collect();
        let model = ImpactModel::build(N_CLUSTERS, &encodings);
        let plain = Index::<Posting>::build(N_CLUSTERS, &images, &model);
        let grouped = Index::<Group>::build(N_CLUSTERS, &images, &model);
        let plain_digests = digest_map(plain.list_digests());
        let grouped_digests = digest_map(grouped.list_digests());

        // Query from inside the trio: its three-way tie contends for the cut.
        let query = images[9].1.clone();
        let query_impacts = impacts_with_weights(&query, |c| plain.list(c).weight);
        let oracle = exhaustive_topk(&plain, &query_impacts, k);
        let oracle_ids: Vec<u64> = oracle.iter().map(|&(i, _)| i).collect();

        for mode in [BoundsMode::CuckooFiltered, BoundsMode::MaxBound] {
            let r = inv_search(&plain, &query, k, mode);
            prop_assert_eq!(&r.topk, &oracle, "{:?}: blocked top-k diverged", mode);
            let v = verify_topk(&r.vo, &query, &plain_digests, &oracle_ids, k, mode)
                .expect("honest blocked VO verifies");
            let v_ids: Vec<u64> = v.topk.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(&v_ids, &oracle_ids);
        }

        // Degenerate tuning: one-posting batches force the most block-
        // misaligned pop requests; block rounding must not change the answer.
        let r = inv_search_with_tuning(
            &plain,
            &query,
            k,
            BoundsMode::CuckooFiltered,
            SearchTuning { initial_batch: 1, growth: 1, max_batch: 1 },
        );
        prop_assert_eq!(&r.topk, &oracle, "degenerate tuning diverged");

        let g = grouped_search(&grouped, &query, k);
        prop_assert_eq!(&g.topk, &oracle, "grouped blocked top-k diverged");
        let v = verify_grouped_topk(&g.vo, &query, &grouped_digests, &oracle_ids, k)
            .expect("honest grouped blocked VO verifies");
        let v_ids: Vec<u64> = v.topk.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(&v_ids, &oracle_ids);
    }
}
