//! Property-based tests for authenticated top-k search: for arbitrary small
//! corpora and queries, (i) the authenticated search returns exactly the
//! exhaustive top-k, (ii) the honest VO verifies, and (iii) the grouped
//! variant agrees with the plain one; and for arbitrary runs of lists, the
//! batched seal hashes exactly what a one-list scalar fold does.

use imageproof_akm::bovw::{impacts_with_weights, ImpactModel, SparseBovw};
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, verify_grouped_topk, Group};
use imageproof_invindex::merkle::list_digest;
use imageproof_invindex::{
    block_digest, exhaustive_topk, inv_search, inv_search_with_tuning, verify_topk, BlockSummary,
    BoundsMode, Entry, FilterVo, Index, InvVerifyError, List, Posting, RemainingVo, SearchTuning,
    BLOCK_SIZE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const N_CLUSTERS: usize = 12;

/// An arbitrary tiny corpus: each image gets 1..5 (cluster, frequency)
/// pairs.
fn corpus_strategy() -> impl Strategy<Value = Vec<(u64, SparseBovw)>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..N_CLUSTERS as u32, 1u32..4), 1..5),
        1..40,
    )
    .prop_map(|images| {
        images
            .into_iter()
            .enumerate()
            .map(|(id, pairs)| (id as u64, SparseBovw::from_counts(pairs)))
            .collect()
    })
}

/// A corpus in which every `(cluster, frequency)` pair belongs to exactly
/// one image — image `i` draws its frequencies from `3i+1..=3i+3`, a range
/// no other image uses — so every frequency group is a singleton.
fn singleton_group_corpus_strategy() -> impl Strategy<Value = Vec<(u64, SparseBovw)>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..N_CLUSTERS as u32, 1u32..4), 1..5),
        12..40,
    )
    .prop_map(|images| {
        images
            .into_iter()
            .enumerate()
            .map(|(id, pairs)| {
                // `from_counts` sums duplicate clusters, which could leave
                // the image's range; keep each cluster once.
                let mut unique: BTreeMap<u32, u32> = pairs
                    .iter()
                    .map(|&(c, offset)| (c, 3 * id as u32 + offset))
                    .collect();
                // A one-cluster image has impact exactly `w_c` whatever its
                // frequency, tying with every other such image in the list;
                // give it a second cluster at a different frequency.
                if unique.len() == 1 {
                    let (c, offset) = pairs[0];
                    unique.insert((c + 1) % N_CLUSTERS as u32, 3 * id as u32 + offset % 3 + 1);
                }
                (id as u64, SparseBovw::from_counts(unique))
            })
            .collect()
    })
}

fn query_strategy() -> impl Strategy<Value = SparseBovw> {
    proptest::collection::vec((0u32..N_CLUSTERS as u32, 1u32..3), 1..5)
        .prop_map(SparseBovw::from_counts)
}

/// Each list's block summaries, `h(Θ)` and `h_Γ` as a one-list build
/// folds them: every digest one scalar message at a time, entry chains and
/// then blocks tail first.
fn scalar_fold<E: Entry>(list: &List<E>) -> (Vec<BlockSummary>, Digest, Digest) {
    let mut blocks: Vec<BlockSummary> = list
        .postings
        .chunks(BLOCK_SIZE)
        .map(|chunk| BlockSummary {
            max_impact: chunk[0].head_impact(list.weight),
            chain_head: chunk.iter().rev().fold(Digest::ZERO, |next, e| {
                e.chain_digest(Digest::builder(), &next)
            }),
            digest: Digest::ZERO,
        })
        .collect();
    let (mut next_max, mut next) = (0.0f32, Digest::ZERO);
    for b in blocks.iter_mut().rev() {
        b.digest = block_digest(Digest::builder(), &b.chain_head, next_max, &next);
        next_max = b.max_impact;
        next = b.digest;
    }
    let filter_commit = list.filter.digest();
    let digest = list_digest(
        Digest::builder(),
        list.weight,
        &filter_commit,
        next_max,
        &next,
    );
    (blocks, filter_commit, digest)
}

/// List lengths for one seal: empty, exactly one and two blocks, and
/// ragged tails.
fn list_lengths_strategy() -> impl Strategy<Value = Vec<usize>> {
    // Three extra draws on top of 0..=40 make 0, 8 and 16 likelier.
    let len = (0usize..=43).prop_map(|n| match n {
        41 => 0,
        42 => 8,
        43 => 16,
        n => n,
    });
    proptest::collection::vec(len, 0..=40)
}

/// Builds lists of the given lengths in one call and checks every list
/// against [`scalar_fold`].
fn seal_matches_scalar<E: Entry>(
    lengths: &[usize],
    seed: u64,
    entry: impl Fn(&mut StdRng, u64) -> E,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<(u32, f32, Vec<E>)> = lengths
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            let entries = (0..n as u64)
                .map(|i| entry(&mut rng, 1_000 * c as u64 + i))
                .collect();
            (c as u32, rng.gen_range(0.0f32..3.0), entries)
        })
        .collect();
    let lists = List::try_build_all(specs, 64).expect("64 buckets hold 40 entries of 3 images");
    prop_assert_eq!(lists.len(), lengths.len());
    for (list, &n) in lists.iter().zip(lengths) {
        prop_assert_eq!(list.len(), n);
        let (blocks, filter_commit, digest) = scalar_fold(list);
        prop_assert_eq!(list.blocks(), &blocks[..], "cluster {}", list.cluster);
        prop_assert_eq!(
            list.filter_commit(),
            filter_commit,
            "cluster {}",
            list.cluster
        );
        prop_assert_eq!(list.digest, digest, "cluster {}", list.cluster);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chain-position scheduler hashes every block summary, `h(Θ)` and
    /// `h_Γ` of a run of lists exactly as a one-list scalar fold does, for
    /// plain postings and for frequency groups.
    #[test]
    fn batched_seal_equals_the_scalar_fold(
        lengths in list_lengths_strategy(),
        seed in any::<u64>(),
    ) {
        seal_matches_scalar(&lengths, seed, |rng, id| -> Posting {
            (id, rng.gen_range(0.0f32..4.0))
        })?;
        seal_matches_scalar(&lengths, seed, |rng, id| {
            let members = (0..rng.gen_range(1..=3u64))
                .map(|m| (4 * id + m, rng.gen_range(0.5f32..3.0)))
                .collect();
            Group { frequency: (id % 1_000) as u32 + 1, members }
        })?;
    }

    #[test]
    fn authenticated_search_is_exact_and_verifiable(
        images in corpus_strategy(),
        query in query_strategy(),
        k in 1usize..8,
    ) {
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(N_CLUSTERS, &encodings);
        let index = Index::<Posting>::build(N_CLUSTERS, &images, &model);
        let digests: BTreeMap<u32, Digest> =
            index.lists().iter().map(|l| (l.cluster, l.digest)).collect();

        let impacts = impacts_with_weights(&query, |c| index.list(c).weight);
        let oracle = exhaustive_topk(&index, &impacts, k);

        for mode in [BoundsMode::CuckooFiltered, BoundsMode::MaxBound] {
            let out = inv_search(&index, &query, k, mode);
            prop_assert_eq!(&out.topk, &oracle);
            let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
            let verified = verify_topk(&out.vo, &query, &digests, &claimed, k, mode);
            prop_assert!(verified.is_ok(), "mode {:?}: {:?}", mode, verified.err());
        }
    }

    #[test]
    fn grouped_search_agrees_and_verifies(
        images in corpus_strategy(),
        query in query_strategy(),
        k in 1usize..6,
    ) {
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(N_CLUSTERS, &encodings);
        let plain = Index::<Posting>::build(N_CLUSTERS, &images, &model);
        let grouped = Index::<Group>::build(N_CLUSTERS, &images, &model);

        let impacts = impacts_with_weights(&query, |c| plain.list(c).weight);
        let plain_set: std::collections::BTreeSet<u64> =
            exhaustive_topk(&plain, &impacts, k).iter().map(|&(i, _)| i).collect();

        let out = grouped_search(&grouped, &query, k);
        let grouped_set: std::collections::BTreeSet<u64> =
            out.topk.iter().map(|&(i, _)| i).collect();
        // Sets agree except for float-rounding ties; sizes always agree.
        prop_assert_eq!(plain_set.len(), grouped_set.len());

        let digests: BTreeMap<u32, Digest> =
            grouped.lists().iter().map(|l| (l.cluster, l.digest)).collect();
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let verified = verify_grouped_topk(&out.vo, &query, &digests, &claimed, k);
        prop_assert!(verified.is_ok(), "{:?}", verified.err());
    }

    /// A forged winner set (swapping in any non-winner) never verifies.
    #[test]
    fn forged_winner_never_verifies(
        images in corpus_strategy(),
        query in query_strategy(),
    ) {
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(N_CLUSTERS, &encodings);
        let index = Index::<Posting>::build(N_CLUSTERS, &images, &model);
        let digests: BTreeMap<u32, Digest> =
            index.lists().iter().map(|l| (l.cluster, l.digest)).collect();

        let k = 2;
        let out = inv_search(&index, &query, k, BoundsMode::CuckooFiltered);
        prop_assume!(out.topk.len() == k);
        let mut claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        // Find a non-winner whose score is strictly below the winner's —
        // swapping it in must be rejected.
        let impacts = impacts_with_weights(&query, |c| index.list(c).weight);
        let all = exhaustive_topk(&index, &impacts, usize::MAX);
        let kth_score = out.topk.last().map(|&(_, s)| s).unwrap_or(0.0);
        let strictly_worse = all.iter().find(|&&(i, s)| !claimed.contains(&i) && s < kth_score);
        prop_assume!(strictly_worse.is_some());
        claimed[0] = strictly_worse.expect("checked").0;
        let verified = verify_topk(&out.vo, &query, &digests, &claimed, k, BoundsMode::CuckooFiltered);
        prop_assert!(verified.is_err(), "forged set verified");
    }

    /// A plain posting is a group of one: when every group is a singleton
    /// and no two impacts in a list tie, the grouped index and the plain
    /// index run under the same batch schedule are the same search — same
    /// disclosed prefix per list, same counters, bit-equal top-k — and
    /// their verifiers reject the same tampered impact the same way.
    #[test]
    fn singleton_groups_search_exactly_like_plain_postings(
        images in singleton_group_corpus_strategy(),
        query in query_strategy(),
        k in 1usize..6,
    ) {
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(N_CLUSTERS, &encodings);
        let plain = Index::<Posting>::build(N_CLUSTERS, &images, &model);
        let grouped = Index::<Group>::build(N_CLUSTERS, &images, &model);
        // List order is unique only without impact ties (plain breaks them
        // by image id, grouped by frequency).
        let tie_free = plain
            .lists()
            .iter()
            .all(|l| l.postings.windows(2).all(|w| w[0].1 != w[1].1));
        prop_assume!(tie_free);
        prop_assert!(grouped.lists().iter().all(|l| l.postings.iter().all(|g| g.members.len() == 1)));

        let mode = BoundsMode::CuckooFiltered;
        let p = inv_search_with_tuning(&plain, &query, k, mode, SearchTuning::GROUPED);
        let g = grouped_search(&grouped, &query, k);
        let bits = |topk: &[(u64, f32)]| -> Vec<(u64, u32)> {
            topk.iter().map(|&(i, s)| (i, s.to_bits())).collect()
        };
        prop_assert_eq!(bits(&p.topk), bits(&g.topk));
        let counters = |s: &imageproof_invindex::InvSearchStats| {
            (s.popped, s.total_postings, s.rounds, s.blocks_scanned, s.blocks_skipped)
        };
        prop_assert_eq!(counters(&p.stats), counters(&g.stats));
        for (pl, gl) in p.vo.lists.iter().zip(&g.vo.lists) {
            let plain_prefix: Vec<u64> = pl.popped.iter().map(|&(image, _)| image).collect();
            let grouped_prefix: Vec<u64> = gl.popped.iter().map(|grp| grp.members[0].0).collect();
            prop_assert_eq!(plain_prefix, grouped_prefix, "cluster {}", pl.cluster);
            // Same skip proof up to the fence digest, which commits the
            // (differently hashed) entries behind it.
            let skip = |r: &RemainingVo| match r {
                RemainingVo::Exhausted { filter_digest } => (None, FilterVo::DigestOnly(*filter_digest)),
                RemainingVo::Skipped { max_impact, filter, .. } => (Some(max_impact.to_bits()), filter.clone()),
            };
            prop_assert_eq!(skip(&pl.remaining), skip(&gl.remaining), "cluster {}", pl.cluster);
        }

        // Halve one disclosed impact: directly in the plain posting, by
        // doubling the norm it is derived from in the group.
        let Some(i) = p.vo.lists.iter().position(|l| !l.popped.is_empty()) else {
            return Ok(());
        };
        let cluster = p.vo.lists[i].cluster;
        let claimed: Vec<u64> = p.topk.iter().map(|&(image, _)| image).collect();
        let digests = |ds: Vec<Digest>| -> BTreeMap<u32, Digest> {
            ds.into_iter().enumerate().map(|(c, d)| (c as u32, d)).collect()
        };
        let (mut forged_p, mut forged_g) = (p.vo.clone(), g.vo.clone());
        forged_p.lists[i].popped[0].1 *= 0.5;
        forged_g.lists[i].popped[0].members[0].1 *= 2.0;
        let expected = Err(InvVerifyError::DigestMismatch { cluster });
        let rejected_p = verify_topk(&forged_p, &query, &digests(plain.list_digests()), &claimed, k, mode);
        prop_assert_eq!(rejected_p.map(|v| v.topk), expected.clone());
        let rejected_g = verify_grouped_topk(&forged_g, &query, &digests(grouped.list_digests()), &claimed, k);
        prop_assert_eq!(rejected_g.map(|v| v.topk), expected);
    }
}
