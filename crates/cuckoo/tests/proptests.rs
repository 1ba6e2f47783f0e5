//! Property-based tests for cuckoo-filter invariants the protocol relies
//! on.

use imageproof_cuckoo::{max_count, CuckooFilter};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No false negatives: every inserted item is always found.
    #[test]
    fn no_false_negatives(items in proptest::collection::hash_set(any::<u64>(), 0..300)) {
        let mut f = CuckooFilter::with_capacity(items.len().max(1) * 2);
        for &i in &items {
            f.insert(i).expect("capacity is double the item count");
        }
        for &i in &items {
            prop_assert!(f.contains(i));
        }
    }

    /// Deleting what was inserted restores emptiness and digests match the
    /// canonical serialization round trip throughout.
    #[test]
    fn delete_inverts_insert(items in proptest::collection::hash_set(any::<u64>(), 1..150)) {
        let mut f = CuckooFilter::with_capacity(items.len() * 2);
        let empty_digest = f.digest();
        for &i in &items {
            f.insert(i).expect("sized");
        }
        let full = CuckooFilter::from_bytes(&f.to_bytes()).expect("canonical");
        prop_assert_eq!(&full, &f);
        for &i in &items {
            prop_assert!(f.delete(i), "delete of inserted item succeeds");
        }
        prop_assert!(f.is_empty());
        prop_assert_eq!(f.digest(), empty_digest);
    }

    /// γ from MaxCount upper-bounds the true max frequency of any item
    /// across arbitrary filter sets (Lemma 1).
    #[test]
    fn gamma_upper_bounds_frequency(
        assignments in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(0usize..12, 1..6)), 0..80)
    ) {
        let mut filters: Vec<CuckooFilter> =
            (0..12).map(|_| CuckooFilter::with_buckets(128)).collect();
        let mut true_freq: BTreeMap<u64, u32> = Default::default();
        for (item, filter_ids) in assignments {
            let distinct: BTreeSet<usize> = filter_ids.into_iter().collect();
            for fid in distinct {
                if filters[fid].insert(item).is_ok() {
                    *true_freq.entry(item).or_insert(0) += 1;
                }
            }
        }
        let refs: Vec<&CuckooFilter> = filters.iter().collect();
        let gamma = max_count(&refs);
        let true_max = true_freq.values().copied().max().unwrap_or(0);
        prop_assert!(gamma >= true_max, "gamma {} < max {}", gamma, true_max);
    }

    /// Serialization is canonical: decode(encode(f)) == f byte-for-byte.
    #[test]
    fn serialization_is_canonical(items in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut f = CuckooFilter::with_capacity(400);
        for i in items {
            let _ = f.insert(i);
        }
        let bytes = f.to_bytes();
        let g = CuckooFilter::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(g.to_bytes(), bytes);
    }
}
