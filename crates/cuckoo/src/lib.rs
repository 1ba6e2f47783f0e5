//! # imageproof-cuckoo
//!
//! Cuckoo filters (Fan et al., CoNEXT '14; paper §II-B, Fig. 2) plus the
//! `MaxCount` algorithm (paper Alg. 2).
//!
//! A cuckoo filter is a compact approximate-membership structure: each item
//! is reduced to an 8-bit fingerprint stored in one of two alternate buckets
//! (4 slots per bucket, the paper's parameters). ImageProof attaches one
//! filter to every Merkle inverted list to let the SP — and, during
//! verification, the client — prove that an image does *not* appear in a
//! posting list, which tightens the similarity upper bounds of Eqs. 11–12.
//!
//! Two properties drive the design here:
//!
//! * **Common geometry.** `MaxCount`'s soundness (Lemma 1) needs an item to
//!   hash to the *same* two bucket indices in every filter, so all filters
//!   of one index share a bucket count; [`max_count`] enforces this.
//! * **Canonical bytes.** The filter travels inside the VO and its digest is
//!   committed in the inverted-list digest (Def. 5), so [`CuckooFilter::to_bytes`]
//!   is a canonical serialization and [`CuckooFilter::digest`] hashes it.

use imageproof_crypto::sha3::Sha3_256;
use imageproof_crypto::Digest;
use std::sync::OnceLock;

/// Slots per bucket (paper/Fig. 2: four).
pub const SLOTS_PER_BUCKET: usize = 4;
/// Fingerprint width in bits (paper §VII-A: eight).
pub const FINGERPRINT_BITS: usize = 8;
/// Maximum displacement chain length before an insert is declared failed.
const MAX_KICKS: usize = 500;
/// Target load factor when sizing from a capacity.
const TARGET_LOAD: f64 = 0.95;

/// The partial-key offset of a fingerprint, shared by all filters: a
/// full-width hash of the fingerprint byte, tabulated once; the alternate
/// index is `i2 = i1 ^ (offset & mask)`.
// audit:allow(panic) fp as usize is below 256, the fixed offset table's length
fn offset_of(fp: u8) -> usize {
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (fp, slot) in t.iter_mut().enumerate() {
            *slot = splitmix64(0xCF00 | fp as u64);
        }
        t
    });
    table[fp as usize] as usize
}

/// A statistically strong 64-bit mixer (SplitMix64 finalizer). Filter
/// placement needs *uniformity*, not cryptographic strength — integrity
/// comes from the SHA3 digest over the filter's canonical bytes (Def. 5) —
/// so a fast mixer keeps lookups and deletions off every hot path's
/// critical hash budget.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One item's placement, hashed once: its fingerprint, the unmasked bits
/// of its primary bucket and the unmasked partial-key offset to its
/// alternate. Filters differ only in bucket count, so one probe serves
/// every filter of an index; [`CuckooFilter::contains_probe`] masks it per
/// filter.
#[derive(Clone, Copy, Debug)]
pub struct ItemProbe {
    /// A nonzero byte (zero marks an empty slot).
    fp: u8,
    primary: usize,
    offset: usize,
}

impl ItemProbe {
    /// Hashes `item` with one `splitmix64`: the low byte gives the
    /// fingerprint, the high word the primary bucket.
    pub fn of(item: u64) -> Self {
        let h = splitmix64(item);
        let fp = ((h as u8) % 255) + 1;
        ItemProbe {
            fp,
            primary: (h >> 32) as usize,
            offset: offset_of(fp),
        }
    }

    /// The two candidate buckets in a filter of `n_buckets` (a power of
    /// two): `i1` and `i2 = i1 ^ (offset & mask)`.
    fn buckets(&self, n_buckets: usize) -> [usize; 2] {
        let mask = n_buckets - 1;
        let i1 = self.primary & mask;
        [i1, i1 ^ (self.offset & mask)]
    }
}

/// The alternate bucket for a fingerprint currently at `bucket` (the kick
/// chain knows only the stored fingerprint, not the item).
fn alternate_bucket(bucket: usize, fp: u8, n_buckets: usize) -> usize {
    bucket ^ (offset_of(fp) & (n_buckets - 1))
}

/// Power-of-two bucket count able to hold `capacity` items at the standard
/// ~95% cuckoo load factor.
pub fn buckets_for_capacity(capacity: usize) -> usize {
    let needed = ((capacity.max(1) as f64) / (SLOTS_PER_BUCKET as f64 * TARGET_LOAD)).ceil();
    (needed as usize).next_power_of_two()
}

/// Error returned when the displacement chain cannot find space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterFull;

impl std::fmt::Display for FilterFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cuckoo filter is full (displacement chain exhausted)")
    }
}

impl std::error::Error for FilterFull {}

/// A cuckoo filter with 8-bit fingerprints and 4-slot buckets.
///
/// Equality compares the semantic contents (buckets and count), not the
/// internal kick-chain state, so a filter equals its serialization round
/// trip.
#[derive(Clone, Debug)]
pub struct CuckooFilter {
    buckets: Vec<[u8; SLOTS_PER_BUCKET]>,
    len: usize,
    /// Deterministic eviction-choice state (layout-only; reproducible
    /// builds beat randomized kick order here).
    kick_state: u64,
}

impl PartialEq for CuckooFilter {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets && self.len == other.len
    }
}

impl Eq for CuckooFilter {}

impl CuckooFilter {
    /// Creates a filter with an explicit power-of-two bucket count.
    ///
    /// # Panics
    /// Panics if `n_buckets` is zero or not a power of two (the partial-key
    /// XOR trick requires it).
    pub fn with_buckets(n_buckets: usize) -> Self {
        assert!(
            n_buckets > 0 && n_buckets.is_power_of_two(),
            "bucket count must be a nonzero power of two"
        );
        CuckooFilter {
            buckets: vec![[0u8; SLOTS_PER_BUCKET]; n_buckets],
            len: 0,
            kick_state: 0x9e3779b97f4a7c15,
        }
    }

    /// Creates a filter able to hold `capacity` items at a healthy load
    /// factor.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_buckets(buckets_for_capacity(capacity))
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of stored fingerprints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of one bucket's slots (used by `MaxCount`).
    // audit:allow(panic) callers iterate 0..n_buckets of this very filter (MaxCount asserts common geometry)
    pub fn bucket(&self, index: usize) -> &[u8; SLOTS_PER_BUCKET] {
        &self.buckets[index]
    }

    /// Inserts an item; duplicates are stored again (multiset semantics,
    /// matching the reference filter).
    pub fn insert(&mut self, item: u64) -> Result<(), FilterFull> {
        let probe = ItemProbe::of(item);
        let fp = probe.fp;
        let [i1, i2] = probe.buckets(self.n_buckets());
        if self.try_place(i1, fp) || self.try_place(i2, fp) {
            self.len += 1;
            return Ok(());
        }
        // Displace: walk a kick chain starting from a pseudo-random choice of
        // the two buckets.
        let mut bucket = if self.next_kick_bit() { i1 } else { i2 };
        let mut fp = fp;
        for _ in 0..MAX_KICKS {
            let slot = (self.next_kick() as usize) % SLOTS_PER_BUCKET;
            std::mem::swap(&mut fp, &mut self.buckets[bucket][slot]);
            bucket = alternate_bucket(bucket, fp, self.n_buckets());
            if self.try_place(bucket, fp) {
                self.len += 1;
                return Ok(());
            }
        }
        // Undo is impossible mid-chain; the reference filter also leaves the
        // displaced chain in place and reports failure. Callers size filters
        // from capacity, so this is exceptional.
        Err(FilterFull)
    }

    fn try_place(&mut self, bucket: usize, fp: u8) -> bool {
        for slot in self.buckets[bucket].iter_mut() {
            if *slot == 0 {
                *slot = fp;
                return true;
            }
        }
        false
    }

    fn next_kick(&mut self) -> u64 {
        // xorshift64*: deterministic, cheap, layout-quality randomness.
        let mut x = self.kick_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.kick_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_kick_bit(&mut self) -> bool {
        self.next_kick() & 1 == 1
    }

    /// Approximate membership: false means *definitely absent*; true means
    /// present with probability `1 - FPR`.
    pub fn contains(&self, item: u64) -> bool {
        self.contains_probe(&ItemProbe::of(item))
    }

    /// [`CuckooFilter::contains`] for an item hashed once by the caller,
    /// so probing many filters costs one hash.
    pub fn contains_probe(&self, probe: &ItemProbe) -> bool {
        probe
            .buckets(self.n_buckets())
            .into_iter()
            .any(|i| self.buckets.get(i).is_some_and(|b| b.contains(&probe.fp)))
    }

    /// Deletes one copy of an item's fingerprint; returns whether a copy was
    /// found. Only call for items known to be present (standard cuckoo-filter
    /// contract), which ImageProof guarantees: the client deletes exactly the
    /// image ids of verified popped postings (Alg. 3 `UpdateBounds`).
    // audit:allow(panic) i1/i2 are masked to the power-of-two bucket count, so both indices are in bounds
    pub fn delete(&mut self, item: u64) -> bool {
        let probe = ItemProbe::of(item);
        for bucket in probe.buckets(self.n_buckets()) {
            for slot in self.buckets[bucket].iter_mut() {
                if *slot == probe.fp {
                    *slot = 0;
                    self.len -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Canonical serialization: `u64` little-endian bucket count followed by
    /// the bucket slots in order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.buckets.len() * SLOTS_PER_BUCKET);
        out.extend_from_slice(&(self.buckets.len() as u64).to_le_bytes());
        for bucket in &self.buckets {
            out.extend_from_slice(bucket);
        }
        out
    }

    /// Parses a canonical serialization; `None` on malformed input (wrong
    /// length or non-power-of-two bucket count).
    // audit:allow(panic) both slice bounds follow the explicit `bytes.len() < 8` rejection above them
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let n_buckets: usize = u64::from_le_bytes(bytes[..8].try_into().ok()?)
            .try_into()
            .ok()?;
        if n_buckets == 0 || !n_buckets.is_power_of_two() {
            return None;
        }
        // Checked arithmetic: a hostile header can claim 2^62 buckets, which
        // would wrap the expected length to 8 and reach with_capacity.
        let expected = n_buckets
            .checked_mul(SLOTS_PER_BUCKET)
            .and_then(|b| b.checked_add(8))?;
        if bytes.len() != expected {
            return None;
        }
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut len = 0;
        for chunk in bytes[8..].chunks_exact(SLOTS_PER_BUCKET) {
            let bucket: [u8; SLOTS_PER_BUCKET] = chunk.try_into().ok()?;
            len += bucket.iter().filter(|&&s| s != 0).count();
            buckets.push(bucket);
        }
        Some(CuckooFilter {
            buckets,
            len,
            kick_state: 0x9e3779b97f4a7c15,
        })
    }

    /// `h(Θ)`: the SHA3-256 digest of the canonical serialization, as
    /// committed by the inverted-list digest (Def. 5).
    ///
    /// Streams the canonical bytes (bucket-count prefix, then bucket slots
    /// in order — exactly [`CuckooFilter::to_bytes`]) straight into the
    /// sponge, so no intermediate serialization buffer is allocated.
    pub fn digest(&self) -> Digest {
        let mut h = Sha3_256::new();
        h.update(&(self.buckets.len() as u64).to_le_bytes());
        for bucket in &self.buckets {
            h.update(bucket);
        }
        Digest(h.finalize())
    }
}

/// `MaxCount` (paper Alg. 2): an upper bound `γ` on the frequency of the most
/// frequent item across a set of filters with common geometry.
///
/// For every bucket position, counts the most frequent fingerprint among the
/// slots at that position across *all* filters, and returns twice the
/// maximum (each item has two alternate buckets).
///
/// # Panics
/// Panics when filters disagree on bucket count — that would break Lemma 1.
// audit:allow(panic) fingerprint bytes index the fixed [u32; 256] table; bucket ids run 0..n_buckets after the geometry assert
pub fn max_count(filters: &[&CuckooFilter]) -> u32 {
    let Some(first) = filters.first() else {
        return 0;
    };
    let n_buckets = first.n_buckets();
    assert!(
        filters.iter().all(|f| f.n_buckets() == n_buckets),
        "MaxCount requires a common bucket count (Lemma 1)"
    );

    let mut max_fp = 0u32;
    let mut counts = [0u32; 256];
    let mut touched: Vec<u8> = Vec::with_capacity(filters.len() * SLOTS_PER_BUCKET);
    for i in 0..n_buckets {
        for f in filters {
            for &slot in f.bucket(i) {
                if slot != 0 {
                    counts[slot as usize] += 1;
                    if counts[slot as usize] > max_fp {
                        max_fp = counts[slot as usize];
                    }
                    touched.push(slot);
                }
            }
        }
        for &t in &touched {
            counts[t as usize] = 0;
        }
        touched.clear();
    }
    2 * max_fp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_items_are_found() {
        let mut f = CuckooFilter::with_capacity(1000);
        for i in 0..1000u64 {
            f.insert(i).expect("capacity sized for 1000");
        }
        for i in 0..1000u64 {
            assert!(f.contains(i), "no false negatives: {i}");
        }
        assert_eq!(f.len(), 1000);
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = CuckooFilter::with_capacity(2000);
        for i in 0..2000u64 {
            f.insert(i).expect("sized");
        }
        let fp = (10_000..60_000u64).filter(|&i| f.contains(i)).count();
        let rate = fp as f64 / 50_000.0;
        // 8-bit fingerprints, 4-slot buckets → FPR ≈ 2·4/256 ≈ 3%.
        assert!(rate < 0.06, "false positive rate too high: {rate}");
    }

    #[test]
    fn delete_removes_exactly_one_copy() {
        let mut f = CuckooFilter::with_capacity(100);
        f.insert(7).expect("room");
        f.insert(7).expect("room");
        assert!(f.delete(7));
        assert!(f.contains(7), "second copy remains");
        assert!(f.delete(7));
        assert!(!f.contains(7), "both copies gone");
        assert!(!f.delete(7), "nothing left to delete");
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn deleting_absent_item_with_shared_fingerprint_is_safe() {
        // Deleting an item that was never inserted can remove a colliding
        // fingerprint — the documented cuckoo-filter contract. We only check
        // the operation never panics and never underflows.
        let mut f = CuckooFilter::with_capacity(10);
        f.insert(1).expect("room");
        let _ = f.delete(99);
        assert!(f.len() <= 1);
    }

    #[test]
    fn serialization_round_trips() {
        let mut f = CuckooFilter::with_capacity(500);
        for i in 0..400u64 {
            f.insert(i * 3).expect("sized");
        }
        let bytes = f.to_bytes();
        let g = CuckooFilter::from_bytes(&bytes).expect("canonical");
        assert_eq!(f, g);
        assert_eq!(f.digest(), g.digest());
    }

    #[test]
    fn from_bytes_rejects_malformed_input() {
        assert!(CuckooFilter::from_bytes(&[]).is_none());
        assert!(CuckooFilter::from_bytes(&[1, 2, 3]).is_none());
        // Bucket count 3 is not a power of two.
        let mut bad = 3u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 12]);
        assert!(CuckooFilter::from_bytes(&bad).is_none());
        // Truncated body.
        let mut short = 4u64.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 8]);
        assert!(CuckooFilter::from_bytes(&short).is_none());
    }

    #[test]
    fn from_bytes_rejects_overflowing_bucket_count() {
        // n_buckets = 2^62: `n_buckets * SLOTS_PER_BUCKET` wraps to zero on
        // 64-bit targets, so an unchecked length test would accept the
        // 8-byte header and try to allocate 2^62 buckets.
        let huge = [0, 0, 0, 0, 0, 0, 0, 0x40];
        assert!(CuckooFilter::from_bytes(&huge).is_none());
        // u64::MAX bucket count must not wrap the usize conversion either.
        assert!(CuckooFilter::from_bytes(&u64::MAX.to_le_bytes()).is_none());
    }

    #[test]
    fn streaming_digest_matches_digest_of_canonical_bytes() {
        // The streamed digest must hash exactly the `to_bytes` stream —
        // clients recompute `h(Θ)` from the serialized filter.
        for n in [0u64, 1, 7, 120, 400] {
            let mut f = CuckooFilter::with_capacity(500);
            for i in 0..n {
                f.insert(i * 11 + 5).expect("sized");
            }
            assert_eq!(f.digest(), Digest::of(&f.to_bytes()), "{n} items");
        }
    }

    #[test]
    fn digest_changes_when_contents_change() {
        let mut a = CuckooFilter::with_capacity(100);
        let mut b = CuckooFilter::with_capacity(100);
        a.insert(1).expect("room");
        b.insert(2).expect("room");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn alternate_bucket_is_an_involution() {
        for item in 0..200u64 {
            let probe = ItemProbe::of(item);
            let [i1, i2] = probe.buckets(64);
            assert_eq!(alternate_bucket(i1, probe.fp, 64), i2);
            assert_eq!(alternate_bucket(i2, probe.fp, 64), i1);
        }
    }

    #[test]
    fn fingerprints_are_never_zero() {
        for item in 0..10_000u64 {
            assert_ne!(ItemProbe::of(item).fp, 0);
        }
    }

    #[test]
    fn contains_probe_agrees_with_contains_at_every_bucket_count() {
        // One probe masked per filter must answer exactly what hashing the
        // item again for that filter's bucket count answers (the per-filter
        // lookup this crate used before `ItemProbe`), before and after
        // deletes.
        fn rehashed(f: &CuckooFilter, item: u64) -> bool {
            let n = f.n_buckets();
            let fp = ((splitmix64(item) as u8) % 255) + 1;
            let i1 = ((splitmix64(item) >> 32) as usize) & (n - 1);
            let i2 = alternate_bucket(i1, fp, n);
            f.bucket(i1).contains(&fp) || f.bucket(i2).contains(&fp)
        }
        let items: Vec<u64> = (0..600u64).map(|i| i * 7 + 3).collect();
        let probes: Vec<ItemProbe> = items.iter().map(|&i| ItemProbe::of(i)).collect();
        let mut n_buckets = 1;
        while n_buckets <= 4096 {
            let mut f = CuckooFilter::with_buckets(n_buckets);
            let stored = (n_buckets * SLOTS_PER_BUCKET / 2).max(1);
            for &item in items.iter().take(stored) {
                let _ = f.insert(item);
            }
            let agree = |f: &CuckooFilter| {
                items
                    .iter()
                    .zip(&probes)
                    .all(|(&item, probe)| f.contains_probe(probe) == rehashed(f, item))
            };
            assert!(agree(&f), "{n_buckets} buckets, before deletes");
            for &item in items.iter().take(stored).step_by(3) {
                f.delete(item);
            }
            assert!(agree(&f), "{n_buckets} buckets, after deletes");
            n_buckets *= 2;
        }
    }

    #[test]
    fn max_count_bounds_true_max_frequency() {
        // Build 20 filters of common geometry; item frequencies vary.
        let mut filters: Vec<CuckooFilter> =
            (0..20).map(|_| CuckooFilter::with_buckets(64)).collect();
        let mut true_freq = std::collections::BTreeMap::new();
        for item in 0..100u64 {
            let occurrences = (item % 7) as usize;
            for f in filters.iter_mut().take(occurrences) {
                f.insert(item).expect("room");
                *true_freq.entry(item).or_insert(0u32) += 1;
            }
        }
        let refs: Vec<&CuckooFilter> = filters.iter().collect();
        let gamma = max_count(&refs);
        let true_max = true_freq.values().copied().max().unwrap_or(0);
        assert!(gamma >= true_max, "gamma {gamma} < true max {true_max}");
    }

    #[test]
    fn max_count_of_empty_set_is_zero() {
        assert_eq!(max_count(&[]), 0);
        let f = CuckooFilter::with_buckets(8);
        assert_eq!(max_count(&[&f]), 0);
    }

    #[test]
    #[should_panic(expected = "common bucket count")]
    fn max_count_rejects_mismatched_geometry() {
        let a = CuckooFilter::with_buckets(8);
        let b = CuckooFilter::with_buckets(16);
        let _ = max_count(&[&a, &b]);
    }

    #[test]
    fn high_load_insertion_succeeds_via_kicking() {
        // 95% load on a small filter exercises the displacement chain.
        let mut f = CuckooFilter::with_buckets(32);
        let capacity = (32 * SLOTS_PER_BUCKET) as u64 * 95 / 100;
        let mut inserted = 0;
        for i in 0..capacity {
            if f.insert(i).is_ok() {
                inserted += 1;
            }
        }
        assert!(
            inserted as f64 >= capacity as f64 * 0.95,
            "too many failures: {inserted}/{capacity}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bucket_count_rejected() {
        let _ = CuckooFilter::with_buckets(6);
    }
}
