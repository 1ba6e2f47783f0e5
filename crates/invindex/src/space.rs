//! Per-structure byte accounting for the authenticated indexes.
//!
//! The figures pipeline surfaces these numbers next to latency so index
//! footprint is a tracked metric (ROADMAP item): logical bytes of posting
//! payloads, cuckoo-filter tables, authentication digests, and the
//! block-max summaries added by the blocked commitment. "Logical" means
//! the canonical serialized size of each component, not allocator
//! overhead — stable across platforms and thread counts.

use crate::merkle::{Entry, Index};

/// Size of one [`imageproof_crypto::Digest`] on the wire.
const DIGEST_BYTES: usize = 32;

/// A block summary holds `f32` max impact plus two digests.
const BLOCK_SUMMARY_BYTES: usize = 4 + 2 * DIGEST_BYTES;

/// Byte footprint of an authenticated inverted index, split by structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceUsage {
    /// Posting payloads (ids, impacts; for grouped lists: frequencies,
    /// member ids, norms).
    pub posting_bytes: usize,
    /// Cuckoo-filter tables (canonical serialization).
    pub filter_bytes: usize,
    /// Authentication digests: per-list `h_Γ` plus memoized `h(Θ)`.
    pub digest_bytes: usize,
    /// Block-max summaries (`max_impact`, chain head, block digest).
    pub block_summary_bytes: usize,
}

impl SpaceUsage {
    /// Sum over all components.
    pub fn total(&self) -> usize {
        self.posting_bytes + self.filter_bytes + self.digest_bytes + self.block_summary_bytes
    }

    /// Component-wise sum (for aggregating shards or index pairs).
    pub fn merged(&self, other: &SpaceUsage) -> SpaceUsage {
        SpaceUsage {
            posting_bytes: self.posting_bytes + other.posting_bytes,
            filter_bytes: self.filter_bytes + other.filter_bytes,
            digest_bytes: self.digest_bytes + other.digest_bytes,
            block_summary_bytes: self.block_summary_bytes + other.block_summary_bytes,
        }
    }
}

impl<E: Entry> Index<E> {
    /// Logical byte footprint of the index, by structure.
    pub fn space_usage(&self) -> SpaceUsage {
        let mut u = SpaceUsage::default();
        for list in self.lists() {
            let entries: usize = list.postings.iter().map(E::logical_bytes).sum();
            u.posting_bytes += 4 + entries; // weight + entries
            u.filter_bytes += list.filter.to_bytes().len();
            u.digest_bytes += 2 * DIGEST_BYTES; // h_Γ + memoized h(Θ)
            u.block_summary_bytes += list.n_blocks() * BLOCK_SUMMARY_BYTES;
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use crate::grouped::Group;
    use crate::merkle::{Index, Posting};
    use imageproof_akm::bovw::{ImpactModel, SparseBovw};

    fn fixtures() -> (Index<Posting>, Index<Group>) {
        let images: Vec<(u64, SparseBovw)> = (0..40u64)
            .map(|id| {
                SparseBovw::from_counts([
                    (id as u32 % 6, 1 + id as u32 % 3),
                    ((id as u32 + 1) % 6, 1),
                ])
            })
            .enumerate()
            .map(|(i, b)| (i as u64, b))
            .collect();
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(6, &encodings);
        (
            Index::<Posting>::build(6, &images, &model),
            Index::<Group>::build(6, &images, &model),
        )
    }

    #[test]
    fn space_usage_counts_every_component() {
        let (plain, grouped) = fixtures();
        let u = plain.space_usage();
        assert!(u.posting_bytes > 0);
        assert!(u.filter_bytes > 0);
        assert!(u.digest_bytes > 0);
        assert!(u.block_summary_bytes > 0);
        assert_eq!(
            u.total(),
            u.posting_bytes + u.filter_bytes + u.digest_bytes + u.block_summary_bytes
        );
        let g = grouped.space_usage();
        // Grouping never inflates the posting payload beyond the plain one
        // plus per-group frequency headers.
        assert!(g.posting_bytes <= u.posting_bytes + 4 * 6 * 40);
        assert!(g.block_summary_bytes <= u.block_summary_bytes);
    }

    #[test]
    fn merged_adds_componentwise() {
        let (plain, _) = fixtures();
        let u = plain.space_usage();
        let m = u.merged(&u);
        assert_eq!(m.total(), 2 * u.total());
        assert_eq!(m.posting_bytes, 2 * u.posting_bytes);
    }
}
