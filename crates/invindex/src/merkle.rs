//! The blocked Merkle inverted list with cuckoo filters (paper §IV-B1,
//! Defs. 4–5; §VI-B, Defs. 6–7) — one engine, generic over what a list
//! entry *is*.
//!
//! Every cluster `c` has a Merkle inverted list `Γ_c` holding its entries
//! in descending impact order, partitioned into fixed-size blocks of
//! [`BLOCK_SIZE`] entries (the last block may be short). An entry is either
//! a plain [`Posting`] `⟨image, impact⟩` or a frequency
//! [`crate::grouped::Group`] — a plain posting is a group of one, so
//! everything except the [`Entry`] trait's handful of methods is shared.
//! Inside a block, entry digests form a hash chain from the tail forward
//! (Def. 4) terminating at [`Digest::ZERO`] at the block boundary. Each
//! block is committed as
//! `h_b = H(chain_head_b ‖ max_impact_{b+1} ‖ h_{b+1})` — it commits its
//! own contents plus the *successor's* impact bound and digest (`0.0` /
//! [`Digest::ZERO`] past the end) — and the list digest (Def. 5) binds the
//! cluster weight, the digest of a cuckoo filter seeded with the list's
//! image ids, and the first block's `(max_impact, digest)` pair. Committing
//! each bound one level *up* is what keeps the skip proof at a single
//! digest: a popped block's own bound is just its first disclosed impact,
//! so only the fence block's `(max_impact, digest)` pair ever ships, and it
//! arrives already bound into the last popped block's digest (or the list
//! head when nothing was popped).
//!
//! Revealing a whole-block prefix plus that fence pair authenticates
//! exactly the prefix and proves every skipped entry's impact is
//! ≤ `max_impact` — the skip proof the SP's block-max search relies on.
//!
//! All filters share one bucket geometry, sized from the longest list — the
//! property `MaxCount` (Alg. 2) relies on.

use imageproof_akm::bovw::{impact_value, ImpactModel, SparseBovw};
use imageproof_crypto::wire::{Reader, WireError, Writer};
use imageproof_crypto::Digest;
use imageproof_cuckoo::{CuckooFilter, FilterFull};
use imageproof_parallel::{try_par_map, Concurrency};

/// Number of entries (postings, or groups for the grouped index) per block.
/// Small enough that quick-scale lists still span multiple blocks, large
/// enough that a skipped block saves meaningful VO bytes over shipping its
/// entries.
pub const BLOCK_SIZE: usize = 8;

/// Build-time summary of one block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSummary {
    /// The block's first (hence largest) impact — the bound the SP's
    /// skip test and both sides' termination caps use.
    pub max_impact: f32,
    /// Head of the within-block entry hash chain (terminates at
    /// [`Digest::ZERO`] at the block boundary).
    pub chain_head: Digest,
    /// `h_b = H(chain_head ‖ max_impact_{b+1} ‖ h_{b+1})`: commits the
    /// block's contents and the successor's bound/digest pair — and so,
    /// transitively, every later block.
    pub digest: Digest,
}

/// Digest of one block given its successor's `(max_impact, digest)` pair
/// (`0.0` / ZERO for the last block). Binding the *successor's* bound here
/// makes the fence bound in a skip proof unforgeable — it is committed by
/// the last popped block's digest, which the client recomputes from
/// disclosed entries — while keeping the proof itself to one digest.
pub fn block_digest(chain_head: &Digest, next_max: f32, next: &Digest) -> Digest {
    Digest::builder()
        .digest(chain_head)
        .f32(next_max)
        .digest(next)
        .finish()
}

/// Digest of a whole list (Def. 5, blocked):
/// `h(w | h(Θ) | max_{blk_1} | h_{blk_1})`, where the trailing pair is the
/// first block's bound and digest — `0.0` / [`Digest::ZERO`] for an empty
/// list. Binding `max_{blk_1}` here closes the chain of successor-bound
/// commitments at the head, so an all-skipped list's fence bound is still
/// authenticated.
pub fn list_digest(
    weight: f32,
    filter_digest: &Digest,
    first_max: f32,
    first_block: &Digest,
) -> Digest {
    Digest::builder()
        .f32(weight)
        .digest(filter_digest)
        .f32(first_max)
        .digest(first_block)
        .finish()
}

/// One image entering or leaving a cluster's list (owner-side update).
#[derive(Clone, Copy, Debug)]
pub enum ListEdit {
    Insert {
        image: u64,
        frequency: u32,
        norm: f32,
    },
    Remove {
        image: u64,
    },
}

/// What one list entry is — exactly the things in which a plain posting
/// and a frequency group differ. List build, block summaries, search, VO
/// assembly, the VO codec and verification are written once over this
/// trait (implemented by [`Posting`] and [`crate::grouped::Group`] only).
pub trait Entry: Clone + Send + Sync {
    /// Digest of the entry given its successor's (Def. 4 / Def. 6).
    fn chain_digest(&self, next: &Digest) -> Digest;

    /// The entry's largest impact under the list's weight — its sort key
    /// and, for a block's first entry, the block bound. Total: `0.0` for an
    /// entry that is not [`Entry::well_formed`].
    fn head_impact(&self, weight: f32) -> f32;

    /// Breaks [`Entry::head_impact`] ties in list order (ascending);
    /// unique within a list.
    fn tie_break(&self) -> u64;

    /// Appends the `(image, impact)` pairs the entry stands for, in the
    /// order every side accumulates them.
    fn expand(&self, weight: f32, out: &mut Vec<(u64, f32)>);

    /// False for an entry no honest list contains (an empty group); the
    /// verifier rejects it before hashing.
    fn well_formed(&self) -> bool;

    /// Canonical wire form inside a list VO.
    fn encode_entry(&self, w: &mut Writer);

    /// Inverse of [`Entry::encode_entry`].
    fn decode_entry(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Logical payload bytes (for [`crate::space::SpaceUsage`]).
    fn logical_bytes(&self) -> usize;

    /// A list's entries (in any order) from its images'
    /// `(image, frequency, norm)` records.
    fn from_records(weight: f32, records: &[(u64, u32, f32)]) -> Vec<Self>;

    /// `entries` with one image inserted or removed (in any order).
    fn edited(entries: &[Self], weight: f32, edit: ListEdit) -> Vec<Self>;
}

/// One plain `⟨image, impact⟩` posting — the same pair the VO discloses.
pub type Posting = (u64, f32);

/// Digest of a posting given the digest of its successor (Def. 4).
pub fn posting_digest(posting: &Posting, next: &Digest) -> Digest {
    Digest::builder()
        .u64(posting.0)
        .f32(posting.1)
        .digest(next)
        .finish()
}

impl Entry for Posting {
    fn chain_digest(&self, next: &Digest) -> Digest {
        posting_digest(self, next)
    }

    fn head_impact(&self, _weight: f32) -> f32 {
        self.1
    }

    fn tie_break(&self) -> u64 {
        self.0
    }

    fn expand(&self, _weight: f32, out: &mut Vec<(u64, f32)>) {
        out.push(*self);
    }

    fn well_formed(&self) -> bool {
        true
    }

    fn encode_entry(&self, w: &mut Writer) {
        w.varint(self.0);
        w.f32(self.1);
    }

    fn decode_entry(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((r.varint()?, r.f32()?))
    }

    fn logical_bytes(&self) -> usize {
        8 + 4
    }

    fn from_records(weight: f32, records: &[(u64, u32, f32)]) -> Vec<Self> {
        records
            .iter()
            .map(|&(image, frequency, norm)| (image, impact_value(weight, frequency, norm)))
            .collect()
    }

    fn edited(entries: &[Self], weight: f32, edit: ListEdit) -> Vec<Self> {
        let mut postings = entries.to_vec();
        match edit {
            ListEdit::Insert {
                image,
                frequency,
                norm,
            } => postings.push((image, impact_value(weight, frequency, norm))),
            ListEdit::Remove { image } => postings.retain(|p| p.0 != image),
        }
        postings
    }
}

/// A cluster's blocked Merkle inverted list over entries of type `E`.
#[derive(Clone, Debug)]
pub struct List<E> {
    pub cluster: u32,
    /// `w_c` (Eq. 1); zero for clusters no image maps to.
    pub weight: f32,
    /// Entries in descending impact order (ties: ascending
    /// [`Entry::tie_break`]).
    pub postings: Vec<E>,
    /// Per-block summaries: `blocks[b]` covers entries
    /// `b·BLOCK_SIZE .. (b+1)·BLOCK_SIZE` (last block may be short).
    blocks: Vec<BlockSummary>,
    /// Filter seeded with every image id in `postings`.
    pub filter: CuckooFilter,
    /// `h_{Γ_c}` (Def. 5 / Def. 7).
    pub digest: Digest,
    /// Build-time memo of `h(Θ)` (the filter digest), so query-time VO
    /// assembly copies 32 bytes instead of re-running Keccak over the
    /// filter table.
    filter_commit: Digest,
}

impl<E: Entry> List<E> {
    /// Builds a list from unsorted entries; fails when the cuckoo filter's
    /// displacement chains cannot place every image id (index-level
    /// builders then retry with more buckets).
    pub fn try_build(
        cluster: u32,
        weight: f32,
        mut postings: Vec<E>,
        n_buckets: usize,
    ) -> Result<Self, FilterFull> {
        postings.sort_by(|a, b| {
            b.head_impact(weight)
                .total_cmp(&a.head_impact(weight))
                .then_with(|| a.tie_break().cmp(&b.tie_break()))
        });
        let mut filter = CuckooFilter::with_buckets(n_buckets);
        for (image, _) in expand_all(&postings, weight) {
            filter.insert(image)?;
        }
        let mut blocks: Vec<BlockSummary> = postings
            .chunks(BLOCK_SIZE)
            .map(|chunk| BlockSummary {
                max_impact: chunk.first().map_or(0.0, |e| e.head_impact(weight)),
                chain_head: chain_head(chunk),
                digest: Digest::ZERO,
            })
            .collect();
        let (mut next_max, mut next) = (0.0f32, Digest::ZERO);
        for b in blocks.iter_mut().rev() {
            b.digest = block_digest(&b.chain_head, next_max, &next);
            next_max = b.max_impact;
            next = b.digest;
        }
        let filter_commit = filter.digest();
        Ok(List {
            cluster,
            weight,
            postings,
            blocks,
            digest: list_digest(weight, &filter_commit, next_max, &next),
            filter,
            filter_commit,
        })
    }

    /// `h(Θ)`, memoized at build time.
    pub fn filter_commit(&self) -> Digest {
        self.filter_commit
    }

    /// The per-block summaries, in block order.
    pub fn blocks(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of entries covered by the first `b` blocks.
    pub fn block_offset(&self, b: usize) -> usize {
        (b * BLOCK_SIZE).min(self.postings.len())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when no image maps to this cluster.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Every `(image, impact)` pair of the list, in list order.
    pub fn pairs(&self) -> Vec<(u64, f32)> {
        expand_all(&self.postings, self.weight)
    }
}

/// The `(image, impact)` pairs of `entries`, in order.
pub(crate) fn expand_all<E: Entry>(entries: &[E], weight: f32) -> Vec<(u64, f32)> {
    let mut pairs = Vec::with_capacity(entries.len());
    for e in entries {
        e.expand(weight, &mut pairs);
    }
    pairs
}

/// Head of the hash chain over one block's entries (Def. 4), folded from
/// the tail forward.
pub(crate) fn chain_head<E: Entry>(block: &[E]) -> Digest {
    block
        .iter()
        .rev()
        .fold(Digest::ZERO, |next, e| e.chain_digest(&next))
}

/// The full index: one list per cluster (clusters with no images get an
/// empty list so the MRKD leaf digests have an `h_Γ` for every cluster).
#[derive(Clone, Debug)]
pub struct Index<E> {
    lists: Vec<List<E>>,
    /// Shared filter geometry (power of two).
    n_buckets: usize,
}

impl<E: Entry> Index<E> {
    /// Builds the index from every database image's `(id, BoVW encoding)`
    /// pair and the corpus impact model.
    pub fn build(n_clusters: usize, images: &[(u64, SparseBovw)], model: &ImpactModel) -> Self {
        Self::build_with(n_clusters, images, model, Concurrency::serial())
    }

    /// [`Index::build`] with the per-cluster list builds (grouping,
    /// sorting, cuckoo filter insertion, digest chaining) fanned out across
    /// workers.
    ///
    /// Each cluster's list is a pure function of its records and the
    /// shared bucket count; lists are merged in cluster order, and the
    /// geometry-doubling retry triggers iff *any* cluster fails — the same
    /// condition the serial build reacts to — so the built index is
    /// identical for every thread count.
    pub fn build_with(
        n_clusters: usize,
        images: &[(u64, SparseBovw)],
        model: &ImpactModel,
        conc: Concurrency,
    ) -> Self {
        let mut per_cluster: Vec<Vec<(u64, u32, f32)>> = vec![Vec::new(); n_clusters];
        for (image, bovw) in images {
            let norm = bovw.norm();
            for (c, f) in bovw.iter() {
                per_cluster[c as usize].push((*image, f, norm));
            }
        }
        // Common filter geometry from the longest list (the paper sizes
        // filter capacity from the maximal posting-list length, §VII-A; a
        // common geometry is what Lemma 1 / `MaxCount` require). Start at
        // the standard ~95% cuckoo load factor and double on the rare
        // displacement-chain failure.
        let max_len = per_cluster.iter().map(Vec::len).max().unwrap_or(0);
        let mut n_buckets = imageproof_cuckoo::buckets_for_capacity(max_len);
        loop {
            let built = try_par_map(conc, &per_cluster, |c, records| {
                let weight = model.weight(c as u32);
                let entries = E::from_records(weight, records);
                List::try_build(c as u32, weight, entries, n_buckets)
            });
            match built {
                Ok(lists) => return Index { lists, n_buckets },
                Err(_) => n_buckets *= 2,
            }
        }
    }

    /// The list of one cluster.
    pub fn list(&self, cluster: u32) -> &List<E> {
        &self.lists[cluster as usize]
    }

    /// All lists, ascending by cluster.
    pub fn lists(&self) -> &[List<E>] {
        &self.lists
    }

    /// Shared cuckoo-filter bucket count.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Per-cluster `h_Γ` digests, in cluster order — the vector the
    /// MRKD-tree build embeds into leaf digests.
    pub fn list_digests(&self) -> Vec<Digest> {
        self.lists.iter().map(|l| l.digest).collect()
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when the index has no clusters.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Total images across the given clusters' lists (the denominator of
    /// the "% popped postings" metric).
    pub fn total_postings(&self, clusters: impl Iterator<Item = u32>) -> usize {
        clusters.map(|c| self.list(c).pairs().len()).sum()
    }

    /// Owner-side incremental update, step 1: builds one cluster's
    /// replacement list with one image inserted or removed (keeping the
    /// frozen cluster weight and the common filter geometry) without
    /// touching the index.
    ///
    /// Fails with [`FilterFull`] when the new entries no longer fit the
    /// common geometry; callers should then rebuild the whole index
    /// (geometry is a global commitment, see `MaxCount`).
    pub fn rebuild_list(&self, cluster: u32, edit: ListEdit) -> Result<List<E>, FilterFull> {
        let old = self.list(cluster);
        let entries = E::edited(&old.postings, old.weight, edit);
        List::try_build(cluster, old.weight, entries, self.n_buckets)
    }

    /// Step 2: swaps a list from [`Index::rebuild_list`] in and returns its
    /// `h_Γ`. Infallible, so an update touching several clusters can build
    /// every list first and commit all or none.
    pub fn install_list(&mut self, list: List<E>) -> Digest {
        let digest = list.digest;
        let cluster = list.cluster as usize;
        self.lists[cluster] = list;
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_index() -> Index<Posting> {
        // Table II's toy corpus shape: a handful of images over 8 clusters.
        let images: Vec<(u64, SparseBovw)> = vec![
            (1, SparseBovw::from_counts([(5, 2), (0, 1)])),
            (3, SparseBovw::from_counts([(5, 1), (6, 1)])),
            (4, SparseBovw::from_counts([(5, 1), (6, 1), (2, 3)])),
            (5, SparseBovw::from_counts([(6, 2)])),
            (8, SparseBovw::from_counts([(6, 1), (0, 1)])),
        ];
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(8, &encodings);
        Index::<Posting>::build(8, &images, &model)
    }

    #[test]
    fn postings_are_impact_descending() {
        let idx = toy_index();
        for list in idx.lists() {
            for w in list.postings.windows(2) {
                assert!(w[0].1 >= w[1].1, "cluster {}", list.cluster);
            }
        }
    }

    #[test]
    fn every_cluster_has_a_digest_even_when_empty() {
        let idx = toy_index();
        assert_eq!(idx.list_digests().len(), 8);
        let empty = idx.list(7);
        assert!(empty.is_empty());
        assert_eq!(
            empty.digest,
            list_digest(0.0, &empty.filter.digest(), 0.0, &Digest::ZERO)
        );
    }

    /// A standalone list long enough to span several blocks (the toy corpus
    /// lists all fit in one block at BLOCK_SIZE = 8).
    fn long_list(n: usize) -> List<Posting> {
        let postings: Vec<Posting> = (0..n)
            .map(|i| (i as u64, 1.0 + ((n - i) as f32) * 0.25))
            .collect();
        List::<Posting>::try_build(0, 3.0, postings, 64).expect("64 buckets hold the fixture")
    }

    #[test]
    fn list_reconstructs_from_any_block_prefix() {
        let list = long_list(21);
        assert!(list.n_blocks() >= 3, "fixture should span several blocks");
        for split in 0..=list.n_blocks() {
            // Reveal whole blocks [..split]; reconstruct the first block's
            // (max, digest) pair from the revealed postings plus the fence
            // block's pair (the single-digest skip proof).
            let (mut max, mut bd) = list
                .blocks()
                .get(split)
                .map(|b| (b.max_impact, b.digest))
                .unwrap_or((0.0, Digest::ZERO));
            let revealed = &list.postings[..list.block_offset(split)];
            for chunk in revealed.chunks(BLOCK_SIZE).rev() {
                let mut h = Digest::ZERO;
                for p in chunk.iter().rev() {
                    h = posting_digest(p, &h);
                }
                bd = block_digest(&h, max, &bd);
                max = chunk[0].1;
            }
            assert_eq!(bd, list.blocks()[0].digest, "split {split}");
            let rebuilt = list_digest(list.weight, &list.filter.digest(), max, &bd);
            assert_eq!(rebuilt, list.digest);
        }
    }

    #[test]
    fn block_summaries_bind_the_block_max() {
        let list = long_list(20);
        for (b, summary) in list.blocks().iter().enumerate() {
            let lo = list.block_offset(b);
            let hi = list.block_offset(b + 1);
            let true_max = list.postings[lo].1;
            assert_eq!(summary.max_impact, true_max);
            assert!(list.postings[lo..hi]
                .iter()
                .all(|p| p.1 <= summary.max_impact));
            // Inflating the claimed bound changes the commitment one level
            // up: the list head binds block 0's bound, each block binds its
            // successor's.
            let forged_max = summary.max_impact + 0.5;
            if b == 0 {
                assert_ne!(
                    list_digest(
                        list.weight,
                        &list.filter.digest(),
                        forged_max,
                        &summary.digest
                    ),
                    list.digest
                );
            } else {
                let prev = &list.blocks()[b - 1];
                assert_ne!(
                    block_digest(&prev.chain_head, forged_max, &summary.digest),
                    prev.digest
                );
            }
        }
    }

    #[test]
    fn filters_share_geometry_and_contain_their_images() {
        let idx = toy_index();
        for list in idx.lists() {
            assert_eq!(list.filter.n_buckets(), idx.n_buckets());
            for p in &list.postings {
                assert!(list.filter.contains(p.0));
            }
        }
    }

    #[test]
    fn tampering_a_posting_breaks_the_chain() {
        let list = long_list(12);
        let mut forged = list.postings.clone();
        forged[9].1 += 0.1;
        let (mut max, mut bd) = (0.0f32, Digest::ZERO);
        for chunk in forged.chunks(BLOCK_SIZE).rev() {
            let mut h = Digest::ZERO;
            for p in chunk.iter().rev() {
                h = posting_digest(p, &h);
            }
            bd = block_digest(&h, max, &bd);
            max = chunk[0].1;
        }
        assert_ne!(
            list_digest(list.weight, &list.filter.digest(), max, &bd),
            list.digest
        );
    }

    #[test]
    fn impacts_match_the_model() {
        let images: Vec<(u64, SparseBovw)> = vec![
            (10, SparseBovw::from_counts([(0, 3), (1, 4)])),
            (11, SparseBovw::from_counts([(1, 1)])),
        ];
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(2, &encodings);
        let idx = Index::<Posting>::build(2, &images, &model);
        let list1 = idx.list(1);
        let p10 = list1
            .postings
            .iter()
            .find(|p| p.0 == 10)
            .expect("image 10 in cluster 1");
        assert_eq!(p10.1, model.impact(&encodings[0], 1));
    }

    #[test]
    fn filter_digest_memo_matches_recomputation() {
        for list in toy_index().lists() {
            assert_eq!(list.filter_commit(), list.filter.digest());
        }
    }

    #[test]
    fn total_postings_counts_selected_clusters() {
        let idx = toy_index();
        let total: usize = idx.total_postings([5u32, 6].into_iter());
        assert_eq!(total, idx.list(5).len() + idx.list(6).len());
    }
}
