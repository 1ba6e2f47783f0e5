//! The impact-ordered Merkle inverted index with cuckoo filters
//! (paper §IV-B1, Defs. 4–5), organized into block-max posting blocks.
//!
//! Every cluster `c` has a Merkle inverted list `Γ_c` holding its postings
//! `⟨image, impact⟩` in descending impact order, partitioned into
//! fixed-size blocks of [`BLOCK_SIZE`] postings (the last block may be
//! short). Inside a block, posting digests form a hash chain from the tail
//! forward (Def. 4) terminating at [`Digest::ZERO`] at the block boundary.
//! Each block is committed as
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
//! exactly the prefix and proves every skipped posting's impact is
//! ≤ `max_impact` — the skip proof the SP's block-max search relies on.
//!
//! All filters share one bucket geometry, sized from the longest list — the
//! property `MaxCount` (Alg. 2) relies on.

use imageproof_akm::bovw::{impact_value, ImpactModel, SparseBovw};
use imageproof_crypto::Digest;
use imageproof_cuckoo::CuckooFilter;
use imageproof_parallel::{try_par_map, Concurrency};

/// Number of postings (or groups, for the grouped index) per block. Small
/// enough that quick-scale lists still span multiple blocks, large enough
/// that a skipped block saves meaningful VO bytes over shipping its
/// postings.
pub const BLOCK_SIZE: usize = 8;

/// Build-time summary of one posting block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSummary {
    /// The block's first (hence largest) impact — the bound the SP's
    /// skip test and both sides' termination caps use.
    pub max_impact: f32,
    /// Head of the within-block posting hash chain (terminates at
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
/// disclosed postings — while keeping the proof itself to one digest.
pub fn block_digest(chain_head: &Digest, next_max: f32, next: &Digest) -> Digest {
    Digest::builder()
        .digest(chain_head)
        .f32(next_max)
        .digest(next)
        .finish()
}

/// Folds per-block chains and block digests over `chunks` (an iterator of
/// equal-size chunks except possibly the last), given each chunk's
/// within-chunk digest fold. Shared by the plain and grouped builders.
pub(crate) fn build_block_summaries<T>(
    items: &[T],
    fold_chain: impl Fn(&[T]) -> Digest,
    max_of: impl Fn(&[T]) -> f32,
) -> Vec<BlockSummary> {
    let mut blocks: Vec<BlockSummary> = items
        .chunks(BLOCK_SIZE)
        .map(|chunk| BlockSummary {
            max_impact: max_of(chunk),
            chain_head: fold_chain(chunk),
            digest: Digest::ZERO,
        })
        .collect();
    let (mut next_max, mut next) = (0.0f32, Digest::ZERO);
    for b in blocks.iter_mut().rev() {
        b.digest = block_digest(&b.chain_head, next_max, &next);
        next_max = b.max_impact;
        next = b.digest;
    }
    blocks
}

/// One `⟨image, impact⟩` posting.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Posting {
    pub image: u64,
    pub impact: f32,
}

/// Digest of a posting given the digest of its successor (Def. 4).
pub fn posting_digest(posting: &Posting, next: &Digest) -> Digest {
    Digest::builder()
        .u64(posting.image)
        .f32(posting.impact)
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

/// A cluster's Merkle inverted list.
#[derive(Clone, Debug)]
pub struct MerkleList {
    pub cluster: u32,
    /// `w_c` (Eq. 1); zero for clusters no image maps to.
    pub weight: f32,
    /// Postings in descending impact order (ties: ascending image id).
    pub postings: Vec<Posting>,
    /// Per-block summaries: `blocks[b]` covers postings
    /// `b·BLOCK_SIZE .. (b+1)·BLOCK_SIZE` (last block may be short).
    blocks: Vec<BlockSummary>,
    /// Filter seeded with every image id in `postings`.
    pub filter: CuckooFilter,
    /// `h_{Γ_c}` (Def. 5).
    pub digest: Digest,
    /// Build-time memo of `h(Θ)` (the filter digest), so query-time VO
    /// assembly copies 32 bytes instead of re-running Keccak over the
    /// filter table. `None` after [`MerkleList::clear_filter_cache`].
    filter_commit: Option<Digest>,
}

impl MerkleList {
    /// Builds a list from unsorted postings.
    ///
    /// # Panics
    /// Panics if the filter geometry cannot hold the postings; index-level
    /// builders use [`MerkleList::try_build`] and retry with more buckets.
    pub fn build(cluster: u32, weight: f32, postings: Vec<Posting>, n_buckets: usize) -> Self {
        Self::try_build(cluster, weight, postings, n_buckets)
            .expect("filter geometry sized for the longest list")
    }

    /// Fallible variant of [`MerkleList::build`]: fails when the cuckoo
    /// filter's displacement chains cannot place every image id.
    pub fn try_build(
        cluster: u32,
        weight: f32,
        mut postings: Vec<Posting>,
        n_buckets: usize,
    ) -> Result<Self, imageproof_cuckoo::FilterFull> {
        postings.sort_by(|a, b| {
            b.impact
                .total_cmp(&a.impact)
                .then_with(|| a.image.cmp(&b.image))
        });
        let mut filter = CuckooFilter::with_buckets(n_buckets);
        for p in &postings {
            filter.insert(p.image)?;
        }
        let blocks = build_block_summaries(
            &postings,
            |chunk| {
                let mut h = Digest::ZERO;
                for p in chunk.iter().rev() {
                    h = posting_digest(p, &h);
                }
                h
            },
            |chunk| chunk[0].impact,
        );
        let (first_max, first_block) = blocks
            .first()
            .map(|b| (b.max_impact, b.digest))
            .unwrap_or((0.0, Digest::ZERO));
        let filter_commit = filter.digest();
        let digest = list_digest(weight, &filter_commit, first_max, &first_block);
        Ok(MerkleList {
            cluster,
            weight,
            postings,
            blocks,
            filter,
            digest,
            filter_commit: Some(filter_commit),
        })
    }

    /// `h(Θ)` from the build-time memo when present, recomputed otherwise.
    /// The flag reports which path was taken (feeds the SP's
    /// `hashes_cached`/`hashes_computed` counters).
    pub fn filter_digest_cached(&self) -> (Digest, bool) {
        match self.filter_commit {
            Some(d) => (d, true),
            None => (self.filter.digest(), false),
        }
    }

    /// Drops the build-time `h(Θ)` memo so subsequent queries recompute it —
    /// the reference path the equivalence suite compares the memoized path
    /// against.
    pub fn clear_filter_cache(&mut self) {
        self.filter_commit = None;
    }

    /// The per-block summaries, in block order.
    pub fn blocks(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Number of posting blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of postings covered by the first `b` blocks.
    pub fn block_offset(&self, b: usize) -> usize {
        (b * BLOCK_SIZE).min(self.postings.len())
    }

    /// Digest of block `b` (covering blocks `b..`), or [`Digest::ZERO`]
    /// past the end.
    pub fn block_chain_digest(&self, b: usize) -> Digest {
        self.blocks.get(b).map(|s| s.digest).unwrap_or(Digest::ZERO)
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when no image maps to this cluster.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }
}

/// The full index: one Merkle list per cluster (clusters with no images get
/// an empty list so the MRKD leaf digests have an `h_Γ` for every cluster).
#[derive(Clone, Debug)]
pub struct MerkleInvertedIndex {
    lists: Vec<MerkleList>,
    /// Shared filter geometry (power of two).
    n_buckets: usize,
}

impl MerkleInvertedIndex {
    /// Builds the index from every database image's BoVW encoding and the
    /// corpus impact model. `encodings[i]` must belong to image id `i`... or
    /// rather, `images[i]` pairs ids with encodings explicitly.
    pub fn build(
        n_clusters: usize,
        images: &[(u64, SparseBovw)],
        model: &ImpactModel,
    ) -> MerkleInvertedIndex {
        Self::build_with(n_clusters, images, model, Concurrency::serial())
    }

    /// [`MerkleInvertedIndex::build`] with the per-cluster list builds
    /// (sorting, cuckoo filter insertion, digest chaining) fanned out
    /// across workers.
    ///
    /// Each cluster's list is a pure function of its postings and the
    /// shared bucket count; lists are merged in cluster order, and the
    /// geometry-doubling retry triggers iff *any* cluster fails — the same
    /// condition the serial build reacts to — so the built index is
    /// identical for every thread count.
    pub fn build_with(
        n_clusters: usize,
        images: &[(u64, SparseBovw)],
        model: &ImpactModel,
        conc: Concurrency,
    ) -> MerkleInvertedIndex {
        // Group postings per cluster.
        let mut per_cluster: Vec<Vec<Posting>> = vec![Vec::new(); n_clusters];
        for (image, bovw) in images {
            let norm = bovw.norm();
            for (c, f) in bovw.iter() {
                per_cluster[c as usize].push(Posting {
                    image: *image,
                    impact: impact_value(model.weight(c), f, norm),
                });
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
            let built: Result<Vec<MerkleList>, _> =
                try_par_map(conc, &per_cluster, |c, postings| {
                    MerkleList::try_build(
                        c as u32,
                        model.weight(c as u32),
                        postings.clone(),
                        n_buckets,
                    )
                });
            match built {
                Ok(lists) => return MerkleInvertedIndex { lists, n_buckets },
                Err(_) => n_buckets *= 2,
            }
        }
    }

    /// The list of one cluster.
    pub fn list(&self, cluster: u32) -> &MerkleList {
        &self.lists[cluster as usize]
    }

    /// All lists, ascending by cluster.
    pub fn lists(&self) -> &[MerkleList] {
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

    /// Total posting count across the given clusters (the denominator of the
    /// "% popped postings" metric).
    pub fn total_postings(&self, clusters: impl Iterator<Item = u32>) -> usize {
        clusters.map(|c| self.lists[c as usize].len()).sum()
    }

    /// Drops every list's `h(Θ)` memo (see
    /// [`MerkleList::clear_filter_cache`]).
    pub fn clear_filter_caches(&mut self) {
        for list in &mut self.lists {
            list.clear_filter_cache();
        }
    }

    /// Owner-side incremental update, step 1: builds one cluster's
    /// replacement list from new postings (keeping the frozen cluster
    /// weight and the common filter geometry) without touching the index.
    ///
    /// Fails with [`imageproof_cuckoo::FilterFull`] when the new postings no
    /// longer fit the common geometry; callers should then rebuild the
    /// whole index (geometry is a global commitment, see `MaxCount`).
    pub fn rebuild_list(
        &self,
        cluster: u32,
        postings: Vec<Posting>,
    ) -> Result<MerkleList, imageproof_cuckoo::FilterFull> {
        let weight = self.lists[cluster as usize].weight;
        MerkleList::try_build(cluster, weight, postings, self.n_buckets)
    }

    /// Step 2: swaps a list from [`MerkleInvertedIndex::rebuild_list`] in
    /// and returns its `h_Γ`. Infallible, so an update touching several
    /// clusters can build every list first and commit all or none.
    pub fn install_list(&mut self, list: MerkleList) -> Digest {
        let digest = list.digest;
        let cluster = list.cluster as usize;
        self.lists[cluster] = list;
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_index() -> MerkleInvertedIndex {
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
        MerkleInvertedIndex::build(8, &images, &model)
    }

    #[test]
    fn postings_are_impact_descending() {
        let idx = toy_index();
        for list in idx.lists() {
            for w in list.postings.windows(2) {
                assert!(w[0].impact >= w[1].impact, "cluster {}", list.cluster);
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
    fn long_list(n: usize) -> MerkleList {
        let postings: Vec<Posting> = (0..n)
            .map(|i| Posting {
                image: i as u64,
                impact: 1.0 + ((n - i) as f32) * 0.25,
            })
            .collect();
        MerkleList::build(0, 3.0, postings, 64)
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
                max = chunk[0].impact;
            }
            assert_eq!(bd, list.block_chain_digest(0), "split {split}");
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
            let true_max = list.postings[lo].impact;
            assert_eq!(summary.max_impact, true_max);
            assert!(list.postings[lo..hi]
                .iter()
                .all(|p| p.impact <= summary.max_impact));
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
                assert!(list.filter.contains(p.image));
            }
        }
    }

    #[test]
    fn tampering_a_posting_breaks_the_chain() {
        let list = long_list(12);
        let mut forged = list.postings.clone();
        forged[9].impact += 0.1;
        let (mut max, mut bd) = (0.0f32, Digest::ZERO);
        for chunk in forged.chunks(BLOCK_SIZE).rev() {
            let mut h = Digest::ZERO;
            for p in chunk.iter().rev() {
                h = posting_digest(p, &h);
            }
            bd = block_digest(&h, max, &bd);
            max = chunk[0].impact;
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
        let idx = MerkleInvertedIndex::build(2, &images, &model);
        let list1 = idx.list(1);
        let p10 = list1
            .postings
            .iter()
            .find(|p| p.image == 10)
            .expect("image 10 in cluster 1");
        assert_eq!(p10.impact, model.impact(&encodings[0], 1));
    }

    #[test]
    fn filter_digest_memo_matches_recomputation() {
        let mut idx = toy_index();
        let memoized: Vec<Digest> = idx
            .lists()
            .iter()
            .map(|l| {
                let (d, cached) = l.filter_digest_cached();
                assert!(cached, "fresh build must serve from the memo");
                d
            })
            .collect();
        idx.clear_filter_caches();
        for (list, memo) in idx.lists().iter().zip(&memoized) {
            let (d, cached) = list.filter_digest_cached();
            assert!(!cached, "cleared cache must recompute");
            assert_eq!(d, *memo);
            assert_eq!(d, list.filter.digest());
        }
    }

    #[test]
    fn total_postings_counts_selected_clusters() {
        let idx = toy_index();
        let total: usize = idx.total_postings([5u32, 6].into_iter());
        assert_eq!(total, idx.list(5).len() + idx.list(6).len());
    }
}
