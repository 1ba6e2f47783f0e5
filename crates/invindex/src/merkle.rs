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
//!
//! Every digest above is hashed through one scheduler, `seal`, eight
//! messages to a permutation: a build or update first *shapes* each list
//! (sort, filter insertion), then seals any number of lists together by
//! chain position — entry chains from the tail of every block, then block
//! digests tail first, then list digests. The owner's build and updates
//! and the client's list check all go through it; each message is written
//! by one function taking a [`DigestBuilder`], so a scalar fold over one
//! list hashes the same bytes.

use imageproof_akm::bovw::{impact_value, ImpactModel, SparseBovw};
use imageproof_crypto::wire::{Reader, WireError, Writer};
use imageproof_crypto::{Digest, DigestBatch, DigestBuilder, FieldSink};
use imageproof_cuckoo::{CuckooFilter, FilterFull};
use imageproof_parallel::{par_map, try_par_map, Concurrency};

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

/// The message of one block digest given its successor's
/// `(max_impact, digest)` pair (`0.0` / ZERO for the last block). Binding
/// the *successor's* bound here makes the fence bound in a skip proof
/// unforgeable — it is committed by the last popped block's digest, which
/// the client recomputes from disclosed entries — while keeping the proof
/// itself to one digest. Like every message below it takes the builder to
/// write into: `Digest::builder()` for the digest itself,
/// `batch.message()` to queue it in a [`DigestBatch`].
pub fn block_digest<S: FieldSink>(
    b: DigestBuilder<S>,
    chain_head: &Digest,
    next_max: f32,
    next: &Digest,
) -> S::Out {
    b.digest(chain_head).f32(next_max).digest(next).finish()
}

/// The message of a whole list's digest (Def. 5, blocked):
/// `h(w | h(Θ) | max_{blk_1} | h_{blk_1})`, where the trailing pair is the
/// first block's bound and digest — `0.0` / [`Digest::ZERO`] for an empty
/// list. Binding `max_{blk_1}` here closes the chain of successor-bound
/// commitments at the head, so an all-skipped list's fence bound is still
/// authenticated.
pub fn list_digest<S: FieldSink>(
    b: DigestBuilder<S>,
    weight: f32,
    filter_digest: &Digest,
    first_max: f32,
    first_block: &Digest,
) -> S::Out {
    b.f32(weight)
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
    /// The message of the entry's chain digest given its successor's
    /// (Def. 4 / Def. 6), written into `b`.
    fn chain_digest<S: FieldSink>(&self, b: DigestBuilder<S>, next: &Digest) -> S::Out;

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

/// The message of a posting's digest given its successor's (Def. 4).
pub fn posting_digest<S: FieldSink>(
    b: DigestBuilder<S>,
    posting: &Posting,
    next: &Digest,
) -> S::Out {
    b.u64(posting.0).f32(posting.1).digest(next).finish()
}

impl Entry for Posting {
    fn chain_digest<S: FieldSink>(&self, b: DigestBuilder<S>, next: &Digest) -> S::Out {
        posting_digest(b, self, next)
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
    /// Builds lists from `(cluster, weight, entries)` specs (entries in any
    /// order) against one filter geometry. Every list is shaped first —
    /// sorted, its cuckoo filter filled — and the first whose filter's
    /// displacement chains cannot place every image id, in the order
    /// given, fails the call before anything is hashed (index-level
    /// builders then retry with more buckets, updates give up). Only then
    /// are all the lists sealed, in one batch.
    pub fn try_build_all(
        specs: impl IntoIterator<Item = (u32, f32, Vec<E>)>,
        n_buckets: usize,
    ) -> Result<Vec<Self>, (u32, FilterFull)> {
        let mut lists = specs
            .into_iter()
            .map(|(cluster, weight, entries)| {
                List::shape(cluster, weight, entries, n_buckets).map_err(|full| (cluster, full))
            })
            .collect::<Result<Vec<_>, _>>()?;
        seal_lists(Concurrency::serial(), &mut lists);
        Ok(lists)
    }

    /// The unhashed half of a build: entries sorted (descending head
    /// impact, ties by [`Entry::tie_break`]) and the filter filled. Blocks,
    /// `h(Θ)` and `h_Γ` stay empty until [`seal_lists`].
    fn shape(
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
        Ok(List {
            cluster,
            weight,
            postings,
            blocks: Vec::new(),
            filter,
            digest: Digest::ZERO,
            filter_commit: Digest::ZERO,
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
/// the tail forward one scalar digest at a time — the reference
/// [`seal`]'s first rounds are tested against.
#[cfg(test)]
pub(crate) fn chain_head<E: Entry>(block: &[E]) -> Digest {
    block.iter().rev().fold(Digest::ZERO, |next, e| {
        e.chain_digest(Digest::builder(), &next)
    })
}

/// One list to seal: its entries in list order — a whole list, or a
/// VO's popped prefix — its weight, `h(Θ)`, and the `(max_impact,
/// digest)` pair its last block commits as successor (`(0.0, ZERO)` for a
/// whole list, the fence pair under a skip proof).
pub(crate) struct SealJob<'a, E> {
    pub entries: &'a [E],
    pub weight: f32,
    pub filter_commit: Digest,
    pub fence: (f32, Digest),
}

/// The one scheduler under every inverted-list digest — owner build,
/// updates and client verification alike. Returns each job's block
/// summaries and `h_Γ`, in job order. The messages of all the jobs are
/// queued in one [`DigestBatch`] by chain position, so each round's
/// messages are independent of each other:
///
/// 1. entry chains: round `r` hashes the `r`-th entry from the tail of
///    every block still live; every block's chain starts at
///    [`Digest::ZERO`], so there are at most [`BLOCK_SIZE`] rounds;
/// 2. block digests, tail-first across lists: round `j` seals block
///    `n_b − 1 − j` of every list that has one, against its successor's
///    pair (the job's fence for the last block);
/// 3. the list digests.
///
/// Each message is the function a scalar fold would call, so the digests
/// equal a one-list-at-a-time fold's by construction.
// audit:allow(panic) every `(list, block)` pair in `queued` was pushed while iterating that very block of `blocks`
pub(crate) fn seal<E: Entry>(jobs: &[SealJob<'_, E>]) -> Vec<(Vec<BlockSummary>, Digest)> {
    let mut blocks: Vec<Vec<BlockSummary>> = jobs
        .iter()
        .map(|job| {
            let block = |chunk: &[E]| BlockSummary {
                max_impact: chunk.first().map_or(0.0, |e| e.head_impact(job.weight)),
                chain_head: Digest::ZERO,
                digest: Digest::ZERO,
            };
            job.entries.chunks(BLOCK_SIZE).map(block).collect()
        })
        .collect();
    let mut batch = DigestBatch::new();
    let mut queued: Vec<(usize, usize)> = Vec::new();

    for r in 1..=BLOCK_SIZE {
        queued.clear();
        for (l, (job, summaries)) in jobs.iter().zip(&blocks).enumerate() {
            let chunks = job.entries.chunks(BLOCK_SIZE).zip(summaries).enumerate();
            for (b, (chunk, summary)) in chunks {
                if let Some(e) = chunk.len().checked_sub(r).and_then(|i| chunk.get(i)) {
                    e.chain_digest(batch.message(), &summary.chain_head);
                    queued.push((l, b));
                }
            }
        }
        if queued.is_empty() {
            break;
        }
        for (&(l, b), d) in queued.iter().zip(batch.finish()) {
            blocks[l][b].chain_head = d;
        }
    }

    let longest = blocks.iter().map(Vec::len).max().unwrap_or(0);
    for j in 1..=longest {
        queued.clear();
        for (l, (job, summaries)) in jobs.iter().zip(&blocks).enumerate() {
            let Some(b) = summaries.len().checked_sub(j) else {
                continue;
            };
            let (next_max, next) = summaries
                .get(b + 1)
                .map_or(job.fence, |s| (s.max_impact, s.digest));
            block_digest(batch.message(), &summaries[b].chain_head, next_max, &next);
            queued.push((l, b));
        }
        for (&(l, b), d) in queued.iter().zip(batch.finish()) {
            blocks[l][b].digest = d;
        }
    }

    for (job, summaries) in jobs.iter().zip(&blocks) {
        let (first_max, first) = summaries
            .first()
            .map_or(job.fence, |s| (s.max_impact, s.digest));
        list_digest(
            batch.message(),
            job.weight,
            &job.filter_commit,
            first_max,
            &first,
        );
    }
    blocks.into_iter().zip(batch.finish()).collect()
}

/// Seals shaped lists in place — `h(Θ)`, block summaries and `h_Γ` —
/// one batch per worker, each over a contiguous run of lists. Every list's
/// digests are a function of that list alone, so the result is the same
/// for every thread count.
fn seal_lists<E: Entry>(conc: Concurrency, lists: &mut [List<E>]) {
    let runs: Vec<&[List<E>]> = lists
        .chunks(lists.len().div_ceil(conc.threads).max(1))
        .collect();
    let sealed = par_map(conc, &runs, |_, run| {
        let commits: Vec<Digest> = run.iter().map(|l| l.filter.digest()).collect();
        let jobs: Vec<SealJob<'_, E>> = run
            .iter()
            .zip(&commits)
            .map(|(l, &filter_commit)| SealJob {
                entries: &l.postings,
                weight: l.weight,
                filter_commit,
                fence: (0.0, Digest::ZERO),
            })
            .collect();
        commits.into_iter().zip(seal(&jobs)).collect::<Vec<_>>()
    });
    for (list, (filter_commit, (blocks, digest))) in
        lists.iter_mut().zip(sealed.into_iter().flatten())
    {
        list.filter_commit = filter_commit;
        list.blocks = blocks;
        list.digest = digest;
    }
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

    /// [`Index::build`] with the per-cluster shaping (grouping, sorting,
    /// cuckoo filter insertion) fanned out across workers, then the
    /// sealing run in one batch per worker.
    ///
    /// Each cluster's list is a pure function of its records and the
    /// shared bucket count; lists are merged in cluster order, and the
    /// geometry-doubling retry triggers iff *any* cluster fails — the same
    /// condition the serial build reacts to, and before anything is
    /// hashed — so the built index is identical for every thread count.
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
            let shaped = try_par_map(conc, &per_cluster, |c, records| {
                let weight = model.weight(c as u32);
                let entries = E::from_records(weight, records);
                List::shape(c as u32, weight, entries, n_buckets)
            });
            match shaped {
                Ok(mut lists) => {
                    seal_lists(conc, &mut lists);
                    return Index { lists, n_buckets };
                }
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

    /// Owner-side incremental update, step 1: builds the replacement list
    /// of every `(cluster, edit)` pair — one image inserted into or
    /// removed from each, keeping the frozen cluster weight and the common
    /// filter geometry — without touching the index, sealing them all in
    /// one batch.
    ///
    /// Fails with the first cluster, in the order given, whose new entries
    /// no longer fit the common geometry, before anything is hashed;
    /// callers should then rebuild the whole index (geometry is a global
    /// commitment, see `MaxCount`).
    pub fn rebuild_lists(
        &self,
        edits: impl IntoIterator<Item = (u32, ListEdit)>,
    ) -> Result<Vec<List<E>>, (u32, FilterFull)> {
        let specs = edits.into_iter().map(|(cluster, edit)| {
            let old = self.list(cluster);
            (
                cluster,
                old.weight,
                E::edited(&old.postings, old.weight, edit),
            )
        });
        List::try_build_all(specs, self.n_buckets)
    }

    /// Step 2: swaps a list from [`Index::rebuild_lists`] in and returns its
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
            list_digest(
                Digest::builder(),
                0.0,
                &empty.filter.digest(),
                0.0,
                &Digest::ZERO
            )
        );
    }

    /// A standalone list long enough to span several blocks (the toy corpus
    /// lists all fit in one block at BLOCK_SIZE = 8).
    fn long_list(n: usize) -> List<Posting> {
        let postings: Vec<Posting> = (0..n)
            .map(|i| (i as u64, 1.0 + ((n - i) as f32) * 0.25))
            .collect();
        let built = List::try_build_all([(0, 3.0, postings)], 64);
        let list = built.ok().and_then(|lists| lists.into_iter().next());
        list.expect("64 buckets hold the fixture")
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
                    h = posting_digest(Digest::builder(), p, &h);
                }
                bd = block_digest(Digest::builder(), &h, max, &bd);
                max = chunk[0].1;
            }
            assert_eq!(bd, list.blocks()[0].digest, "split {split}");
            let rebuilt = list_digest(
                Digest::builder(),
                list.weight,
                &list.filter.digest(),
                max,
                &bd,
            );
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
                        Digest::builder(),
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
                    block_digest(
                        Digest::builder(),
                        &prev.chain_head,
                        forged_max,
                        &summary.digest
                    ),
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
                h = posting_digest(Digest::builder(), p, &h);
            }
            bd = block_digest(Digest::builder(), &h, max, &bd);
            max = chunk[0].1;
        }
        assert_ne!(
            list_digest(
                Digest::builder(),
                list.weight,
                &list.filter.digest(),
                max,
                &bd
            ),
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

    /// One list built on its own, as updates rebuilt them one at a time.
    fn one_list<E: Entry>(
        cluster: u32,
        weight: f32,
        entries: Vec<E>,
        n_buckets: usize,
    ) -> Result<List<E>, (u32, FilterFull)> {
        let built = List::try_build_all([(cluster, weight, entries)], n_buckets)?;
        Ok(built.into_iter().next().expect("one spec, one list"))
    }

    fn assert_same_list<E: Entry + PartialEq + std::fmt::Debug>(got: &List<E>, want: &List<E>) {
        let c = want.cluster;
        assert_eq!(got.cluster, c);
        assert_eq!(got.weight, want.weight, "cluster {c}");
        assert_eq!(got.postings, want.postings, "cluster {c}");
        assert_eq!(got.blocks, want.blocks, "cluster {c}");
        assert_eq!(got.filter, want.filter, "cluster {c}");
        assert_eq!(got.filter_commit, want.filter_commit, "cluster {c}");
        assert_eq!(got.digest, want.digest, "cluster {c}");
    }

    type Edits = Vec<(u32, ListEdit)>;

    /// A corpus whose lists run from empty to several blocks long (for
    /// groups too: eleven frequencies), with the edits of inserting a new
    /// image and of removing image 7, in ascending cluster order.
    fn update_fixture<E: Entry>() -> (Index<E>, Edits, Edits) {
        // Image `id` maps to cluster `c` iff `id < SIZES[c]`.
        const SIZES: [u64; 12] = [3, 40, 2, 25, 0, 9, 17, 1, 5, 30, 12, 0];
        let images: Vec<(u64, SparseBovw)> = (0..40u64)
            .map(|id| {
                let clusters = (0..12u32).filter(|&c| id < SIZES[c as usize]);
                let pairs = clusters.map(|c| (c, 1 + (id as u32 + c) % 11));
                (id, SparseBovw::from_counts(pairs))
            })
            .collect();
        let encodings: Vec<SparseBovw> = images.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(SIZES.len(), &encodings);
        let index = Index::<E>::build(SIZES.len(), &images, &model);
        let fresh = SparseBovw::from_counts([(0, 2), (1, 1), (2, 4), (3, 1), (4, 1), (9, 3)]);
        let norm = fresh.norm();
        let insert = fresh
            .iter()
            .map(|(c, frequency)| {
                (
                    c,
                    ListEdit::Insert {
                        image: 1_000,
                        frequency,
                        norm,
                    },
                )
            })
            .collect();
        let remove = images[7]
            .1
            .iter()
            .map(|(c, _)| (c, ListEdit::Remove { image: 7 }))
            .collect();
        (index, insert, remove)
    }

    fn multi_list_update_matches_per_list_rebuilds<E: Entry + PartialEq + std::fmt::Debug>() {
        let (index, insert, remove) = update_fixture::<E>();
        for edits in [insert, remove] {
            let rebuilt = index.rebuild_lists(edits.clone()).expect("the edits fit");
            assert_eq!(rebuilt.len(), edits.len());
            assert!(
                rebuilt.iter().any(|l| l.n_blocks() >= 2),
                "a multi-block list"
            );
            for (list, &(cluster, edit)) in rebuilt.iter().zip(&edits) {
                let old = index.list(cluster);
                let entries = E::edited(&old.postings, old.weight, edit);
                let want = one_list(cluster, old.weight, entries, index.n_buckets());
                assert_same_list(list, &want.expect("fits"));
            }
        }
    }

    #[test]
    fn a_multi_list_update_equals_per_list_rebuilds() {
        multi_list_update_matches_per_list_rebuilds::<Posting>();
        multi_list_update_matches_per_list_rebuilds::<crate::grouped::Group>();
    }

    #[test]
    fn the_first_overflowing_cluster_fails_the_update() {
        let (index, insert, _) = update_fixture::<Posting>();
        // Re-commit the same lists under a geometry of 8 slots: lists of at
        // most a few images still fit, the longest no longer do.
        let small = Index {
            lists: index.lists.clone(),
            n_buckets: 2,
        };
        let fits = |&(c, edit): &(u32, ListEdit)| {
            let old = small.list(c);
            let entries = Posting::edited(&old.postings, old.weight, edit);
            one_list(c, old.weight, entries, 2).is_ok()
        };
        let verdicts: Vec<bool> = insert.iter().map(fits).collect();
        let first_full = verdicts
            .iter()
            .position(|ok| !ok)
            .expect("an overflowing cluster");
        assert!(
            first_full > 0,
            "a cluster that fits comes first: {verdicts:?}"
        );
        let second_full = verdicts.iter().skip(first_full + 1).position(|ok| !ok);
        assert!(
            second_full.is_some(),
            "a later one overflows too: {verdicts:?}"
        );
        match small.rebuild_lists(insert.clone()) {
            Err((cluster, FilterFull)) => assert_eq!(cluster, insert[first_full].0),
            Ok(_) => panic!("an overflowing cluster must fail the update"),
        }
    }
}
