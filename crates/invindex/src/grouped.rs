//! The frequency-grouped Merkle inverted index (paper §VI-B, Defs. 6–7) —
//! the second optimization of ImageProof.
//!
//! Images with the same frequency count in a cluster are grouped into one
//! posting: `⟨frequency, (I_1, ‖B_{I_1}‖; …; I_n, ‖B_{I_n}‖), digest⟩`. The
//! first member has the smallest L2 norm (hence the largest impact, which
//! serves as the posting's impact); the remaining members are kept in
//! document (image-id) order so the wire encoding can d-gap + varint
//! compress them (§VI-B last paragraph). Grouping shrinks the VO and the
//! number of digest reconstructions the client performs, without changing
//! the termination conditions.
//!
//! Like the ungrouped index, grouped lists are partitioned into block-max
//! blocks of [`BLOCK_SIZE`] *groups*: each block is committed as
//! `H(group-chain ‖ max_{next} ‖ h_{next})` — its own contents plus the
//! successor block's impact bound and digest — so a partially-scanned list
//! is proven by the fence block's `(max_impact, digest)` pair, already
//! committed by the last disclosed block (or the list head).

use crate::bounds::{evaluate, BoundsMode, ListSnapshot};
use crate::merkle::{block_digest, build_block_summaries, BlockSummary, BLOCK_SIZE};
use crate::search::{InvSearchResult, InvSearchStats};
use crate::verify::InvVerifyError;
use crate::vo::{FilterVo, RemainingVo};
use imageproof_akm::bovw::{impact_value, impacts_with_weights, ImpactModel, SparseBovw};
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::Digest;
use imageproof_cuckoo::CuckooFilter;
use imageproof_parallel::{try_par_map, Concurrency};
use std::collections::{BTreeMap, BTreeSet};

/// One frequency-grouped posting.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// The shared frequency count `f`.
    pub frequency: u32,
    /// `(image, ‖B_I‖)` members: `members[0]` has the smallest norm (the
    /// posting head, whose impact is the group impact); the rest ascend by
    /// image id (document order).
    pub members: Vec<(u64, f32)>,
}

impl Group {
    /// The group impact: the head member's impact (the largest in the
    /// group).
    // audit:allow(panic) Decode always reads one head member, and the verify loop rejects empty groups before scoring
    pub fn impact(&self, weight: f32) -> f32 {
        impact_value(weight, self.frequency, self.members[0].1)
    }
}

/// Digest of a grouped posting (Def. 6; the worked example in Table III
/// includes the frequency, so we bind it too).
pub fn group_digest(group: &Group, next: &Digest) -> Digest {
    let mut b = Digest::builder()
        .u32(group.frequency)
        .u64(group.members.len() as u64);
    for &(image, norm) in &group.members {
        b = b.u64(image).f32(norm);
    }
    b.digest(next).finish()
}

/// A cluster's frequency-grouped Merkle inverted list (`Γ^f_c`).
#[derive(Clone, Debug)]
pub struct GroupedList {
    pub cluster: u32,
    pub weight: f32,
    /// Groups in descending impact order.
    pub groups: Vec<Group>,
    /// Per-block summaries: `blocks[b]` covers groups
    /// `b·BLOCK_SIZE .. (b+1)·BLOCK_SIZE` (last block may be short).
    blocks: Vec<BlockSummary>,
    pub filter: CuckooFilter,
    /// `h_{Γ^f_c}` (Def. 7).
    pub digest: Digest,
    /// Build-time memo of `h(Θ)`, mirroring the ungrouped
    /// [`crate::merkle::MerkleList`] cache; `None` after
    /// [`GroupedList::clear_filter_cache`].
    filter_commit: Option<Digest>,
}

impl GroupedList {
    fn try_build(
        cluster: u32,
        weight: f32,
        by_freq: BTreeMap<u32, Vec<(u64, f32)>>,
        n_buckets: usize,
    ) -> Result<GroupedList, imageproof_cuckoo::FilterFull> {
        let mut groups: Vec<Group> = by_freq
            .into_iter()
            .map(|(frequency, mut members)| {
                // Head: smallest norm (ties: smallest id); rest: id order.
                members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                let head = members.remove(0);
                members.sort_by_key(|&(id, _)| id);
                members.insert(0, head);
                Group { frequency, members }
            })
            .collect();
        groups.sort_by(|a, b| {
            b.impact(weight)
                .total_cmp(&a.impact(weight))
                .then_with(|| a.frequency.cmp(&b.frequency))
        });

        let mut filter = CuckooFilter::with_buckets(n_buckets);
        for g in &groups {
            for &(image, _) in &g.members {
                filter.insert(image)?;
            }
        }

        let blocks = build_block_summaries(
            &groups,
            |chunk| {
                let mut h = Digest::ZERO;
                for g in chunk.iter().rev() {
                    h = group_digest(g, &h);
                }
                h
            },
            |chunk| chunk[0].impact(weight),
        );
        let (first_max, first_block) = blocks
            .first()
            .map(|b| (b.max_impact, b.digest))
            .unwrap_or((0.0, Digest::ZERO));
        let filter_commit = filter.digest();
        let digest = crate::merkle::list_digest(weight, &filter_commit, first_max, &first_block);
        Ok(GroupedList {
            cluster,
            weight,
            groups,
            blocks,
            filter,
            digest,
            filter_commit: Some(filter_commit),
        })
    }

    /// `h(Θ)` from the build-time memo when present, recomputed otherwise;
    /// the flag reports which path was taken.
    pub fn filter_digest_cached(&self) -> (Digest, bool) {
        match self.filter_commit {
            Some(d) => (d, true),
            None => (self.filter.digest(), false),
        }
    }

    /// Drops the build-time `h(Θ)` memo (equivalence-test hook).
    pub fn clear_filter_cache(&mut self) {
        self.filter_commit = None;
    }

    /// The per-block summaries, in block order.
    pub fn blocks(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Number of group blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of groups covered by the first `b` blocks.
    pub fn group_offset(&self, b: usize) -> usize {
        (b * BLOCK_SIZE).min(self.groups.len())
    }

    /// Digest of block `b` (covering blocks `b..`), or [`Digest::ZERO`]
    /// past the end.
    pub fn block_chain_digest(&self, b: usize) -> Digest {
        self.blocks.get(b).map(|s| s.digest).unwrap_or(Digest::ZERO)
    }

    /// Total images across all groups.
    pub fn posting_count(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }
}

/// The frequency-grouped index (one list per cluster).
#[derive(Clone, Debug)]
pub struct GroupedInvertedIndex {
    lists: Vec<GroupedList>,
    n_buckets: usize,
}

impl GroupedInvertedIndex {
    /// Builds the index; mirrors
    /// [`crate::merkle::MerkleInvertedIndex::build`].
    pub fn build(
        n_clusters: usize,
        images: &[(u64, SparseBovw)],
        model: &ImpactModel,
    ) -> GroupedInvertedIndex {
        Self::build_with(n_clusters, images, model, Concurrency::serial())
    }

    /// [`GroupedInvertedIndex::build`] with per-cluster list builds fanned
    /// out across workers; deterministic for the same reasons as
    /// [`crate::merkle::MerkleInvertedIndex::build_with`].
    pub fn build_with(
        n_clusters: usize,
        images: &[(u64, SparseBovw)],
        model: &ImpactModel,
        conc: Concurrency,
    ) -> GroupedInvertedIndex {
        let mut per_cluster: Vec<BTreeMap<u32, Vec<(u64, f32)>>> =
            vec![BTreeMap::new(); n_clusters];
        let mut lengths = vec![0usize; n_clusters];
        for (image, bovw) in images {
            let norm = bovw.norm();
            for (c, f) in bovw.iter() {
                per_cluster[c as usize]
                    .entry(f)
                    .or_default()
                    .push((*image, norm));
                lengths[c as usize] += 1;
            }
        }
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut n_buckets = imageproof_cuckoo::buckets_for_capacity(max_len);
        loop {
            let built: Result<Vec<GroupedList>, _> =
                try_par_map(conc, &per_cluster, |c, by_freq| {
                    GroupedList::try_build(
                        c as u32,
                        model.weight(c as u32),
                        by_freq.clone(),
                        n_buckets,
                    )
                });
            match built {
                Ok(lists) => return GroupedInvertedIndex { lists, n_buckets },
                Err(_) => n_buckets *= 2,
            }
        }
    }

    pub fn list(&self, cluster: u32) -> &GroupedList {
        &self.lists[cluster as usize]
    }

    pub fn lists(&self) -> &[GroupedList] {
        &self.lists
    }

    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Per-cluster `h_{Γ^f}` digests for MRKD leaf embedding.
    pub fn list_digests(&self) -> Vec<Digest> {
        self.lists.iter().map(|l| l.digest).collect()
    }

    /// Total images across the given clusters' lists.
    pub fn total_postings(&self, clusters: impl Iterator<Item = u32>) -> usize {
        clusters
            .map(|c| self.lists[c as usize].posting_count())
            .sum()
    }

    /// Drops every list's `h(Θ)` memo (see
    /// [`GroupedList::clear_filter_cache`]).
    pub fn clear_filter_caches(&mut self) {
        for list in &mut self.lists {
            list.clear_filter_cache();
        }
    }

    /// Owner-side incremental update, step 1: builds one cluster's
    /// replacement grouped list from `(image, frequency, norm)` entries
    /// (frozen weight, common filter geometry) without touching the index.
    pub fn rebuild_list(
        &self,
        cluster: u32,
        entries: Vec<(u64, u32, f32)>,
    ) -> Result<GroupedList, imageproof_cuckoo::FilterFull> {
        let weight = self.lists[cluster as usize].weight;
        let mut by_freq: BTreeMap<u32, Vec<(u64, f32)>> = BTreeMap::new();
        for (image, freq, norm) in entries {
            by_freq.entry(freq).or_default().push((image, norm));
        }
        GroupedList::try_build(cluster, weight, by_freq, self.n_buckets)
    }

    /// Step 2: swaps a list from [`GroupedInvertedIndex::rebuild_list`] in
    /// and returns its `h_Γ` (infallible — see
    /// `MerkleInvertedIndex::install_list`).
    pub fn install_list(&mut self, list: GroupedList) -> Digest {
        let digest = list.digest;
        let cluster = list.cluster as usize;
        self.lists[cluster] = list;
        digest
    }
}

/// One relevant grouped list's share of the VO.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupedListVo {
    pub cluster: u32,
    pub weight: f32,
    /// Popped prefix of groups.
    pub popped: Vec<Group>,
    pub remaining: RemainingVo,
}

/// The grouped inverted-index VO.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupedInvVo {
    pub lists: Vec<GroupedListVo>,
}

impl GroupedInvVo {
    /// Total images disclosed (for the "% popped postings" metric).
    pub fn popped_postings(&self) -> usize {
        self.lists
            .iter()
            .flat_map(|l| l.popped.iter())
            .map(|g| g.members.len())
            .sum()
    }
}

impl Encode for Group {
    fn encode(&self, w: &mut Writer) {
        // Compact representation (§VI-B): varint frequency, varint member
        // count, head (varint id + norm), then d-gap varint ids + norms.
        w.varint(self.frequency as u64);
        w.varint(self.members.len() as u64);
        let (head_id, head_norm) = self.members[0];
        w.varint(head_id);
        w.f32(head_norm);
        let mut prev = 0u64;
        for &(id, norm) in &self.members[1..] {
            w.varint(id.wrapping_sub(prev));
            w.f32(norm);
            prev = id;
        }
    }
}

impl Decode for Group {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let frequency = r.varint()? as u32;
        let count = r.varint()? as usize;
        if count == 0 {
            return Err(WireError::InvalidTag(0));
        }
        let mut members = Vec::with_capacity(count.min(1 << 20));
        members.push((r.varint()?, r.f32()?));
        let mut prev = 0u64;
        for _ in 1..count {
            let id = prev.wrapping_add(r.varint()?);
            members.push((id, r.f32()?));
            prev = id;
        }
        Ok(Group { frequency, members })
    }
}

impl Encode for GroupedListVo {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.cluster as u64);
        w.f32(self.weight);
        w.vseq_len(self.popped.len());
        for g in &self.popped {
            g.encode(w);
        }
        self.remaining.encode(w);
    }
}

impl Decode for GroupedListVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let cluster = u32::try_from(r.varint()?).map_err(|_| WireError::LengthOverflow)?;
        let weight = r.f32()?;
        let n = r.vseq_len()?;
        let mut popped = Vec::with_capacity(n);
        for _ in 0..n {
            popped.push(Group::decode(r)?);
        }
        let remaining = RemainingVo::decode(r)?;
        Ok(GroupedListVo {
            cluster,
            weight,
            popped,
            remaining,
        })
    }
}

impl Encode for GroupedInvVo {
    fn encode(&self, w: &mut Writer) {
        w.vseq_len(self.lists.len());
        for l in &self.lists {
            l.encode(w);
        }
    }
}

impl Decode for GroupedInvVo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.vseq_len()?;
        let mut lists = Vec::with_capacity(n);
        for _ in 0..n {
            lists.push(GroupedListVo::decode(r)?);
        }
        Ok(GroupedInvVo { lists })
    }
}

/// Result of a grouped authenticated search.
#[derive(Clone, Debug)]
pub struct GroupedSearchResult {
    pub topk: Vec<(u64, f32)>,
    pub vo: GroupedInvVo,
    pub stats: InvSearchStats,
}

/// Exact top-k by full accumulation over the grouped index (the grouped
/// scheme's accumulation order: lists ascending, groups in list order,
/// members in group order).
pub fn grouped_exhaustive_topk(
    index: &GroupedInvertedIndex,
    query_impacts: &[(u32, f32)],
    k: usize,
) -> Vec<(u64, f32)> {
    let mut acc: BTreeMap<u64, f32> = BTreeMap::new();
    for &(c, p_q) in query_impacts {
        let list = index.list(c);
        for g in &list.groups {
            for &(image, norm) in &g.members {
                *acc.entry(image).or_insert(0.0) +=
                    p_q * impact_value(list.weight, g.frequency, norm);
            }
        }
    }
    let mut scored: Vec<(u64, f32)> = acc.into_iter().collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

struct GroupedState<'a> {
    list: &'a GroupedList,
    query_impact: f32,
    /// Expanded `(image, impact)` pairs, in group order.
    expanded: Vec<(u64, f32)>,
    /// `offsets[g]` = number of expanded pairs covered by the first `g`
    /// groups.
    offsets: Vec<usize>,
    /// Whole group-blocks popped (mirrors the ungrouped block-granular
    /// state).
    popped_blocks: usize,
    working_filter: Option<CuckooFilter>,
}

impl GroupedState<'_> {
    fn popped_groups(&self) -> usize {
        self.list.group_offset(self.popped_blocks)
    }

    fn exhausted(&self) -> bool {
        self.popped_groups() == self.list.groups.len()
    }

    /// The fence block's authenticated `max_impact`.
    fn remaining_cap(&self) -> Option<f32> {
        self.list
            .blocks()
            .get(self.popped_blocks)
            .map(|b| b.max_impact)
    }

    /// Pops up to `n` whole blocks; returns how many groups were popped.
    fn pop_blocks(&mut self, n: usize) -> usize {
        let start = self.popped_groups();
        self.popped_blocks = (self.popped_blocks + n).min(self.list.n_blocks());
        let end = self.popped_groups();
        for g in &self.list.groups[start..end] {
            if let Some(f) = &mut self.working_filter {
                for &(image, _) in &g.members {
                    f.delete(image);
                }
            }
        }
        end - start
    }

    fn pop_until_image(&mut self, image: u64, limit: usize) -> usize {
        let mut popped = 0;
        while popped < limit && !self.exhausted() {
            let start = self.popped_groups();
            popped += self.pop_blocks(1);
            let here = self.list.groups[start..self.popped_groups()]
                .iter()
                .any(|g| g.members.iter().any(|&(i, _)| i == image));
            if here {
                break;
            }
        }
        popped
    }

    fn snapshot(&self) -> ListSnapshot<'_> {
        ListSnapshot {
            cluster: self.list.cluster,
            query_impact: self.query_impact,
            popped: &self.expanded[..self.offsets[self.popped_groups()]],
            remaining_cap: self.remaining_cap(),
            filter: if self.exhausted() {
                None
            } else {
                self.working_filter.as_ref()
            },
        }
    }
}

/// Authenticated top-k search over the grouped index (always uses the
/// cuckoo-filtered bounds — grouping is an *addition* to ImageProof).
pub fn grouped_search(
    index: &GroupedInvertedIndex,
    query_bovw: &SparseBovw,
    k: usize,
) -> GroupedSearchResult {
    let query_impacts = impacts_with_weights(query_bovw, |c| index.list(c).weight);
    let topk = grouped_exhaustive_topk(index, &query_impacts, k);
    let topk_ids: Vec<u64> = topk.iter().map(|&(i, _)| i).collect();

    let mut states: Vec<GroupedState> = query_impacts
        .iter()
        .map(|&(c, p_q)| {
            let list = index.list(c);
            let mut expanded = Vec::with_capacity(list.posting_count());
            let mut offsets = Vec::with_capacity(list.groups.len() + 1);
            offsets.push(0);
            for g in &list.groups {
                for &(image, norm) in &g.members {
                    expanded.push((image, impact_value(list.weight, g.frequency, norm)));
                }
                offsets.push(expanded.len());
            }
            GroupedState {
                list,
                query_impact: p_q,
                expanded,
                offsets,
                popped_blocks: 0,
                working_filter: Some(list.filter.clone()),
            }
        })
        .collect();

    let mut stats = InvSearchStats {
        total_postings: states.iter().map(|s| s.expanded.len()).sum(),
        ..Default::default()
    };

    // Pop every group containing a top-k image, with its predecessors —
    // rounded up to whole blocks.
    for state in &mut states {
        let last = state
            .list
            .groups
            .iter()
            .rposition(|g| g.members.iter().any(|(i, _)| topk_ids.contains(i)));
        if let Some(j) = last {
            state.pop_blocks(j / BLOCK_SIZE + 1);
        }
    }

    let mut batch = 2usize;
    loop {
        stats.rounds += 1;
        let snapshots: Vec<ListSnapshot> = states.iter().map(GroupedState::snapshot).collect();
        let eval = evaluate(&snapshots, &topk_ids, BoundsMode::CuckooFiltered);
        drop(snapshots);

        if !eval.condition1 {
            let target = best_target(&states, |_| true)
                .expect("condition 1 holds once every list is exhausted");
            states[target].pop_blocks(batch.div_ceil(BLOCK_SIZE));
            batch = (batch * 2).min(128);
            continue;
        }
        if let Some(&worst) = eval.exceeded.first() {
            let target = best_target(&states, |s| {
                s.working_filter.as_ref().is_some_and(|f| f.contains(worst))
            })
            .expect("condition 2 holds once every list is exhausted");
            states[target].pop_until_image(worst, batch);
            batch = (batch * 2).min(128);
            continue;
        }
        break;
    }
    stats.popped = states.iter().map(|s| s.offsets[s.popped_groups()]).sum();
    // `pop_blocks` clamps, so popped_blocks ≤ n_blocks holds here.
    for s in &states {
        stats.blocks_scanned += s.popped_blocks;
        stats.blocks_skipped += s.list.n_blocks() - s.popped_blocks;
    }

    // As in `inv_search`, static digests come from build-time memos and the
    // counters record the hit rate.
    let lists = states
        .iter()
        .map(|s| GroupedListVo {
            cluster: s.list.cluster,
            weight: s.list.weight,
            popped: s.list.groups[..s.popped_groups()].to_vec(),
            remaining: if s.exhausted() {
                let (filter_digest, cached) = s.list.filter_digest_cached();
                if cached {
                    stats.hashes_cached += 1;
                } else {
                    stats.hashes_computed += 1;
                }
                RemainingVo::Exhausted { filter_digest }
            } else {
                stats.hashes_cached += 1; // memoized fence summary
                let fence = s.list.blocks()[s.popped_blocks];
                RemainingVo::Skipped {
                    max_impact: fence.max_impact,
                    fence_digest: fence.digest,
                    filter: FilterVo::Bytes(s.list.filter.to_bytes()),
                }
            },
        })
        .collect();

    crate::search::record_inv_search("grouped", &stats);
    GroupedSearchResult {
        topk,
        vo: GroupedInvVo { lists },
        stats,
    }
}

fn best_target(
    states: &[GroupedState<'_>],
    mut pred: impl FnMut(&GroupedState<'_>) -> bool,
) -> Option<usize> {
    let mut best: Option<(f32, usize)> = None;
    for (i, s) in states.iter().enumerate() {
        let Some(cap) = s.remaining_cap() else {
            continue;
        };
        if !pred(s) {
            continue;
        }
        let value = s.query_impact * cap;
        if best.is_none_or(|(bv, _)| value > bv) {
            best = Some((value, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Client-side verification of a grouped VO (mirror of
/// [`crate::verify::verify_topk`]).
pub fn verify_grouped_topk(
    vo: &GroupedInvVo,
    query_bovw: &SparseBovw,
    authenticated_digests: &BTreeMap<u32, Digest>,
    claimed: &[u64],
    k: usize,
) -> Result<crate::verify::VerifiedTopk, InvVerifyError> {
    let query_clusters: Vec<u32> = query_bovw.iter().map(|(c, _)| c).collect();
    let vo_clusters: Vec<u32> = vo.lists.iter().map(|l| l.cluster).collect();
    if query_clusters != vo_clusters {
        return Err(InvVerifyError::ClusterMismatch);
    }

    let mut seen = BTreeSet::new();
    for &image in claimed {
        if !seen.insert(image) {
            return Err(InvVerifyError::DuplicateWinner { image });
        }
    }
    if claimed.len() < k {
        let all_exhausted = vo
            .lists
            .iter()
            .all(|l| matches!(l.remaining, RemainingVo::Exhausted { .. }));
        if !all_exhausted {
            return Err(InvVerifyError::ShortResult);
        }
    }

    let mut parsed_filters: Vec<Option<CuckooFilter>> = Vec::with_capacity(vo.lists.len());
    for list in &vo.lists {
        let expected =
            authenticated_digests
                .get(&list.cluster)
                .ok_or(InvVerifyError::UnknownCluster {
                    cluster: list.cluster,
                })?;
        let (seal, filter_digest, filter) = match &list.remaining {
            RemainingVo::Exhausted { filter_digest } => ((0.0, Digest::ZERO), *filter_digest, None),
            RemainingVo::Skipped {
                max_impact,
                fence_digest,
                filter: FilterVo::Bytes(bytes),
            } => {
                if !list.popped.len().is_multiple_of(BLOCK_SIZE) {
                    return Err(InvVerifyError::BlockShapeInvalid {
                        cluster: list.cluster,
                    });
                }
                let parsed =
                    CuckooFilter::from_bytes(bytes).ok_or(InvVerifyError::MalformedFilter {
                        cluster: list.cluster,
                    })?;
                ((*max_impact, *fence_digest), parsed.digest(), Some(parsed))
            }
            RemainingVo::Skipped { .. } => {
                return Err(InvVerifyError::WrongFilterForm {
                    cluster: list.cluster,
                })
            }
        };
        // Re-block the popped groups and fold block digests up to the list
        // commitment; each block digest binds its successor's (max, digest)
        // pair, so popped block bounds derive from the disclosed groups.
        let (mut max, mut bd) = seal;
        for chunk in list.popped.chunks(BLOCK_SIZE).rev() {
            let mut head = Digest::ZERO;
            for g in chunk.iter().rev() {
                if g.members.is_empty() {
                    return Err(InvVerifyError::MalformedFilter {
                        cluster: list.cluster,
                    });
                }
                head = group_digest(g, &head);
            }
            bd = block_digest(&head, max, &bd);
            // Safe: the loop above rejected empty chunks' members, and
            // `chunks` never yields an empty chunk.
            max = chunk.first().map(|g| g.impact(list.weight)).unwrap_or(0.0);
        }
        let rebuilt = crate::merkle::list_digest(list.weight, &filter_digest, max, &bd);
        if rebuilt != *expected {
            return Err(InvVerifyError::DigestMismatch {
                cluster: list.cluster,
            });
        }
        parsed_filters.push(filter);
    }

    let weights: BTreeMap<u32, f32> = vo.lists.iter().map(|l| (l.cluster, l.weight)).collect();
    let query_impacts =
        impacts_with_weights(query_bovw, |c| weights.get(&c).copied().unwrap_or(0.0));

    // Expand popped groups and delete their members from the filters.
    let mut expanded: Vec<Vec<(u64, f32)>> = Vec::with_capacity(vo.lists.len());
    for (list, filter) in vo.lists.iter().zip(&mut parsed_filters) {
        let mut pairs = Vec::new();
        for g in &list.popped {
            for &(image, norm) in &g.members {
                pairs.push((image, impact_value(list.weight, g.frequency, norm)));
                if let Some(f) = filter {
                    f.delete(image);
                }
            }
        }
        expanded.push(pairs);
    }

    let snapshots: Vec<ListSnapshot> = vo
        .lists
        .iter()
        .zip(&parsed_filters)
        .zip(&expanded)
        .zip(&query_impacts)
        .map(|(((list, filter), pairs), &(_, p_q))| ListSnapshot {
            cluster: list.cluster,
            query_impact: p_q,
            popped: pairs,
            remaining_cap: match &list.remaining {
                RemainingVo::Exhausted { .. } => None,
                // The fence bound, authenticated by the digest check above.
                RemainingVo::Skipped { max_impact, .. } => Some(*max_impact),
            },
            filter: filter.as_ref(),
        })
        .collect();

    let eval = evaluate(&snapshots, claimed, BoundsMode::CuckooFiltered);
    if !eval.condition1 {
        return Err(InvVerifyError::Condition1Failed);
    }
    if let Some(&image) = eval.exceeded.first() {
        return Err(InvVerifyError::Condition2Failed { image });
    }
    let mut topk = Vec::with_capacity(claimed.len());
    for &image in claimed {
        let score = eval
            .lower_scores
            .get(&image)
            .copied()
            .ok_or(InvVerifyError::WinnerUnsupported { image })?;
        topk.push((image, score));
    }
    Ok(crate::verify::VerifiedTopk { topk, weights })
}

/// Borrows a grouped result's `(topk, stats)` in the ungrouped result shape
/// for call sites that treat the VO opaquely.
impl From<&GroupedSearchResult> for InvSearchResult {
    fn from(g: &GroupedSearchResult) -> InvSearchResult {
        InvSearchResult {
            topk: g.topk.clone(),
            vo: crate::vo::InvVo { lists: Vec::new() },
            stats: g.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::MerkleInvertedIndex;
    use crate::search::{exhaustive_topk, inv_search};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn images(n_images: u64, n_clusters: usize, seed: u64) -> Vec<(u64, SparseBovw)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_images)
            .map(|id| {
                let pairs: Vec<(u32, u32)> = (0..rng.gen_range(3..9))
                    .map(|_| {
                        let u: f64 = rng.gen();
                        let c = ((u * u) * n_clusters as f64) as u32;
                        (c.min(n_clusters as u32 - 1), rng.gen_range(1..4))
                    })
                    .collect();
                (id, SparseBovw::from_counts(pairs))
            })
            .collect()
    }

    fn both_indexes(
        n_images: u64,
        n_clusters: usize,
        seed: u64,
    ) -> (MerkleInvertedIndex, GroupedInvertedIndex) {
        let imgs = images(n_images, n_clusters, seed);
        let encodings: Vec<SparseBovw> = imgs.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(n_clusters, &encodings);
        (
            MerkleInvertedIndex::build(n_clusters, &imgs, &model),
            GroupedInvertedIndex::build(n_clusters, &imgs, &model),
        )
    }

    fn query(seed: u64, n_clusters: usize) -> SparseBovw {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(u32, u32)> = (0..6)
            .map(|_| {
                let u: f64 = rng.gen();
                let c = ((u * u) * n_clusters as f64) as u32;
                (c.min(n_clusters as u32 - 1), rng.gen_range(1..3))
            })
            .collect();
        SparseBovw::from_counts(pairs)
    }

    #[test]
    fn grouped_topk_matches_ungrouped_topk() {
        let (plain, grouped) = both_indexes(300, 30, 31);
        for qseed in 0..4 {
            let q = query(60 + qseed, 30);
            let impacts = impacts_with_weights(&q, |c| plain.list(c).weight);
            let a = exhaustive_topk(&plain, &impacts, 10);
            let impacts_g = impacts_with_weights(&q, |c| grouped.list(c).weight);
            let b = grouped_exhaustive_topk(&grouped, &impacts_g, 10);
            let ids_a: Vec<u64> = a.iter().map(|&(i, _)| i).collect();
            let ids_b: Vec<u64> = b.iter().map(|&(i, _)| i).collect();
            assert_eq!(ids_a, ids_b, "qseed {qseed}");
        }
    }

    #[test]
    fn honest_grouped_search_verifies() {
        let (_, grouped) = both_indexes(300, 30, 32);
        let digests: BTreeMap<u32, Digest> = grouped
            .lists()
            .iter()
            .map(|l| (l.cluster, l.digest))
            .collect();
        for qseed in 0..4 {
            let q = query(70 + qseed, 30);
            let out = grouped_search(&grouped, &q, 8);
            let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
            let v = verify_grouped_topk(&out.vo, &q, &digests, &claimed, 8)
                .expect("honest grouped VO verifies");
            for ((vi, vs), (si, ss)) in v.topk.iter().zip(&out.topk) {
                assert_eq!(vi, si);
                assert_eq!(vs, ss);
            }
        }
    }

    #[test]
    fn grouped_vo_is_smaller_than_ungrouped_vo() {
        let (plain, grouped) = both_indexes(500, 20, 33);
        let mut grouped_bytes = 0usize;
        let mut plain_bytes = 0usize;
        for qseed in 0..5 {
            let q = query(80 + qseed, 20);
            grouped_bytes += grouped_search(&grouped, &q, 10).vo.wire_size();
            plain_bytes += inv_search(&plain, &q, 10, BoundsMode::CuckooFiltered)
                .vo
                .wire_size();
        }
        assert!(
            grouped_bytes < plain_bytes,
            "grouped {grouped_bytes} >= plain {plain_bytes}"
        );
    }

    #[test]
    fn grouped_vo_round_trips_on_wire() {
        let (_, grouped) = both_indexes(200, 20, 34);
        let q = query(90, 20);
        let out = grouped_search(&grouped, &q, 5);
        let bytes = out.vo.to_wire();
        assert_eq!(GroupedInvVo::from_wire(&bytes).expect("round trip"), out.vo);
        // Per-list roundtrip, covering GroupedListVo's own wire impls.
        for list in &out.vo.lists {
            assert_eq!(
                GroupedListVo::from_wire(&list.to_wire()).expect("round trip"),
                *list
            );
        }
    }

    #[test]
    fn group_heads_have_the_minimum_norm() {
        let (_, grouped) = both_indexes(300, 15, 35);
        for list in grouped.lists() {
            for g in &list.groups {
                let head_norm = g.members[0].1;
                for &(_, norm) in &g.members[1..] {
                    assert!(head_norm <= norm);
                }
            }
        }
    }

    #[test]
    fn groups_are_impact_descending() {
        let (_, grouped) = both_indexes(300, 15, 36);
        for list in grouped.lists() {
            for w in list.groups.windows(2) {
                assert!(w[0].impact(list.weight) >= w[1].impact(list.weight));
            }
        }
    }

    #[test]
    fn tampered_group_member_breaks_digest() {
        let (_, grouped) = both_indexes(200, 15, 37);
        let digests: BTreeMap<u32, Digest> = grouped
            .lists()
            .iter()
            .map(|l| (l.cluster, l.digest))
            .collect();
        let q = query(91, 15);
        let out = grouped_search(&grouped, &q, 5);
        let claimed: Vec<u64> = out.topk.iter().map(|&(i, _)| i).collect();
        let mut forged = out.vo.clone();
        let g = forged
            .lists
            .iter_mut()
            .find_map(|l| l.popped.first_mut())
            .expect("something popped");
        g.members[0].1 += 1.0;
        assert!(matches!(
            verify_grouped_topk(&forged, &q, &digests, &claimed, 5),
            Err(InvVerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn d_gap_encoding_is_compact_for_dense_ids() {
        let g = Group {
            frequency: 2,
            members: vec![(5, 1.0), (6, 2.0), (7, 3.0), (8, 4.0)],
        };
        // freq (1) + count (1) + 4 members x (1-byte id + 4-byte norm).
        assert!(g.to_wire().len() <= 24);
    }
}
