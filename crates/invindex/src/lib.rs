//! # imageproof-invindex
//!
//! The Merkle inverted index with cuckoo filters — ImageProof's second
//! authenticated data structure (paper §IV-B) — together with the
//! authenticated top-k search and verification algorithms. One blocked
//! posting-list engine, two entry types — a plain posting is a frequency
//! group of one:
//!
//! * [`merkle`] — the blocked Merkle inverted list and index
//!   ([`List`]/[`Index`], Defs. 4–5): hash-chained entries in block-max
//!   blocks, weights, per-list cuckoo filters, the [`Entry`] trait with
//!   its plain [`Posting`] implementation, and the one batched scheduler
//!   every list digest is hashed through.
//! * [`grouped`] — the frequency-grouped entry (§VI-B optimization,
//!   Defs. 6–7): [`grouped::Group`], its digest, d-gap codec and grouping
//!   step.
//! * [`bounds`] — the termination-condition bounds (Eqs. 9–12, Alg. 2),
//!   computed identically by SP and client.
//! * [`search`] — `PostingSearch`/`InvSearch` (Algs. 3–4) and the §VII
//!   Baseline with maximal bounds (\[15\]).
//! * [`verify`] — client-side verification of the top-k result.
//! * [`vo`] — VO types and their canonical wire encoding.
//! * [`space`] — per-structure byte accounting for index footprint
//!   benchmarks.
//!
//! What [`Entry`] abstracts, and nothing else:
//!
//! | item | [`Posting`] | [`grouped::Group`] |
//! |---|---|---|
//! | `chain_digest` | `posting_digest` | `group_digest` |
//! | `head_impact`, `tie_break` | impact; image id | head member's impact; frequency |
//! | `expand` | itself | one pair per member |
//! | `well_formed` | always | non-empty |
//! | `encode_entry`/`decode_entry`, `logical_bytes` | varint id + `f32` | d-gap ids + norms |
//! | `from_records`, `edited` | map; push/retain | group by frequency; regroup |
//!
//! The pop/check loop batches in units of entries, so the two schemes run
//! two values of [`SearchTuning`]: a grouped entry discloses a whole
//! frequency group, so [`SearchTuning::GROUPED`] starts and caps at half
//! the default (plain) entry counts.

pub mod bounds;
pub mod grouped;
pub mod merkle;
pub mod search;
pub mod space;
pub mod verify;
pub mod vo;

pub use bounds::BoundsMode;
pub use merkle::{block_digest, BlockSummary, Entry, Index, List, ListEdit, Posting, BLOCK_SIZE};
pub use search::{
    exhaustive_topk, inv_search, inv_search_with_tuning, InvSearchStats, SearchResult, SearchTuning,
};
pub use space::SpaceUsage;
pub use verify::{verify_topk, InvVerifyError, VerifiedTopk};
pub use vo::{FilterVo, InvVoOf, ListVoOf, RemainingVo};
