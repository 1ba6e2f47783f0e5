//! Property-based tests for the MRKD-tree: for arbitrary cluster sets and
//! perturbed queries, the SP's search verifies and yields the exact nearest
//! clusters, in both candidate modes and at every thread count, with each
//! disclosed cluster revealed exactly once.

use imageproof_akm::rkd::{dist_sq, RkdForest};
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::Digest;
use imageproof_mrkd::{
    mrkd_search, mrkd_search_with, verify_bovw, BovwVo, CandidateMode, MrkdForest, VoTree,
    VoTreeBuilder,
};
use imageproof_parallel::Concurrency;
use proptest::prelude::*;

const DIM: usize = 32;

/// Writes a VO tree into `b` and, independently of `VoTree`'s own encoder,
/// its wire bytes into `wire`, both steered by `tape`: an internal node
/// while the tape says so and depth allows, else a stub or a leaf.
fn emit_by_tape(
    tape: &mut impl Iterator<Item = u8>,
    depth: usize,
    b: &mut VoTreeBuilder,
    wire: &mut Vec<u8>,
) {
    let choice = tape.next().unwrap_or(0);
    if choice % 2 == 1 && depth < 12 {
        let (dim, value) = (u32::from(choice) * 3, f32::from(choice));
        b.internal(dim, value);
        wire.push(1);
        varint(u64::from(dim), wire);
        wire.extend(value.to_le_bytes());
        emit_by_tape(tape, depth + 1, b, wire);
        emit_by_tape(tape, depth + 1, b, wire);
    } else if choice & 2 == 0 {
        let digest = Digest::of(&[choice]);
        b.pruned(digest);
        wire.push(0);
        wire.extend(digest.0);
    } else {
        let ids: Vec<u32> = (0..u32::from(choice) / 32)
            .map(|i| i * 1_000 + u32::from(choice))
            .collect();
        wire.push(2);
        varint(ids.len() as u64, wire);
        for &id in &ids {
            varint(u64::from(id), wire);
        }
        b.leaf(ids);
    }
}

/// Minimal LEB128.
fn varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn centers_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, DIM..=DIM), 2..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn search_verifies_and_is_exact(
        centers in centers_strategy(),
        picks in proptest::collection::vec((any::<prop::sample::Index>(), -0.05f32..0.05), 1..6),
        mode_compressed in any::<bool>(),
    ) {
        let mode = if mode_compressed {
            CandidateMode::Compressed
        } else {
            CandidateMode::Full
        };
        let inv: Vec<Digest> = (0..centers.len() as u32)
            .map(|c| Digest::of(format!("inv{c}").as_bytes()))
            .collect();
        let forest = RkdForest::build(&centers, 3, 2, 99);
        let mrkd = MrkdForest::build(&forest, &centers, &inv, mode);

        // Queries are perturbations of existing centers.
        let queries: Vec<Vec<f32>> = picks
            .iter()
            .map(|(idx, eps)| {
                let base = &centers[idx.index(centers.len())];
                base.iter().map(|&v| (v + eps).clamp(0.0, 1.0)).collect()
            })
            .collect();
        let thresholds: Vec<f32> = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();

        let out = mrkd_search(&mrkd, &queries, &thresholds);
        let wire = out.vo.to_wire();
        for threads in [1usize, 2, 4, 8] {
            let par = mrkd_search_with(&mrkd, &queries, &thresholds, Concurrency::new(threads));
            prop_assert_eq!(&par.vo.to_wire(), &wire, "VO bytes differ at {} threads", threads);
            prop_assert_eq!(&par.candidates, &out.candidates);
            prop_assert_eq!(par.stats.digests_cached, out.stats.digests_cached);
        }

        // The table holds exactly the clusters the trees' leaves name,
        // once each, ascending.
        let trees = out.vo.trees.iter();
        let mut named: Vec<u32> = trees.flat_map(|tree| tree.leaf_ids()).copied().collect();
        named.sort_unstable();
        named.dedup();
        let rows: Vec<u32> = out.vo.clusters.iter().map(|row| row.cluster).collect();
        prop_assert_eq!(rows, named);

        let verified = verify_bovw(&out.vo, &queries, mode).expect("honest VO verifies");
        prop_assert_eq!(verified.combined_root, mrkd.combined_root_digest());

        for (qi, q) in queries.iter().enumerate() {
            let brute = (0..centers.len() as u32)
                .min_by(|&a, &b| {
                    dist_sq(q, &centers[a as usize])
                        .total_cmp(&dist_sq(q, &centers[b as usize]))
                        .then(a.cmp(&b))
                })
                .expect("non-empty");
            prop_assert_eq!(verified.assignments[qi], brute, "query {}", qi);
        }
    }

    /// The VO wire encoding round-trips for arbitrary searches, whole and
    /// tree by tree, in both candidate modes.
    #[test]
    fn vo_wire_roundtrip(
        centers in centers_strategy(),
        n_queries in 1usize..5,
        mode_compressed in any::<bool>(),
    ) {
        let mode = if mode_compressed {
            CandidateMode::Compressed
        } else {
            CandidateMode::Full
        };
        let inv: Vec<Digest> = (0..centers.len() as u32)
            .map(|c| Digest::of(format!("inv{c}").as_bytes()))
            .collect();
        let forest = RkdForest::build(&centers, 2, 2, 7);
        let mrkd = MrkdForest::build(&forest, &centers, &inv, mode);
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|i| centers[i % centers.len()].clone())
            .collect();
        let thresholds: Vec<f32> = queries
            .iter()
            .map(|q| {
                centers
                    .iter()
                    .map(|c| dist_sq(q, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        let out = mrkd_search(&mrkd, &queries, &thresholds);
        let decoded = BovwVo::from_wire(&out.vo.to_wire()).expect("round trip");
        prop_assert_eq!(&decoded, &out.vo);
        for tree in &out.vo.trees {
            prop_assert_eq!(&VoTree::from_wire(&tree.to_wire()).expect("round trip"), tree);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The arena is canonical: a tree's bytes written straight from the
    /// grammar decode to the very arena the builder makes of the same
    /// nodes, and that arena encodes back to those bytes.
    #[test]
    fn the_arena_is_the_wire_grammar(tape in proptest::collection::vec(any::<u8>(), 0..200)) {
        let (mut b, mut wire) = (VoTreeBuilder::default(), Vec::new());
        emit_by_tape(&mut tape.into_iter(), 0, &mut b, &mut wire);
        let tree = b.finish();
        prop_assert_eq!(&VoTree::from_wire(&wire).expect("grammar bytes decode"), &tree);
        prop_assert_eq!(tree.to_wire(), wire);
    }

    /// Whatever bytes the decoder accepts, it keeps all of: the tree
    /// re-encodes to bytes that decode to itself, and to the accepted
    /// bytes exactly unless those padded a varint (the one freedom the
    /// wire has that the arena does not keep).
    #[test]
    fn accepted_bytes_reencode_to_themselves(
        tape in proptest::collection::vec(any::<u8>(), 0..200),
        edits in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
    ) {
        let (mut b, mut wire) = (VoTreeBuilder::default(), Vec::new());
        emit_by_tape(&mut tape.into_iter(), 0, &mut b, &mut wire);
        for (at, byte) in edits {
            let at = at.index(wire.len());
            wire[at] = byte;
        }
        if let Ok(tree) = VoTree::from_wire(&wire) {
            // (Compared as bytes: an edit can make a split value NaN.)
            let again = tree.to_wire();
            let back = VoTree::from_wire(&again).expect("own bytes decode");
            prop_assert_eq!(back.nodes().len(), tree.nodes().len());
            prop_assert_eq!(&back.to_wire(), &again);
            prop_assert!(again.len() <= wire.len());
            if again.len() == wire.len() {
                prop_assert_eq!(again, wire);
            }
        }
    }
}
