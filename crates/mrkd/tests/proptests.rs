//! Property-based tests for the MRKD-tree: for arbitrary cluster sets and
//! perturbed queries, the SP's search verifies and yields the exact nearest
//! clusters in both candidate modes, with each disclosed cluster revealed
//! exactly once, and the tree that assigns is the tree that proves.

use imageproof_akm::kernel::dist_sq;
use imageproof_akm::rkd::RkdTree;
use imageproof_crypto::wire::{Decode, Encode};
use imageproof_crypto::Digest;
use imageproof_mrkd::{
    mrkd_search, verify_bovw, BovwVo, CandidateMode, MrkdTree, VoNode, VoTree, VoTreeBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        let rkd = RkdTree::build(&centers, 2, &mut StdRng::seed_from_u64(99));
        let mrkd = MrkdTree::build(&rkd, &centers, &inv, mode);

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

        // The table holds exactly the clusters the tree's leaves name — no
        // leaf names one twice — ascending.
        let mut named: Vec<u32> = out.vo.tree.leaf_ids().to_vec();
        named.sort_unstable();
        let rows: Vec<u32> = out.vo.clusters.iter().map(|row| row.cluster).collect();
        prop_assert_eq!(rows, named);
        let stubs = out.vo.tree.nodes().iter();
        let stubs = stubs.filter(|n| matches!(n, VoNode::Pruned(_))).count();
        prop_assert_eq!(out.stats.digests_cached, out.vo.clusters.len() + stubs);

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
    /// the tree alone, in both candidate modes.
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
        let rkd = RkdTree::build(&centers, 2, &mut StdRng::seed_from_u64(7));
        let mrkd = MrkdTree::build(&rkd, &centers, &inv, mode);
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
        let tree = &out.vo.tree;
        prop_assert_eq!(&VoTree::from_wire(&tree.to_wire()).expect("round trip"), tree);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The committed tree assigns and proves the brute-force assignment:
    /// its exact search and the honest VO's verification both give the
    /// winners and threshold bits of a brute-force scan with the smaller-id
    /// tie-break, under the signed root. Duplicated centers make exact ties
    /// common.
    #[test]
    fn the_committed_tree_proves_the_brute_force_assignment(
        centers in centers_strategy(),
        dup in any::<prop::sample::Index>(),
        picks in proptest::collection::vec((any::<prop::sample::Index>(), -0.05f32..0.05), 1..6),
        mode_compressed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mode = if mode_compressed {
            CandidateMode::Compressed
        } else {
            CandidateMode::Full
        };
        let mut centers = centers;
        centers.push(centers[dup.index(centers.len())].clone());
        let inv: Vec<Digest> = (0..centers.len() as u32)
            .map(|c| Digest::of(format!("inv{c}").as_bytes()))
            .collect();
        let rkd = RkdTree::build(&centers, 2, &mut StdRng::seed_from_u64(seed));
        let mrkd = MrkdTree::build(&rkd, &centers, &inv, mode);
        let queries: Vec<Vec<f32>> = picks
            .iter()
            .map(|(idx, eps)| {
                let base = &centers[idx.index(centers.len())];
                base.iter().map(|&v| (v + eps).clamp(0.0, 1.0)).collect()
            })
            .collect();
        let brute: Vec<(f32, u32)> = queries
            .iter()
            .map(|q| {
                (0..centers.len() as u32)
                    .map(|c| (dist_sq(q, &centers[c as usize]), c))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .expect("non-empty")
            })
            .collect();
        let thresholds: Vec<f32> = brute.iter().map(|b| b.0).collect();
        let expected = (
            brute.iter().map(|b| b.1).collect::<Vec<u32>>(),
            thresholds.iter().map(|t| t.to_bits()).collect::<Vec<u32>>(),
        );
        let (assigned, assigned_bits): (Vec<u32>, Vec<u32>) = queries
            .iter()
            .map(|q| rkd.nearest(&centers, q))
            .map(|n| (n.cluster, n.dist_sq.to_bits()))
            .unzip();
        prop_assert_eq!(&(assigned, assigned_bits), &expected);

        let vo = mrkd_search(&mrkd, &queries, &thresholds).vo;
        let v = verify_bovw(&vo, &queries, mode).expect("the honest VO verifies");
        prop_assert_eq!(v.combined_root, mrkd.combined_root_digest());
        let bits: Vec<u32> = v.thresholds_sq.iter().map(|t| t.to_bits()).collect();
        prop_assert_eq!(&(v.assignments, bits), &expected);
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
