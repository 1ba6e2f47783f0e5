//! Property-based tests for the cryptographic substrate.

use imageproof_crypto::merkle::MerkleTree;
use imageproof_crypto::sha3::Sha3_256;
use imageproof_crypto::sha512::Sha512;
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::{Digest, Signature, SigningKey};
use proptest::collection::vec;
use proptest::prelude::*;

/// `features` as the RPC requests always wrote them by hand: a `u32`
/// count of vectors, each a `u32` count of fixed-width floats.
fn hand_features(w: &mut Writer, features: &[Vec<f32>]) {
    w.seq_len(features.len());
    for f in features {
        w.seq_len(f.len());
        for &v in f {
            w.f32(v);
        }
    }
}

/// Checks `seq_of`/`vseq_of` over `items` against the hand layout (a `u32`
/// or varint length, then each item as `hand_item` writes it), that
/// `seq`/`vseq` invert them (re-encoding to the same bytes, so NaN payloads
/// count), and that every strict prefix of either encoding is an error.
fn check_seq<T: Encode + Decode>(
    items: &[T],
    hand_item: impl Fn(&mut Writer, &T),
) -> Result<(), TestCaseError> {
    for varint in [false, true] {
        let mut hand = Writer::new();
        if varint {
            hand.vseq_len(items.len());
        } else {
            hand.seq_len(items.len());
        }
        for item in items {
            hand_item(&mut hand, item);
        }
        let encode = |items: &[T]| {
            let mut w = Writer::new();
            if varint {
                w.vseq_of(items);
            } else {
                w.seq_of(items);
            }
            w.finish()
        };
        let decode = |bytes: &[u8]| -> Result<Vec<T>, WireError> {
            if !varint {
                return Vec::<T>::from_wire(bytes);
            }
            let mut r = Reader::new(bytes);
            let items = r.vseq()?;
            r.finish()?;
            Ok(items)
        };
        let wire = encode(items);
        prop_assert_eq!(&wire, &hand.finish());
        let back = decode(&wire).expect("a sequence decodes");
        prop_assert_eq!(back.len(), items.len());
        prop_assert_eq!(&encode(&back), &wire);
        for cut in 0..wire.len() {
            prop_assert!(
                decode(&wire[..cut]).is_err(),
                "prefix {} of {}",
                cut,
                wire.len()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hashing is invariant under arbitrary chunk boundaries.
    #[test]
    fn sha3_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..600),
                                splits in proptest::collection::vec(1usize..64, 0..8)) {
        let oneshot = Sha3_256::digest(&data);
        let mut h = Sha3_256::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            if rest.is_empty() { break; }
            let take = s.min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        h.update(rest);
        prop_assert_eq!(oneshot, h.finalize());
    }

    #[test]
    fn sha512_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..600),
                                  split in 0usize..600) {
        let oneshot = Sha512::digest(&data);
        let mut h = Sha512::new();
        let cut = split.min(data.len());
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(oneshot.to_vec(), h.finalize().to_vec());
    }

    /// Signatures round-trip and bind the message.
    #[test]
    fn ed25519_sign_verify_roundtrip(seed in any::<[u8; 32]>(),
                                     msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let sk = SigningKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.public_key().verify(&msg, &sig));
        // Any single-byte change to the message invalidates the signature.
        if !msg.is_empty() {
            let mut forged = msg.clone();
            forged[0] ^= 1;
            prop_assert!(!sk.public_key().verify(&forged, &sig));
        }
    }

    /// One-leaf subset proofs verify for every leaf of arbitrary trees and
    /// reject a neighbour's bytes at the same index.
    #[test]
    fn merkle_proofs_sound(leaves in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..16), 1..40)) {
        let tree = MerkleTree::from_leaf_data(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove_subset(&[i]);
            prop_assert!(proof.verify_data(&[(i, leaf.as_slice())], &root));
            let other = &leaves[(i + 1) % leaves.len()];
            if other != leaf {
                prop_assert!(!proof.verify_data(&[(i, other.as_slice())], &root));
            }
        }
    }

    /// Subset proofs verify for arbitrary index subsets.
    #[test]
    fn merkle_subset_proofs_sound(n in 1usize..40, picks in proptest::collection::vec(any::<usize>(), 1..10)) {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("L{i}").into_bytes()).collect();
        let tree = MerkleTree::from_leaf_data(&leaves);
        let mut indices: Vec<usize> = picks.into_iter().map(|p| p % n).collect();
        indices.sort_unstable();
        indices.dedup();
        let proof = tree.prove_subset(&indices);
        let revealed: Vec<(usize, &[u8])> =
            indices.iter().map(|&i| (i, leaves[i].as_slice())).collect();
        prop_assert!(proof.verify_data(&revealed, &tree.root()));
    }

    /// Wire primitives round-trip for arbitrary values.
    #[test]
    fn wire_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..50),
                      floats in proptest::collection::vec(any::<f32>(), 0..50)) {
        let mut w = Writer::new();
        w.seq_len(vals.len());
        for &v in &vals { w.varint(v); }
        w.seq_len(floats.len());
        for &f in &floats { w.f32(f); }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let n = r.seq_len().unwrap();
        for &v in vals.iter().take(n) {
            prop_assert_eq!(r.varint().unwrap(), v);
        }
        let m = r.seq_len().unwrap();
        for &f in floats.iter().take(m) {
            prop_assert_eq!(r.f32().unwrap().to_bits(), f.to_bits());
        }
        prop_assert!(r.finish().is_ok());
    }

    #[test]
    fn feature_sequences_keep_the_hand_layout(
        queries in vec(vec(vec(any::<f32>(), 0..5), 0..4), 0..4),
    ) {
        check_seq(&queries, |w, q| hand_features(w, q))?;
    }

    #[test]
    fn trim_item_sequences_keep_the_hand_layout(
        items in vec((any::<u32>(), vec(vec(any::<f32>(), 0..5), 0..4)), 0..4),
    ) {
        check_seq(&items, |w, (k, features)| {
            w.u32(*k);
            hand_features(w, features);
        })?;
    }

    #[test]
    fn scored_id_sequences_keep_the_hand_layout(topk in vec((any::<u64>(), any::<f32>()), 0..8)) {
        check_seq(&topk, |w, &(id, score)| {
            w.u64(id);
            w.f32(score);
        })?;
    }

    #[test]
    fn digest_sequences_keep_the_hand_layout(digests in vec(any::<[u8; 32]>(), 0..6)) {
        let digests: Vec<Digest> = digests.into_iter().map(Digest).collect();
        check_seq(&digests, |w, d| w.digest(d))?;
    }

    /// A signature is a length-prefixed 64-byte string inside a sequence too.
    #[test]
    fn signature_sequences_keep_the_hand_layout(sigs in vec(any::<[u8; 64]>(), 0..4)) {
        let sigs: Vec<Signature> = sigs.into_iter().map(Signature).collect();
        check_seq(&sigs, |w, s| w.bytes(&s.0))?;
    }
}
