//! Ed25519 digital signatures (RFC 8032), implemented from scratch.
//!
//! ImageProof's image owner signs every outsourced image
//! (`sig_I = sign(sk, h(I | h(img_I)))`, Eq. 15 of the paper) and the root
//! digest of the ADS; clients verify these signatures against the
//! owner's published public key. Any EUF-CMA signature scheme works for the
//! protocol — Ed25519 is chosen because it is completely specified, compact
//! (64-byte signatures, 32-byte keys), and fast to verify.
//!
//! The implementation is *variable time*. That is sound for this system:
//! signing happens offline at the trusted owner, and verification operates
//! only on public data.

pub mod edwards;
pub mod field;
pub mod scalar;

use crate::sha512::Sha512;
use edwards::EdwardsPoint;
use scalar::Scalar;

/// A 32-byte Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub [u8; 32]);

/// A 64-byte Ed25519 signature (`R || S`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// Builds a signature from raw bytes without validation; invalid bytes
    /// simply fail verification later.
    pub fn from_bytes(bytes: [u8; 64]) -> Self {
        Signature(bytes)
    }
}

/// An Ed25519 signing key (the 32-byte seed plus cached expansion).
#[derive(Clone)]
pub struct SigningKey {
    /// Clamped secret scalar bytes (`s` in RFC 8032).
    secret_scalar: [u8; 32],
    /// Nonce-derivation prefix (`prefix` in RFC 8032).
    prefix: [u8; 32],
    public: PublicKey,
}

impl SigningKey {
    /// Expands a 32-byte seed into a signing key (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let h = Sha512::digest(seed);
        let mut secret_scalar = [0u8; 32];
        secret_scalar.copy_from_slice(&h[..32]);
        secret_scalar[0] &= 0b1111_1000;
        secret_scalar[31] &= 0b0111_1111;
        secret_scalar[31] |= 0b0100_0000;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);

        let a = EdwardsPoint::base_point().mul_clamped(&secret_scalar);
        SigningKey {
            secret_scalar,
            prefix,
            public: PublicKey(a.compress()),
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` (RFC 8032 §5.1.6).
    pub fn sign(&self, message: &[u8]) -> Signature {
        // r = SHA-512(prefix || M) mod l.
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_wide(&h.finalize());

        let r_point = EdwardsPoint::base_point().mul_scalar(&r);
        let r_bytes = r_point.compress();

        // k = SHA-512(R || A || M) mod l.
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.public.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());

        // S = (r + k * s) mod l.
        let s_scalar = Scalar::from_bytes_mod_order(&self.secret_scalar);
        let s = r.add(k.mul(s_scalar));

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl PublicKey {
    /// Verifies `signature` over `message` (RFC 8032 §5.1.7, cofactorless
    /// equation `[S]B = R + [k]A`, with strict canonical-`S` checking).
    // audit:allow(panic) halves of the fixed [u8; 64] signature always convert to [u8; 32]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let r_bytes: [u8; 32] = signature.0[..32].try_into().expect("split");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("split");

        let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
            return false;
        };
        let Some(a) = EdwardsPoint::decompress(&self.0) else {
            return false;
        };
        let Some(r_point) = EdwardsPoint::decompress(&r_bytes) else {
            return false;
        };

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());

        let lhs = EdwardsPoint::base_point().mul_scalar(&s);
        let rhs = r_point.add(&a.mul_scalar(&k));
        lhs.equals(&rhs)
    }
}

/// Batch verification of many `(message, public key, signature)` triples —
/// the client checks all `k` returned image signatures in one pass (§V-C
/// step iv), sharing the doubling chain across every term.
///
/// The check is the standard random-linear-combination test:
/// `(Σ zᵢ·Sᵢ)·B  ==  Σ zᵢ·Rᵢ + Σ (zᵢ·kᵢ)·Aᵢ` for 128-bit coefficients `zᵢ`
/// derived by hashing the whole batch (Fiat–Shamir style, so a forger
/// cannot choose signatures after seeing the coefficients). A `true` result
/// is sound with probability `1 - 2^-128`; on `false` callers fall back to
/// individual verification to identify the culprit.
///
/// Terms under one key fold into one: each distinct key is decompressed
/// once and carries the scalar `Σ zᵢ·kᵢ (mod l)` over its items, so the
/// multi-scalar sum has one term per item plus one per distinct key. Every
/// key a [`SigningKey`] produces lies in the prime-order subgroup, where
/// `[x]A` depends only on `x mod l`, so folding leaves the equation as is.
// audit:allow(panic) signature halves and the 16-byte coefficient prefix are constant splits of fixed-size arrays
pub fn verify_batch(items: &[(&[u8], PublicKey, Signature)]) -> bool {
    if items.is_empty() {
        return true;
    }
    // Derive the batch coefficients from every input.
    let mut transcript = Sha512::new();
    for (msg, pk, sig) in items {
        transcript.update(&pk.0);
        transcript.update(&sig.0);
        transcript.update(&(msg.len() as u64).to_le_bytes());
        transcript.update(msg);
    }
    let seed = transcript.finalize();

    let mut s_combined = Scalar::ZERO;
    let mut scalars = Vec::with_capacity(items.len() + 1);
    let mut points = Vec::with_capacity(items.len() + 1);
    // (key, decompressed key, Σ zᵢ·kᵢ over the key's items).
    let mut keys: Vec<(PublicKey, EdwardsPoint, Scalar)> = Vec::new();
    for (i, (msg, pk, sig)) in items.iter().enumerate() {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().expect("split");
        let s_bytes: [u8; 32] = sig.0[32..].try_into().expect("split");
        let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
            return false;
        };
        let Some(r_point) = EdwardsPoint::decompress(&r_bytes) else {
            return false;
        };

        // z_i: 128-bit coefficient from the transcript seed and the index.
        let mut zh = Sha512::new();
        zh.update(&seed);
        zh.update(&(i as u64).to_le_bytes());
        let mut z_bytes = [0u8; 32];
        z_bytes[..16].copy_from_slice(&zh.finalize()[..16]);
        let z = Scalar::from_bytes_mod_order(&z_bytes);

        let mut kh = Sha512::new();
        kh.update(&r_bytes);
        kh.update(&pk.0);
        kh.update(msg);
        let k = Scalar::from_bytes_wide(&kh.finalize());

        s_combined = s_combined.add(z.mul(s));
        scalars.push(z);
        points.push(r_point);
        let zk = z.mul(k);
        match keys.iter_mut().find(|(key, _, _)| key == pk) {
            Some((_, _, sum)) => *sum = sum.add(zk),
            None => {
                let Some(a) = EdwardsPoint::decompress(&pk.0) else {
                    return false;
                };
                keys.push((*pk, a, zk));
            }
        }
    }
    for (_, a, sum) in keys {
        scalars.push(sum);
        points.push(a);
    }

    let lhs = EdwardsPoint::base_point().mul_scalar(&s_combined);
    let rhs = EdwardsPoint::multiscalar_mul(&scalars, &points);
    lhs.equals(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn unhex32(s: &str) -> [u8; 32] {
        unhex(s).try_into().expect("32 bytes")
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test_1() {
        let sk = SigningKey::from_seed(&unhex32(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            sk.public_key().0,
            unhex32("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = sk.sign(b"");
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(sk.public_key().verify(b"", &sig));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
    #[test]
    fn rfc8032_test_2() {
        let sk = SigningKey::from_seed(&unhex32(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            sk.public_key().0,
            unhex32("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(sk.public_key().verify(&msg, &sig));
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message af82).
    #[test]
    fn rfc8032_test_3() {
        let sk = SigningKey::from_seed(&unhex32(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            sk.public_key().0,
            unhex32("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = [0xaf, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.0.to_vec(),
            unhex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(sk.public_key().verify(&msg, &sig));
    }

    #[test]
    fn verification_rejects_tampering() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let pk = sk.public_key();
        let sig = sk.sign(b"genuine image bytes");
        assert!(pk.verify(b"genuine image bytes", &sig));
        assert!(!pk.verify(b"forged image bytes", &sig));

        let mut bad_sig = sig.0;
        bad_sig[0] ^= 1;
        assert!(!pk.verify(b"genuine image bytes", &Signature(bad_sig)));

        let other = SigningKey::from_seed(&[43u8; 32]);
        assert!(!other.public_key().verify(b"genuine image bytes", &sig));
    }

    #[test]
    fn verification_rejects_non_canonical_s() {
        use super::scalar::L;
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let sig = sk.sign(b"msg");
        // Add l to S: same residue, non-canonical encoding. RFC 8032
        // verifiers MUST reject it.
        let mut s = [0u8; 32];
        s.copy_from_slice(&sig.0[32..]);
        let mut carry = 0u16;
        for (i, byte) in s.iter_mut().enumerate() {
            let limb = L[i / 8].to_le_bytes()[i % 8];
            let sum = *byte as u16 + limb as u16 + carry;
            *byte = sum as u8;
            carry = sum >> 8;
        }
        let mut malleated = sig.0;
        malleated[32..].copy_from_slice(&s);
        assert!(!sk.public_key().verify(b"msg", &Signature(malleated)));
    }

    #[test]
    fn distinct_seeds_produce_distinct_keys() {
        let a = SigningKey::from_seed(&[1u8; 32]);
        let b = SigningKey::from_seed(&[2u8; 32]);
        assert_ne!(a.public_key().0, b.public_key().0);
    }

    fn batch_fixture(n: usize) -> Vec<(Vec<u8>, PublicKey, Signature)> {
        (0..n)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i as u8 + 1; 32]);
                let msg = format!("image-{i}").into_bytes();
                let sig = sk.sign(&msg);
                (msg, sk.public_key(), sig)
            })
            .collect()
    }

    fn as_refs(items: &[(Vec<u8>, PublicKey, Signature)]) -> Vec<(&[u8], PublicKey, Signature)> {
        items
            .iter()
            .map(|(m, p, s)| (m.as_slice(), *p, *s))
            .collect()
    }

    #[test]
    fn batch_verification_accepts_honest_batches() {
        for n in [0usize, 1, 2, 7, 16] {
            let items = batch_fixture(n);
            assert!(verify_batch(&as_refs(&items)), "n = {n}");
        }
    }

    #[test]
    fn batch_verification_rejects_any_bad_member() {
        let mut items = batch_fixture(8);
        // Tamper one message.
        items[3].0[0] ^= 1;
        assert!(!verify_batch(&as_refs(&items)));
        let mut items = batch_fixture(8);
        // Tamper one signature byte.
        let mut sig = items[5].2 .0;
        sig[10] ^= 1;
        items[5].2 = Signature(sig);
        assert!(!verify_batch(&as_refs(&items)));
        let mut items = batch_fixture(8);
        // Swap two public keys.
        let pk = items[0].1;
        items[0].1 = items[1].1;
        items[1].1 = pk;
        assert!(!verify_batch(&as_refs(&items)));
    }

    #[test]
    fn two_key_interleaved_batch_folds_per_key() {
        // Items alternate between two keys, so each key's terms fold into
        // one scalar: the honest batch passes, and forging any one member
        // (its message or its S) fails the whole batch.
        let keys = [
            SigningKey::from_seed(&[5u8; 32]),
            SigningKey::from_seed(&[6u8; 32]),
        ];
        let honest: Vec<(Vec<u8>, PublicKey, Signature)> = (0..10)
            .map(|i| {
                let sk = &keys[i % 2];
                let msg = format!("image-{i}").into_bytes();
                let sig = sk.sign(&msg);
                (msg, sk.public_key(), sig)
            })
            .collect();
        assert!(verify_batch(&as_refs(&honest)));
        for i in 0..honest.len() {
            let mut forged = honest.clone();
            forged[i].0.push(b'!');
            assert!(!verify_batch(&as_refs(&forged)), "forged message {i}");
            let mut forged = honest.clone();
            let mut sig = forged[i].2 .0;
            sig[40] ^= 1;
            forged[i].2 = Signature(sig);
            assert!(!verify_batch(&as_refs(&forged)), "forged S {i}");
        }
        // A key encoding that is no curve point fails the batch outright,
        // wherever it sits.
        let bad_key = (0u8..=255)
            .map(|b| PublicKey([b; 32]))
            .find(|pk| EdwardsPoint::decompress(&pk.0).is_none())
            .expect("some byte pattern is off the curve");
        for i in [0, 5, 9] {
            let mut forged = honest.clone();
            forged[i].1 = bad_key;
            assert!(!verify_batch(&as_refs(&forged)), "bad key at {i}");
        }
    }

    #[test]
    fn batch_matches_individual_verification() {
        let items = batch_fixture(5);
        for (m, p, s) in &items {
            assert!(p.verify(m, s));
        }
        assert!(verify_batch(&as_refs(&items)));
    }

    #[test]
    fn multiscalar_matches_individual_scalar_muls() {
        use super::edwards::EdwardsPoint;
        use super::scalar::Scalar;
        let b = EdwardsPoint::base_point();
        let p2 = b.double();
        let p3 = p2.add(&b);
        let s1 = Scalar::from_bytes_mod_order(&[11u8; 32]);
        let s2 = Scalar::from_bytes_mod_order(&[23u8; 32]);
        let s3 = Scalar::from_bytes_mod_order(&[47u8; 32]);
        let combined = EdwardsPoint::multiscalar_mul(&[s1, s2, s3], &[b, p2, p3]);
        let individual = b
            .mul_scalar(&s1)
            .add(&p2.mul_scalar(&s2))
            .add(&p3.mul_scalar(&s3));
        assert!(combined.equals(&individual));
    }
}
