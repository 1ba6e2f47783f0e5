//! # imageproof-crypto
//!
//! Cryptographic substrate for the ImageProof reproduction, implemented from
//! scratch (no external crypto crates are available in this environment):
//!
//! * [`sha3`] — SHA3-256 (FIPS-202), the hash `h(.)` used by every
//!   authenticated data structure in the paper (§VII-A fixes SHA3-256),
//!   one message at a time or a batch of independent messages over an
//!   8-lane Keccak where the CPU has AVX-512.
//! * [`sha512`] — SHA-512 (FIPS-180-4), a substrate for Ed25519.
//! * [`ed25519`] — RFC 8032 Ed25519 signatures, used by the image owner to
//!   sign images (Eq. 15) and the ADS root digest.
//! * [`digest`] — the 32-byte [`digest::Digest`] type and an
//!   unambiguous field-concatenation builder shared by all ADSs.
//! * [`merkle`] — a generic binary Merkle hash tree with subset membership
//!   proofs (paper §II-B, Fig. 1), used by the §VI-A optimization.
//!
//! All primitives are validated against official test vectors (FIPS /
//! RFC 8032) in the unit tests.

pub mod digest;
pub mod ed25519;
mod keccak_lanes;
pub mod merkle;
pub mod sha3;
pub mod sha512;
pub mod wire;

pub use digest::{Digest, DigestBatch, DigestBuilder, FieldSink};
pub use ed25519::{verify_batch, PublicKey, Signature, SigningKey};
pub use merkle::{MerkleTree, SubsetProof};
pub use wire::{Decode, Encode, Reader, WireError, Writer};
