//! The 32-byte digest type shared by every authenticated data structure, plus
//! helpers for hashing heterogeneous field concatenations.
//!
//! The paper defines all ADS digests as SHA3-256 over `|`-concatenated
//! fields, e.g. `h_N = h(l_N | h_left | h_right)` (Def. 2). Concatenating
//! variable-length fields naively is ambiguous (`"ab"|"c"` vs `"a"|"bc"`), so
//! [`DigestBuilder`] length-prefixes every variable-length field. Both the SP
//! and the client build digests through the same API, so the encoding is an
//! internal detail that never leaks into the protocol.

use crate::sha3::{Sha3Batch, Sha3_256};
use std::fmt;

/// A SHA3-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the chain terminator for the last posting
    /// of a Merkle inverted list (Def. 4 leaves `h_{pos_{c_i, n+1}}`
    /// unspecified; a fixed terminator makes list length non-malleable).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes a single byte string.
    pub fn of(data: &[u8]) -> Self {
        Digest(Sha3_256::digest(data))
    }

    /// Shorthand for a builder.
    pub fn builder() -> DigestBuilder {
        DigestBuilder::new()
    }

    /// Hex rendering for logs and examples.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Where a [`DigestBuilder`]'s framed bytes go: one sponge of its own, or
/// the open message of a [`DigestBatch`]. The framing is written once, in
/// [`DigestBuilder`], so both hash the same bytes.
pub trait FieldSink {
    /// What finishing the message yields.
    type Out;
    /// Appends raw bytes to the message.
    fn absorb(&mut self, bytes: &[u8]);
    /// Ends the message.
    fn finish(self) -> Self::Out;
}

impl FieldSink for Sha3_256 {
    type Out = Digest;
    fn absorb(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
    fn finish(self) -> Digest {
        Digest(self.finalize())
    }
}

impl FieldSink for &mut Sha3Batch {
    type Out = ();
    fn absorb(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
    fn finish(self) {
        self.end_message();
    }
}

/// Builds a digest over a sequence of typed fields with unambiguous framing.
#[must_use = "a message is hashed only once `finish` ends it"]
pub struct DigestBuilder<S = Sha3_256> {
    sink: S,
}

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder {
            sink: Sha3_256::new(),
        }
    }
}

impl<S: FieldSink> DigestBuilder<S> {
    /// Appends a variable-length byte field, length-prefixed.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        self.sink.absorb(&(data.len() as u64).to_le_bytes());
        self.sink.absorb(data);
        self
    }

    /// Appends a fixed-width digest field.
    pub fn digest(mut self, d: &Digest) -> Self {
        self.sink.absorb(&d.0);
        self
    }

    /// Appends a `u64` field.
    pub fn u64(mut self, v: u64) -> Self {
        self.sink.absorb(&v.to_le_bytes());
        self
    }

    /// Appends a `u32` field.
    pub fn u32(mut self, v: u32) -> Self {
        self.sink.absorb(&v.to_le_bytes());
        self
    }

    /// Appends an `f32` field by its IEEE-754 bit pattern.
    ///
    /// Impact values and cluster weights are `f32`s computed identically by
    /// owner and client, so bit-pattern hashing is deterministic.
    pub fn f32(mut self, v: f32) -> Self {
        self.sink.absorb(&v.to_bits().to_le_bytes());
        self
    }

    /// Appends an `f64` field by its bit pattern.
    pub fn f64(mut self, v: f64) -> Self {
        self.sink.absorb(&v.to_bits().to_le_bytes());
        self
    }

    /// Appends a slice of `f32`s (e.g. a splitting hyperplane or cluster
    /// centroid), length-prefixed.
    pub fn f32_slice(mut self, vs: &[f32]) -> Self {
        self.sink.absorb(&(vs.len() as u64).to_le_bytes());
        // Sixteen floats to an absorb: a centroid is hundreds of bytes, and
        // a sink call per float costs more than the bytes do.
        let mut bytes = [0u8; 64];
        for chunk in vs.chunks(16) {
            for (b, v) in bytes.chunks_exact_mut(4).zip(chunk) {
                b.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            self.sink
                .absorb(bytes.get(..chunk.len() * 4).unwrap_or(&bytes));
        }
        self
    }

    /// Ends the message: the digest itself, or `()` for a message of a
    /// [`DigestBatch`], whose digests arrive together.
    pub fn finish(self) -> S::Out {
        self.sink.finish()
    }
}

/// Many independent field-framed messages hashed together
/// ([`Sha3Batch`]): queue each with [`message`](DigestBatch::message) and
/// the same [`DigestBuilder`] calls a single digest takes, then collect
/// every digest, in queueing order, with [`finish`](DigestBatch::finish).
///
/// ```
/// use imageproof_crypto::{Digest, DigestBatch};
/// let mut batch = DigestBatch::new();
/// for i in 0..20 {
///     batch.message().u64(i).bytes(b"node").finish();
/// }
/// let digests = batch.finish();
/// assert_eq!(digests[7], Digest::builder().u64(7).bytes(b"node").finish());
/// ```
#[derive(Default)]
pub struct DigestBatch {
    batch: Sha3Batch,
}

impl DigestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder for the next message; its `finish` queues the message.
    pub fn message(&mut self) -> DigestBuilder<&mut Sha3Batch> {
        DigestBuilder {
            sink: &mut self.batch,
        }
    }

    /// Hashes every queued message and empties the batch, keeping its
    /// buffer for the next round.
    pub fn finish(&mut self) -> Vec<Digest> {
        self.batch
            .finalize_reset()
            .into_iter()
            .map(Digest)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic() {
        let a = Digest::builder().u64(7).bytes(b"abc").finish();
        let b = Digest::builder().u64(7).bytes(b"abc").finish();
        assert_eq!(a, b);
    }

    #[test]
    fn field_framing_disambiguates_concatenation() {
        let a = Digest::builder().bytes(b"ab").bytes(b"c").finish();
        let b = Digest::builder().bytes(b"a").bytes(b"bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn field_order_matters() {
        let a = Digest::builder().u64(1).u64(2).finish();
        let b = Digest::builder().u64(2).u64(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn f32_hashing_uses_bit_patterns() {
        // 0.0 and -0.0 compare equal as floats but have distinct encodings;
        // the digest must distinguish them to be collision-free.
        let a = Digest::builder().f32(0.0).finish();
        let b = Digest::builder().f32(-0.0).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn of_matches_plain_sha3() {
        assert_eq!(Digest::of(b"abc").0, crate::sha3::Sha3_256::digest(b"abc"));
    }

    #[test]
    fn batched_messages_hash_like_single_builders() {
        let d = Digest::of(b"child");
        let floats = [0.5f32, -0.0, f32::NAN, 3.25];
        let mut batch = DigestBatch::new();
        for round in 0..2u64 {
            // 19 messages of several shapes and block counts per round;
            // the second round reuses the emptied batch.
            for i in 0..19u64 {
                let b = batch.message().u64(round).u32(i as u32);
                match i % 3 {
                    0 => b.f32(1.5).digest(&d).digest(&d).finish(),
                    1 => b.f32_slice(&floats.repeat(i as usize)).finish(),
                    _ => b.bytes(&vec![i as u8; 40 * i as usize]).f64(2.5).finish(),
                }
            }
            let digests = batch.finish();
            assert_eq!(digests.len(), 19);
            for (i, got) in (0..19u64).zip(digests) {
                let b = Digest::builder().u64(round).u32(i as u32);
                let expected = match i % 3 {
                    0 => b.f32(1.5).digest(&d).digest(&d).finish(),
                    1 => b.f32_slice(&floats.repeat(i as usize)).finish(),
                    _ => b.bytes(&vec![i as u8; 40 * i as usize]).f64(2.5).finish(),
                };
                assert_eq!(got, expected, "round {round} message {i}");
            }
        }
        assert!(batch.finish().is_empty());
    }

    #[test]
    fn hex_rendering_is_64_chars() {
        assert_eq!(Digest::of(b"x").to_hex().len(), 64);
    }
}
