//! SHA3-256 as specified by FIPS-202, built on the Keccak-f\[1600\] permutation.
//!
//! ImageProof uses SHA3-256 as the cryptographic hash function `h(.)` for all
//! authenticated-data-structure digests (the paper fixes SHA3-256 in §VII-A).
//! The implementation is a straightforward sponge construction with rate
//! 1088 bits (136 bytes) and the `01` SHA-3 domain-separation suffix.
//! [`Sha3_256`] hashes one message; [`Sha3Batch`] hashes many independent
//! messages, eight sponges to a permutation where the CPU allows.

use crate::keccak_lanes::{LaneState, Wide, LANES};

/// Keccak round constants for the 24 rounds of Keccak-f[1600].
pub(crate) const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the rho step, indexed as `[x + 5*y]`.
pub(crate) const RHO_OFFSETS: [u32; 25] = [
    0, 1, 62, 28, 27, // y = 0
    36, 44, 6, 55, 20, // y = 1
    3, 10, 43, 25, 39, // y = 2
    41, 45, 15, 21, 8, // y = 3
    18, 2, 61, 56, 14, // y = 4
];

/// The Keccak-f\[1600\] permutation applied in place to a 25-lane state.
///
/// Exposed for property tests; library users should go through [`Sha3_256`].
// audit:allow(panic) lane indices are x + 5y with x, y in 0..5, always inside [u64; 25]
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in &ROUND_CONSTANTS {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // Rho and Pi combined: b[y, 2x+3y] = rotl(a[x, y], r[x, y]).
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                let idx = x + 5 * y;
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[idx].rotate_left(RHO_OFFSETS[idx]);
            }
        }

        // Chi.
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // Iota.
        state[0] ^= rc;
    }
}

/// Rate of SHA3-256 in bytes (1088 bits).
const RATE: usize = 136;

/// Xors one rate block (`RATE` bytes) into `state` and permutes.
// audit:allow(panic) chunks_exact(8) yields exactly 8-byte chunks, so the conversion is infallible
fn absorb_block(state: &mut [u64; 25], block: &[u8]) {
    debug_assert_eq!(block.len(), RATE);
    for (lane, chunk) in state.iter_mut().zip(block.chunks_exact(8)) {
        *lane ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    keccak_f1600(state);
}

/// The first 32 bytes of the state: the SHA3-256 output.
fn squeeze(state: &[u64; 25]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(state) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

/// Incremental SHA3-256 hasher.
///
/// ```
/// use imageproof_crypto::sha3::Sha3_256;
/// let mut h = Sha3_256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0x3a, 0x98, 0x5d, 0xa7],
/// );
/// ```
#[derive(Clone)]
pub struct Sha3_256 {
    state: [u64; 25],
    /// Bytes absorbed into the current (incomplete) rate block.
    buffer: [u8; RATE],
    buffered: usize,
}

impl Default for Sha3_256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha3_256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [0u64; 25],
            buffer: [0u8; RATE],
            buffered: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    // audit:allow(panic) slice bounds are capped by take = (RATE - buffered).min(input.len())
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = (RATE - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < RATE {
                return;
            }
            absorb_block(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks go from the caller's slice straight into the state.
        let mut blocks = input.chunks_exact(RATE);
        for block in &mut blocks {
            absorb_block(&mut self.state, block);
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Applies SHA-3 padding and squeezes the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.finalize_reset()
    }

    /// Like [`Sha3_256::finalize`], but leaves the hasher in the
    /// freshly-[`reset`](Sha3_256::reset) state instead of consuming it, so
    /// one scratch hasher can serve a whole stream of digests without
    /// re-zeroing a new state per message.
    // audit:allow(panic) buffered < RATE between absorbs, so padding indices stay inside the block
    pub fn finalize_reset(&mut self) -> [u8; 32] {
        let mut block = [0u8; RATE];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        // SHA-3 domain suffix `01` followed by pad10*1.
        block[self.buffered] = 0x06;
        block[RATE - 1] |= 0x80;
        absorb_block(&mut self.state, &block);

        let out = squeeze(&self.state);
        self.reset();
        out
    }

    /// Returns the hasher to its initial state (equivalent to `*self =
    /// Sha3_256::new()` without touching the buffer bytes beyond the
    /// absorbed prefix).
    pub fn reset(&mut self) {
        self.state = [0u64; 25];
        self.buffered = 0;
    }

    /// One-shot convenience: `Sha3_256::digest(m) == {new; update(m); finalize}`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// SHA3-256 of many independent messages at once.
///
/// Messages are queued with [`update`](Sha3Batch::update) /
/// [`end_message`](Sha3Batch::end_message) and their digests collected, in
/// order, by [`finalize_reset`](Sha3Batch::finalize_reset). Where the CPU
/// has AVX-512, every eighth message ended hashes the queued eight
/// together, one sponge per lane of each permutation
/// ([`crate::keccak_lanes`]); elsewhere the eight run through
/// [`keccak_f1600`] in turn. Only those eight are ever buffered, so the
/// scratch stays a few hundred bytes per lane however long the batch.
/// Digest `i` always equals [`Sha3_256::digest`] of message `i`.
///
/// ```
/// use imageproof_crypto::sha3::{Sha3Batch, Sha3_256};
/// let mut batch = Sha3Batch::new();
/// for msg in [&b"abc"[..], b"", b"imageproof"] {
///     batch.update(msg);
///     batch.end_message();
/// }
/// let digests = batch.finalize_reset();
/// assert_eq!(digests[0], Sha3_256::digest(b"abc"));
/// assert_eq!(digests.len(), 3);
/// ```
#[derive(Default)]
pub struct Sha3Batch {
    /// The queued messages (fewer than [`LANES`] between calls), each
    /// padded to whole rate blocks, back to back; the open message's bytes
    /// follow.
    buf: Vec<u8>,
    /// End offset in `buf` of each queued message.
    ends: Vec<usize>,
    /// Digests of the messages hashed so far.
    digests: Vec<[u8; 32]>,
}

impl Sha3Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `data` to the open message.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Ends the open message (SHA-3 suffix `01`, then pad10*1 to a whole
    /// number of rate blocks) and opens the next one.
    #[inline]
    // audit:allow(panic) `start <= buf.len()` and the resize makes `buf` end on the padded block, so both pad bytes are in range
    pub fn end_message(&mut self) {
        let start = self.ends.last().copied().unwrap_or(0);
        let len = self.buf.len() - start;
        let end = start + (len / RATE + 1) * RATE;
        self.buf.resize(end, 0);
        self.buf[start + len] = 0x06;
        self.buf[end - 1] |= 0x80;
        self.ends.push(end);
        if self.ends.len() == LANES {
            self.hash_queued();
        }
    }

    /// The digest of every message ended since the last call, in the order
    /// they were ended; the batch is left empty (bytes of a message left
    /// open are dropped).
    pub fn finalize_reset(&mut self) -> Vec<[u8; 32]> {
        self.hash_queued();
        std::mem::take(&mut self.digests)
    }

    /// Hashes the queued messages — at most [`LANES`], one per lane — and
    /// empties the queue. A lane whose message has fewer blocks than the
    /// longest yields its digest after its own last block and is permuted
    /// on unobserved.
    // audit:allow(panic) `ends` holds at most LANES ascending offsets into `buf`, recorded by `end_message`, so every range and lane index is in bounds; chunks_exact(8) yields 8-byte chunks
    fn hash_queued(&mut self) {
        let mut start = 0;
        let queued = self.ends.iter().map(|&end| {
            let message = &self.buf[start..end];
            start = end;
            message
        });
        match Wide::detect() {
            Some(wide) => {
                let mut state: LaneState<LANES> = [[0u64; LANES]; 25];
                let mut messages: [&[u8]; LANES] = [&[]; LANES];
                for (slot, message) in messages.iter_mut().zip(queued) {
                    *slot = message;
                }
                let messages = &messages[..self.ends.len()];
                let first = self.digests.len();
                self.digests.resize(first + messages.len(), [0u8; 32]);
                let blocks = messages.iter().map(|m| m.len() / RATE).max().unwrap_or(0);
                for b in 0..blocks {
                    for (l, message) in messages.iter().enumerate() {
                        let Some(block) = message.get(b * RATE..(b + 1) * RATE) else {
                            continue;
                        };
                        for (word, chunk) in state.iter_mut().zip(block.chunks_exact(8)) {
                            word[l] ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                        }
                    }
                    wide.permute(&mut state);
                    let digests = messages.iter().zip(&mut self.digests[first..]);
                    for (l, (message, digest)) in digests.enumerate() {
                        if message.len() == (b + 1) * RATE {
                            for (chunk, word) in digest.chunks_exact_mut(8).zip(&state) {
                                chunk.copy_from_slice(&word[l].to_le_bytes());
                            }
                        }
                    }
                }
            }
            None => {
                for message in queued {
                    let mut state = [0u64; 25];
                    for block in message.chunks_exact(RATE) {
                        absorb_block(&mut state, block);
                    }
                    self.digests.push(squeeze(&state));
                }
            }
        }
        self.buf.clear();
        self.ends.clear();
    }

    /// Which Keccak instance this CPU hashes batches with, for logs and
    /// benchmark headers.
    pub fn instance() -> &'static str {
        match Wide::detect() {
            Some(_) => "avx512 x8",
            None => "scalar x1",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_message_matches_fips_vector() {
        assert_eq!(
            hex(&Sha3_256::digest(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn abc_matches_fips_vector() {
        assert_eq!(
            hex(&Sha3_256::digest(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn long_message_matches_known_vector() {
        // 448-bit NIST test message.
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex(&Sha3_256::digest(msg)),
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"
        );
    }

    #[test]
    fn million_a_matches_known_vector() {
        let mut h = Sha3_256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"
        );
    }

    #[test]
    fn rate_boundary_messages_round_trip_incrementally() {
        // Hash messages whose lengths straddle the 136-byte rate both in one
        // shot and byte-by-byte; the results must agree.
        for len in [0usize, 1, 135, 136, 137, 271, 272, 273, 500] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let oneshot = Sha3_256::digest(&msg);
            let mut inc = Sha3_256::new();
            for b in &msg {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(oneshot, inc.finalize(), "length {len}");
        }
    }

    #[test]
    fn chunked_updates_are_split_invariant() {
        let msg: Vec<u8> = (0..1024u32).map(|i| (i % 256) as u8).collect();
        let oneshot = Sha3_256::digest(&msg);
        for split in [1usize, 7, 64, 135, 136, 137, 512] {
            let mut h = Sha3_256::new();
            for chunk in msg.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(oneshot, h.finalize(), "split {split}");
        }
    }

    #[test]
    fn keccak_permutation_is_not_identity_and_is_deterministic() {
        // The FIPS vectors above pin down the permutation exactly; this test
        // guards the in-place API contract (deterministic, state-mutating).
        let mut a = [0u64; 25];
        let mut b = [0u64; 25];
        keccak_f1600(&mut a);
        keccak_f1600(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, [0u64; 25]);
    }

    #[test]
    fn finalize_reset_reuses_one_hasher_across_messages() {
        let mut h = Sha3_256::new();
        // Interleave message lengths around the rate boundary so stale
        // buffer bytes would be caught if reset missed them.
        for len in [0usize, 3, 135, 136, 137, 300, 5] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            h.update(&msg);
            assert_eq!(h.finalize_reset(), Sha3_256::digest(&msg), "length {len}");
        }
    }

    #[test]
    fn reset_discards_absorbed_input() {
        let mut h = Sha3_256::new();
        h.update(b"poison that must not leak into the next digest");
        h.reset();
        h.update(b"abc");
        assert_eq!(h.finalize(), Sha3_256::digest(b"abc"));
    }

    /// Hashes `messages` through one batch.
    fn batch_digests(messages: &[Vec<u8>]) -> Vec<[u8; 32]> {
        let mut batch = Sha3Batch::new();
        for m in messages {
            // Split the message so `update` is exercised across calls.
            let (head, tail) = m.split_at(m.len() / 3);
            batch.update(head);
            batch.update(tail);
            batch.end_message();
        }
        let out = batch.finalize_reset();
        assert_eq!(out.len(), messages.len());
        out
    }

    #[test]
    fn batch_matches_fips_vectors() {
        let messages = vec![
            b"".to_vec(),
            b"abc".to_vec(),
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
            vec![b'a'; 1_000_000],
        ];
        let digests: Vec<String> = batch_digests(&messages).iter().map(|d| hex(d)).collect();
        assert_eq!(
            digests,
            [
                "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
                "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532",
                "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376",
                "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1",
            ]
        );
    }

    #[test]
    fn batch_equals_single_message_digests_for_ragged_mixed_batches() {
        // Lengths around every block boundary, so a lane group mixes block
        // counts; batch sizes around the lane width, so tails are ragged.
        const LENGTHS: [usize; 11] = [0, 1, 71, 72, 135, 136, 137, 271, 272, 273, 300];
        for n in 0..=17usize {
            for shift in 0..LENGTHS.len() {
                let messages: Vec<Vec<u8>> = (0..n)
                    .map(|i| {
                        let len = LENGTHS[(i + shift) % LENGTHS.len()];
                        (0..len).map(|j| ((i * 131 + j * 31) % 251) as u8).collect()
                    })
                    .collect();
                let expected: Vec<[u8; 32]> =
                    messages.iter().map(|m| Sha3_256::digest(m)).collect();
                assert_eq!(
                    batch_digests(&messages),
                    expected,
                    "batch of {n}, shift {shift}"
                );
            }
        }
        // Uniform batches of each length too (the shape the VO produces).
        for len in LENGTHS {
            let messages: Vec<Vec<u8>> = (0..17).map(|i| vec![i as u8; len]).collect();
            let expected: Vec<[u8; 32]> = messages.iter().map(|m| Sha3_256::digest(m)).collect();
            assert_eq!(batch_digests(&messages), expected, "length {len}");
        }
    }

    #[test]
    fn batch_is_reusable_and_drops_an_open_message() {
        let mut batch = Sha3Batch::new();
        batch.update(b"abc");
        batch.end_message();
        batch.update(b"never ended");
        assert_eq!(batch.finalize_reset(), [Sha3_256::digest(b"abc")]);
        batch.update(b"abc");
        batch.end_message();
        assert_eq!(batch.finalize_reset(), [Sha3_256::digest(b"abc")]);
        assert!(batch.finalize_reset().is_empty());
    }

    #[test]
    fn distinct_messages_produce_distinct_digests() {
        let a = Sha3_256::digest(b"imageproof");
        let b = Sha3_256::digest(b"imageprooF");
        assert_ne!(a, b);
    }
}
