//! A minimal binary wire format for verification objects.
//!
//! The paper reports *VO size* as a headline metric (Figs. 6–8, 12–14), so
//! VOs must have a concrete, compact byte encoding rather than an in-memory
//! estimate. This module provides an explicit little-endian writer/reader
//! pair; every VO type implements [`Encode`]/[`Decode`] against it, and the
//! encoded length is the reported VO size.
//!
//! The format is deliberately simple: fixed-width integers, IEEE-754 floats
//! by bit pattern, `u32` length prefixes for sequences. Decoding is fully
//! validated — a malformed VO yields [`WireError`], never a panic — because
//! VOs arrive from the untrusted SP.

use crate::digest::Digest;
use crate::ed25519::Signature;

/// Decoding error: the byte stream did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than required remained.
    UnexpectedEnd,
    /// A tag byte had no corresponding variant.
    InvalidTag(u8),
    /// A length prefix exceeded sane bounds.
    LengthOverflow,
    /// Trailing bytes remained after a complete decode.
    TrailingBytes,
    /// Nesting deeper than the decoder's recursion budget.
    DepthExceeded,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of VO bytes"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            WireError::LengthOverflow => write!(f, "length prefix exceeds stream size"),
            WireError::TrailingBytes => write!(f, "trailing bytes after VO"),
            WireError::DepthExceeded => write!(f, "VO nesting exceeds the decode depth limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// A writer whose buffer starts with `capacity` bytes pre-allocated —
    /// encoding a VO of at most that size performs no allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Clears the written bytes but keeps the allocation, so the writer can
    /// be reused across VOs without reallocating.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Ensures room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Current allocation size in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The bytes written so far, without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(&d.0);
    }

    /// A 64-byte signature as a length-prefixed byte string (the form
    /// every VO and RPC payload has always shipped).
    pub fn signature(&mut self, s: &Signature) {
        self.bytes(&s.0);
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, data: &[u8]) {
        self.u32(data.len() as u32);
        self.buf.extend_from_slice(data);
    }

    /// Varint-length-prefixed byte string: one length byte instead of four
    /// for payloads under 128 bytes. VO framing where size is the headline
    /// metric uses this form.
    pub fn vbytes(&mut self, data: &[u8]) {
        self.varint(data.len() as u64);
        self.buf.extend_from_slice(data);
    }

    /// Length prefix for a sequence the caller will then encode item-wise.
    pub fn seq_len(&mut self, len: usize) {
        self.u32(len as u32);
    }

    /// Varint form of [`Writer::seq_len`] — one byte for sequences shorter
    /// than 128 items.
    pub fn vseq_len(&mut self, len: usize) {
        self.varint(len as u64);
    }

    /// LEB128 variable-length unsigned integer — the compact-integer
    /// representation the paper's §VI-B compression techniques call for
    /// (small frequency counts and d-gaps fit in one byte).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Byte reader over a borrowed slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEnd)?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEnd)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads exactly `N` bytes into an array; the `try_into` cannot fail
    /// because `take` returned an `N`-byte slice, but the conversion stays
    /// fallible so this path is panic-free by construction.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::UnexpectedEnd)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(WireError::UnexpectedEnd)
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn digest(&mut self) -> Result<Digest, WireError> {
        Ok(Digest(self.take_array()?))
    }

    /// Counterpart of [`Writer::signature`]: any length prefix other than
    /// 64 is `InvalidTag(0xFF)`.
    pub fn signature(&mut self) -> Result<Signature, WireError> {
        if self.seq_len()? != 64 {
            return Err(WireError::InvalidTag(0xFF));
        }
        Ok(Signature(self.take_array()?))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.seq_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Counterpart of [`Writer::vbytes`].
    pub fn vbytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.vseq_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence length, bounding it by the remaining stream so a
    /// hostile prefix cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        self.bound_len(len)
    }

    /// Counterpart of [`Writer::vseq_len`], with the same hostile-length
    /// bounding as [`Reader::seq_len`].
    pub fn vseq_len(&mut self) -> Result<usize, WireError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::LengthOverflow)?;
        self.bound_len(len)
    }

    fn bound_len(&self, len: usize) -> Result<usize, WireError> {
        let remaining = self.data.len() - self.pos;
        // Every sequence element occupies at least one byte, so any honest
        // length fits in the remaining stream.
        if len > remaining {
            return Err(WireError::LengthOverflow);
        }
        Ok(len)
    }

    /// Reads a LEB128 varint (at most ten bytes for a `u64`).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::LengthOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Asserts the stream is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Per-thread scratch [`Writer`] for [`Encode::to_wire`]/[`Encode::wire_size`].
///
/// The pool keeps one writer per thread whose capacity grows to the largest
/// VO that thread has encoded, so steady-state query serving (one worker
/// encoding one VO after another, as in `query_batch`) performs zero buffer
/// reallocations: the scratch is sized by the previous query's VO. Bytes are
/// identical to encoding into a fresh `Writer` — only the allocation
/// behaviour differs.
mod scratch {
    use super::Writer;
    use std::cell::RefCell;

    thread_local! {
        static POOL: RefCell<Writer> = RefCell::new(Writer::new());
    }

    /// Runs `f` with this thread's scratch writer (reset before and after
    /// use, capacity retained). Falls back to a fresh writer if the scratch
    /// is already borrowed (an `encode` impl that itself calls `to_wire`).
    pub fn with_writer<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
        POOL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut w) => {
                w.reset();
                let r = f(&mut w);
                w.reset();
                r
            }
            Err(_) => f(&mut Writer::new()),
        })
    }
}

/// Types with a canonical wire encoding.
pub trait Encode {
    fn encode(&self, w: &mut Writer);

    /// Serializes to a byte vector sized exactly to the encoding.
    ///
    /// Encodes through the per-thread scratch writer, so the only
    /// allocation is the exact-size output vector — no realloc chain while
    /// the VO is being assembled.
    fn to_wire(&self) -> Vec<u8> {
        scratch::with_writer(|w| {
            self.encode(w);
            w.as_slice().to_vec()
        })
    }

    /// Exact size in bytes of the canonical encoding — the "VO size" metric.
    ///
    /// Allocation-free in steady state: measures through the per-thread
    /// scratch writer without materializing the bytes.
    fn wire_size(&self) -> usize {
        scratch::with_writer(|w| {
            self.encode(w);
            w.len()
        })
    }
}

/// Types decodable from the wire encoding.
pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Parses a complete byte string (rejecting trailing bytes).
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f32(-1.5);
        w.digest(&Digest::of(b"x"));
        w.bytes(b"hello");
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.digest().unwrap(), Digest::of(b"x"));
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn signature_is_a_length_prefixed_64_and_nothing_else() {
        let sig = Signature([0xAB; 64]);
        let mut w = Writer::new();
        w.signature(&sig);
        let buf = w.finish();
        let mut bytes = Writer::new();
        bytes.bytes(&sig.0);
        assert_eq!(
            buf,
            bytes.finish(),
            "same bytes as a length-prefixed string"
        );
        assert_eq!(Reader::new(&buf).signature(), Ok(sig));
        // A well-formed byte string of any other length is a wrong tag,
        // not a truncation.
        let mut short = Writer::new();
        short.bytes(&[7u8; 63]);
        assert_eq!(
            Reader::new(&short.finish()).signature(),
            Err(WireError::InvalidTag(0xFF))
        );
        assert_eq!(
            Reader::new(&buf[..40]).signature(),
            Err(WireError::LengthOverflow)
        );
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..4]);
        assert_eq!(r.u64(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims 4 GiB of payload
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.seq_len(), Err(WireError::LengthOverflow));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let buf = vec![0u8; 3];
        let mut r = Reader::new(&buf);
        let _ = r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes));
    }

    #[test]
    fn varint_round_trips_across_widths() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut w = Writer::new();
        for &v in &values {
            w.varint(v);
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.finish().is_ok());
    }

    #[test]
    fn varint_small_values_take_one_byte() {
        let mut w = Writer::new();
        w.varint(5);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn varint_rejects_overlong_encoding() {
        // Eleven continuation bytes exceed a u64.
        let buf = [0xffu8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Err(WireError::LengthOverflow));
    }

    #[test]
    fn reset_leaves_no_residual_bytes() {
        let mut w = Writer::with_capacity(64);
        w.u64(0xFEED_FACE_CAFE_BEEF);
        w.bytes(b"residue");
        let cap = w.capacity();
        w.reset();
        assert!(w.is_empty(), "reset writer must report empty");
        assert_eq!(w.len(), 0);
        assert_eq!(w.as_slice(), &[] as &[u8]);
        assert_eq!(w.capacity(), cap, "reset must keep the allocation");
        // A post-reset encoding must match a fresh writer's bit-for-bit.
        w.u32(7);
        w.f32(1.25);
        let mut fresh = Writer::new();
        fresh.u32(7);
        fresh.f32(1.25);
        assert_eq!(w.finish(), fresh.finish());
    }

    #[test]
    fn with_capacity_pre_allocates() {
        let mut w = Writer::with_capacity(128);
        assert!(w.capacity() >= 128);
        for i in 0..32u32 {
            w.u32(i);
        }
        assert!(w.capacity() >= 128, "no growth needed within capacity");
        assert_eq!(w.len(), 128);
    }

    #[test]
    fn pooled_to_wire_matches_fresh_writer_encoding() {
        struct Sample(Vec<u64>);
        impl Encode for Sample {
            fn encode(&self, w: &mut Writer) {
                w.seq_len(self.0.len());
                for &v in &self.0 {
                    w.varint(v);
                }
            }
        }
        let s = Sample((0..100).map(|i| i * 31).collect());
        let mut fresh = Writer::new();
        s.encode(&mut fresh);
        let fresh = fresh.finish();
        // Repeated pooled encodes (same thread, shared scratch) all match.
        for _ in 0..3 {
            assert_eq!(s.to_wire(), fresh);
            assert_eq!(s.wire_size(), fresh.len());
        }
        // And the scratch is clean across differently-sized encodings.
        let small = Sample(vec![1]);
        let tiny = small.to_wire();
        assert_eq!(tiny.len(), small.wire_size());
        assert_eq!(s.to_wire(), fresh);
    }

    #[test]
    fn nan_f32_round_trips_by_bits() {
        let mut w = Writer::new();
        w.f32(f32::NAN);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.f32().unwrap().is_nan());
    }
}
