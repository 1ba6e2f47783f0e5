//! A minimal binary wire format for verification objects.
//!
//! The paper reports *VO size* as a headline metric (Figs. 6–8, 12–14), so
//! VOs must have a concrete, compact byte encoding rather than an in-memory
//! estimate. This module provides an explicit little-endian writer/reader
//! pair; every VO type implements [`Encode`]/[`Decode`] against it, and the
//! encoded length is the reported VO size.
//!
//! The format is deliberately simple: fixed-width integers, IEEE-754 floats
//! by bit pattern, `u32` (or varint) length prefixes for sequences. Decoding
//! is fully validated — a malformed VO yields [`WireError`], never a panic —
//! because VOs arrive from the untrusted SP.
//!
//! Every sequence is written by [`Writer::seq_of`]/[`Writer::vseq_of`] and
//! read by [`Reader::seq`]/[`Reader::vseq`] (or their `*_with` forms), whose
//! one reservation is capped in bytes: a hostile count reserves at most the
//! bytes left, whatever its items occupy in memory.

use crate::digest::Digest;
use crate::ed25519::Signature;
use std::mem::size_of;

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

    /// A sequence: its `u32` length, then each item. Read back with
    /// [`Reader::seq`].
    pub fn seq_of<T: Encode>(&mut self, items: &[T]) {
        self.seq_len(items.len());
        for item in items {
            item.encode(self);
        }
    }

    /// [`Writer::seq_of`] with a varint length. Read back with
    /// [`Reader::vseq`].
    pub fn vseq_of<T: Encode>(&mut self, items: &[T]) {
        self.vseq_len(items.len());
        for item in items {
            item.encode(self);
        }
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

    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.seq_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Counterpart of [`Writer::vbytes`].
    pub fn vbytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.vseq_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence length, bounded by the bytes left. That bounds the
    /// count, not what the items occupy in memory: reserve through
    /// [`Reader::seq`].
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
        // Every sequence element occupies at least one byte, so any honest
        // length fits in the remaining stream.
        if len > self.remaining() {
            return Err(WireError::LengthOverflow);
        }
        Ok(len)
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Counterpart of [`Writer::seq_of`].
    pub fn seq<T: Decode>(&mut self) -> Result<Vec<T>, WireError> {
        self.seq_with(T::decode)
    }

    /// Counterpart of [`Writer::vseq_of`].
    pub fn vseq<T: Decode>(&mut self) -> Result<Vec<T>, WireError> {
        self.vseq_with(T::decode)
    }

    /// A `u32`-prefixed sequence whose items `item` decodes: for items with
    /// no [`Decode`] of their own (varint ids, d-gaps, depth-capped
    /// children).
    pub fn seq_with<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.seq_len()?;
        self.collect(n, item)
    }

    /// [`Reader::seq_with`] behind a varint length.
    pub fn vseq_with<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.vseq_len()?;
        self.collect(n, item)
    }

    /// The one allocation sized from a wire length. `n` is already bounded
    /// by the bytes left, but not by what `n` items occupy in memory, so
    /// the reservation is capped in bytes too; a longer honest sequence
    /// grows as its items actually decode.
    fn collect<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(self.reservation::<T>(n));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Items of `T` to reserve for a sequence claiming `n`: no more than
    /// the bytes left could hold.
    fn reservation<T>(&self, n: usize) -> usize {
        n.min(self.remaining().checked_div(size_of::<T>()).unwrap_or(n))
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

// Fixed-width items, written as the `Writer` methods of the same name
// write them, so sequences of them compose with `seq_of`/`seq`.

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Encode for f32 {
    fn encode(&self, w: &mut Writer) {
        w.f32(*self);
    }
}

impl Decode for f32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.f32()
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut Writer) {
        w.digest(self);
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.digest()
    }
}

/// A 64-byte signature as a length-prefixed byte string (the form every
/// VO and RPC payload has always shipped).
impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.0);
    }
}

/// Any length prefix other than 64 is `InvalidTag(0xFF)`.
impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.seq_len()? != 64 {
            return Err(WireError::InvalidTag(0xFF));
        }
        Ok(Signature(r.take_array()?))
    }
}

/// A nested sequence: `u32` length, then each item.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.seq_of(self);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
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
        let buf = sig.to_wire();
        let mut bytes = Writer::new();
        bytes.bytes(&sig.0);
        assert_eq!(
            buf,
            bytes.finish(),
            "same bytes as a length-prefixed string"
        );
        assert_eq!(Signature::from_wire(&buf), Ok(sig));
        // A well-formed byte string of any other length is a wrong tag,
        // not a truncation.
        let mut short = Writer::new();
        short.bytes(&[7u8; 63]);
        assert_eq!(
            Signature::from_wire(&short.finish()),
            Err(WireError::InvalidTag(0xFF))
        );
        assert_eq!(
            Signature::from_wire(&buf[..40]),
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

    /// However large the claimed count, `collect` reserves no more bytes
    /// than are left to read, whatever an item occupies in memory.
    #[test]
    fn reservation_never_exceeds_the_bytes_left() {
        fn check<const S: usize>() {
            for len in [0usize, 1, 3, 100, 4096] {
                let data = vec![0xFFu8; len];
                for consumed in [0, len / 2, len] {
                    let mut r = Reader::new(&data);
                    r.take(consumed).expect("within the stream");
                    let left = r.remaining();
                    for n in [0, 1, left, 8 * left, u32::MAX as usize, usize::MAX] {
                        let items = r.reservation::<[u8; S]>(n);
                        assert!(items <= n);
                        assert!(items * S <= left, "size {S}, {n} claimed, {left} left");
                    }
                    // A count the bytes can hold is reserved in full.
                    assert_eq!(r.reservation::<[u8; S]>(left / S), left / S);
                }
            }
        }
        check::<1>();
        check::<4>();
        check::<64>();
        check::<208>();
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
