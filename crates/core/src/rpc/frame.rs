//! The length-prefixed frame format and the RPC request/response messages.
//!
//! A frame is `[u32 LE body length][body]`; the body is one [`Request`] or
//! [`Response`] in the workspace's canonical `Encode` wire format, so every
//! byte arriving from the network is parsed by the same audited `Reader`
//! as VO decoding. The frame length itself is bounded by [`MAX_FRAME_LEN`]
//! *before* any allocation, and [`FrameBuffer`] only ever allocates in
//! proportion to bytes actually received — a hostile frame prefix can
//! announce 4 GiB but buys nothing. Inside a body, every sequence decodes
//! through `Reader::seq`, whose reservation is capped by the body's bytes
//! left: a hostile count can reserve at most the frame's own length.
//!
//! Observability splits across two frames by design: the query/trim
//! *payload* frames carry only deterministic data (results, VOs, counter
//! statistics), while the round's span profile rides in a separate
//! [`Response::Telemetry`] frame sent only when the request asked for it.
//! Payload frame bytes are therefore identical whether recording is on or
//! off — the socket extension of the repo's zero-perturbation guarantee
//! (`tests/rpc_equivalence.rs`). A shard's metrics registry never crosses
//! this wire; it is read from the shard's own scrape endpoint.

use super::RpcError;
use crate::scheme::{InvVoVariant, QueryVo};
use crate::sp::{ImageResult, QueryResponse, SpStats};
use imageproof_crypto::wire::{Decode, Encode, Reader, WireError, Writer};
use imageproof_crypto::{Digest, Signature};
use imageproof_obs::{QueryProfile, SpanRecord};

/// Hard cap on a frame body: 256 MiB, comfortably above the largest
/// baseline-scheme VO the benches produce and far below anything that
/// could be mistaken for a sane allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Span nesting deeper than this decodes to [`WireError::DepthExceeded`].
const MAX_SPAN_DEPTH: usize = 32;

/// Interned remote span names are capped in number and in length; past
/// either cap, spans decode under a fallback label rather than growing the
/// table without bound. The longest name the engine records is 21 bytes.
const MAX_INTERNED_NAMES: usize = 4096;
const MAX_INTERNED_NAME_LEN: usize = 64;

/// Wraps a message body in a length-prefixed frame.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Incremental frame parser: feed it whatever the socket yields (partial
/// writes included) and pull complete frame bodies out. Allocation tracks
/// received bytes, never the announced length.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet drained as a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed, or [`RpcError::FrameTooLarge`] for a hostile length prefix
    /// (checked against [`MAX_FRAME_LEN`] before anything is allocated).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, RpcError> {
        let Some(header) = self.buf.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RpcError::FrameTooLarge { len: len as u64 });
        }
        let Some(body) = self.buf.get(4..4 + len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(body))
    }
}

// ---------------------------------------------------------------------------
// Shared field helpers.

fn encode_string(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

/// Strings on the wire are advisory telemetry labels; invalid UTF-8 from a
/// hostile peer decodes lossily rather than erroring, keeping the decoder
/// total without inventing a new `WireError` variant.
fn decode_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    Ok(String::from_utf8_lossy(&r.bytes()?).into_owned())
}

fn encode_f64(w: &mut Writer, v: f64) {
    w.u64(v.to_bits());
}

fn decode_f64(r: &mut Reader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.u64()?))
}

fn encode_bool(w: &mut Writer, v: bool) {
    w.u8(u8::from(v));
}

fn decode_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::InvalidTag(t)),
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// A coordinator → shard request. `id` is echoed by the matching response;
/// the coordinator keeps one request outstanding per connection, so any
/// response with another id is a duplicate, reorder, or replay.
///
/// Both query-path requests are batch-shaped — one round-trip carries
/// every query of the round, a single client query being a batch of one.
/// Tags 2 and 4 carried the single-query forms of an earlier protocol
/// revision; they are reserved and decode to [`WireError::InvalidTag`].
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opening handshake: asks the shard to identify itself so the
    /// coordinator can pin it against the owner-signed manifest.
    Hello,
    /// The full-k round: every query of the batch at `k`.
    Query {
        id: u64,
        k: u32,
        /// Ask for a [`Response::Telemetry`] frame ahead of the payload.
        want_telemetry: bool,
        queries: Vec<Vec<Vec<f32>>>,
    },
    /// The trim round: one `(k', query)` re-query per batch member this
    /// shard's claim shrinks for.
    Trim {
        id: u64,
        items: Vec<(u32, Vec<Vec<f32>>)>,
    },
    /// Heartbeat: asks the shard for a [`WireHealth`] report. The
    /// coordinator re-verifies the reported root against the owner-signed
    /// manifest pin, so a shard cannot report healthy under the wrong
    /// committed state.
    Health { id: u64 },
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Hello => w.u8(1),
            Request::Query {
                id,
                k,
                want_telemetry,
                queries,
            } => {
                w.u8(3);
                w.u64(*id);
                w.u32(*k);
                encode_bool(w, *want_telemetry);
                w.seq_of(queries);
            }
            Request::Trim { id, items } => {
                w.u8(5);
                w.u64(*id);
                w.seq_of(items);
            }
            Request::Health { id } => {
                w.u8(6);
                w.u64(*id);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(Request::Hello),
            3 => Ok(Request::Query {
                id: r.u64()?,
                k: r.u32()?,
                want_telemetry: decode_bool(r)?,
                queries: r.seq()?,
            }),
            5 => Ok(Request::Trim {
                id: r.u64()?,
                items: r.seq()?,
            }),
            6 => Ok(Request::Health { id: r.u64()? }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Health reports.

/// The classified last error a shard server observed — a closed set so
/// health aggregation never has to parse free text. Strict on the wire:
/// an unknown class byte is a decode error, not a silently invented
/// category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorClass {
    /// No error observed this epoch.
    #[default]
    None,
    /// A frame failed to decode.
    Wire,
    /// A length prefix exceeded the frame cap.
    Oversize,
    /// A transport-level read/write failure.
    Io,
}

impl ErrorClass {
    /// Stable exposition name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::None => "none",
            ErrorClass::Wire => "wire",
            ErrorClass::Oversize => "oversize",
            ErrorClass::Io => "io",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ErrorClass::None => 0,
            ErrorClass::Wire => 1,
            ErrorClass::Oversize => 2,
            ErrorClass::Io => 3,
        }
    }

    /// Total mapping back from the wire byte.
    pub fn from_u8(v: u8) -> Result<ErrorClass, WireError> {
        match v {
            0 => Ok(ErrorClass::None),
            1 => Ok(ErrorClass::Wire),
            2 => Ok(ErrorClass::Oversize),
            3 => Ok(ErrorClass::Io),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// A shard's heartbeat report. The `root` field is load-bearing: the
/// coordinator checks it against the manifest pin on every heartbeat, so
/// "healthy" is only ever attributed to the committed shard state the
/// owner signed — a replica serving a different catalog cannot pass.
#[derive(Clone, Debug, PartialEq)]
pub struct WireHealth {
    pub shard_id: u32,
    pub shard_count: u32,
    /// The shard's committed ADS root, re-verified by the receiver.
    pub root: Digest,
    /// Seconds since this server process started serving.
    pub uptime_seconds: f64,
    /// Requests currently being served on this shard's connections.
    pub queue_depth: u64,
    /// Cumulative queries answered since launch.
    pub queries_served: u64,
    /// The most recent error the server observed, classified.
    pub last_error: ErrorClass,
}

impl Encode for WireHealth {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.shard_id);
        w.u32(self.shard_count);
        w.digest(&self.root);
        encode_f64(w, self.uptime_seconds);
        w.u64(self.queue_depth);
        w.u64(self.queries_served);
        w.u8(self.last_error.to_u8());
    }
}

impl Decode for WireHealth {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireHealth {
            shard_id: r.u32()?,
            shard_count: r.u32()?,
            root: r.digest()?,
            uptime_seconds: decode_f64(r)?,
            queue_depth: r.u64()?,
            queries_served: r.u64()?,
            last_error: ErrorClass::from_u8(r.u8()?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Response payloads.

/// Deterministic per-query statistics: the counter half of
/// [`SpStats`], with the span-derived `*_seconds` fields deliberately
/// absent so payload frames stay byte-identical whether observability
/// recording is on or off.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireStats {
    pub shared_ratio: f64,
    pub popped: u64,
    pub total_postings: u64,
    pub hashes_computed: u64,
    pub hashes_cached: u64,
    pub blocks_skipped: u64,
    pub blocks_scanned: u64,
}

impl WireStats {
    pub fn from_stats(stats: &SpStats) -> WireStats {
        WireStats {
            shared_ratio: stats.shared_ratio,
            popped: stats.popped as u64,
            total_postings: stats.total_postings as u64,
            hashes_computed: stats.hashes_computed as u64,
            hashes_cached: stats.hashes_cached as u64,
            blocks_skipped: stats.blocks_skipped as u64,
            blocks_scanned: stats.blocks_scanned as u64,
        }
    }

    /// Reconstructs [`SpStats`] with the non-deterministic seconds fields
    /// zeroed (they never cross the payload wire).
    pub fn to_stats(self) -> SpStats {
        SpStats {
            bovw_seconds: 0.0,
            inv_seconds: 0.0,
            shared_ratio: self.shared_ratio,
            popped: self.popped as usize,
            total_postings: self.total_postings as usize,
            hashes_computed: self.hashes_computed as usize,
            hashes_cached: self.hashes_cached as usize,
            blocks_skipped: self.blocks_skipped as usize,
            blocks_scanned: self.blocks_scanned as usize,
        }
    }
}

impl Encode for WireStats {
    fn encode(&self, w: &mut Writer) {
        encode_f64(w, self.shared_ratio);
        w.varint(self.popped);
        w.varint(self.total_postings);
        w.varint(self.hashes_computed);
        w.varint(self.hashes_cached);
        w.varint(self.blocks_skipped);
        w.varint(self.blocks_scanned);
    }
}

impl Decode for WireStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireStats {
            shared_ratio: decode_f64(r)?,
            popped: r.varint()?,
            total_postings: r.varint()?,
            hashes_computed: r.varint()?,
            hashes_cached: r.varint()?,
            blocks_skipped: r.varint()?,
            blocks_scanned: r.varint()?,
        })
    }
}

/// One shard's full answer to a fan-out query: the local top-k with image
/// payloads, the per-shard [`QueryVo`], and the deterministic counters.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPayload {
    pub results: Vec<ImageResult>,
    pub vo: QueryVo,
    pub stats: WireStats,
}

impl QueryPayload {
    pub fn from_response(resp: QueryResponse, stats: &SpStats) -> QueryPayload {
        QueryPayload {
            results: resp.results,
            vo: resp.vo,
            stats: WireStats::from_stats(stats),
        }
    }

    pub fn into_response(self) -> (QueryResponse, SpStats) {
        (
            QueryResponse {
                results: self.results,
                vo: self.vo,
            },
            self.stats.to_stats(),
        )
    }
}

impl Encode for QueryPayload {
    fn encode(&self, w: &mut Writer) {
        w.seq_len(self.results.len());
        for r in &self.results {
            w.u64(r.id);
            w.f32(r.score);
            w.bytes(&r.data);
        }
        self.vo.encode(w);
        self.stats.encode(w);
    }
}

impl Decode for QueryPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QueryPayload {
            results: r.seq_with(|r| {
                Ok(ImageResult {
                    id: r.u64()?,
                    score: r.f32()?,
                    data: r.bytes()?,
                })
            })?,
            vo: QueryVo::decode(r)?,
            stats: WireStats::decode(r)?,
        })
    }
}

/// One shard's answer to a trim re-query: its local top-k', the
/// inverted-index proof, and the claimed images' owner signatures (in
/// claim order) — everything `fanout::assemble_response` needs without a
/// database in the coordinator's address space.
#[derive(Clone, Debug, PartialEq)]
pub struct TrimPayload {
    pub topk: Vec<(u64, f32)>,
    pub inv: InvVoVariant,
    pub signatures: Vec<Signature>,
}

impl Encode for TrimPayload {
    fn encode(&self, w: &mut Writer) {
        w.seq_of(&self.topk);
        self.inv.encode(w);
        w.seq_of(&self.signatures);
    }
}

impl Decode for TrimPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TrimPayload {
            topk: r.seq()?,
            inv: InvVoVariant::decode(r)?,
            signatures: r.seq()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Telemetry: span profiles across the wire.

/// A [`SpanRecord`] with owned names, as it travels the wire. Remote names
/// are interned back to `&'static str` on conversion so
/// `Profiler::attach` grafts remote profiles exactly like local ones.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireSpan {
    pub name: String,
    pub seconds: f64,
    pub counters: Vec<(String, u64)>,
    pub children: Vec<WireSpan>,
}

impl WireSpan {
    fn from_record(rec: &SpanRecord) -> WireSpan {
        WireSpan {
            name: rec.name.to_owned(),
            seconds: rec.seconds,
            counters: rec
                .counters
                .iter()
                .map(|&(n, v)| (n.to_owned(), v))
                .collect(),
            children: rec.children.iter().map(WireSpan::from_record).collect(),
        }
    }

    fn to_record(&self) -> SpanRecord {
        SpanRecord {
            name: intern_span_name(&self.name),
            seconds: self.seconds,
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (intern_span_name(n), *v))
                .collect(),
            children: self.children.iter().map(WireSpan::to_record).collect(),
        }
    }

    fn decode_at(r: &mut Reader<'_>, depth: usize) -> Result<WireSpan, WireError> {
        if depth > MAX_SPAN_DEPTH {
            return Err(WireError::DepthExceeded);
        }
        Ok(WireSpan {
            name: decode_string(r)?,
            seconds: decode_f64(r)?,
            counters: r.seq_with(|r| Ok((decode_string(r)?, r.varint()?)))?,
            children: r.seq_with(|r| WireSpan::decode_at(r, depth + 1))?,
        })
    }
}

impl Encode for WireSpan {
    fn encode(&self, w: &mut Writer) {
        encode_string(w, &self.name);
        encode_f64(w, self.seconds);
        w.seq_len(self.counters.len());
        for (n, v) in &self.counters {
            encode_string(w, n);
            w.varint(*v);
        }
        w.seq_of(&self.children);
    }
}

impl Decode for WireSpan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        WireSpan::decode_at(r, 0)
    }
}

/// Span names live in program text on the recording side
/// (`&'static str`); names arriving from a shard are dynamic. This table
/// leaks each distinct remote name once — capped in count and length, with
/// a fallback label past either cap — so remote spans can re-enter the
/// `SpanRecord` shape and `Profiler::attach` needs no wire-specific
/// variant. Not called from any decoder: decoding keeps owned strings,
/// only profile *grafting* interns.
fn intern_span_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if name.len() > MAX_INTERNED_NAME_LEN {
        return "rpc.span.overflow";
    }
    let mut table = match TABLE.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&interned) = table.get(name) {
        return interned;
    }
    if table.len() >= MAX_INTERNED_NAMES {
        return "rpc.span.overflow";
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// A [`QueryProfile`] as it travels the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireProfile {
    pub root: Option<WireSpan>,
}

impl WireProfile {
    pub fn from_profile(profile: &QueryProfile) -> WireProfile {
        WireProfile {
            root: profile.root.as_ref().map(WireSpan::from_record),
        }
    }

    /// Rebuilds a local [`QueryProfile`] (interning remote span names) so
    /// the coordinator can `Profiler::attach` it under its own spans.
    pub fn to_profile(&self) -> QueryProfile {
        QueryProfile {
            root: self.root.as_ref().map(WireSpan::to_record),
        }
    }
}

impl Encode for WireProfile {
    fn encode(&self, w: &mut Writer) {
        match &self.root {
            None => w.u8(0),
            Some(span) => {
                w.u8(1);
                span.encode(w);
            }
        }
    }
}

impl Decode for WireProfile {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WireProfile { root: None }),
            1 => Ok(WireProfile {
                root: Some(WireSpan::decode(r)?),
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses.

/// A shard → coordinator response. Tags 2 and 4 (the single-payload
/// answers of an earlier protocol revision) are reserved and decode to
/// [`WireError::InvalidTag`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The shard's identity, pinned against the manifest at connect time:
    /// its shard id, the deployment's shard count, and its committed ADS
    /// root (which must equal the owner-signed manifest entry).
    Hello {
        shard_id: u32,
        shard_count: u32,
        root: Digest,
    },
    /// One payload per query of the [`Request::Query`], in request order.
    Query {
        id: u64,
        payloads: Vec<QueryPayload>,
    },
    /// One payload per item of the [`Request::Trim`], in request order.
    Trim { id: u64, payloads: Vec<TrimPayload> },
    /// Observability sidecar: the round's span profile, sent *before* the
    /// matching payload frame and only when the request set
    /// `want_telemetry`. Spoofing or corrupting this frame can never change
    /// a served VO byte.
    Telemetry { id: u64, profile: WireProfile },
    /// The server could not serve the request.
    Error { id: u64, message: String },
    /// Heartbeat answer: the shard's health report, root included so the
    /// coordinator can re-verify it against the manifest pin.
    Health { id: u64, health: WireHealth },
}

impl Response {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Hello { .. } => 0,
            Response::Query { id, .. }
            | Response::Trim { id, .. }
            | Response::Telemetry { id, .. }
            | Response::Error { id, .. }
            | Response::Health { id, .. } => *id,
        }
    }
}

fn encode_payloads<T: Encode>(w: &mut Writer, tag: u8, id: u64, payloads: &[T]) {
    w.u8(tag);
    w.u64(id);
    w.seq_of(payloads);
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Hello {
                shard_id,
                shard_count,
                root,
            } => {
                w.u8(1);
                w.u32(*shard_id);
                w.u32(*shard_count);
                w.digest(root);
            }
            Response::Query { id, payloads } => encode_payloads(w, 3, *id, payloads),
            Response::Trim { id, payloads } => encode_payloads(w, 5, *id, payloads),
            Response::Telemetry { id, profile } => {
                w.u8(6);
                w.u64(*id);
                profile.encode(w);
            }
            Response::Error { id, message } => {
                w.u8(7);
                w.u64(*id);
                encode_string(w, message);
            }
            Response::Health { id, health } => {
                w.u8(8);
                w.u64(*id);
                health.encode(w);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(Response::Hello {
                shard_id: r.u32()?,
                shard_count: r.u32()?,
                root: r.digest()?,
            }),
            3 => Ok(Response::Query {
                id: r.u64()?,
                payloads: r.seq()?,
            }),
            5 => Ok(Response::Trim {
                id: r.u64()?,
                payloads: r.seq()?,
            }),
            6 => Ok(Response::Telemetry {
                id: r.u64()?,
                profile: WireProfile::decode(r)?,
            }),
            7 => Ok(Response::Error {
                id: r.u64()?,
                message: decode_string(r)?,
            }),
            8 => Ok(Response::Health {
                id: r.u64()?,
                health: WireHealth::decode(r)?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imageproof_crypto::Digest;

    fn sample_features() -> Vec<Vec<f32>> {
        vec![vec![0.25, -1.5, 3.0], vec![7.75, 0.0]]
    }

    fn sample_span() -> WireSpan {
        WireSpan {
            name: "sp.query".into(),
            seconds: 0.125,
            counters: vec![("popped".into(), 41)],
            children: vec![WireSpan {
                name: "bovw".into(),
                seconds: 0.0625,
                counters: Vec::new(),
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn requests_round_trip_on_the_wire() {
        let samples = [
            Request::Hello,
            Request::Query {
                id: 9,
                k: 5,
                want_telemetry: true,
                queries: vec![sample_features()],
            },
            Request::Query {
                id: 10,
                k: 3,
                want_telemetry: false,
                queries: vec![sample_features(), Vec::new()],
            },
            Request::Trim {
                id: 12,
                items: vec![(1, sample_features()), (4, Vec::new())],
            },
            Request::Health { id: 13 },
        ];
        for sample in &samples {
            let decoded = Request::from_wire(&sample.to_wire()).expect("request round trip");
            assert_eq!(&decoded, sample);
        }
        // Truncations of every sample must error, never panic.
        for sample in &samples {
            let wire = sample.to_wire();
            for cut in 0..wire.len() {
                assert!(Request::from_wire(&wire[..cut]).is_err());
            }
        }
    }

    #[test]
    fn responses_round_trip_on_the_wire() {
        let hello = Response::Hello {
            shard_id: 3,
            shard_count: 8,
            root: Digest::of(b"root"),
        };
        let telemetry = Response::Telemetry {
            id: 21,
            profile: WireProfile {
                root: Some(sample_span()),
            },
        };
        let error = Response::Error {
            id: 22,
            message: "bad request".into(),
        };
        let health = Response::Health {
            id: 23,
            health: sample_health(),
        };
        for sample in [&hello, &telemetry, &error, &health] {
            let wire = sample.to_wire();
            let decoded = Response::from_wire(&wire).expect("response round trip");
            assert_eq!(decoded.to_wire(), wire, "canonical re-encode");
            for cut in 0..wire.len() {
                assert!(Response::from_wire(&wire[..cut]).is_err());
            }
        }
    }

    fn sample_health() -> WireHealth {
        WireHealth {
            shard_id: 2,
            shard_count: 4,
            root: Digest::of(b"health-root"),
            uptime_seconds: 12.5,
            queue_depth: 3,
            queries_served: 99,
            last_error: ErrorClass::Wire,
        }
    }

    #[test]
    fn wire_health_round_trips_and_rejects_unknown_error_class() {
        let health = sample_health();
        let wire = health.to_wire();
        let decoded = WireHealth::from_wire(&wire).expect("health round trip");
        assert_eq!(decoded, health);
        for cut in 0..wire.len() {
            assert!(WireHealth::from_wire(&wire[..cut]).is_err());
        }
        // The error class is a closed set: an unknown byte is a wire
        // error, never a silently invented category.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] = 17;
        assert!(WireHealth::from_wire(&bad).is_err());
        for (raw, class) in [
            (0u8, ErrorClass::None),
            (1, ErrorClass::Wire),
            (2, ErrorClass::Oversize),
            (3, ErrorClass::Io),
        ] {
            assert_eq!(ErrorClass::from_u8(raw).unwrap(), class);
            assert!(!class.name().is_empty());
        }
        assert!(ErrorClass::from_u8(4).is_err());
    }

    #[test]
    fn wire_stats_round_trips_and_strips_seconds() {
        let stats = SpStats {
            bovw_seconds: 1.0,
            inv_seconds: 2.0,
            shared_ratio: 0.5,
            popped: 10,
            total_postings: 20,
            hashes_computed: 3,
            hashes_cached: 4,
            blocks_skipped: 5,
            blocks_scanned: 6,
        };
        let wire = WireStats::from_stats(&stats);
        let decoded = WireStats::from_wire(&wire.to_wire()).expect("stats round trip");
        assert_eq!(decoded, wire);
        let back = decoded.to_stats();
        assert_eq!(back.popped, 10);
        assert_eq!(back.bovw_seconds, 0.0, "seconds never cross the wire");
        assert_eq!(back.inv_seconds, 0.0);
    }

    #[test]
    fn trim_payload_round_trips_on_the_wire() {
        use imageproof_invindex::InvVoOf;
        let payload = TrimPayload {
            topk: vec![(5, 1.5), (9, 0.25)],
            inv: InvVoVariant::Plain(InvVoOf { lists: Vec::new() }),
            signatures: vec![Signature::from_bytes([7u8; 64])],
        };
        let decoded = TrimPayload::from_wire(&payload.to_wire()).expect("trim round trip");
        assert_eq!(decoded.topk, payload.topk);
        assert_eq!(decoded.signatures, payload.signatures);
    }

    #[test]
    fn query_payload_round_trips_on_the_wire() {
        use imageproof_invindex::InvVoOf;
        use imageproof_mrkd::{BovwVo, VoTreeBuilder};
        let payload = QueryPayload {
            results: vec![ImageResult {
                id: 4,
                data: vec![1, 2, 3],
                score: 2.5,
            }],
            vo: QueryVo {
                bovw: crate::scheme::BovwVoVariant::Shared(BovwVo {
                    clusters: Vec::new(),
                    tree: VoTreeBuilder::default().pruned(Digest::ZERO).finish(),
                }),
                inv: InvVoVariant::Plain(InvVoOf { lists: Vec::new() }),
                signatures: vec![Signature::from_bytes([9u8; 64])],
            },
            stats: WireStats::default(),
        };
        let decoded = QueryPayload::from_wire(&payload.to_wire()).expect("payload round trip");
        assert_eq!(decoded.to_wire(), payload.to_wire());
        let (resp, stats) = decoded.into_response();
        assert_eq!(resp.results.len(), 1);
        assert_eq!(stats.popped, 0);
    }

    #[test]
    fn wire_span_and_profile_round_trip_and_intern() {
        let span = sample_span();
        let decoded = WireSpan::from_wire(&span.to_wire()).expect("span round trip");
        assert_eq!(decoded, span);

        let profile = WireProfile {
            root: Some(span.clone()),
        };
        let decoded = WireProfile::from_wire(&profile.to_wire()).expect("profile round trip");
        assert_eq!(decoded, profile);
        let local = decoded.to_profile();
        let root = local.root.expect("profile has a root");
        assert_eq!(root.name, "sp.query");
        assert_eq!(root.children[0].name, "bovw");
        // Interning is stable: the same remote name maps to one pointer.
        assert!(std::ptr::eq(
            intern_span_name("sp.query"),
            intern_span_name("sp.query")
        ));

        let empty = WireProfile::from_wire(&WireProfile::default().to_wire());
        assert_eq!(
            empty.expect("empty profile round trip"),
            WireProfile::default()
        );
    }

    #[test]
    fn an_overlong_remote_span_name_interns_as_the_overflow_label() {
        let huge = "x".repeat(1 << 20);
        let profile = WireProfile {
            root: Some(WireSpan {
                name: huge.clone(),
                ..WireSpan::default()
            }),
        };
        let root = profile.to_profile().root.expect("profile has a root");
        assert_eq!(root.name, "rpc.span.overflow");
        assert_eq!(profile.root.expect("wire root").name, huge);
        let longest = "y".repeat(MAX_INTERNED_NAME_LEN);
        assert_eq!(intern_span_name(&longest), longest);
    }

    #[test]
    fn deep_span_nesting_is_rejected() {
        let mut span = WireSpan {
            name: "leaf".into(),
            ..WireSpan::default()
        };
        for _ in 0..(MAX_SPAN_DEPTH + 2) {
            span = WireSpan {
                name: "n".into(),
                seconds: 0.0,
                counters: Vec::new(),
                children: vec![span],
            };
        }
        assert_eq!(
            WireSpan::from_wire(&span.to_wire()),
            Err(WireError::DepthExceeded)
        );
    }

    #[test]
    fn frame_buffer_reassembles_partial_writes() {
        let body = Request::Query {
            id: 1,
            k: 2,
            want_telemetry: false,
            queries: vec![sample_features()],
        }
        .to_wire();
        let framed = frame(&body);
        let mut fb = FrameBuffer::new();
        // Trickle one byte at a time: no frame until the last byte lands.
        for (i, &b) in framed.iter().enumerate() {
            fb.extend(&[b]);
            if i + 1 < framed.len() {
                assert!(fb
                    .next_frame()
                    .expect("no error on partial frame")
                    .is_none());
            }
        }
        let got = fb.next_frame().expect("complete frame parses");
        assert_eq!(got, Some(body.clone()));
        assert_eq!(fb.pending(), 0);

        // Two frames in one burst drain in order.
        fb.extend(&frame(&body));
        fb.extend(&frame(b"second"));
        assert_eq!(fb.next_frame().expect("first frame"), Some(body));
        assert_eq!(
            fb.next_frame().expect("second frame"),
            Some(b"second".to_vec())
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(RpcError::FrameTooLarge {
                len: u64::from(u32::MAX)
            })
        );
        let mut fb = FrameBuffer::new();
        fb.extend(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        assert!(matches!(
            fb.next_frame(),
            Err(RpcError::FrameTooLarge { .. })
        ));
    }
}
