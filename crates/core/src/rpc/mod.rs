//! Shards as real processes: a hand-rolled, length-prefixed binary RPC
//! over std TCP sockets.
//!
//! The in-process [`crate::ShardedSp`] fan-out (DESIGN.md §4d) assumed the
//! shards live in the coordinator's address space. This module puts each
//! shard behind a socket instead — the deployment shape the ROADMAP's
//! production north-star (and the web-collection/committed-snapshot
//! serving literature) assumes: shard servers that can be slow, dead, or
//! actively malicious, reached only through a wire protocol.
//!
//! Layout:
//! - [`frame`]: the `[u32 LE length][body]` frame format and the
//!   request/response messages (four requests, six responses; the two
//!   query-path messages are batch-shaped, a single query being a batch of
//!   one), built on the audited `Encode`/`Decode` wire infrastructure
//!   (hostile lengths go through the same `bound_len`/checked-read path as
//!   VO decoding).
//! - [`server`]: [`ShardServer`], a per-shard TCP server wrapping one
//!   [`crate::ServiceProvider`], run on the obs crate's one acceptor
//!   (re-exported here as [`RunningServer`]).
//! - [`coordinator`]: [`RpcCoordinator`], a single-threaded nonblocking
//!   event loop that carries a round to all shard connections at once,
//!   enforces per-shard timeouts, and fails over to manifest-pinned
//!   replicas.
//!
//! The coordinator is a *transport*: it implements the two rounds of the
//! `fanout::Fleet` seam and nothing else about answering a query — that is
//! `crate::fanout::answer`, which in-process [`crate::ShardedSp`] runs too.
//!
//! Trust model: the coordinator is part of the *untrusted* SP. Nothing in
//! this module is security-critical — a compromised coordinator (or a
//! man-in-the-middle on a shard link) can corrupt responses, but every
//! corruption lands in the client's `verify_sharded`, which checks the
//! assembled VO against the owner-signed manifest. The RPC layer's job is
//! only *robustness*: every transport fault maps to a typed [`RpcError`]
//! or a successful failover, never a panic and never a
//! wrong-but-verified result (`tests/rpc_faults.rs`,
//! `tests/shard_adversary.rs`).

pub mod coordinator;
pub mod frame;
pub mod server;

pub use coordinator::{
    CoordinatorConfig, CoordinatorStats, FleetHealth, RpcCoordinator, ShardEndpoint,
    ShardHealthState, ShardHealthView,
};
pub use frame::{
    frame, ErrorClass, FrameBuffer, QueryPayload, Request, Response, TrimPayload, WireHealth,
    WireProfile, WireSpan, WireStats, MAX_FRAME_LEN,
};
pub use imageproof_obs::RunningServer;
pub use server::ShardServer;

use imageproof_crypto::wire::WireError;

/// A transport or protocol fault, attributed to the shard link it occurred
/// on. Every injected fault in the `rpc_faults` suite must surface as
/// exactly one of these (or as a successful failover) — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// A frame header announced a length beyond [`MAX_FRAME_LEN`].
    FrameTooLarge { len: u64 },
    /// The peer closed the connection mid-conversation (including
    /// mid-frame resets).
    ConnectionClosed { shard: u32 },
    /// A socket operation failed.
    Io {
        shard: u32,
        kind: std::io::ErrorKind,
    },
    /// A frame body failed to decode as a protocol message.
    Wire { shard: u32, error: WireError },
    /// A response carried a request id other than the one outstanding —
    /// a duplicated, reordered, or replayed response.
    ResponseIdMismatch { shard: u32, expected: u64, got: u64 },
    /// A response was well-formed but of the wrong kind for the
    /// outstanding request, or answered a batch with another number of
    /// payloads than was asked for.
    UnexpectedResponse { shard: u32 },
    /// A telemetry frame arrived unrequested or for the wrong request —
    /// a spoofed or replayed telemetry stream.
    UnsolicitedTelemetry { shard: u32 },
    /// The shard server reported an error.
    Remote { shard: u32, message: String },
    /// The shard did not complete the round-trip within the configured
    /// timeout (stalled shard).
    ShardTimeout { shard: u32 },
    /// An endpoint's hello did not match the manifest pin (wrong shard
    /// id, wrong deployment size, or an ADS root differing from the
    /// owner-signed manifest entry).
    HelloMismatch { shard: u32 },
    /// The endpoint list handed to the coordinator does not cover the
    /// manifest's shards one-to-one.
    EndpointCountMismatch { expected: u32, got: u32 },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            RpcError::ConnectionClosed { shard } => {
                write!(f, "shard {shard}: connection closed mid-conversation")
            }
            RpcError::Io { shard, kind } => write!(f, "shard {shard}: socket error ({kind:?})"),
            RpcError::Wire { shard, error } => {
                write!(f, "shard {shard}: malformed frame ({error})")
            }
            RpcError::ResponseIdMismatch {
                shard,
                expected,
                got,
            } => write!(
                f,
                "shard {shard}: response for request {got}, expected {expected}"
            ),
            RpcError::UnexpectedResponse { shard } => {
                write!(
                    f,
                    "shard {shard}: response kind or payload count does not match the request"
                )
            }
            RpcError::UnsolicitedTelemetry { shard } => {
                write!(f, "shard {shard}: unsolicited telemetry frame")
            }
            RpcError::Remote { shard, message } => {
                write!(f, "shard {shard}: remote error: {message}")
            }
            RpcError::ShardTimeout { shard } => write!(f, "shard {shard}: request timed out"),
            RpcError::HelloMismatch { shard } => {
                write!(f, "shard {shard}: hello does not match the manifest pin")
            }
            RpcError::EndpointCountMismatch { expected, got } => write!(
                f,
                "manifest pins {expected} shards but {got} endpoints were supplied"
            ),
        }
    }
}

impl std::error::Error for RpcError {}
