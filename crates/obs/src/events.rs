//! A bounded structured event log for the serving plane.
//!
//! Queries are high-rate and belong in metrics; *events* are the rare,
//! individually interesting transitions — a failover, a timed-out shard, a
//! query over the slow threshold, a manifest-pinned hello re-verification
//! — that an operator wants to read back verbatim. The log is a
//! fixed-capacity ring: recording is O(1), memory is bounded no matter how
//! badly the fleet misbehaves, and when the ring wraps the *oldest* events
//! are dropped while a cumulative per-kind counter keeps the totals
//! honest. Exposition is JSON-lines (one object per line) at the scrape
//! server's `/events` route.
//!
//! Timestamps are seconds since the log's construction, read from the
//! workspace [`Stopwatch`] — the only legal clock — so the log never
//! touches `SystemTime` and stays deterministic under the explicit-time
//! test entry points.

use crate::Stopwatch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The longest [`Event::detail`] the log retains, in bytes; a longer
/// detail is cut at the last char boundary at or below it. A peer's error
/// text rides in some details, so without a cap one hostile answer could
/// pin up to a frame's worth of text in every ring slot.
pub const MAX_DETAIL_BYTES: usize = 256;

/// The typed cause of an event. Every recordable condition in the serving
/// plane maps to exactly one kind; free-text detail rides alongside in
/// [`Event::detail`], never instead of the type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A shard endpoint was abandoned and its replica promoted.
    Failover,
    /// A shard missed a per-request or heartbeat deadline.
    Timeout,
    /// A query exceeded the slow-query threshold.
    SlowQuery,
    /// A hello was re-verified against the owner-signed manifest pin
    /// (connect, reconnect, or failover); detail says whether it held.
    HelloReverify,
    /// A shard's aggregated health state changed (healthy ↔ degraded ↔
    /// dead).
    HealthTransition,
    /// A malformed or oversized frame reached a server.
    WireError,
}

/// All kinds, in exposition order.
pub const EVENT_KINDS: [EventKind; 6] = [
    EventKind::Failover,
    EventKind::Timeout,
    EventKind::SlowQuery,
    EventKind::HelloReverify,
    EventKind::HealthTransition,
    EventKind::WireError,
];

impl EventKind {
    /// The stable wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Failover => "failover",
            EventKind::Timeout => "timeout",
            EventKind::SlowQuery => "slow_query",
            EventKind::HelloReverify => "hello_reverify",
            EventKind::HealthTransition => "health_transition",
            EventKind::WireError => "wire_error",
        }
    }

    fn index(self) -> usize {
        match self {
            EventKind::Failover => 0,
            EventKind::Timeout => 1,
            EventKind::SlowQuery => 2,
            EventKind::HelloReverify => 3,
            EventKind::HealthTransition => 4,
            EventKind::WireError => 5,
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (gaps reveal ring overwrites).
    pub seq: u64,
    /// Seconds since the log was constructed.
    pub t_seconds: f64,
    pub kind: EventKind,
    /// The shard the event concerns, when there is one.
    pub shard: Option<u32>,
    /// Free-text detail, at most [`MAX_DETAIL_BYTES`]; escaped on
    /// exposition.
    pub detail: String,
}

impl Event {
    /// One JSON object, no trailing newline.
    pub fn json(&self) -> String {
        let shard = match self.shard {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"seq\":{},\"t_seconds\":{:.6},\"kind\":\"{}\",\"shard\":{},\"detail\":\"{}\"}}",
            self.seq,
            self.t_seconds,
            self.kind.name(),
            shard,
            json_escape(&self.detail)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The fixed-capacity ring. Recording takes the ring mutex once to number
/// the event, push it and possibly pop the oldest — no allocation beyond
/// the event's own detail string; readers copy the ring out under the same
/// lock. Numbering inside the lock keeps the ring in `seq` order under
/// concurrent recorders, so a wrap always evicts the lowest sequence
/// numbers.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    clock: Stopwatch,
    ring: Mutex<Ring>,
    by_kind: [AtomicU64; EVENT_KINDS.len()],
}

/// The retained events and the two counters that must move with them.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl EventLog {
    /// A log retaining at most `capacity` events (clamped to at least 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            clock: Stopwatch::start(),
            ring: Mutex::new(Ring::default()),
            by_kind: Default::default(),
        }
    }

    /// Records one event at the log's own clock and returns its sequence
    /// number.
    pub fn record(&self, kind: EventKind, shard: Option<u32>, detail: impl Into<String>) -> u64 {
        self.record_at(self.clock.elapsed_seconds(), kind, shard, detail)
    }

    /// [`EventLog::record`] at an explicit instant (deterministic tests).
    pub fn record_at(
        &self,
        t_seconds: f64,
        kind: EventKind,
        shard: Option<u32>,
        detail: impl Into<String>,
    ) -> u64 {
        let mut detail = detail.into();
        detail.truncate(detail.floor_char_boundary(MAX_DETAIL_BYTES));
        // Relaxed — monotonic statistics counter: readers tolerate lag.
        // audit:allow(panic) kind.index() enumerates a closed enum and by_kind is sized to EVENT_KINDS.len()
        self.by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(Event {
            seq,
            t_seconds,
            kind,
            shard,
            detail,
        });
        seq
    }

    /// The ring, locked; a recorder that panicked mid-push leaves it
    /// consistent, so poisoning is ignored.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cumulative count of `kind` events since construction — unaffected
    /// by ring overwrites.
    pub fn count(&self, kind: EventKind) -> u64 {
        // Relaxed — statistics read: a momentarily stale total is acceptable for exposition.
        // audit:allow(panic) kind.index() enumerates a closed enum and by_kind is sized to EVENT_KINDS.len()
        self.by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// Events evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.ring().next_seq
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring().events.iter().cloned().collect()
    }

    /// JSON-lines exposition: one object per retained event, oldest
    /// first, each line newline-terminated.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&e.json());
            out.push('\n');
        }
        out
    }

    /// `{"failover": n, …}` cumulative per-kind counts in stable order —
    /// the summary `imageproof-shardd demo` prints after its queries.
    pub fn counts_json(&self) -> String {
        let fields: Vec<String> = EVENT_KINDS
            .iter()
            .map(|&k| format!("\"{}\": {}", k.name(), self.count(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_detail_is_cut_to_the_cap_at_a_char_boundary() {
        let log = EventLog::new(4);
        log.record_at(0.0, EventKind::Timeout, Some(0), "x".repeat(1 << 20));
        // A two-byte char straddling the cap is dropped whole.
        let straddling = format!("{}é tail", "y".repeat(MAX_DETAIL_BYTES - 1));
        log.record_at(1.0, EventKind::Timeout, Some(1), straddling);
        log.record_at(2.0, EventKind::Timeout, Some(2), "short");
        let events = log.snapshot();
        assert_eq!(events[0].detail, "x".repeat(MAX_DETAIL_BYTES));
        assert_eq!(events[1].detail, "y".repeat(MAX_DETAIL_BYTES - 1));
        assert_eq!(events[2].detail, "short");
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let log = EventLog::new(3);
        for i in 0..5u32 {
            log.record_at(i as f64, EventKind::Timeout, Some(i), format!("t{i}"));
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two were evicted");
        assert_eq!(events[2].seq, 4);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total(), 5);
        assert_eq!(
            log.count(EventKind::Timeout),
            5,
            "counters survive eviction"
        );
        assert_eq!(log.count(EventKind::Failover), 0);
    }

    #[test]
    fn concurrent_recorders_keep_the_ring_in_seq_order() {
        // Eight recorders overfill a ring of half their total, so it wraps
        // while they race. The ring must hold exactly the newest `seq`s, in
        // order: a wrap evicts the lowest sequence numbers, never a newer
        // event pushed ahead of an older one.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        const TOTAL: u64 = THREADS * PER_THREAD;
        let log = EventLog::new((TOTAL / 2) as usize);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (log, start) = (&log, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        log.record_at(i as f64, EventKind::SlowQuery, Some(t as u32), "");
                    }
                });
            }
        });
        let seqs: Vec<u64> = log.snapshot().iter().map(|e| e.seq).collect();
        let inversions = seqs.windows(2).filter(|w| w[1] < w[0]).count();
        assert_eq!(inversions, 0, "retained events out of seq order");
        assert_eq!(seqs, (TOTAL / 2..TOTAL).collect::<Vec<u64>>());
        assert_eq!(log.total(), TOTAL);
        assert_eq!(log.dropped(), TOTAL / 2);
        assert_eq!(log.count(EventKind::SlowQuery), TOTAL);
    }

    #[test]
    fn jsonl_is_one_escaped_object_per_line() {
        let log = EventLog::new(8);
        log.record_at(
            0.5,
            EventKind::Failover,
            Some(1),
            "primary \"gone\"\nreplica up",
        );
        log.record_at(1.0, EventKind::HelloReverify, None, "pin ok");
        let jsonl = log.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_seconds\":0.500000,\"kind\":\"failover\",\"shard\":1,\"detail\":\"primary \\\"gone\\\"\\nreplica up\"}"
        );
        assert!(lines[1].contains("\"shard\":null"));
        assert_eq!(
            log.counts_json(),
            "{\"failover\": 1, \"timeout\": 0, \"slow_query\": 0, \"hello_reverify\": 1, \"health_transition\": 0, \"wire_error\": 0}"
        );
    }

    #[test]
    fn kinds_roundtrip_names_and_indices() {
        for (i, &k) in EVENT_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
