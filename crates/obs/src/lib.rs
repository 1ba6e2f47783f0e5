//! # imageproof-obs
//!
//! The workspace's unified observability layer: a lock-free labeled
//! metrics registry ([`Registry`]), structured hierarchical spans
//! ([`Profiler`] → [`QueryProfile`]), and the only legal wall clock
//! ([`Stopwatch`]) — the root `clippy.toml` bans `Instant`/`SystemTime`
//! everywhere else in the workspace.
//!
//! ## Design rules
//!
//! * **Zero perturbation.** Observability never touches digests, scores,
//!   or wire bytes. The `obs_equivalence` integration suite proves VOs are
//!   byte-identical with recording enabled vs. disabled across every
//!   scheme and thread count.
//! * **Lock-free recording.** Metric handles are atomics; the only lock is
//!   the registration path (a `std::sync::Mutex`), so recording is safe
//!   and cheap under the `imageproof-parallel` pool. The crate has no
//!   dependencies outside std.
//! * **Runtime switch.** [`set_enabled`]`(false)` turns span collection
//!   and registry recording into near-no-ops (one relaxed atomic load at
//!   each instrumentation site); the default is enabled.
//! * **Deterministic exposition.** Prometheus-text and JSON renderings are
//!   byte-stable for a given set of metric values, independent of
//!   registration order or thread interleaving.

pub mod clock;
pub mod events;
pub mod metrics;
pub mod scrape;
pub mod span;

pub use clock::Stopwatch;
pub use events::{Event, EventKind, EventLog, EVENT_KINDS};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, snapshot_json, snapshot_prometheus_text,
    Counter, Histogram, HistogramSnapshot, MetricId, Registry, RegistrySnapshot, SloTracker,
    WindowedHistogram, HISTOGRAM_BUCKETS,
};
pub use scrape::{
    http_get, launch_scrape, serve, RunningServer, ScrapeProvider, MAX_CONNECTIONS, READ_POLL,
};
pub use span::{Profiler, QueryProfile, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Whether observability recording is on (the default). Instrumentation
/// sites check this once per operation; profilers cache it at
/// construction.
pub fn enabled() -> bool {
    // Relaxed — lone on/off flag: no other memory is published through it, and stale reads only delay the toggle
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the global recording switch. Disabling makes span collection and
/// registry recording near-no-ops; it never changes any authenticated
/// byte (see the crate docs' zero-perturbation rule).
pub fn set_enabled(on: bool) {
    // Relaxed — lone on/off flag: no other memory is published through it, and stale reads only delay the toggle
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry that library instrumentation records into.
/// Exposition: [`Registry::prometheus_text`] / [`Registry::json`].
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Converts spans' fractional seconds to the integer microseconds the
/// histograms record (saturating; sub-microsecond phases record 0).
pub fn micros(seconds: f64) -> u64 {
    let micros = seconds * 1e6;
    if micros >= u64::MAX as f64 {
        u64::MAX
    } else if micros.is_sign_negative() || micros.is_nan() {
        0
    } else {
        micros as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_conversion_is_total() {
        assert_eq!(micros(0.0), 0);
        assert_eq!(micros(-1.0), 0);
        assert_eq!(micros(f64::NAN), 0);
        assert_eq!(micros(1.5e-6), 1);
        assert_eq!(micros(2.0), 2_000_000);
        assert_eq!(micros(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_selftest_total", &[]).inc();
        assert!(global().counter("obs_selftest_total", &[]).get() >= 1);
    }
}
