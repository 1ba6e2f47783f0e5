//! Lock-free metric primitives and the labeled registry.
//!
//! Recording is always a handful of relaxed atomic operations on a
//! pre-registered metric handle — safe to call from every worker of the
//! `imageproof-parallel` thread pool with no lock contention. The only
//! locking happens at *registration* time (get-or-create of a labeled
//! family member) behind a `std::sync::Mutex`, and callers are expected
//! to hold on to the returned `Arc` handle on hot paths.
//!
//! Exposition is deterministic: metrics live in `BTreeMap`s keyed by
//! `(name, sorted labels)`, so the Prometheus-text and JSON renderings are
//! byte-stable regardless of registration order or thread interleaving.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
///
/// Increments wrap on `u64` overflow (the atomic's native behavior); the
/// exposition layer never saturates or clamps, so a wrapped counter is
/// visible as a small value rather than a silently pinned `u64::MAX`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, wrapping on overflow.
    // Relaxed — monotonic statistics counter: readers tolerate lag; no other memory is published through it
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    // Relaxed — statistics read: a momentarily stale total is acceptable for exposition
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power-of-two octave (2 bits → 4 sub-buckets, ≤ 25 %
/// relative bucket width).
const SUB_BITS: u32 = 2;
const SUBS: u64 = 1 << SUB_BITS;

/// Total log-linear buckets covering the full `u64` range: the linear
/// region `0..SUBS` plus `SUBS` buckets for each octave `2..=63`.
pub const HISTOGRAM_BUCKETS: usize = (SUBS as usize) * 63;

/// Bucket index of `v` in the log-linear layout: values below `SUBS` get
/// their own bucket; larger values split each power-of-two octave into
/// `SUBS` linear sub-buckets.
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & (SUBS - 1);
    ((msb - 1) as u64 * SUBS + sub) as usize
}

/// Smallest value that lands in bucket `index` (inverse of
/// [`bucket_index`]).
pub fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        return index;
    }
    let octave = index / SUBS + 1;
    let sub = index % SUBS;
    (SUBS + sub) << (octave - SUB_BITS as u64)
}

/// Largest value that lands in bucket `index` (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// A lock-free log-linear histogram over `u64` samples (durations in
/// micro- or nanoseconds, byte sizes, counts). Recording touches three
/// relaxed atomics; quantile reads walk the bucket array.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. The running sum wraps on overflow, like
    /// [`Counter::add`].
    // Relaxed — independent statistics cells: readers accept an inconsistent cut (see snapshot)
    pub fn record(&self, v: u64) {
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    // Relaxed — statistics read: a momentarily stale count is acceptable for exposition
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    // Relaxed — statistics read: a momentarily stale sum is acceptable for exposition
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`); `None` when the histogram is empty — an
    /// empty window has no quantiles, and reporting 0 would read as a
    /// perfect latency. The estimate errs high by at most one bucket
    /// width (≤ 25 %).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// Zeroes every cell. Used by the sliding window when a bucket ages
    /// out; under concurrent recording a sample may land in a cell that
    /// was already cleared (or survive the sweep), which is the same
    /// statistics-grade tolerance as [`Histogram::snapshot`].
    // Relaxed — independent statistics cells: readers accept an inconsistent cut (see snapshot)
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy. Under concurrent recording the per-bucket
    /// counts are each atomically read but the set is not a consistent
    /// cut; once recording quiesces, the snapshot is exact.
    // Relaxed — documented inconsistent cut: each bucket read is atomic, the set need not be
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Frozen histogram state: `(inclusive upper bound, count)` for every
/// non-empty bucket, in ascending bound order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`]: `None` on an empty snapshot, never 0
    /// masquerading as a perfect quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Some(upper);
            }
        }
        self.buckets.last().map(|&(upper, _)| upper)
    }

    /// Folds another snapshot into this one (bucket-wise sum, merged in
    /// ascending bound order). Used to merge the two halves of a sliding
    /// window into one full-window view.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
        for &(upper, n) in self.buckets.iter().chain(other.buckets.iter()) {
            let cell = buckets.entry(upper).or_insert(0);
            *cell = cell.saturating_add(n);
        }
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            buckets: buckets.into_iter().collect(),
        }
    }
}

/// The identity of one registered metric: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{k="v",…}` in Prometheus notation (bare `name` when
    /// unlabeled).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    fn render_with(&self, extra: (&str, String)) -> String {
        let mut id = self.clone();
        id.labels.push((extra.0.to_string(), extra.1));
        id.labels.sort();
        id.render()
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed (in that order, so the escape
/// character itself is escaped first). A raw `\n` would otherwise split
/// one sample line in two and corrupt the whole scrape.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Frozen registry state, as exposition renders it. The registry itself
/// holds no gauges; scrape providers insert point-in-time gauge values
/// (health, burn rates) into the snapshot they expose.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<MetricId, u64>,
    pub gauges: BTreeMap<MetricId, i64>,
    pub histograms: BTreeMap<MetricId, HistogramSnapshot>,
}

/// The labeled metric registry.
///
/// `counter`/`histogram` get-or-register a family member under one short
/// lock and hand back an `Arc` whose recording methods are lock-free.
/// Both families sit behind that one lock, so no code path ever holds
/// two. Exposition walks the `BTreeMap`s, so output order is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Families>,
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<MetricId, Arc<Counter>>,
    histograms: BTreeMap<MetricId, Arc<Histogram>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The families, locked; get-or-insert leaves them consistent even if
    /// a holder panicked, so poisoning is ignored.
    fn families(&self) -> MutexGuard<'_, Families> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        self.families()
            .counters
            .entry(id)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        self.families()
            .histograms
            .entry(id)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families();
        RegistrySnapshot {
            counters: families
                .counters
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: BTreeMap::new(),
            histograms: families
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Prometheus text exposition (`# TYPE` headers, cumulative `_bucket`
    /// series with `le` bounds, `_sum`/`_count`). Deterministic byte-for-
    /// byte given the same metric values.
    pub fn prometheus_text(&self) -> String {
        snapshot_prometheus_text(&self.snapshot())
    }

    /// JSON exposition: one object with sorted `counters`, `gauges`, and
    /// `histograms` (each histogram carries count, sum, p50/p90/p99 and
    /// its non-empty buckets). Deterministic byte-for-byte.
    pub fn json(&self) -> String {
        snapshot_json(&self.snapshot())
    }
}

/// [`Registry::prometheus_text`] over an explicit snapshot.
pub fn snapshot_prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_type_header = String::new();
    let mut type_header = |out: &mut String, name: &str, kind: &str| {
        let header = format!("# TYPE {name} {kind}\n");
        if header != last_type_header {
            out.push_str(&header);
            last_type_header = header;
        }
    };
    for (id, v) in &snap.counters {
        type_header(&mut out, &id.name, "counter");
        out.push_str(&format!("{} {v}\n", id.render()));
    }
    for (id, v) in &snap.gauges {
        type_header(&mut out, &id.name, "gauge");
        out.push_str(&format!("{} {v}\n", id.render()));
    }
    for (id, h) in &snap.histograms {
        type_header(&mut out, &id.name, "histogram");
        let mut cumulative = 0u64;
        for &(upper, n) in &h.buckets {
            cumulative = cumulative.saturating_add(n);
            let series = MetricId {
                name: format!("{}_bucket", id.name),
                labels: id.labels.clone(),
            };
            out.push_str(&format!(
                "{} {cumulative}\n",
                series.render_with(("le", upper.to_string()))
            ));
        }
        let series = MetricId {
            name: format!("{}_bucket", id.name),
            labels: id.labels.clone(),
        };
        out.push_str(&format!(
            "{} {}\n",
            series.render_with(("le", "+Inf".to_string())),
            h.count
        ));
        out.push_str(&format!(
            "{} {}\n",
            MetricId {
                name: format!("{}_sum", id.name),
                labels: id.labels.clone(),
            }
            .render(),
            h.sum
        ));
        out.push_str(&format!(
            "{} {}\n",
            MetricId {
                name: format!("{}_count", id.name),
                labels: id.labels.clone(),
            }
            .render(),
            h.count
        ));
    }
    out
}

/// [`Registry::json`] over an explicit snapshot.
pub fn snapshot_json(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    push_scalar_map(
        &mut out,
        snap.counters.iter().map(|(id, v)| (id, *v as i128)),
    );
    out.push_str("},\n  \"gauges\": {");
    push_scalar_map(&mut out, snap.gauges.iter().map(|(id, v)| (id, *v as i128)));
    out.push_str("},\n  \"histograms\": {");
    let mut first = true;
    for (id, h) in &snap.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|&(upper, n)| format!("[{upper},{n}]"))
            .collect();
        let q = |q: f64| match h.quantile(q) {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
            escape(&id.render()),
            h.count,
            h.sum,
            q(0.50),
            q(0.90),
            q(0.99),
            buckets.join(",")
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

fn push_scalar_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a MetricId, i128)>) {
    let mut first = true;
    for (id, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {v}", escape(&id.render())));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// A sliding window over the log-linear [`Histogram`], built from two
/// half-window buckets that rotate as time advances.
///
/// Samples land in the half covering the current half-window epoch; a
/// windowed read merges both halves, so it always covers between one and
/// two half-windows of history (`window_seconds / 2` worst case,
/// `window_seconds` best case) — the classic two-bucket approximation of
/// a true sliding window, with none of the per-sample timestamping cost.
/// Rotation zeroes the half that aged out; like every other read path
/// here, concurrent recording is statistics-grade (a sample racing a
/// rotation may land in a freshly cleared half or be swept with it).
///
/// Every method has an `_at(now_seconds, …)` twin taking explicit time so
/// tests and replays stay deterministic; the plain forms read the
/// tracker's own [`Stopwatch`].
#[derive(Debug)]
pub struct WindowedHistogram {
    half_seconds: f64,
    clock: crate::Stopwatch,
    halves: [Histogram; 2],
    epoch: AtomicU64,
}

impl WindowedHistogram {
    /// A window retaining between `window_seconds / 2` and
    /// `window_seconds` of samples (clamped below at 2 ms total).
    pub fn new(window_seconds: f64) -> WindowedHistogram {
        let window = if window_seconds.is_finite() {
            window_seconds.max(2e-3)
        } else {
            2e-3
        };
        WindowedHistogram {
            half_seconds: window / 2.0,
            clock: crate::Stopwatch::start(),
            halves: [Histogram::new(), Histogram::new()],
            epoch: AtomicU64::new(0),
        }
    }

    fn epoch_of(&self, now_seconds: f64) -> u64 {
        // audit:allow(panic) half_seconds is clamped to >= 1e-3 by new(), so the divisor is never zero
        let e = (now_seconds / self.half_seconds).floor();
        if e.is_finite() && e > 0.0 {
            if e >= u64::MAX as f64 {
                u64::MAX
            } else {
                e as u64
            }
        } else {
            0
        }
    }

    /// Advances the window to `now_seconds`, clearing any half that aged
    /// out. Exactly one racing caller wins the swap; losers observe the
    /// cleared half.
    // Relaxed — epoch cell guards only which statistics half is current; a stale read records into the half that is about to age out, which the merge-read tolerates
    fn rotate_to(&self, now_seconds: f64) -> usize {
        let target = self.epoch_of(now_seconds);
        let mut current = self.epoch.load(Ordering::Relaxed);
        while target > current {
            match self.epoch.compare_exchange_weak(
                current,
                target,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // The winner clears state the new epoch must not see:
                    // both halves after a gap, else just the reused half.
                    if target - current >= 2 {
                        for half in &self.halves {
                            half.reset();
                        }
                    } else {
                        // audit:allow(panic) an index modulo 2 is always in bounds for the two-element halves array
                        self.halves[(target % 2) as usize].reset();
                    }
                    current = target;
                }
                Err(seen) => current = seen,
            }
        }
        (current.max(target) % 2) as usize
    }

    /// Records one sample at the tracker's own clock.
    pub fn record(&self, v: u64) {
        self.record_at(self.clock.elapsed_seconds(), v);
    }

    /// Records one sample at an explicit instant (deterministic tests).
    pub fn record_at(&self, now_seconds: f64, v: u64) {
        let half = self.rotate_to(now_seconds);
        // audit:allow(panic) rotate_to returns an epoch modulo 2, always in bounds for the two-element halves array
        self.halves[half].record(v);
    }

    /// The merged view of both window halves — everything recorded in the
    /// last one-to-two half-windows.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.snapshot_at(self.clock.elapsed_seconds())
    }

    /// [`WindowedHistogram::snapshot`] at an explicit instant.
    pub fn snapshot_at(&self, now_seconds: f64) -> HistogramSnapshot {
        self.rotate_to(now_seconds);
        self.halves[0].snapshot().merge(&self.halves[1].snapshot())
    }

    /// Windowed quantile: `None` when nothing was recorded inside the
    /// window (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// [`WindowedHistogram::quantile`] at an explicit instant.
    pub fn quantile_at(&self, now_seconds: f64, q: f64) -> Option<u64> {
        self.snapshot_at(now_seconds).quantile(q)
    }
}

/// An SLO burn-rate tracker: a latency threshold, an error budget, and
/// cumulative counters.
///
/// The objective is "at most `budget` of samples may exceed
/// `threshold`" (e.g. budget 0.01 with a p99 latency target). The burn
/// rate is the violating fraction of a windowed latency view divided by
/// the budget: 1.0 means the error budget is being consumed exactly as
/// fast as it accrues, above 1.0 the SLO is burning down. The tracker
/// keeps no samples of its own; its caller records them into the
/// [`WindowedHistogram`]s the burn rate is read over. Violations are
/// counted at bucket resolution (a bucket straddling the threshold counts
/// as violating, erring toward alarm). [`SloTracker::breached_total`] is
/// the cumulative burn counter for exposition.
#[derive(Debug)]
pub struct SloTracker {
    threshold: u64,
    budget: f64,
    breached: Counter,
    observed: Counter,
}

impl SloTracker {
    /// `threshold` in the recorded unit (micros here), `budget` the
    /// allowed violating fraction (clamped to at least 1e-9 so the rate
    /// stays finite).
    pub fn new(threshold: u64, budget: f64) -> SloTracker {
        let budget = if budget.is_finite() {
            budget.clamp(1e-9, 1.0)
        } else {
            1e-9
        };
        SloTracker {
            threshold,
            budget,
            breached: Counter::new(),
            observed: Counter::new(),
        }
    }

    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Counts one sample, against the budget when over threshold. Returns
    /// whether the sample breached.
    pub fn record(&self, v: u64) -> bool {
        self.observed.inc();
        let breached = v > self.threshold;
        if breached {
            self.breached.inc();
        }
        breached
    }

    /// Cumulative over-threshold samples since construction.
    pub fn breached_total(&self) -> u64 {
        self.breached.get()
    }

    /// Cumulative samples since construction.
    pub fn observed_total(&self) -> u64 {
        self.observed.get()
    }

    /// Burn rate over `window`; `None` when it is empty (an empty window
    /// is "no data", not "no burn").
    pub fn burn_rate(&self, window: &HistogramSnapshot) -> Option<f64> {
        if window.count == 0 {
            return None;
        }
        let violating: u64 = window
            .buckets
            .iter()
            .filter(|&&(upper, _)| upper > self.threshold)
            .map(|&(_, n)| n)
            .fold(0u64, |acc, n| acc.saturating_add(n));
        Some((violating as f64 / window.count as f64) / self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::new();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(2);
        assert_eq!(c.get(), 1, "counter adds wrap on overflow");
    }

    #[test]
    fn bucket_index_covers_edges() {
        // The linear region.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        // First log-linear bucket starts exactly at SUBS.
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        // The extremes stay in range.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Index and bounds are mutually consistent on every bucket border.
        for index in 0..HISTOGRAM_BUCKETS {
            let lower = bucket_lower_bound(index);
            let upper = bucket_upper_bound(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            assert_eq!(bucket_index(upper), index, "upper bound of {index}");
            if upper < u64::MAX {
                assert_eq!(bucket_index(upper + 1), index + 1, "border of {index}");
            }
            if lower > 0 {
                assert_eq!(bucket_index(lower - 1), index - 1, "border of {index}");
            }
        }
    }

    #[test]
    fn histogram_records_edges_without_panicking() {
        let h = Histogram::new();
        for v in [0, 1, 3, 4, 7, 8, 1023, 1024, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn quantiles_are_order_statistics_up_to_bucket_width() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Bucket estimates err high by at most 25 %.
        assert!((500..=640).contains(&p50), "p50 = {p50}");
        assert!((990..=1280).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn quantile_on_empty_is_none_not_zero() {
        // An empty histogram has no quantiles — reporting 0 would read as
        // a perfect p99 on a scrape.
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
        // A single sample answers every quantile with its own bucket.
        h.record(700);
        let only = h.quantile(0.0);
        assert!(only.unwrap() >= 700);
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), only);
        }
        // The JSON exposition renders the empty case as null.
        let reg = Registry::new();
        reg.histogram("empty_h", &[]);
        let json = reg.json();
        assert!(
            json.contains(r#""p50": null, "p90": null, "p99": null"#),
            "{json}"
        );
    }

    #[test]
    fn snapshot_merge_sums_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 100, 100_000] {
            a.record(v);
            b.record(v);
            b.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 9);
        assert_eq!(merged.sum, 3 * (1 + 100 + 100_000));
        for (i, &(_, n)) in merged.buckets.iter().enumerate() {
            assert_eq!(n, 3, "bucket {i}");
        }
        // Merging with an empty snapshot is the identity.
        assert_eq!(
            a.snapshot().merge(&HistogramSnapshot::default()),
            a.snapshot()
        );
    }

    #[test]
    fn windowed_histogram_slides_and_forgets() {
        let w = WindowedHistogram::new(10.0); // halves of 5 s
        w.record_at(0.1, 1_000);
        w.record_at(0.2, 1_000);
        // Same epoch: both visible.
        assert_eq!(w.snapshot_at(0.3).count, 2);
        // One half-window later both halves are still in view.
        w.record_at(6.0, 9_000);
        assert_eq!(w.snapshot_at(6.1).count, 3);
        // Two half-windows after the first samples, only the newer half
        // survives.
        let snap = w.snapshot_at(11.0);
        assert_eq!(snap.count, 1);
        assert!(snap.quantile(0.5).unwrap() >= 9_000);
        // A long gap clears everything: the window reports no quantiles
        // rather than stale ones.
        assert_eq!(w.quantile_at(60.0, 0.99), None);
        assert_eq!(w.snapshot_at(60.0).count, 0);
    }

    #[test]
    fn windowed_histogram_empty_and_single_sample() {
        let w = WindowedHistogram::new(4.0);
        assert_eq!(w.quantile_at(0.0, 0.5), None, "empty window");
        w.record_at(0.5, 42);
        let p99 = w.quantile_at(0.6, 0.99).unwrap();
        assert!((42..=52).contains(&p99), "single sample p99 = {p99}");
    }

    #[test]
    fn slo_burn_rate_tracks_windowed_violations() {
        // Objective: at most 10 % of samples over 1000 µs.
        let slo = SloTracker::new(1_000, 0.10);
        assert_eq!(
            slo.burn_rate(&HistogramSnapshot::default()),
            None,
            "no data is not zero burn"
        );
        let window = WindowedHistogram::new(10.0);
        for v in [10; 9].into_iter().chain([50_000]) {
            window.record_at(0.1, v);
            assert_eq!(slo.record(v), v == 50_000);
        }
        // 1/10 violating at a 10 % budget → burn rate 1.0.
        let rate = slo.burn_rate(&window.snapshot_at(0.2)).unwrap();
        assert!((rate - 1.0).abs() < 1e-9, "rate = {rate}");
        assert_eq!(slo.breached_total(), 1);
        assert_eq!(slo.observed_total(), 10);
        // The violations age out of the window; the cumulative counter
        // does not.
        assert_eq!(slo.burn_rate(&window.snapshot_at(100.0)), None);
        assert_eq!(slo.breached_total(), 1);
    }

    #[test]
    fn registry_families_are_distinct_per_label_set() {
        let reg = Registry::new();
        reg.counter("queries", &[("scheme", "a")]).add(1);
        reg.counter("queries", &[("scheme", "b")]).add(2);
        // Label order does not matter for identity.
        reg.counter("queries", &[("x", "1"), ("scheme", "a")])
            .add(5);
        reg.counter("queries", &[("scheme", "a"), ("x", "1")])
            .add(5);
        assert_eq!(reg.snapshot().counters.len(), 3);
        assert_eq!(reg.counter("queries", &[("scheme", "a")]).get(), 1);
        assert_eq!(reg.counter("queries", &[("scheme", "b")]).get(), 2);
        assert_eq!(
            reg.counter("queries", &[("x", "1"), ("scheme", "a")]).get(),
            10
        );
    }

    #[test]
    fn exposition_is_deterministic_across_registration_order() {
        let build = |reversed: bool| {
            let reg = Registry::new();
            let mut names = vec![("alpha", 1u64), ("beta", 2)];
            if reversed {
                names.reverse();
            }
            for (name, v) in names {
                reg.counter(name, &[("scheme", "s")]).add(v);
            }
            reg.histogram("lat", &[]).record(100);
            let mut snap = reg.snapshot();
            snap.gauges.insert(MetricId::new("depth", &[]), -3);
            (snapshot_prometheus_text(&snap), snapshot_json(&snap))
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter("q_total", &[("scheme", "ip")]).add(3);
        reg.histogram("lat_micros", &[]).record(5);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE q_total counter\n"));
        assert!(text.contains("q_total{scheme=\"ip\"} 3\n"));
        assert!(text.contains("# TYPE lat_micros histogram\n"));
        assert!(text.contains("lat_micros_bucket{le=\"5\"} 1\n"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_micros_sum 5\n"));
        assert!(text.contains("lat_micros_count 1\n"));
    }

    #[test]
    fn snapshot_gauges_render_in_both_expositions() {
        let reg = Registry::new();
        reg.counter("c", &[("k", "v")]).add(7);
        let mut snap = reg.snapshot();
        assert!(snap.gauges.is_empty(), "the registry holds no gauges");
        snap.gauges
            .insert(MetricId::new("g", &[("shard", "0")]), -12);
        let text = snapshot_prometheus_text(&snap);
        assert!(
            text.contains("# TYPE g gauge\ng{shard=\"0\"} -12\n"),
            "{text}"
        );
        let json = snapshot_json(&snap);
        assert!(json.contains(r#""g{shard=\"0\"}": -12"#), "{json}");
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let reg = Registry::new();
        // Quote, backslash, and newline — each would corrupt the text
        // exposition unescaped (a raw newline splits the sample line).
        reg.counter("c", &[("k", "a\"b\\c\nd")]).inc();
        let text = reg.prometheus_text();
        assert!(
            text.contains("c{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "escaped rendering missing: {text:?}"
        );
        // Exactly one header and one sample line: nothing was split.
        assert_eq!(text.lines().count(), 2, "{text:?}");
    }

    #[test]
    fn json_escapes_label_values() {
        let reg = Registry::new();
        reg.counter("c", &[("k", "a\"b\\c")]).inc();
        let json = reg.json();
        // The JSON key is the Prometheus rendering (`c{k="a\"b\\c"}`)
        // escaped once more for JSON.
        assert!(json.contains(r#""c{k=\"a\\\"b\\\\c\"}": 1"#), "{json}");
    }
}
