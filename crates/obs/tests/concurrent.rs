//! Concurrency proof for the metric primitives: recording from the
//! `imageproof-parallel` worker pool must lose no updates and the final
//! sums must be exactly deterministic.

use imageproof_obs::{Counter, Histogram, Registry};
use imageproof_parallel::{par_map, Concurrency};

#[test]
fn eight_threads_record_without_losing_updates() {
    let reg = Registry::new();
    let counter = reg.counter("items_total", &[("src", "test")]);
    let histogram = reg.histogram("values", &[]);

    let items: Vec<u64> = (0..10_000).collect();
    par_map(Concurrency::new(8), &items, |_, &v| {
        counter.add(v);
        histogram.record(v);
    });

    // Deterministic final sums: 0 + 1 + … + 9999.
    let expected_sum: u64 = items.iter().sum();
    assert_eq!(counter.get(), expected_sum);
    assert_eq!(histogram.count(), items.len() as u64);
    assert_eq!(histogram.sum(), expected_sum);

    // The same totals are visible through fresh family handles and the
    // snapshot path.
    assert_eq!(
        reg.counter("items_total", &[("src", "test")]).get(),
        expected_sum
    );
    let snap = reg.snapshot();
    let hist = snap
        .histograms
        .values()
        .next()
        .expect("histogram registered");
    assert_eq!(hist.count, items.len() as u64);
    assert_eq!(
        hist.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        hist.count
    );
}

#[test]
fn concurrent_registration_yields_one_family_member() {
    let reg = Registry::new();
    let items: Vec<usize> = (0..512).collect();
    par_map(Concurrency::new(8), &items, |_, _| {
        reg.counter("registered_total", &[("k", "v")]).inc();
    });
    assert_eq!(reg.counter("registered_total", &[("k", "v")]).get(), 512);
    assert_eq!(
        reg.snapshot().counters.len(),
        1,
        "one family member, not 512"
    );
}

#[test]
fn standalone_primitives_are_sync() {
    // Spot-check Sync bounds: primitives shared by reference across the
    // pool without Arc.
    let c = Counter::new();
    let h = Histogram::new();
    let items: Vec<u64> = (0..1000).collect();
    par_map(Concurrency::new(4), &items, |_, &v| {
        c.inc();
        h.record(v % 17);
    });
    assert_eq!(c.get(), 1000);
    assert_eq!(h.count(), 1000);
}
