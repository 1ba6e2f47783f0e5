//! # imageproof-parallel
//!
//! The workspace-wide deterministic execution layer. The work that pays
//! for threads fans out through the helpers here, controlled by one
//! [`Concurrency`] knob: owner-side ADS construction (corpus encoding,
//! per-cluster lists and dimension trees), SP batch serving (one query per
//! worker), and the in-process sharded fan-out (one shard per worker). A
//! single query runs on the calling thread.
//!
//! ## The determinism contract
//!
//! A VO is a cryptographic artifact: its bytes are reconstructed and hashed
//! by the client, so parallel execution must produce *bit-identical* output
//! to serial execution. The helpers guarantee this by construction:
//!
//! * work items are pure functions of their index (workers never share
//!   mutable state with the item functions);
//! * results are merged **in item-index order**, regardless of which worker
//!   computed them or in which order they finished.
//!
//! Scheduling is dynamic (an atomic next-index counter), so skewed item
//! costs balance across workers without affecting the merged order.
//! `threads = 1` short-circuits to a plain serial loop — no threads are
//! spawned and the call is exactly the pre-existing serial code path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Records one parallel section into the global observability registry.
/// No-op when recording is disabled; never affects item results or order.
fn record_section(kind: &'static str, items: usize) {
    if !imageproof_obs::enabled() {
        return;
    }
    let reg = imageproof_obs::global();
    let labels = [("kind", kind)];
    reg.counter("imageproof_parallel_sections_total", &labels)
        .inc();
    reg.counter("imageproof_parallel_items_total", &labels)
        .add(items as u64);
}

/// The thread-count knob of the scheme API: owner builds
/// (`SystemConfig` in `imageproof-core`), `ServiceProvider::query_batch`
/// and the `ShardedSp` fan-out.
///
/// `threads` is the number of worker threads a parallel section may use;
/// `1` means strictly serial execution on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Concurrency {
    pub threads: usize,
}

impl Concurrency {
    /// Strictly serial execution (the default everywhere).
    pub const fn serial() -> Concurrency {
        Concurrency { threads: 1 }
    }

    /// Execution with up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Concurrency {
        Concurrency {
            threads: threads.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn available() -> Concurrency {
        Concurrency::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// True when no worker threads would be spawned.
    pub fn is_serial(self) -> bool {
        self.threads <= 1
    }
}

impl Default for Concurrency {
    fn default() -> Concurrency {
        Concurrency::serial()
    }
}

/// Order-preserving parallel map: `f(i, &items[i])` for every item, results
/// returned in item order.
///
/// With `conc.is_serial()` (or fewer than two items) this is a plain serial
/// loop on the calling thread. Otherwise items are claimed dynamically by
/// up to `conc.threads` scoped workers, each worker returns its
/// `(index, result)` pairs through its join, and the pairs are merged back
/// into index order, so the output is identical to the serial loop's no
/// matter how the scheduler interleaves workers.
///
/// # Panics
/// A panic in `f` reaches the caller with its own payload, after every
/// worker has stopped.
pub fn par_map<T, R, F>(conc: Concurrency, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if conc.is_serial() || items.len() <= 1 {
        record_section("serial", items.len());
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    record_section("threaded", items.len());
    let workers = conc.threads.min(items.len());
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Relaxed — work-stealing counter: fetch_add is atomic per claim; no other memory is published through it
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        let mut pairs = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(mut local) => pairs.append(&mut local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Like [`par_map`], but amortizes scheduling over contiguous chunks of at
/// least `min_chunk` items — for fine-grained work (per-node hashing,
/// per-image corpus encoding) where claiming items one at a time would
/// cost more than the work itself.
///
/// Output order is item order, exactly as [`par_map`].
pub fn par_map_chunked<T, R, F>(conc: Concurrency, items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let min_chunk = min_chunk.max(1);
    if conc.is_serial() || items.len() <= min_chunk {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // ~4 chunks per worker keeps dynamic scheduling effective on skewed
    // costs while bounding per-chunk overhead.
    let target_chunks = conc.threads * 4;
    let chunk = (items.len().div_ceil(target_chunks)).max(min_chunk);
    let ranges: Vec<std::ops::Range<usize>> = (0..items.len())
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(items.len()))
        .collect();
    let per_chunk = par_map(conc, &ranges, |_, range| {
        range.clone().map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for mut chunk_out in per_chunk {
        out.append(&mut chunk_out);
    }
    out
}

/// Order-preserving fallible parallel map: stops delivering results at the
/// first error **in item order** (later items may still have been computed
/// and are discarded), mirroring a serial `collect::<Result<Vec<_>, _>>()`.
pub fn try_par_map<T, R, E, F>(conc: Concurrency, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    if conc.is_serial() || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    par_map(conc, items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_knob_spawns_no_threads_and_matches_plain_map() {
        let items: Vec<u64> = (0..100).collect();
        let tid = std::thread::current().id();
        let out = par_map(Concurrency::serial(), &items, |i, &x| {
            assert_eq!(std::thread::current().id(), tid, "serial must not spawn");
            x * 2 + i as u64
        });
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn threads_clamp_to_at_least_one() {
        assert_eq!(Concurrency::new(0).threads, 1);
        assert!(Concurrency::new(0).is_serial());
        assert!(Concurrency::default().is_serial());
        assert!(Concurrency::available().threads >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs_work_at_any_thread_count() {
        for threads in [1usize, 2, 8] {
            let conc = Concurrency::new(threads);
            let empty: Vec<u32> = Vec::new();
            assert_eq!(par_map(conc, &empty, |_, &x| x), Vec::<u32>::new());
            assert_eq!(par_map(conc, &[7u32], |i, &x| x + i as u32), vec![7]);
            assert_eq!(
                par_map_chunked(conc, &empty, 4, |_, &x| x),
                Vec::<u32>::new()
            );
        }
    }

    #[test]
    fn skewed_work_still_merges_in_index_order() {
        // Early items sleep longest, so workers finish out of order.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(Concurrency::new(8), &items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_micros(
                (items.len() - i) as u64 * 50,
            ));
            x * x
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(Concurrency::new(4), &items, |i, &x| {
                if i == 37 {
                    panic!("item {i} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("item 37 panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 37 failed")
        );
    }

    #[test]
    fn try_par_map_reports_the_first_error_in_item_order() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1usize, 4] {
            let out: Result<Vec<u32>, u32> =
                try_par_map(Concurrency::new(threads), &items, |_, &x| {
                    if x % 20 == 13 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(out, Err(13), "threads={threads}");
        }
    }

    proptest! {
        #[test]
        fn par_map_equals_serial_map(
            items in proptest::collection::vec(any::<u32>(), 0..200),
            threads in 1usize..9,
            min_chunk in 1usize..16,
        ) {
            let f = |i: usize, x: &u32| (*x as u64).wrapping_mul(31).wrapping_add(i as u64);
            let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            let conc = Concurrency::new(threads);
            prop_assert_eq!(&par_map(conc, &items, f), &serial);
            prop_assert_eq!(&par_map_chunked(conc, &items, min_chunk, f), &serial);
        }
    }
}
