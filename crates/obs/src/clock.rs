//! The workspace's only legal wall clock.
//!
//! The root `clippy.toml` bans `Instant` and `SystemTime` as
//! `disallowed-types`, and this module is the one place that opts out:
//! wall-clock readings near digest or wire code are a reproducibility
//! hazard, so every timing in the workspace goes through [`Stopwatch`] (or
//! the span layer built on it). A `Stopwatch` is pure measurement — it
//! never feeds a digest, never serializes, and reading it cannot perturb
//! any authenticated byte.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A monotonic stopwatch wrapping [`Instant`].
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) measuring from now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed, saturated to `u64::MAX` (584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reads the elapsed seconds and restarts the stopwatch in one step —
    /// for consecutive phase timings without gaps.
    pub fn lap(&mut self) -> f64 {
        let seconds = self.elapsed_seconds();
        self.start = Instant::now();
        seconds
    }
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::Stopwatch;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
        assert!(sw.elapsed_nanos() < u64::MAX);
    }

    #[test]
    fn lap_resets_the_origin() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = sw.lap();
        assert!(first > 0.0);
        // Immediately after a lap the elapsed time starts from ~zero again.
        assert!(sw.elapsed_seconds() < first + 1.0);
    }
}
