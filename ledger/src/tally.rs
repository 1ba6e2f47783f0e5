//! Per-operation samples of the per-layer metrics, and their means.

use std::collections::BTreeMap;

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-operation values of every per-layer metric, in operation order.
#[derive(Default)]
pub struct Tally {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn window(&self, name: &str, n: Option<usize>) -> &[f64] {
        let values = self.samples.get(name).map_or(&[][..], Vec::as_slice);
        &values[..n.unwrap_or(values.len()).min(values.len())]
    }

    /// Samples behind [`Tally::mean`].
    pub fn len(&self, name: &str, n: Option<usize>) -> usize {
        self.window(name, n).len()
    }

    /// Mean over the first `n` operations (all of them when `n` is
    /// `None`); 0 for a metric this workload never recorded.
    pub fn mean(&self, name: &str, n: Option<usize>) -> f64 {
        mean(self.window(name, n))
    }
}
