//! Structured spans: a lightweight hierarchical profile of one operation
//! (a query, a verification, an ADS build).
//!
//! A [`Profiler`] is an explicit, single-threaded span stack — the owner of
//! the operation opens phases with [`Profiler::enter`], closes them with
//! [`Profiler::exit`] (which returns the phase's wall seconds, so existing
//! stats structs can be populated from the same measurement), attaches
//! counters to the open span, and grafts sub-profiles produced on worker
//! threads with [`Profiler::attach`]. [`Profiler::finish`] yields a
//! [`QueryProfile`]: an owned span tree that can be rendered, interrogated
//! by path, or aggregated across shards.
//!
//! ## Zero-perturbation guarantee
//!
//! Spans observe; they never participate. No digest, signature, or wire
//! byte ever depends on a span, and when recording is disabled
//! ([`crate::set_enabled`]) every operation short-circuits on one cached
//! boolean — profiles come back empty and the instrumented code path is
//! otherwise identical.

use crate::clock::Stopwatch;

/// One finished span: a named phase with its wall-clock duration, counters,
/// and child spans in open order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub seconds: f64,
    /// Accumulated `(counter name, value)` pairs, deduplicated by name in
    /// first-recorded order.
    pub counters: Vec<(&'static str, u64)>,
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    fn new(name: &'static str) -> SpanRecord {
        SpanRecord {
            name,
            ..SpanRecord::default()
        }
    }

    /// The counter's value on this span (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Sums `name` over this span and every descendant.
    pub fn counter_deep(&self, name: &str) -> u64 {
        self.counter(name)
            + self
                .children
                .iter()
                .map(|c| c.counter_deep(name))
                .sum::<u64>()
    }

    fn add_counter(&mut self, name: &'static str, v: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = slot.1.saturating_add(v);
        } else {
            self.counters.push((name, v));
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{} {:.3} ms", self.name, self.seconds * 1e3));
        if !self.counters.is_empty() {
            let pairs: Vec<String> = self
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            out.push_str(&format!(" [{}]", pairs.join(" ")));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// The profile of one operation: the finished span tree, or empty when
/// recording was disabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    pub root: Option<SpanRecord>,
}

impl QueryProfile {
    /// True when recording was disabled (no spans were collected).
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Root wall seconds (0 when empty).
    pub fn total_seconds(&self) -> f64 {
        self.root.as_ref().map(|r| r.seconds).unwrap_or(0.0)
    }

    /// Wall seconds summed over every span matching `path` — a
    /// `/`-separated name chain below the root, e.g. `"bovw/mrkd.search"`.
    /// Repeated phases (one `shard.build` child per shard) sum.
    pub fn seconds(&self, path: &str) -> f64 {
        let Some(root) = &self.root else {
            return 0.0;
        };
        let mut layer: Vec<&SpanRecord> = vec![root];
        for part in path.split('/') {
            let mut next = Vec::new();
            for span in layer {
                next.extend(span.children.iter().filter(|c| c.name == part));
            }
            layer = next;
        }
        layer.iter().map(|s| s.seconds).sum()
    }

    /// Sums counter `name` over the whole tree.
    pub fn counter(&self, name: &str) -> u64 {
        self.root
            .as_ref()
            .map(|r| r.counter_deep(name))
            .unwrap_or(0)
    }

    /// An indented human-readable dump of the span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.root {
            Some(root) => root.render_into(&mut out, 0),
            None => out.push_str("(observability disabled — empty profile)\n"),
        }
        out
    }
}

/// A span-stack profiler for one operation (see the module docs).
#[derive(Debug)]
pub struct Profiler {
    /// Cached at construction so one operation is profiled consistently
    /// even if the global switch flips mid-flight.
    enabled: bool,
    stack: Vec<(SpanRecord, Stopwatch)>,
}

impl Profiler {
    /// Opens the root span `name`; recording follows the global
    /// [`crate::enabled`] switch.
    pub fn new(name: &'static str) -> Profiler {
        Profiler::with_enabled(name, crate::enabled())
    }

    fn with_enabled(name: &'static str, enabled: bool) -> Profiler {
        let mut stack = Vec::new();
        if enabled {
            stack.push((SpanRecord::new(name), Stopwatch::start()));
        }
        Profiler { enabled, stack }
    }

    /// True when this profiler is collecting spans.
    pub fn is_recording(&self) -> bool {
        self.enabled
    }

    /// Opens a child span under the current one.
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.stack.push((SpanRecord::new(name), Stopwatch::start()));
        }
    }

    /// Closes the current span and returns its wall seconds (0 when
    /// disabled, or when only the root remains — the root closes in
    /// [`Profiler::finish`]).
    pub fn exit(&mut self) -> f64 {
        if !self.enabled || self.stack.len() <= 1 {
            return 0.0;
        }
        let Some((mut span, watch)) = self.stack.pop() else {
            return 0.0;
        };
        span.seconds = watch.elapsed_seconds();
        let seconds = span.seconds;
        if let Some((parent, _)) = self.stack.last_mut() {
            parent.children.push(span);
        }
        seconds
    }

    /// Adds `v` to counter `name` on the current span (saturating).
    pub fn add(&mut self, name: &'static str, v: u64) {
        if self.enabled {
            if let Some((span, _)) = self.stack.last_mut() {
                span.add_counter(name, v);
            }
        }
    }

    /// Grafts a finished sub-profile (e.g. one produced on a worker
    /// thread, or by a per-shard engine) as a child of the current span,
    /// tagging its root with counter `tag = tag_value`.
    pub fn attach(&mut self, child: QueryProfile, tag: &'static str, tag_value: u64) {
        if !self.enabled {
            return;
        }
        let Some(mut root) = child.root else {
            return;
        };
        root.add_counter(tag, tag_value);
        if let Some((span, _)) = self.stack.last_mut() {
            span.children.push(root);
        }
    }

    /// Closes every open span (root last) and returns the profile.
    pub fn finish(mut self) -> QueryProfile {
        if !self.enabled {
            return QueryProfile::default();
        }
        while self.stack.len() > 1 {
            self.exit();
        }
        let root = self.stack.pop().map(|(mut span, watch)| {
            span.seconds = watch.elapsed_seconds();
            span
        });
        QueryProfile { root }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_nest_and_expose_paths() {
        let mut prof = Profiler::with_enabled("op", true);
        prof.enter("a");
        prof.enter("inner");
        prof.add("items", 3);
        prof.add("items", 4);
        prof.exit();
        prof.exit();
        prof.enter("b");
        prof.exit();
        let profile = prof.finish();
        assert!(!profile.is_empty());
        let root = profile.root.as_ref().expect("enabled profile has a root");
        assert_eq!(
            root.children.iter().map(|c| c.name).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(profile.counter("items"), 7);
        assert!(profile.seconds("a/inner") >= 0.0);
        assert!(profile.total_seconds() >= profile.seconds("a"));
        let text = profile.render();
        assert!(text.contains("op"), "{text}");
        assert!(text.contains("items=7"), "{text}");
    }

    #[test]
    fn disabled_profiler_is_a_no_op() {
        let mut prof = Profiler::with_enabled("op", false);
        prof.enter("a");
        prof.add("n", 1);
        assert_eq!(prof.exit(), 0.0);
        let profile = prof.finish();
        assert!(profile.is_empty());
        assert_eq!(profile.total_seconds(), 0.0);
        assert_eq!(profile.counter("n"), 0);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut prof = Profiler::with_enabled("op", true);
        prof.enter("left-open");
        prof.enter("also-open");
        let profile = prof.finish();
        let root = profile.root.expect("enabled profile has a root");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].children.len(), 1);
    }

    #[test]
    fn attach_grafts_subtrees_with_a_tag() {
        let mut shard = Profiler::with_enabled("sp.query", true);
        shard.enter("bovw");
        shard.add("hashes", 5);
        shard.exit();
        let shard_profile = shard.finish();

        let mut top = Profiler::with_enabled("sharded.query", true);
        top.enter("fanout");
        top.attach(shard_profile, "shard", 2);
        top.attach(QueryProfile::default(), "shard", 3); // empty: ignored
        top.exit();
        let profile = top.finish();
        assert_eq!(profile.counter("hashes"), 5);
        assert_eq!(profile.counter("shard"), 2);
        assert!(profile.seconds("fanout/sp.query/bovw") >= 0.0);
    }
}
