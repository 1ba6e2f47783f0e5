//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table rendered by `ledger --print-benchmark-json`; the
//! smoke test fails when the two differ.

/// Seconds one run measures (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// The tail percentile of `query_ms_p90`: the highest with at least ten
/// samples beyond it at the 100 operations every full-scale run makes.
pub const TAIL_PERCENTILE: u32 = 90;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
];

/// One named workload and why it exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MonoImageProof,
    MonoOptBoth,
    ShardedRpcS2,
    OwnerUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MonoImageProof,
        Workload::MonoOptBoth,
        Workload::ShardedRpcS2,
        Workload::OwnerUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MonoImageProof => "mono_imageproof",
            Workload::MonoOptBoth => "mono_optboth",
            Workload::ShardedRpcS2 => "sharded_rpc_s2",
            Workload::OwnerUpdate => "owner_update",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::MonoImageProof => "Headline scheme in one process: akm assignment, shared mrkd traversal, plain invindex search with cuckoo bounds, client root reconstruction; shard, rpc, grouped and update code is bypassed.",
            Workload::MonoOptBoth => "Same corpus and queries through the section-VI paths (compressed candidates, grouped index), bypassing plain search.rs/verify.rs; a posting-list change shows here and is flat on mono_imageproof.",
            Workload::ShardedRpcS2 => "ImageProof as 2 shard servers on loopback behind the event-loop coordinator: merge/trim/assembly, rpc framing, socket waits, S-linear verification; the monolith workloads never enter these.",
            Workload::OwnerUpdate => "Writes beside reads: insert, query the inserted scene, verify against republished parameters, remove; invindex/mrkd/crypto run the other way, so work moved to build time shows as a loss.",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    /// Repeats bit-for-bit for one seed (compared exactly by `--repeat`).
    pub exact: bool,
}

/// All end-to-end metrics are costs: lower is better.
///
/// The bounds are what this machine can resolve, sized from ten-seed
/// studies (interquartile range as a share of the median): the host
/// drifts between faster and slower phases of several minutes that move
/// every time of a run together by up to 15-20%, so medians of times
/// spread 7-20% and the tail and the update probe up to 25%; the VO
/// bytes differ by seed only (about 5%), and peak memory by under 5%.
pub const END_TO_END: [EndToEnd; 8] = [
    cost("setup_s", "s", 0.25),
    cost("query_ms_p50", "ms", 0.25),
    cost("query_ms_p90", "ms", 0.25),
    cost("sp_ms_p50", "ms", 0.25),
    cost("verify_ms_p50", "ms", 0.25),
    EndToEnd {
        exact: true,
        ..cost("vo_bytes_per_query", "bytes", 0.15)
    },
    cost("peak_rss_mib", "MiB", 0.15),
    cost("update_ms_p50", "ms", 0.25),
];

const fn cost(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        exact: false,
    }
}

/// A metric of one layer (crate or `core` module), from the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A work count from a returned stats struct: repeats bit-for-bit for
    /// one seed.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        exact: true,
    }
}

const fn ratio(name: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        higher_is_better,
        exact: false,
    }
}

pub const PER_LAYER: [PerLayer; 57] = [
    // SP side: should move sp_ms_p50.
    time("akm.assign_us", "us"),
    time("mrkd.search_us", "us"),
    time("invindex.search_us", "us"),
    time("crypto.wire_encode_us", "us"),
    time("core.sp.query_us", "us"),
    time("core.sp.self_us", "us"),
    ratio("core.sp.closure", true),
    // Client side: should move verify_ms_p50.
    time("crypto.wire_decode_us", "us"),
    time("mrkd.verify_us", "us"),
    time("invindex.verify_us", "us"),
    time("crypto.sig_check_us", "us"),
    time("core.client.verify_us", "us"),
    time("core.client.self_us", "us"),
    ratio("core.client.closure", true),
    // Bytes: vo_bytes_per_query.
    count("mrkd.vo_bytes", "bytes", false),
    count("invindex.vo_bytes", "bytes", false),
    // Exact work counts from the stats structs.
    count("mrkd.shared_ratio", "ratio", true),
    count("invindex.popped", "count", false),
    count("invindex.popped_ratio", "ratio", false),
    count("invindex.blocks_skipped", "count", true),
    count("invindex.blocks_scanned", "count", false),
    count("core.sp.hashes_computed", "count", false),
    count("core.sp.hashes_cached", "count", true),
    // sharded_rpc_s2 only (0 elsewhere).
    time("core.shard.shard_query_us", "us"),
    time("core.shard.inproc_query_us", "us"),
    time("core.shard.merge_us", "us"),
    ratio("core.shard.merge_share", false),
    time("core.shard.slowest_shard_us", "us"),
    count("core.shard.trim_queries", "count", false),
    count("core.shard.trimmed_entries", "count", true),
    count("core.shard.dedup_bytes_saved", "bytes", true),
    time("core.rpc.query_us", "us"),
    time("core.rpc.overhead_us", "us"),
    time("core.rpc.shard_rtt_p50_us", "us"),
    count("core.rpc.failovers", "count", false),
    time("core.shard.verify_us", "us"),
    // Owner updates: update_ms_p50.
    time("core.update.insert_us", "us"),
    time("core.update.remove_us", "us"),
    count("core.update.lists_touched", "count", false),
    // Set-up: setup_s and peak_rss_mib.
    time("vision.corpus_s", "s"),
    time("akm.train_s", "s"),
    time("akm.encode_s", "s"),
    time("core.owner.build_s", "s"),
    count("core.owner.space_bytes", "bytes", false),
    count("invindex.posting_bytes", "bytes", false),
    count("invindex.filter_bytes", "bytes", false),
    count("invindex.digest_bytes", "bytes", false),
    count("invindex.block_summary_bytes", "bytes", false),
    // Calibration floors of the primitives every layer is made of.
    time("crypto.sha3_ns_per_byte", "ns"),
    time("crypto.sha3_ns_per_hash64", "ns"),
    time("crypto.ed25519_verify_us", "us"),
    time("crypto.ed25519_sign_us", "us"),
    time("akm.dist_sq_ns", "ns"),
    time("cuckoo.lookup_ns", "ns"),
    // Cross-cutting.
    ratio("parallel.batch_speedup_t2", true),
    ratio("parallel.build_speedup_t2", true),
    time("obs.overhead_pct", "%"),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"ledger\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_inside_the_contract() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
