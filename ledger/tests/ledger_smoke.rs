//! Runs the `ledger` binary on all four workloads at `--smoke` scale
//! (60 images, 64-word codebook, 5 operations), end-to-end and traced, and
//! holds what it prints against `BENCHMARK.json`.

use imageproof_ledger::json::{self, Value};
use imageproof_ledger::spec;
use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "mono_imageproof",
    "mono_optboth",
    "sharded_rpc_s2",
    "owner_update",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        spec::benchmark_json(),
        "BENCHMARK.json differs from src/spec.rs; regenerate it with `ledger --print-benchmark-json`"
    );
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
    benchmark
        .get(section)
        .and_then(Value::as_array)
        .expect(section)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs one smoke run and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("ledger runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|e| panic!("{workload}: result does not parse: {e}\n{line}"))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} has no numeric value"))
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The result line has exactly the contract's keys, and its metrics are
/// exactly the declared ones: each once, finite, with its unit.
fn assert_well_formed(workload: &str, result: &Value, declared: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );

    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let mut seen = BTreeSet::new();
    for (name, metric) in printed {
        assert!(legal_name(name), "{workload}: illegal metric name {name:?}");
        assert!(
            seen.insert(name.as_str()),
            "{workload}: {name} printed twice"
        );
        let fields: Vec<&str> = metric
            .as_object()
            .expect("metric is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{workload}: {name}");
    }
    for (name, unit) in declared {
        assert!(
            seen.contains(name.as_str()),
            "{workload}: {name} was not printed"
        );
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .expect("seen");
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            metric_value(result, name).is_finite(),
            "{workload}: {name} is not finite"
        );
    }
    assert_eq!(
        seen.len(),
        declared.len(),
        "{workload}: undeclared metrics printed"
    );
}

#[test]
fn every_workload_prints_every_declared_metric_and_repeats_for_a_seed() {
    let benchmark = benchmark_json();
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let declared_workloads: Vec<String> = declared_names(&benchmark, "workloads");
    assert_eq!(declared_workloads, WORKLOADS);

    for workload in WORKLOADS {
        let first = run(workload, 7, false);
        assert_well_formed(workload, &first, &end_to_end);
        for (name, _) in &end_to_end {
            assert!(
                metric_value(&first, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        let traced = run(workload, 7, true);
        assert_well_formed(workload, &traced, &per_layer);

        // One seed: identical bytes and work counts, run after run.
        let again = run(workload, 7, false);
        for m in spec::END_TO_END.iter().filter(|m| m.exact) {
            assert_eq!(
                metric_value(&first, m.name),
                metric_value(&again, m.name),
                "{workload}: {}",
                m.name
            );
        }
        let traced_again = run(workload, 7, true);
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                metric_value(&traced, m.name),
                metric_value(&traced_again, m.name),
                "{workload}: {}",
                m.name
            );
        }

        // Another seed: another query stream.
        let other = run(workload, 8, false);
        assert_ne!(
            metric_value(&first, "vo_bytes_per_query"),
            metric_value(&other, "vo_bytes_per_query"),
            "{workload}: seeds 7 and 8 produced the same VO bytes"
        );
    }
}

fn declared_names(benchmark: &Value, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .and_then(Value::as_array)
        .expect(section)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_layers_a_workload_bypasses_report_no_time() {
    let traced = run("mono_imageproof", 7, true);
    for name in [
        "core.shard.merge_us",
        "core.rpc.query_us",
        "core.shard.verify_us",
    ] {
        assert_eq!(metric_value(&traced, name), 0.0, "{name}");
    }
    let sharded = run("sharded_rpc_s2", 7, true);
    for name in [
        "core.shard.merge_us",
        "core.rpc.query_us",
        "core.shard.verify_us",
    ] {
        assert!(metric_value(&sharded, name) > 0.0, "{name}");
    }
    assert_eq!(metric_value(&sharded, "core.rpc.failovers"), 0.0);
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("ledger runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
