//! `ledger --repeat N`: the same workload and seed N times in fresh child
//! processes, end-to-end and traced, compared metric by metric. The tool
//! for the repeatability check, and for sizing run-to-run spread before
//! any later claim of a gain.

use crate::cli::Args;
use crate::json::{self, Value};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use std::process::{Command, Stdio};

/// One child run's metrics by name, or why it produced none.
fn child_run(args: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot run a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("a child printed no result")?;
    let result = json::parse(line).map_err(|e| format!("a child's result does not parse: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("a child run was not correct: {line}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("a child's result has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{name} has no value"))
        })
        .collect()
}

/// Prints one metric's values over the runs and whether they agree:
/// exactly for `exact` metrics, else (max - min) / median within `bound`.
fn compare(name: &str, unit: &str, values: &[f64], exact: bool, bound: Option<f64>) -> bool {
    let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let range = match stats::mid_median(values) {
        Some(m) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    };
    let (rule, agree) = match (exact, bound) {
        (true, _) => ("exact".to_string(), lo == hi),
        (false, Some(bound)) => (format!("within {:.0}%", bound * 100.0), range <= bound),
        (false, None) => ("no bound".to_string(), true),
    };
    println!(
        "{name:<32} {unit:<6} [{}] range {:.2}% iqr {:.2}% mad {:.4} {rule}: {}",
        listed.join(", "),
        range * 100.0,
        stats::spread(values).unwrap_or(0.0) * 100.0,
        stats::mad(values).unwrap_or(0.0),
        if agree { "agree" } else { "out-of-bound" }
    );
    agree
}

/// Runs the workload `runs` times each way and prints the comparison.
/// `Ok(true)` when every bounded metric agreed.
pub fn repeat(args: &Args, runs: usize) -> Result<bool, String> {
    let mut all_agree = true;
    for trace in [false, true] {
        let results: Vec<Vec<(String, f64)>> = (0..runs)
            .map(|_| child_run(args, trace))
            .collect::<Result<_, _>>()?;
        let values_of = |name: &str| -> Result<Vec<f64>, String> {
            results
                .iter()
                .map(|run| {
                    let found = run.iter().find(|(n, _)| n == name);
                    found
                        .map(|&(_, v)| v)
                        .ok_or_else(|| format!("a run did not print {name}"))
                })
                .collect()
        };
        println!(
            "== {} seed {} {}: {runs} runs ==",
            args.workload.name(),
            args.seed,
            if trace { "traced" } else { "end-to-end" }
        );
        if trace {
            for m in &PER_LAYER {
                all_agree &= compare(m.name, m.unit, &values_of(m.name)?, m.exact, None);
            }
        } else {
            for m in &END_TO_END {
                all_agree &= compare(m.name, m.unit, &values_of(m.name)?, m.exact, Some(m.bound));
            }
        }
    }
    println!(
        "{}",
        if all_agree {
            "all metrics agree"
        } else {
            "DISAGREEMENT"
        }
    );
    Ok(all_agree)
}
