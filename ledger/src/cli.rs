//! Command line of the `ledger` binary.

use crate::fixture::Scale;
use crate::repeat;
use crate::run::{self, RunConfig};
use crate::spec::{self, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
      one run in this process; the last line of stdout is the result
      (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
  ledger --workload <name> --seed <u64> [--seconds <n>] [--smoke] --repeat <N>
      N end-to-end and N traced runs in fresh child processes, compared
      against the bounds of BENCHMARK.json
  ledger --print-benchmark-json
      BENCHMARK.json as the metric tables in src/spec.rs define it
workloads: mono_imageproof mono_optboth sharded_rpc_s2 owner_update";

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: Option<usize>,
}

impl Args {
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            workload: self.workload,
            seed: self.seed,
            seconds: self.seconds,
            scale: if self.smoke {
                Scale::smoke()
            } else {
                Scale::full()
            },
        }
    }
}

/// Parses the arguments after the program name. `Ok(None)` asks for
/// `BENCHMARK.json` to be printed.
pub fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut repeat = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--print-benchmark-json" => return Ok(None),
            "--workload" => {
                let name = value(&mut i, flag)?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let text = value(&mut i, flag)?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("--seed '{text}' is not a u64"))?,
                );
            }
            "--seconds" => {
                let text = value(&mut i, flag)?;
                let parsed = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds =
                    Some(parsed.ok_or_else(|| format!("--seconds '{text}' is not a duration"))?);
            }
            "--repeat" => {
                let text = value(&mut i, flag)?;
                let parsed = text.parse::<usize>().ok().filter(|n| *n >= 2);
                repeat =
                    Some(parsed.ok_or_else(|| format!("--repeat '{text}' must be at least 2"))?);
            }
            "--smoke" => smoke = true,
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke {
            0.0
        } else {
            f64::from(spec::RUN_SECONDS)
        }),
        trace,
        smoke,
        repeat,
    }))
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(reason) => {
            eprintln!("ledger: {reason}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return match repeat::repeat(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(reason) => {
                eprintln!("ledger: {reason}");
                ExitCode::from(1)
            }
        };
    }
    let config = args.run_config();
    let outcome = if args.trace {
        run::traced(&config)
    } else {
        run::end_to_end(&config)
    };
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "workload {} seed {} nproc {} attempted {} failed {}",
                config.workload.name(),
                config.seed,
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                outcome.attempted,
                outcome.failed
            );
            eprint!("{}", outcome.table());
            println!("{}", outcome.json_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(reason) => {
            eprintln!("ledger: {reason}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn reads_the_drivers_command_line() {
        let args = parse(&words(
            "--workload owner_update --seed 7 --seconds 3 --trace 1",
        ))
        .expect("parses")
        .expect("a run");
        assert_eq!(args.workload, Workload::OwnerUpdate);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        let args = parse(&words("--trace 0 --workload mono_optboth --seed 1"))
            .expect("parses")
            .expect("a run");
        assert!(!args.trace && !args.smoke && args.repeat.is_none());
        assert_eq!(args.seconds, f64::from(spec::RUN_SECONDS));
    }

    #[test]
    fn bare_trace_is_trace_on() {
        let args = parse(&words(
            "--workload mono_imageproof --seed 1 --trace --smoke",
        ))
        .expect("parses")
        .expect("a run");
        assert!(args.trace && args.smoke);
    }

    #[test]
    fn refuses_what_it_cannot_run() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload mono_optboth",
            "--workload mono_optboth --seed x",
            "--workload mono_optboth --seed 1 --seconds -1",
            "--workload mono_optboth --seed 1 --repeat 1",
            "--workload mono_optboth --seed 1 --bogus",
            "--workload",
        ] {
            assert!(parse(&words(bad)).is_err(), "{bad:?}");
        }
    }
}
