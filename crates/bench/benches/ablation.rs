//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * AKM training's forest size and leaf-visit budget (`n_t = 8` and
//!   `max_checks = 32` in the paper);
//! * the pop/check batching policy of `InvSearch` (the paper batches
//!   condition checks; we measure fixed vs adaptive batches).
//!
//! `cargo bench -p imageproof-bench --bench ablation` runs every cell
//! [`RUNS`] times on the quick fixture and prints one table per sweep with
//! the median, minimum and maximum wall time of a run.

use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_bench::table::{ms, Table};
use imageproof_core::{IndexVariant, Scheme};
use imageproof_invindex::{inv_search_with_tuning, BoundsMode, SearchTuning};
use imageproof_obs::Stopwatch;
use imageproof_vision::DescriptorKind;
use std::hint::black_box;

/// Timed runs per cell.
const RUNS: usize = 10;

/// Wall seconds of [`RUNS`] calls of `f`, ascending.
fn time_runs<T>(mut f: impl FnMut() -> T) -> Vec<f64> {
    let mut seconds: Vec<f64> = (0..RUNS)
        .map(|_| {
            let sw = Stopwatch::start();
            black_box(f());
            sw.elapsed_seconds()
        })
        .collect();
    seconds.sort_by(f64::total_cmp);
    seconds
}

/// Median, minimum and maximum of ascending `seconds`, formatted by `unit`.
fn spread(seconds: &[f64], unit: fn(f64) -> String) -> [String; 3] {
    [
        unit(seconds[seconds.len() / 2]),
        unit(seconds[0]),
        unit(seconds[seconds.len() - 1]),
    ]
}

/// Microseconds with one decimal.
fn us(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e6)
}

/// AKM training cost over the two forest knobs. Only the Lloyd step reads
/// them: assignment is one exact search on the codebook's tree whatever
/// they are.
fn akm_training_ablation(fixture: &Fixture) {
    let features: Vec<&[f32]> = fixture.corpus.all_features().collect();
    let mut t = Table::new(["n_trees", "max_checks", "median_ms", "min_ms", "max_ms"]);
    for n_trees in [1usize, 8] {
        for max_checks in [8usize, 32] {
            let params = AkmParams {
                n_trees,
                max_checks,
                ..fixture.config.akm_params()
            };
            let seconds = time_runs(|| {
                Codebook::train(fixture.config.kind, features.iter().copied(), &params)
            });
            t.row(
                [n_trees.to_string(), max_checks.to_string()]
                    .into_iter()
                    .chain(spread(&seconds, ms)),
            );
        }
    }
    println!("\n== ablation/akm_train ==\n{}", t.render());
}

/// Batching policy of the termination-condition checks.
fn batching_ablation(fixture: &Fixture) {
    let system = fixture.system(Scheme::ImageProof);
    let db = system.0.database();
    let IndexVariant::Plain(index) = &db.inv else {
        unreachable!("ImageProof hosts a plain index");
    };
    let query = &fixture.queries(1, 60)[0];
    let bovw = SparseBovw::from_counts(query.iter().map(|f| (db.codebook.assign(f), 1)));

    let policies = [
        (
            "per_posting",
            SearchTuning {
                initial_batch: 1,
                growth: 1,
                max_batch: 1,
            },
        ),
        (
            "fixed_16",
            SearchTuning {
                initial_batch: 16,
                growth: 1,
                max_batch: 16,
            },
        ),
        ("adaptive", SearchTuning::default()),
    ];
    let mut t = Table::new(["policy", "median_us", "min_us", "max_us"]);
    for (name, tuning) in policies {
        let seconds = time_runs(|| {
            inv_search_with_tuning(index, &bovw, 5, BoundsMode::CuckooFiltered, tuning)
        });
        t.row([name.to_string()].into_iter().chain(spread(&seconds, us)));
    }
    println!("\n== ablation/inv_batching ==\n{}", t.render());
}

fn main() {
    let fixture = Fixture::build(FixtureConfig::quick(DescriptorKind::Surf));
    println!("{RUNS} runs per cell");
    akm_training_ablation(&fixture);
    batching_ablation(&fixture);
}
