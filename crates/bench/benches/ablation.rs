//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * AKM training's forest size and leaf-visit budget (`n_t = 8` and
//!   `max_checks = 32` in the paper);
//! * the pop/check batching policy of `InvSearch` (the paper batches
//!   condition checks; we measure fixed vs adaptive batches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_core::{IndexVariant, Scheme};
use imageproof_invindex::{inv_search_with_tuning, BoundsMode, SearchTuning};
use imageproof_vision::DescriptorKind;

/// AKM training cost over the two forest knobs. Only the Lloyd step reads
/// them: assignment is one exact search on the codebook's tree whatever
/// they are.
fn akm_training_ablation(c: &mut Criterion) {
    let fixture = Fixture::build(FixtureConfig::quick(DescriptorKind::Surf));
    let features: Vec<&[f32]> = fixture.corpus.all_features().collect();
    let mut group = c.benchmark_group("ablation/akm_train");
    group.sample_size(10);
    for n_trees in [1usize, 8] {
        for max_checks in [8usize, 32] {
            let params = AkmParams {
                n_trees,
                max_checks,
                ..fixture.config.akm_params()
            };
            let id = BenchmarkId::new(format!("trees_{n_trees}"), max_checks);
            group.bench_function(id, |b| {
                b.iter(|| Codebook::train(fixture.config.kind, features.iter().copied(), &params))
            });
        }
    }
    group.finish();
}

/// Batching policy of the termination-condition checks.
fn batching_ablation(c: &mut Criterion) {
    let fixture = Fixture::build(FixtureConfig::quick(DescriptorKind::Surf));
    let system = fixture.system(Scheme::ImageProof);
    let db = system.0.database();
    let IndexVariant::Plain(index) = &db.inv else {
        unreachable!("ImageProof hosts a plain index");
    };
    let query = &fixture.queries(1, 60)[0];
    let bovw = SparseBovw::from_counts(query.iter().map(|f| (db.codebook.assign(f), 1)));

    let mut group = c.benchmark_group("ablation/inv_batching");
    group.sample_size(10);
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
    for (name, tuning) in policies {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                inv_search_with_tuning(index, &bovw, 5, BoundsMode::CuckooFiltered, tuning)
                    .stats
                    .popped
            })
        });
    }
    group.finish();
}

criterion_group!(benches, akm_training_ablation, batching_ablation);
criterion_main!(benches);
