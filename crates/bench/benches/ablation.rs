//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * number of AKM forest trees (the paper fixes `n_t = 8`);
//! * AKM leaf-visit budget (`max_checks`, the paper fixes 32);
//! * the pop/check batching policy of `InvSearch` (the paper batches
//!   condition checks; we measure fixed vs adaptive batches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imageproof_akm::SparseBovw;
use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_core::{IndexVariant, Scheme};
use imageproof_invindex::{inv_search_with_tuning, BoundsMode, SearchTuning};
use imageproof_vision::DescriptorKind;

/// How much the forest size costs where it still matters: the exact
/// assignment, whose approximate first pass searches all `n_t` trees (the
/// proof walks one tree whatever `n_t` is).
fn tree_count_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/akm_trees");
    group.sample_size(10);
    for n_trees in [1usize, 4, 8] {
        // Re-train with the ablated forest size (the codebook itself also
        // uses the forest, so this is a whole-system knob).
        let mut config = FixtureConfig::quick(DescriptorKind::Surf);
        config.seed ^= n_trees as u64; // decorrelate tree randomness
        let fixture = Fixture::build_with_akm_override(config, |akm| akm.n_trees = n_trees);
        let query = &fixture.queries(1, 60)[0];
        let system = fixture.system(Scheme::ImageProof);
        let db = system.0.database();
        group.bench_with_input(BenchmarkId::from_parameter(n_trees), &n_trees, |b, _| {
            b.iter(|| {
                query
                    .iter()
                    .map(|f| db.codebook.assign_with_threshold(f).0 as usize)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

/// AKM accuracy/cost: leaf-visit budget of the assignment search.
fn max_checks_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/akm_max_checks");
    group.sample_size(10);
    for max_checks in [8usize, 32, 128] {
        let config = FixtureConfig::quick(DescriptorKind::Surf);
        let fixture = Fixture::build_with_akm_override(config, |akm| akm.max_checks = max_checks);
        let query = &fixture.queries(1, 60)[0];
        let system = fixture.system(Scheme::ImageProof);
        let db = system.0.database();
        group.bench_with_input(
            BenchmarkId::from_parameter(max_checks),
            &max_checks,
            |b, _| {
                b.iter(|| {
                    query
                        .iter()
                        .map(|f| db.codebook.assign(f) as usize)
                        .sum::<usize>()
                })
            },
        );
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

criterion_group!(
    benches,
    tree_count_ablation,
    max_checks_ablation,
    batching_ablation
);
criterion_main!(benches);
