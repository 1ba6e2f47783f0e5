//! Criterion micro-benchmarks for the BoVW-encoding step (paper Figs. 6–8):
//! SP search + VO generation and client verification, per scheme.
//!
//! These benches use the quick fixture scale; the `figures` binary runs the
//! full paper-shaped sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_core::Scheme;
use imageproof_mrkd::{mrkd_search, mrkd_search_baseline, verify_bovw, verify_bovw_baseline};
use imageproof_vision::DescriptorKind;

const SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBovw];

fn bovw_sweep(c: &mut Criterion) {
    let fixture = Fixture::build(FixtureConfig::quick(DescriptorKind::Surf));
    let mut group = c.benchmark_group("bovw_sp/fig6-7");
    group.sample_size(10);
    for n_features in [50usize, 100] {
        let query = &fixture.queries(1, n_features)[0];
        for scheme in SCHEMES {
            let system = fixture.system(scheme);
            let db = system.0.database();
            let thresholds: Vec<f32> = query
                .iter()
                .map(|f| db.codebook.assign_with_threshold(f).1)
                .collect();
            group.bench_with_input(
                BenchmarkId::new(scheme.label(), n_features),
                &n_features,
                |b, _| {
                    b.iter(|| {
                        if scheme.shares_nodes() {
                            let out = mrkd_search(&db.mrkd, query, &thresholds);
                            out.vo.clusters.len()
                        } else {
                            let (vo, _) = mrkd_search_baseline(&db.mrkd, query, &thresholds);
                            vo.per_query.len()
                        }
                    })
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("bovw_client/fig6-7");
    group.sample_size(10);
    let n_features = 100;
    let query = &fixture.queries(1, n_features)[0];
    for scheme in SCHEMES {
        let system = fixture.system(scheme);
        let db = system.0.database();
        let thresholds: Vec<f32> = query
            .iter()
            .map(|f| db.codebook.assign_with_threshold(f).1)
            .collect();
        if scheme.shares_nodes() {
            let out = mrkd_search(&db.mrkd, query, &thresholds);
            group.bench_function(BenchmarkId::new(scheme.label(), n_features), |b| {
                b.iter(|| verify_bovw(&out.vo, query, scheme.candidate_mode()).expect("verifies"))
            });
        } else {
            let (vo, _) = mrkd_search_baseline(&db.mrkd, query, &thresholds);
            group.bench_function(BenchmarkId::new(scheme.label(), n_features), |b| {
                b.iter(|| verify_bovw_baseline(&vo, query).expect("verifies"))
            });
        }
    }
    group.finish();
}

fn bovw_codebook(c: &mut Criterion) {
    // Fig. 8: the BoVW step across codebook sizes (ImageProof scheme).
    let mut group = c.benchmark_group("bovw_sp/fig8");
    group.sample_size(10);
    for codebook_size in [256usize, 512] {
        let fixture = Fixture::build(FixtureConfig {
            codebook_size,
            ..FixtureConfig::quick(DescriptorKind::Surf)
        });
        let query = &fixture.queries(1, 60)[0];
        let system = fixture.system(Scheme::ImageProof);
        let db = system.0.database();
        let thresholds: Vec<f32> = query
            .iter()
            .map(|f| db.codebook.assign_with_threshold(f).1)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("ImageProof", codebook_size),
            &codebook_size,
            |b, _| {
                b.iter(|| {
                    mrkd_search(&db.mrkd, query, &thresholds)
                        .stats
                        .nodes_traversed
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bovw_sweep, bovw_codebook);
criterion_main!(benches);
