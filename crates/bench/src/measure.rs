//! Per-step and end-to-end measurements, averaged over a query workload.

use crate::fixture::Fixture;
use imageproof_akm::SparseBovw;
use imageproof_core::{IndexVariant, Scheme};
use imageproof_crypto::wire::Encode;
use imageproof_crypto::Digest;
use imageproof_invindex::grouped::{grouped_search, verify_grouped_topk};
use imageproof_invindex::{
    inv_search, verify_topk, Entry, Index, InvVerifyError, InvVoOf, SearchResult, VerifiedTopk,
};
use imageproof_mrkd::{mrkd_search, mrkd_search_baseline, verify_bovw, verify_bovw_baseline};
use imageproof_obs::Stopwatch;
use std::collections::BTreeMap;

/// BoVW-step metrics (Figs. 6–8).
#[derive(Clone, Copy, Debug, Default)]
pub struct BovwMeasurement {
    pub sp_seconds: f64,
    pub client_seconds: f64,
    pub vo_bytes: f64,
    pub shared_ratio: f64,
}

/// Inverted-index-step metrics (Figs. 9–11).
#[derive(Clone, Copy, Debug, Default)]
pub struct InvMeasurement {
    pub sp_seconds: f64,
    pub client_seconds: f64,
    pub popped_ratio: f64,
    pub vo_bytes: f64,
}

/// End-to-end metrics (Figs. 12–14).
#[derive(Clone, Copy, Debug, Default)]
pub struct OverallMeasurement {
    pub sp_seconds: f64,
    pub client_seconds: f64,
    pub vo_bytes: f64,
}

/// Measures only the BoVW encoding step of `scheme` over `queries`.
///
/// SP time covers threshold computation (AKM search) plus `MRKDSearch` VO
/// generation; client time covers full BoVW verification.
pub fn measure_bovw_step(
    fixture: &Fixture,
    scheme: Scheme,
    queries: &[Vec<Vec<f32>>],
) -> BovwMeasurement {
    let system = fixture.system(scheme);
    let (sp, _) = &*system;
    let db = sp.database();
    let mut out = BovwMeasurement::default();
    for features in queries {
        let t0 = Stopwatch::start();
        let thresholds: Vec<f32> = features
            .iter()
            .map(|f| db.codebook.assign_with_threshold(f).1)
            .collect();
        if scheme.shares_nodes() {
            let search = mrkd_search(&db.mrkd, features, &thresholds);
            out.sp_seconds += t0.elapsed_seconds();
            out.vo_bytes += search.vo.wire_size() as f64;
            out.shared_ratio += search.stats.shared_ratio();

            let t1 = Stopwatch::start();
            verify_bovw(&search.vo, features, scheme.candidate_mode())
                .expect("honest BoVW VO verifies");
            out.client_seconds += t1.elapsed_seconds();
        } else {
            let (vo, stats) = mrkd_search_baseline(&db.mrkd, features, &thresholds);
            out.sp_seconds += t0.elapsed_seconds();
            out.vo_bytes += vo.wire_size() as f64;
            out.shared_ratio += stats.shared_ratio();

            let t1 = Stopwatch::start();
            verify_bovw_baseline(&vo, features).expect("honest baseline BoVW VO verifies");
            out.client_seconds += t1.elapsed_seconds();
        }
    }
    let n = queries.len().max(1) as f64;
    BovwMeasurement {
        sp_seconds: out.sp_seconds / n,
        client_seconds: out.client_seconds / n,
        vo_bytes: out.vo_bytes / n,
        shared_ratio: out.shared_ratio / n,
    }
}

/// Times one authenticated search and the verification of its VO into
/// `out`.
fn time_inv_step<E: Entry>(
    out: &mut InvMeasurement,
    index: &Index<E>,
    search: impl FnOnce() -> SearchResult<E>,
    verify: impl FnOnce(
        &InvVoOf<E>,
        &BTreeMap<u32, Digest>,
        &[u64],
    ) -> Result<VerifiedTopk, InvVerifyError>,
) {
    let digests: BTreeMap<u32, Digest> = index
        .lists()
        .iter()
        .map(|l| (l.cluster, l.digest))
        .collect();
    let t0 = Stopwatch::start();
    let search = search();
    out.sp_seconds += t0.elapsed_seconds();
    out.popped_ratio += search.stats.popped_ratio();
    out.vo_bytes += search.vo.wire_size() as f64;
    let claimed: Vec<u64> = search.topk.iter().map(|&(i, _)| i).collect();
    let t1 = Stopwatch::start();
    verify(&search.vo, &digests, &claimed).expect("honest inverted VO verifies");
    out.client_seconds += t1.elapsed_seconds();
}

/// Measures only the inverted-index step of `scheme` over `queries`.
pub fn measure_inv_step(
    fixture: &Fixture,
    scheme: Scheme,
    queries: &[Vec<Vec<f32>>],
    k: usize,
) -> InvMeasurement {
    let system = fixture.system(scheme);
    let (sp, _) = &*system;
    let db = sp.database();
    let mut out = InvMeasurement::default();
    for features in queries {
        // The BoVW vector is an input to this step; encode it outside the
        // timed region.
        let bovw = SparseBovw::from_counts(features.iter().map(|f| (db.codebook.assign(f), 1)));
        let mode = scheme.bounds_mode();
        match &db.inv {
            IndexVariant::Plain(index) => time_inv_step(
                &mut out,
                index,
                || inv_search(index, &bovw, k, mode),
                |vo, digests, claimed| verify_topk(vo, &bovw, digests, claimed, k, mode),
            ),
            IndexVariant::Grouped(index) => time_inv_step(
                &mut out,
                index,
                || grouped_search(index, &bovw, k),
                |vo, digests, claimed| verify_grouped_topk(vo, &bovw, digests, claimed, k),
            ),
        }
    }
    let n = queries.len().max(1) as f64;
    InvMeasurement {
        sp_seconds: out.sp_seconds / n,
        client_seconds: out.client_seconds / n,
        popped_ratio: out.popped_ratio / n,
        vo_bytes: out.vo_bytes / n,
    }
}

/// Measures the complete authenticated query path of `scheme`.
pub fn measure_overall(
    fixture: &Fixture,
    scheme: Scheme,
    queries: &[Vec<Vec<f32>>],
    k: usize,
) -> OverallMeasurement {
    let system = fixture.system(scheme);
    let (sp, client) = &*system;
    let mut out = OverallMeasurement::default();
    for features in queries {
        let t0 = Stopwatch::start();
        let (response, _) = sp.query(features, k);
        out.sp_seconds += t0.elapsed_seconds();
        out.vo_bytes += response.vo.wire_size() as f64;
        let t1 = Stopwatch::start();
        client
            .verify(features, k, &response)
            .expect("honest response verifies");
        out.client_seconds += t1.elapsed_seconds();
    }
    let n = queries.len().max(1) as f64;
    OverallMeasurement {
        sp_seconds: out.sp_seconds / n,
        client_seconds: out.client_seconds / n,
        vo_bytes: out.vo_bytes / n,
    }
}
