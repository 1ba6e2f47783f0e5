//! The one measurement pass behind every monolith figure: each query runs
//! through `ServiceProvider::query_profiled` and `Client::verify` once,
//! and the per-step costs are read off what those two calls already
//! report.

use imageproof_core::{Client, ClientStats, QueryVo, ServiceProvider, SpStats};
use imageproof_crypto::wire::Encode;
use imageproof_obs::QueryProfile;

/// One verified query: the SP's and the client's per-step split, the SP's
/// span profile, and the VO the client accepted.
pub struct QueryMeasurement {
    /// SP seconds per step (`bovw_seconds`, `inv_seconds`), the MRKD
    /// shared-node ratio, popped postings and digest counters.
    pub sp: SpStats,
    /// Client seconds per §V-C step: (i)–(ii) `bovw_seconds`, root
    /// signature included; (iii) `inv_seconds`; (iv) `signature_seconds`.
    pub client: ClientStats,
    /// The SP's span tree; its root is the whole query's wall time.
    pub profile: QueryProfile,
    pub vo: QueryVo,
}

impl QueryMeasurement {
    /// Wire bytes of the BoVW-step VO, variant tag included.
    pub fn bovw_vo_bytes(&self) -> usize {
        self.vo.bovw.wire_size()
    }

    /// Wire bytes of the inverted-index VO, variant tag included.
    pub fn inv_vo_bytes(&self) -> usize {
        self.vo.inv.wire_size()
    }

    /// Wire bytes of the whole VO.
    pub fn vo_bytes(&self) -> usize {
        self.vo.wire_size()
    }
}

/// Queries `sp` with each feature set at `k` and verifies every response
/// with `client`, in order. Panics if an honest response fails to verify.
pub fn measure(
    sp: &ServiceProvider,
    client: &Client,
    queries: &[Vec<Vec<f32>>],
    k: usize,
) -> Vec<QueryMeasurement> {
    queries
        .iter()
        .map(|features| {
            let (response, sp_stats, profile) = sp.query_profiled(features, k);
            let verified = client
                .verify(features, k, &response)
                .expect("honest response verifies");
            QueryMeasurement {
                sp: sp_stats,
                client: verified.stats,
                profile,
                vo: response.vo,
            }
        })
        .collect()
}

/// The mean of `metric` over `measurements` (0 when there are none).
pub fn mean(measurements: &[QueryMeasurement], metric: impl Fn(&QueryMeasurement) -> f64) -> f64 {
    measurements.iter().map(metric).sum::<f64>() / measurements.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Fixture, FixtureConfig};
    use imageproof_akm::SparseBovw;
    use imageproof_core::{IndexVariant, Scheme};
    use imageproof_invindex::grouped::grouped_search;
    use imageproof_invindex::inv_search;
    use imageproof_mrkd::{mrkd_search, mrkd_search_baseline};
    use imageproof_vision::DescriptorKind;

    /// The pass reports, per query, what calling each step's search
    /// directly produces: the step VOs' bytes (plus the one-byte variant
    /// tag the response wraps them in), the shared-node ratio and the
    /// popped ratio.
    #[test]
    fn the_pass_reports_what_the_direct_step_calls_produce() {
        let fixture = Fixture::build(FixtureConfig {
            kind: DescriptorKind::Surf,
            n_images: 40,
            features_per_image: 16,
            n_latent_words: 40,
            words_per_image: 6,
            codebook_size: 48,
            seed: 0x1_ca90,
        });
        let queries = fixture.queries(2, 12);
        let k = 3;
        for scheme in Scheme::ALL {
            let system = fixture.system(scheme);
            let (sp, client) = &*system;
            let db = sp.database();
            let measured = measure(sp, client, &queries, k);
            assert_eq!(measured.len(), queries.len());
            for (features, m) in queries.iter().zip(&measured) {
                let (assignments, thresholds): (Vec<u32>, Vec<f32>) = features
                    .iter()
                    .map(|f| db.codebook.assign_with_threshold(f))
                    .unzip();
                let (bovw_bytes, shared_ratio) = if scheme.shares_nodes() {
                    let out = mrkd_search(&db.mrkd, features, &thresholds);
                    (out.vo.wire_size(), out.stats.shared_ratio())
                } else {
                    let (vo, stats) = mrkd_search_baseline(&db.mrkd, features, &thresholds);
                    (vo.wire_size(), stats.shared_ratio())
                };
                let bovw = SparseBovw::from_counts(assignments.iter().map(|&c| (c, 1)));
                let (inv_bytes, popped_ratio) = match &db.inv {
                    IndexVariant::Plain(index) => {
                        let out = inv_search(index, &bovw, k, scheme.bounds_mode());
                        (out.vo.wire_size(), out.stats.popped_ratio())
                    }
                    IndexVariant::Grouped(index) => {
                        let out = grouped_search(index, &bovw, k);
                        (out.vo.wire_size(), out.stats.popped_ratio())
                    }
                };
                let label = scheme.label();
                assert_eq!(m.bovw_vo_bytes(), bovw_bytes + 1, "{label}: BoVW VO bytes");
                assert_eq!(
                    m.inv_vo_bytes(),
                    inv_bytes + 1,
                    "{label}: inverted VO bytes"
                );
                assert_eq!(m.sp.shared_ratio, shared_ratio, "{label}: shared ratio");
                assert_eq!(m.sp.popped_ratio(), popped_ratio, "{label}: popped ratio");
                assert!(m.vo_bytes() > m.bovw_vo_bytes() + m.inv_vo_bytes());
            }
        }
    }
}
