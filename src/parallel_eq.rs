//! Reusable parallel-vs-serial equivalence assertions.
//!
//! A VO is a cryptographic artifact: the client re-hashes its bytes against
//! the owner's signature, so the parallel execution layer must produce
//! *bit-identical* output to the serial reference for every thread count.
//! These helpers state that contract once; the `parallel_equivalence`
//! integration suite and proptests call them across schemes, corpora, and
//! thread counts.

use crate::core::{
    Concurrency, IndexVariant, InvVoVariant, Owner, QueryResponse, Scheme, ServiceProvider,
    SpStats, SystemConfig,
};
use crate::crypto::wire::Encode;
use crate::crypto::Digest;
use crate::invindex::{FilterVo, InvVoOf, ListVoOf, RemainingVo};
use imageproof_akm::Codebook;
use imageproof_vision::Corpus;

/// Asserts the non-timing fields of two [`SpStats`] agree exactly.
///
/// Wall-clock fields (`bovw_seconds`, `inv_seconds`) legitimately differ
/// between runs; the counters and ratios are pure functions of the query
/// and must not.
pub fn assert_stats_equivalent(serial: &SpStats, parallel: &SpStats, context: &str) {
    assert_eq!(serial.popped, parallel.popped, "{context}: popped differs");
    assert_eq!(
        serial.total_postings, parallel.total_postings,
        "{context}: total_postings differs"
    );
    assert_eq!(
        serial.shared_ratio.to_bits(),
        parallel.shared_ratio.to_bits(),
        "{context}: shared_ratio differs"
    );
    assert_eq!(
        serial.hashes_computed, parallel.hashes_computed,
        "{context}: hashes_computed differs"
    );
    assert_eq!(
        serial.hashes_cached, parallel.hashes_cached,
        "{context}: hashes_cached differs"
    );
}

/// Asserts two responses are interchangeable: byte-identical wire-serialized
/// VOs and identical result rows (ids, scores, payloads).
pub fn assert_responses_equivalent(
    serial: &QueryResponse,
    parallel: &QueryResponse,
    context: &str,
) {
    assert_eq!(
        serial.vo.to_wire(),
        parallel.vo.to_wire(),
        "{context}: VO wire bytes differ"
    );
    assert_eq!(
        serial.results.len(),
        parallel.results.len(),
        "{context}: result count differs"
    );
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.id, p.id, "{context}: top-k image id differs");
        assert_eq!(
            s.score.to_bits(),
            p.score.to_bits(),
            "{context}: score differs for image {}",
            s.id
        );
        assert_eq!(
            s.data, p.data,
            "{context}: payload differs for image {}",
            s.id
        );
    }
}

/// Asserts `query_batch` over `threads` workers returns, in input order,
/// exactly what per-query serial calls return.
pub fn assert_batch_equivalent(
    sp: &ServiceProvider,
    queries: &[Vec<Vec<f32>>],
    k: usize,
    threads: usize,
) {
    let batch = sp.query_batch(queries, k, Concurrency::new(threads));
    assert_eq!(batch.len(), queries.len(), "batch length mismatch");
    for (i, ((response, stats), features)) in batch.iter().zip(queries).enumerate() {
        let (serial, serial_stats) = sp.query(features, k);
        let context = format!("batch[{i}] threads={threads}");
        assert_responses_equivalent(&serial, response, &context);
        assert_stats_equivalent(&serial_stats, stats, &context);
    }
}

/// Builds `scheme` serially and with `threads` workers from the same corpus
/// and codebook, asserting the two databases commit to identical roots,
/// signatures, list digests, and stored images. Returns both service
/// providers (serial first) so callers can continue with query checks.
pub fn assert_build_equivalent(
    owner: &Owner,
    corpus: &Corpus,
    codebook: &Codebook,
    scheme: Scheme,
    threads: usize,
) -> (ServiceProvider, ServiceProvider) {
    let (db_serial, pub_serial) =
        owner.build_system_with_codebook(corpus, codebook.clone(), scheme);
    let (db_parallel, pub_parallel) = owner.build_system_with_codebook(
        corpus,
        codebook.clone(),
        SystemConfig::new(scheme).with_threads(threads),
    );
    let context = format!("build threads={threads} scheme={scheme:?}");

    assert_eq!(
        db_serial.mrkd.combined_root_digest(),
        db_parallel.mrkd.combined_root_digest(),
        "{context}: signed root digest differs"
    );
    assert_eq!(
        pub_serial.root_signature, pub_parallel.root_signature,
        "{context}: root signature differs"
    );
    assert_eq!(
        pub_serial.public_key, pub_parallel.public_key,
        "{context}: public key differs"
    );
    assert_eq!(
        db_serial.inv.list_digests(),
        db_parallel.inv.list_digests(),
        "{context}: inverted-list digests differ"
    );
    assert_eq!(
        db_serial.images.len(),
        db_parallel.images.len(),
        "{context}: image count differs"
    );
    for (id, stored) in &db_serial.images {
        let other = &db_parallel.images[id];
        assert_eq!(
            stored.data, other.data,
            "{context}: image {id} payload differs"
        );
        assert_eq!(
            stored.signature, other.signature,
            "{context}: image {id} signature differs"
        );
    }
    assert_eq!(
        db_serial.encodings.len(),
        db_parallel.encodings.len(),
        "{context}: encoding count differs"
    );
    for ((id_s, bovw_s), (id_p, bovw_p)) in db_serial.encodings.iter().zip(&db_parallel.encodings) {
        assert_eq!(id_s, id_p, "{context}: encoding order differs");
        assert_eq!(
            bovw_s, bovw_p,
            "{context}: BoVW encoding differs for image {id_s}"
        );
    }
    (
        ServiceProvider::new(db_serial),
        ServiceProvider::new(db_parallel),
    )
}

/// Asserts the memoized hot path is invisible on the wire: every `h(Θ)` a
/// VO carries in place of the filter itself (`Exhausted.filter_digest`, the
/// Baseline's `FilterVo::DigestOnly`) is served from the list's build-time
/// memo, and must equal the digest recomputed here from the list's public
/// `filter` — with no query-time Keccak counted.
pub fn assert_memoization_invisible(sp: &ServiceProvider, queries: &[Vec<Vec<f32>>], k: usize) {
    fn carried<E>(vo: &InvVoOf<E>) -> Vec<(u32, Digest)> {
        let digest_of = |l: &ListVoOf<E>| match &l.remaining {
            RemainingVo::Exhausted { filter_digest } => Some((l.cluster, *filter_digest)),
            RemainingVo::Skipped { filter, .. } => match filter {
                FilterVo::DigestOnly(d) => Some((l.cluster, *d)),
                FilterVo::Bytes(_) => None,
            },
        };
        vo.lists.iter().filter_map(digest_of).collect()
    }
    let db = sp.database();
    for (i, features) in queries.iter().enumerate() {
        let (response, stats) = sp.query(features, k);
        let context = format!("memoization[{i}] scheme={:?}", db.scheme);
        let (carried, n_lists) = match &response.vo.inv {
            InvVoVariant::Plain(vo) => (carried(vo), vo.lists.len()),
            InvVoVariant::Grouped(vo) => (carried(vo), vo.lists.len()),
        };
        for (cluster, memo) in carried {
            let recomputed = match &db.inv {
                IndexVariant::Plain(index) => index.list(cluster).filter.digest(),
                IndexVariant::Grouped(index) => index.list(cluster).filter.digest(),
            };
            assert_eq!(
                memo, recomputed,
                "{context}: stale h(Θ) for cluster {cluster}"
            );
        }
        assert!(n_lists > 0, "{context}: query touched no list");
        assert_eq!(stats.hashes_computed, 0, "{context}: query-time Keccak");
    }
}
