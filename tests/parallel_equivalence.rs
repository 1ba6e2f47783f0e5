//! Parallel-vs-serial equivalence: for every scheme variant and thread
//! count, the deterministic parallel execution layer must produce
//! byte-identical wire-serialized VOs, identical top-k, identical
//! digests/signatures, and identical `SpStats` counters.
//!
//! The deterministic matrix covers all 4 schemes × threads ∈ {1, 2, 4, 8}
//! on a fixed corpus; the proptests re-check the contract on random
//! corpora, schemes, and thread counts.

use imageproof_suite::akm::{AkmParams, Codebook};
use imageproof_suite::core::{Client, Owner, Scheme, SystemConfig};
use imageproof_suite::parallel_eq::{
    assert_batch_equivalent, assert_build_equivalent, assert_memoization_invisible,
    assert_responses_equivalent, assert_stats_equivalent,
};
use imageproof_suite::vision::{Corpus, CorpusConfig, DescriptorKind};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn corpus(n_images: usize, n_latent_words: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        n_images,
        n_latent_words,
        seed,
        ..CorpusConfig::small(DescriptorKind::Surf)
    })
}

fn akm(n_clusters: usize, seed: u64) -> AkmParams {
    AkmParams {
        n_clusters,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 12,
        iterations: 1,
        seed,
    }
}

fn trained_codebook(corpus: &Corpus, params: &AkmParams) -> Codebook {
    Codebook::train(corpus.config.kind, corpus.all_features(), params)
}

/// The full deterministic matrix: every scheme × every thread count, build
/// and query, one shared corpus/codebook.
#[test]
fn parallel_matches_serial_for_all_schemes_and_thread_counts() {
    let corpus = corpus(60, 80, 0xE81);
    let owner = Owner::new(&[33u8; 32]);
    let params = akm(64, 17);
    let codebook = trained_codebook(&corpus, &params);
    for scheme in Scheme::ALL {
        for threads in THREAD_COUNTS {
            let (sp_serial, sp_parallel) =
                assert_build_equivalent(&owner, &corpus, &codebook, scheme, threads);
            // The parallel-built DB answers exactly like the serial one.
            let features = corpus.query_from_image(7, 24, 0xA11CE);
            let (from_serial_db, _) = sp_serial.query(&features, 5);
            let (from_parallel_db, _) = sp_parallel.query(&features, 5);
            assert_eq!(
                from_serial_db.vo, from_parallel_db.vo,
                "{scheme:?} threads={threads}: DBs built at different thread \
                 counts answered differently"
            );
        }
    }
}

/// `query_batch` serves concurrent clients over one shared database with
/// responses bit-identical to per-query serial calls, in input order.
#[test]
fn parallel_batch_serving_matches_individual_queries() {
    let corpus = corpus(60, 80, 99);
    let owner = Owner::new(&[34u8; 32]);
    let params = akm(64, 18);
    let codebook = trained_codebook(&corpus, &params);
    for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
        let (db, _) = owner.build_system_with_codebook(&corpus, codebook.clone(), scheme);
        let sp = imageproof_suite::core::ServiceProvider::new(db);
        let queries: Vec<Vec<Vec<f32>>> = (0..6)
            .map(|i| corpus.query_from_image(i * 9 % 60, 20, 0xBA7C + i))
            .collect();
        for threads in THREAD_COUNTS {
            assert_batch_equivalent(&sp, &queries, 4, threads);
        }
    }
}

/// Determinism guard: building twice with the same seed at *different*
/// thread counts yields identical signed roots — any accidental
/// iteration-order dependence in filter or digest construction would break
/// this before it could break a client.
#[test]
fn parallel_build_is_deterministic_across_thread_counts_and_reruns() {
    let corpus = corpus(50, 70, 7);
    let owner = Owner::new(&[35u8; 32]);
    let params = akm(48, 19);
    for scheme in Scheme::ALL {
        let mut roots = Vec::new();
        let mut signatures = Vec::new();
        // Two runs per thread count: catches both cross-thread-count and
        // run-to-run nondeterminism.
        for threads in [1usize, 2, 4, 8, 4, 1] {
            let (db, published) = owner.build_system(
                &corpus,
                &params,
                SystemConfig::new(scheme).with_threads(threads),
            );
            roots.push(db.mrkd.combined_root_digest());
            signatures.push(published.root_signature);
        }
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "{scheme:?}: root digest depends on thread count"
        );
        assert!(
            signatures.windows(2).all(|w| w[0] == w[1]),
            "{scheme:?}: root signature depends on thread count"
        );
    }
}

/// A client that never heard of concurrency verifies responses from a
/// database built by the parallel owner path — thread count is invisible on
/// the wire.
#[test]
fn parallel_responses_verify_for_unmodified_clients() {
    let corpus = corpus(60, 80, 3);
    let owner = Owner::new(&[36u8; 32]);
    let params = akm(64, 20);
    let codebook = trained_codebook(&corpus, &params);
    for scheme in Scheme::ALL {
        let (db, published) = owner.build_system_with_codebook(
            &corpus,
            codebook.clone(),
            SystemConfig::new(scheme).with_threads(4),
        );
        let sp = imageproof_suite::core::ServiceProvider::new(db);
        let client = Client::new(published);
        let features = corpus.query_from_image(11, 24, 0xC0FFEE);
        let (response, _) = sp.query(&features, 5);
        let verified = client
            .verify(&features, 5, &response)
            .unwrap_or_else(|e| panic!("{scheme:?}: honest parallel SP rejected: {e}"));
        assert_eq!(verified.topk.len(), 5, "{scheme:?}");
    }
}

/// The hot-path digest memos (filter commitments, chain digests) are
/// invisible on the wire: a database with its caches cleared answers every
/// query with byte-identical VOs, top-k, signatures, and counters for every
/// scheme.
#[test]
fn memoized_hot_path_matches_cache_disabled_reference() {
    let corpus = corpus(60, 80, 0xCAC4E);
    let owner = Owner::new(&[38u8; 32]);
    let params = akm(64, 21);
    let codebook = trained_codebook(&corpus, &params);
    let queries: Vec<Vec<Vec<f32>>> = (0..3)
        .map(|i| corpus.query_from_image(i * 13 % 60, 20, 0xD1D0 + i))
        .collect();
    for scheme in Scheme::ALL {
        let (db, _) = owner.build_system_with_codebook(&corpus, codebook.clone(), scheme);
        let sp = imageproof_suite::core::ServiceProvider::new(db);
        assert_memoization_invisible(&sp, &queries, 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
    })]

    /// Random corpora, schemes, and thread counts: build + query + batch
    /// equivalence all hold.
    #[test]
    fn parallel_equivalence_holds_on_random_corpora(
        n_images in 30usize..70,
        n_latent in 40usize..90,
        n_clusters in 24usize..72,
        corpus_seed in any::<u64>(),
        akm_seed in any::<u64>(),
        scheme_idx in 0usize..4,
        threads in prop_oneof![Just(2usize), Just(4), Just(8)],
        k in 2usize..7,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let corpus = corpus(n_images, n_latent, corpus_seed);
        let owner = Owner::new(&[37u8; 32]);
        let params = akm(n_clusters, akm_seed);
        let codebook = trained_codebook(&corpus, &params);
        let (sp_serial, sp_parallel) =
            assert_build_equivalent(&owner, &corpus, &codebook, scheme, threads);
        let source = (corpus_seed % n_images as u64) as u64;
        let features = corpus.query_from_image(source, 18, akm_seed ^ 0x51);
        let (serial, serial_stats) = sp_serial.query(&features, k);
        let (parallel, parallel_stats) = sp_parallel.query(&features, k);
        let context = format!("query threads={threads} scheme={scheme:?}");
        assert_responses_equivalent(&serial, &parallel, &context);
        assert_stats_equivalent(&serial_stats, &parallel_stats, &context);
        let batch: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|i| corpus.query_from_image((source + i) % n_images as u64, 14, i))
            .collect();
        assert_batch_equivalent(&sp_serial, &batch, k, threads);
        assert_memoization_invisible(&sp_serial, &batch, k);
    }
}
