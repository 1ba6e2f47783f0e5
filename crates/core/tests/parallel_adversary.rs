//! The §V-D attack matrix over parallel-built databases.
//!
//! The in-crate adversary tests exercise every tamper case against
//! serially-built databases; this suite re-runs all of them against
//! responses from databases built at 2/4/8 workers, and against batches
//! served at those thread counts. Soundness must not depend on how many
//! threads the honest owner or SP used before the adversary struck.

use imageproof_akm::AkmParams;
use imageproof_core::{
    adversary, Client, ClientError, Concurrency, Owner, Scheme, ServiceProvider, SystemConfig,
};
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

const THREADS: [usize; 3] = [2, 4, 8];

fn setup(scheme: Scheme, threads: usize) -> (Corpus, ServiceProvider, Client) {
    let corpus = Corpus::generate(&CorpusConfig {
        n_latent_words: 100,
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    let owner = Owner::new(&[9u8; 32]);
    let akm = AkmParams {
        n_clusters: 128,
        n_trees: 4,
        max_leaf_size: 2,
        max_checks: 16,
        iterations: 2,
        seed: 11,
    };
    let (db, published) = owner.build_system(
        &corpus,
        &akm,
        SystemConfig::new(scheme).with_threads(threads),
    );
    (corpus, ServiceProvider::new(db), Client::new(published))
}

fn parallel_response(
    sp: &ServiceProvider,
    corpus: &Corpus,
    k: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, imageproof_core::QueryResponse) {
    let query = corpus.query_from_image(1, 20, seed);
    let (response, _) = sp.query(&query, k);
    (query, response)
}

/// Case 3 (fake image data): flipped payload bytes are rejected.
#[test]
fn tampered_image_data_is_rejected_under_parallel_sp() {
    for threads in THREADS {
        let (corpus, sp, client) = setup(Scheme::ImageProof, threads);
        let (query, mut response) = parallel_response(&sp, &corpus, 4, 104);
        adversary::tamper_image_data(&mut response);
        assert!(
            matches!(
                client.verify(&query, 4, &response),
                Err(ClientError::ImageSignatureInvalid { .. })
            ),
            "threads={threads}"
        );
    }
}

/// Case 3 (fake image data): a garbage signature is rejected.
#[test]
fn forged_signature_is_rejected_under_parallel_sp() {
    for threads in THREADS {
        let (corpus, sp, client) = setup(Scheme::ImageProof, threads);
        let (query, mut response) = parallel_response(&sp, &corpus, 4, 105);
        adversary::forge_image_signature(&mut response);
        assert!(
            matches!(
                client.verify(&query, 4, &response),
                Err(ClientError::ImageSignatureInvalid { .. })
            ),
            "threads={threads}"
        );
    }
}

/// Case 2 (forged top-k): swapping in a genuine-but-losing image is
/// rejected.
#[test]
fn substituted_result_is_rejected_under_parallel_sp() {
    for threads in THREADS {
        let (corpus, sp, client) = setup(Scheme::ImageProof, threads);
        let (query, mut response) = parallel_response(&sp, &corpus, 4, 106);
        let winner_ids: Vec<u64> = response.results.iter().map(|r| r.id).collect();
        let substitute = corpus
            .images
            .iter()
            .find(|img| !winner_ids.contains(&img.id))
            .expect("non-winner exists");
        let stored = sp.database().images[&substitute.id].clone();
        adversary::substitute_result(&mut response, substitute.id, stored.data, stored.signature);
        assert!(
            client.verify(&query, 4, &response).is_err(),
            "threads={threads}"
        );
    }
}

/// Case 2 (forged top-k): tampering a popped posting breaks the hash chain.
#[test]
fn tampered_posting_is_rejected_under_parallel_sp() {
    for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
        for threads in THREADS {
            let (corpus, sp, client) = setup(scheme, threads);
            let (query, mut response) = parallel_response(&sp, &corpus, 4, 107);
            assert!(adversary::tamper_posting(&mut response), "{scheme:?}");
            assert!(
                matches!(
                    client.verify(&query, 4, &response),
                    Err(ClientError::Inv(_))
                ),
                "{scheme:?} threads={threads}"
            );
        }
    }
}

/// Case 1 (forged BoVW): a tampered revealed centroid coordinate is
/// rejected.
#[test]
fn tampered_bovw_centroid_is_rejected_under_parallel_sp() {
    for scheme in [Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBovw] {
        for threads in THREADS {
            let (corpus, sp, client) = setup(scheme, threads);
            let (query, mut response) = parallel_response(&sp, &corpus, 4, 108);
            assert!(
                adversary::tamper_bovw_centroid(&mut response),
                "{scheme:?} threads={threads}"
            );
            assert!(
                client.verify(&query, 4, &response).is_err(),
                "{scheme:?} threads={threads}"
            );
        }
    }
}

/// Case 1 (forged BoVW): a tampered splitting hyperplane changes the
/// reconstructed root.
#[test]
fn tampered_bovw_split_is_rejected_under_parallel_sp() {
    for threads in THREADS {
        let (corpus, sp, client) = setup(Scheme::ImageProof, threads);
        let (query, mut response) = parallel_response(&sp, &corpus, 4, 109);
        assert!(adversary::tamper_bovw_split(&mut response));
        assert!(
            matches!(
                client.verify(&query, 4, &response),
                Err(ClientError::RootSignatureInvalid) | Err(ClientError::Bovw(_))
            ),
            "threads={threads}"
        );
    }
}

/// Every tamper case also fails against a batch-served response — the
/// batch path returns exactly the per-query responses.
#[test]
fn tampered_batch_responses_are_rejected_under_parallel_sp() {
    for threads in THREADS {
        let (corpus, sp, client) = setup(Scheme::OptimizedBoth, threads);
        let queries: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|i| corpus.query_from_image(i, 20, 110 + i))
            .collect();
        let mut batch = sp.query_batch(&queries, 4, Concurrency::new(threads));
        for (i, (response, _)) in batch.iter_mut().enumerate() {
            adversary::tamper_image_data(response);
            assert!(
                client.verify(&queries[i], 4, response).is_err(),
                "batch[{i}] threads={threads}"
            );
        }
    }
}
