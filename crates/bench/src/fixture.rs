//! Experiment fixtures: corpus + codebook + per-scheme systems, built once
//! and shared across measurements.

use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_core::{Client, Owner, Scheme, ServiceProvider};
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind, ImageId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Experiment-scale knobs. The defaults mirror the paper's default setting
/// (§VII-A: 0.5M images, 1M codebook, 500 feature vectors, k = 10) scaled
/// to laptop size with the same ratios between axes.
#[derive(Clone, Debug)]
pub struct FixtureConfig {
    pub kind: DescriptorKind,
    pub n_images: usize,
    pub features_per_image: usize,
    pub n_latent_words: usize,
    pub words_per_image: usize,
    pub codebook_size: usize,
    pub seed: u64,
}

impl FixtureConfig {
    /// The default experiment scale (the "0.5M images / 1M codebook"
    /// analogue).
    pub fn default_scale(kind: DescriptorKind) -> FixtureConfig {
        FixtureConfig {
            kind,
            n_images: 2000,
            features_per_image: 120,
            n_latent_words: 1500,
            words_per_image: 16,
            codebook_size: 4000,
            seed: 0x1_ca90,
        }
    }

    /// A much smaller scale for smoke tests and the `ablation` bench.
    pub fn quick(kind: DescriptorKind) -> FixtureConfig {
        FixtureConfig {
            kind,
            n_images: 300,
            features_per_image: 50,
            n_latent_words: 250,
            words_per_image: 10,
            codebook_size: 512,
            seed: 0x1_ca90,
        }
    }

    fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            kind: self.kind,
            n_images: self.n_images,
            features_per_image: self.features_per_image,
            n_latent_words: self.n_latent_words,
            words_per_image: self.words_per_image,
            zipf_exponent: 0.8,
            noise_sigma: 0.005,
            image_bytes: 256,
            seed: self.seed,
        }
    }

    /// The AKM parameters [`Fixture::build`] trains with.
    pub fn akm_params(&self) -> AkmParams {
        AkmParams {
            n_clusters: self.codebook_size,
            n_trees: 8,       // paper §VII-A
            max_leaf_size: 2, // paper §VII-A
            max_checks: 32,   // paper §VII-A
            iterations: 2,
            seed: self.seed ^ 0xc0de,
        }
    }
}

/// A built experiment fixture. Systems are created lazily per scheme (three
/// distinct databases back the four schemes: Baseline and ImageProof share
/// one).
pub struct Fixture {
    pub config: FixtureConfig,
    pub corpus: Corpus,
    pub codebook: Codebook,
    encodings: Vec<(ImageId, SparseBovw)>,
    owner: Owner,
    systems: Mutex<BTreeMap<Scheme, Arc<(ServiceProvider, Client)>>>,
}

impl Fixture {
    /// Builds the corpus, trains the codebook, and encodes every image
    /// (the expensive owner-side passes, shared by all schemes).
    pub fn build(config: FixtureConfig) -> Fixture {
        let corpus = Corpus::generate(&config.corpus_config());
        let codebook = Codebook::train(config.kind, corpus.all_features(), &config.akm_params());
        let encodings: Vec<(ImageId, SparseBovw)> = corpus
            .images
            .iter()
            .map(|img| {
                (
                    img.id,
                    SparseBovw::encode(&codebook, img.features.iter().map(Vec::as_slice)),
                )
            })
            .collect();
        Fixture {
            config,
            corpus,
            codebook,
            encodings,
            owner: Owner::new(&[0xA5; 32]),
            systems: Mutex::new(BTreeMap::new()),
        }
    }

    /// The (SP, client) pair for one scheme, building it on first use.
    pub fn system(&self, scheme: Scheme) -> Arc<(ServiceProvider, Client)> {
        let mut systems = self.systems.lock().unwrap_or_else(PoisonError::into_inner);
        systems
            .entry(scheme)
            .or_insert_with(|| {
                let (db, published) = self.owner.build_system_prepared_config(
                    &self.corpus,
                    self.codebook.clone(),
                    self.encodings.clone(),
                    scheme,
                );
                Arc::new((ServiceProvider::new(db), Client::new(published)))
            })
            .clone()
    }

    /// Deterministic query workloads: `n_queries` feature sets of
    /// `n_features` each, derived from evenly spaced source images (the
    /// paper averages over 10 random query images).
    pub fn queries(&self, n_queries: usize, n_features: usize) -> Vec<Vec<Vec<f32>>> {
        let stride = (self.corpus.images.len() / n_queries.max(1)).max(1);
        (0..n_queries)
            .map(|i| {
                let source = ((i * stride + 7) % self.corpus.images.len()) as ImageId;
                self.corpus
                    .query_from_image(source, n_features, 0xbeef + i as u64)
            })
            .collect()
    }
}
