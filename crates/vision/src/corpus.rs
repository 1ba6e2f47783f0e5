//! Synthetic image corpus generation under a latent visual-word model.

use crate::descriptor::{DescriptorKind, ImageId};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for corpus generation. All randomness flows from `seed`, so
/// a config fully determines the corpus.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Descriptor family (fixes dimensionality).
    pub kind: DescriptorKind,
    /// Number of database images.
    pub n_images: usize,
    /// Mean number of local features per image (actual counts vary ±25%).
    pub features_per_image: usize,
    /// Number of latent visual words the generator draws from. Larger values
    /// yield sparser BoVW vectors for a fixed codebook size.
    pub n_latent_words: usize,
    /// Number of latent words an individual image touches (its "topics").
    pub words_per_image: usize,
    /// Zipf exponent for word popularity (≈1.0 matches natural corpora).
    pub zipf_exponent: f64,
    /// Standard deviation of the Gaussian perturbation applied to each
    /// descriptor around its word center (descriptor space is `[0, 1]^d`).
    pub noise_sigma: f32,
    /// Byte length of the synthetic raw image payload (what gets signed).
    pub image_bytes: usize,
    /// Master seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// A small, fast corpus used throughout unit tests and examples.
    pub fn small(kind: DescriptorKind) -> Self {
        CorpusConfig {
            kind,
            n_images: 200,
            features_per_image: 40,
            n_latent_words: 500,
            words_per_image: 12,
            zipf_exponent: 1.0,
            noise_sigma: 0.02,
            image_bytes: 256,
            seed: 0x1_0a6e,
        }
    }
}

/// One synthetic database image: an opaque byte payload (stands in for the
/// JPEG the owner signs) plus its extracted local features.
#[derive(Clone, Debug)]
pub struct SyntheticImage {
    pub id: ImageId,
    /// Raw image payload; unique per image so signatures are distinct.
    pub data: Vec<u8>,
    /// Extracted descriptors, each of `kind.dim()` components.
    pub features: Vec<Vec<f32>>,
    /// Ground-truth latent word of each feature (test oracle only; a real
    /// extractor would not know this).
    pub latent_words: Vec<usize>,
}

/// A generated corpus: the latent model plus every image.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub config: CorpusConfig,
    /// Latent word centers, `n_latent_words` rows of `kind.dim()` columns.
    pub word_centers: Vec<Vec<f32>>,
    pub images: Vec<SyntheticImage>,
}

/// Samples a standard normal via Box–Muller (avoids needing `rand_distr`).
fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl Corpus {
    /// Generates a corpus from `config`.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        assert!(config.n_images > 0, "corpus needs images");
        assert!(config.n_latent_words > 0, "corpus needs latent words");
        assert!(
            config.words_per_image > 0 && config.words_per_image <= config.n_latent_words,
            "words_per_image must be in 1..=n_latent_words"
        );
        let dim = config.kind.dim();
        let mut rng = StdRng::seed_from_u64(config.seed);

        let word_centers: Vec<Vec<f32>> = (0..config.n_latent_words)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
            .collect();

        let zipf = Zipf::new(config.n_latent_words, config.zipf_exponent);
        let images = (0..config.n_images)
            .map(|i| Self::generate_image(i as ImageId, config, &word_centers, &zipf, &mut rng))
            .collect();

        Corpus {
            config: config.clone(),
            word_centers,
            images,
        }
    }

    fn generate_image(
        id: ImageId,
        config: &CorpusConfig,
        word_centers: &[Vec<f32>],
        zipf: &Zipf,
        rng: &mut StdRng,
    ) -> SyntheticImage {
        // Topic set: distinct Zipf-popular words this image is "about".
        let mut topics = Vec::with_capacity(config.words_per_image);
        while topics.len() < config.words_per_image {
            let w = zipf.sample(rng);
            if !topics.contains(&w) {
                topics.push(w);
            }
        }

        let spread = config.features_per_image / 4;
        let n_features = if spread == 0 {
            config.features_per_image
        } else {
            rng.gen_range(config.features_per_image - spread..=config.features_per_image + spread)
        };

        let mut features = Vec::with_capacity(n_features);
        let mut latent_words = Vec::with_capacity(n_features);
        for _ in 0..n_features {
            let word = topics[rng.gen_range(0..topics.len())];
            features.push(perturb(&word_centers[word], config.noise_sigma, rng));
            latent_words.push(word);
        }

        let data: Vec<u8> = (0..config.image_bytes).map(|_| rng.gen()).collect();
        SyntheticImage {
            id,
            data,
            features,
            latent_words,
        }
    }

    /// Derives a query: fresh descriptors re-sampled around the latent words
    /// of database image `source`, emulating "photograph the same scene
    /// again". `n_features` controls query size (the paper sweeps 100–500).
    pub fn query_from_image(&self, source: ImageId, n_features: usize, seed: u64) -> Vec<Vec<f32>> {
        let img = &self.images[source as usize];
        assert!(!img.latent_words.is_empty(), "source image has no features");
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (0..n_features)
            .map(|_| {
                let word = img.latent_words[rng.gen_range(0..img.latent_words.len())];
                perturb(&self.word_centers[word], self.config.noise_sigma, &mut rng)
            })
            .collect()
    }

    /// All descriptors of all images, flattened — the training set for
    /// codebook construction.
    pub fn all_features(&self) -> impl Iterator<Item = &[f32]> {
        self.images
            .iter()
            .flat_map(|img| img.features.iter().map(Vec::as_slice))
    }

    /// Total number of descriptors in the corpus.
    pub fn total_features(&self) -> usize {
        self.images.iter().map(|i| i.features.len()).sum()
    }
}

fn perturb(center: &[f32], sigma: f32, rng: &mut StdRng) -> Vec<f32> {
    center
        .iter()
        .map(|&c| (c + sigma * sample_gaussian(rng)).clamp(0.0, 1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig::small(DescriptorKind::Surf))
    }

    /// Euclidean distance between two descriptors.
    ///
    /// # Panics
    /// Panics when the slices have different lengths — mixing descriptor
    /// kinds is a programming error, not a data error.
    fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "descriptor dimensionality mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn distance_of_identical_vectors_is_zero() {
        let v = vec![0.25f32; 128];
        assert_eq!(l2_distance(&v, &v), 0.0);
    }

    #[test]
    fn distance_matches_hand_computation() {
        assert_eq!(l2_distance(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_dims_panic() {
        let _ = l2_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.images.len(), b.images.len());
        assert_eq!(a.images[7].data, b.images[7].data);
        assert_eq!(a.images[7].features, b.images[7].features);
    }

    #[test]
    fn dimensions_match_kind() {
        let c = small();
        assert!(c
            .all_features()
            .all(|f| f.len() == DescriptorKind::Surf.dim()));
        let sift = Corpus::generate(&CorpusConfig {
            n_images: 5,
            ..CorpusConfig::small(DescriptorKind::Sift)
        });
        assert!(sift.all_features().all(|f| f.len() == 128));
    }

    #[test]
    fn image_ids_are_sequential() {
        let c = small();
        for (i, img) in c.images.iter().enumerate() {
            assert_eq!(img.id, i as ImageId);
        }
    }

    #[test]
    fn image_payloads_are_distinct() {
        let c = small();
        assert_ne!(c.images[0].data, c.images[1].data);
    }

    #[test]
    fn features_stay_in_unit_cube() {
        let c = small();
        for f in c.all_features() {
            for &v in f {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn queries_are_near_their_source_image_words() {
        let c = small();
        let q = c.query_from_image(3, 50, 99);
        assert_eq!(q.len(), 50);
        // Every query feature must be close to *some* latent word center of
        // the source image (within a generous multiple of the noise).
        let img = &c.images[3];
        let max_noise = c.config.noise_sigma * 6.0 * (c.config.kind.dim() as f32).sqrt();
        for f in &q {
            let best = img
                .latent_words
                .iter()
                .map(|&w| l2_distance(f, &c.word_centers[w]))
                .fold(f32::INFINITY, f32::min);
            assert!(best <= max_noise, "query feature strayed: {best}");
        }
    }

    #[test]
    fn zipf_skew_shows_in_word_usage() {
        let c = Corpus::generate(&CorpusConfig {
            n_images: 400,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let mut usage = vec![0u32; c.config.n_latent_words];
        for img in &c.images {
            for &w in &img.latent_words {
                usage[w] += 1;
            }
        }
        let head: u32 = usage[..10].iter().sum();
        let tail: u32 = usage[c.config.n_latent_words - 10..].iter().sum();
        assert!(head > tail * 3, "head {head} should dwarf tail {tail}");
    }

    #[test]
    fn feature_counts_vary_but_average_near_mean() {
        let c = small();
        let total = c.total_features();
        let mean = total as f64 / c.images.len() as f64;
        let target = c.config.features_per_image as f64;
        assert!((mean - target).abs() < target * 0.15, "mean {mean}");
    }
}
