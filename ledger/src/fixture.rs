//! Set-up: the data set, the owner's ADS build and the shard launch, each
//! phase timed from outside, plus the seeded input stream.

use crate::spec::Workload;
use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_core::rpc::{
    CoordinatorConfig, RpcCoordinator, RunningServer, ShardEndpoint, ShardServer,
};
use imageproof_core::{
    shard_of, Concurrency, Database, IndexVariant, Owner, PublishedParams, Scheme, ServiceProvider,
    ShardManifest, SystemConfig,
};
use imageproof_obs::Stopwatch;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind, ImageId};

/// Data-set and load shape. The data-set seeds are fixed: `--seed` drives
/// only the generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub n_images: usize,
    pub features_per_image: usize,
    pub n_latent_words: usize,
    pub words_per_image: usize,
    pub codebook_size: usize,
    pub query_features: usize,
    pub k: usize,
    /// Untimed operations before the timed loop.
    pub warmup_ops: usize,
    /// The timed loop never stops before this many operations, so the
    /// tail percentile keeps ten samples beyond it; byte and count metrics
    /// are taken over exactly the first this-many operations, so they
    /// repeat for a seed however fast the machine is.
    pub min_ops: usize,
    /// Insert+remove cycles of the update probe on the read workloads.
    pub probe_cycles: usize,
    /// Whole set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Queries in the batch the thread speed-up is measured over.
    pub batch_queries: usize,
    /// The traced pass never stops before this many operations; its work
    /// counts are means over exactly the first this-many.
    pub trace_min_ops: usize,
}

impl Scale {
    /// The benchmark's scale: SURF corpus of 1000 images x 120 features,
    /// 750 latent words, codebook 2000, 100-feature queries, k = 10.
    pub fn full() -> Scale {
        Scale {
            n_images: 1000,
            features_per_image: 120,
            n_latent_words: 750,
            words_per_image: 16,
            codebook_size: 2000,
            query_features: 100,
            k: 10,
            warmup_ops: 4,
            min_ops: 100,
            probe_cycles: 100,
            setup_reps: 3,
            batch_queries: 32,
            trace_min_ops: 12,
        }
    }

    /// A few-second scale for the smoke test: same code paths, tiny data.
    pub fn smoke() -> Scale {
        Scale {
            n_images: 60,
            features_per_image: 30,
            n_latent_words: 200,
            words_per_image: 6,
            codebook_size: 64,
            query_features: 20,
            k: 5,
            warmup_ops: 1,
            min_ops: 5,
            probe_cycles: 3,
            setup_reps: 1,
            batch_queries: 4,
            trace_min_ops: 3,
        }
    }

    fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images: self.n_images,
            features_per_image: self.features_per_image,
            n_latent_words: self.n_latent_words,
            words_per_image: self.words_per_image,
            zipf_exponent: 0.8,
            noise_sigma: 0.005,
            image_bytes: 256,
            seed: 0x1_ca90,
        }
    }

    fn akm_params(&self) -> AkmParams {
        AkmParams {
            n_clusters: self.codebook_size,
            n_trees: 8,       // paper §VII-A
            max_leaf_size: 2, // paper §VII-A
            max_checks: 32,   // paper §VII-A
            iterations: 2,
            seed: 0x1_ca90 ^ 0xc0de,
        }
    }
}

impl Workload {
    pub fn scheme(self) -> Scheme {
        match self {
            Workload::MonoOptBoth => Scheme::OptimizedBoth,
            _ => Scheme::ImageProof,
        }
    }

    /// Shard count; 1 is the monolith.
    pub fn shards(self) -> usize {
        match self {
            Workload::ShardedRpcS2 => 2,
            _ => 1,
        }
    }
}

/// SplitMix64 finalizer: input `i` of a run is a pure function of
/// `(seed, i, salt)`, so the timed and traced passes see the same stream.
pub fn mix(seed: u64, index: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds each set-up phase took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub train_s: f64,
    pub encode_s: f64,
    pub build_s: f64,
    pub launch_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.corpus_s + self.train_s + self.encode_s + self.build_s + self.launch_s
    }
}

/// The owner's side after set-up: the data set and the built ADSs (one
/// per shard; a monolith is one shard with no manifest).
pub struct Built {
    pub scale: Scale,
    pub corpus: Corpus,
    pub codebook: Codebook,
    pub encodings: Vec<(ImageId, SparseBovw)>,
    pub owner: Owner,
    pub dbs: Vec<Database>,
    pub published: PublishedParams,
    pub manifest: Option<ShardManifest>,
}

/// Builds the ADSs of `scheme` over `shards` shards from prepared parts.
pub fn build_ads(
    owner: &Owner,
    corpus: &Corpus,
    codebook: &Codebook,
    encodings: &[(ImageId, SparseBovw)],
    scheme: Scheme,
    shards: usize,
    conc: Concurrency,
) -> (Vec<Database>, PublishedParams, Option<ShardManifest>) {
    let config = SystemConfig::new(scheme).with_threads(conc.threads);
    if shards == 1 {
        let (db, published) = owner.build_system_prepared_config(
            corpus,
            codebook.clone(),
            encodings.to_vec(),
            config,
        );
        (vec![db], published, None)
    } else {
        let system = owner.build_sharded_system_prepared_config(
            corpus,
            codebook.clone(),
            encodings.to_vec(),
            config,
            shards,
        );
        (system.shards, system.published, Some(system.manifest))
    }
}

/// Corpus generation, codebook training, image encoding and the ADS
/// build, serially, each timed.
pub fn build(workload: Workload, scale: Scale) -> (Built, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut sw = Stopwatch::start();
    let corpus = Corpus::generate(&scale.corpus_config());
    times.corpus_s = sw.lap();
    let codebook = Codebook::train(
        DescriptorKind::Surf,
        corpus.all_features(),
        &scale.akm_params(),
    );
    times.train_s = sw.lap();
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
    times.encode_s = sw.lap();
    let owner = Owner::new(&[0xA5; 32]);
    let (dbs, published, manifest) = build_ads(
        &owner,
        &corpus,
        &codebook,
        &encodings,
        workload.scheme(),
        workload.shards(),
        Concurrency::serial(),
    );
    times.build_s = sw.lap();
    let built = Built {
        scale,
        corpus,
        codebook,
        encodings,
        owner,
        dbs,
        published,
        manifest,
    };
    (built, times)
}

/// Shard servers on loopback and a coordinator connected to them.
pub struct Fleet {
    pub coordinator: RpcCoordinator,
    servers: Vec<RunningServer>,
}

impl Fleet {
    /// One `ShardServer` per database (each on its own OS-picked port,
    /// one connection each) and the event-loop coordinator.
    pub fn launch(dbs: Vec<Database>, manifest: &ShardManifest) -> Result<Fleet, String> {
        let shard_count = dbs.len() as u32;
        let mut servers = Vec::with_capacity(dbs.len());
        let mut endpoints = Vec::with_capacity(dbs.len());
        for (shard, db) in dbs.into_iter().enumerate() {
            let server = ShardServer::new(ServiceProvider::new(db), shard as u32, shard_count)
                .launch()
                .map_err(|e| format!("shard {shard} failed to launch: {e}"))?;
            endpoints.push(ShardEndpoint::single(server.addr()));
            servers.push(server);
        }
        // A benchmark run must measure, not time out: a loaded two-core
        // machine can stall one round-trip far past the 5 s default.
        let config = CoordinatorConfig {
            request_timeout_seconds: 120.0,
            connect_timeout_seconds: 30.0,
            hello_timeout_seconds: 30.0,
            ..CoordinatorConfig::default()
        };
        let coordinator = RpcCoordinator::connect(endpoints, manifest, config)
            .map_err(|e| format!("coordinator failed to connect: {e}"))?;
        Ok(Fleet {
            coordinator,
            servers,
        })
    }

    /// Closes the coordinator's connections, then stops and joins every
    /// server thread.
    pub fn shutdown(self) {
        drop(self.coordinator);
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Feature vectors of query `index` of the run seeded `seed`: a fresh
/// photograph of a seed-chosen image's scene.
pub fn query_input(corpus: &Corpus, scale: &Scale, seed: u64, index: u64) -> Vec<Vec<f32>> {
    let source = mix(seed, index, 1) % corpus.images.len() as u64;
    corpus.query_from_image(source, scale.query_features, mix(seed, index, 2))
}

/// One generated image to insert: a new id, a fresh photograph of the
/// scene of `source`, and a payload.
pub struct InsertInput {
    pub id: ImageId,
    pub source: ImageId,
    pub features: Vec<Vec<f32>>,
    pub data: Vec<u8>,
    /// Posting lists the image's BoVW vector touches.
    pub lists: usize,
}

/// Highest filter load an insert may leave behind. Every list shares one
/// filter geometry, sized for the longest list at 95% load, so a scene
/// that touches the most popular words can fail with
/// `FilterGeometryExhausted` -- and `Owner::insert_image` finds that out
/// only after it has already replaced the lists of the clusters before
/// the failing one, which leaves the database half-updated. A workload
/// may not contain operations that fail, so such scenes are skipped.
const MAX_FILTER_LOAD_AFTER_INSERT: f64 = 0.85;

fn has_filter_headroom(db: &Database, bovw: &SparseBovw) -> bool {
    bovw.iter().all(|(cluster, _)| {
        let filter = match &db.inv {
            IndexVariant::Plain(index) => &index.list(cluster).filter,
            IndexVariant::Grouped(index) => &index.list(cluster).filter,
        };
        let slots = imageproof_cuckoo::SLOTS_PER_BUCKET * filter.n_buckets();
        (filter.len() + 1) as f64 <= MAX_FILTER_LOAD_AFTER_INSERT * slots as f64
    })
}

/// Inserted image `index` of the run seeded `seed`: the first candidate
/// scene of its stream with filter headroom in the shard that owns the
/// id. Ids start past the corpus, so they never collide with a stored
/// image.
pub fn insert_input(built: &Built, seed: u64, index: u64) -> Result<InsertInput, String> {
    let n_images = built.corpus.images.len() as u64;
    let id = n_images + 1000 + index;
    let db = &built.dbs[shard_of(id, built.dbs.len())];
    let stream = mix(seed, index, 3);
    for candidate in 0..64 {
        let source = mix(stream, candidate, 0) % n_images;
        let features = built.corpus.query_from_image(
            source,
            built.scale.features_per_image,
            mix(stream, candidate, 1),
        );
        let bovw = SparseBovw::encode(&built.codebook, features.iter().map(Vec::as_slice));
        if has_filter_headroom(db, &bovw) {
            let data = (0..256).map(|byte| mix(stream, byte, 2) as u8).collect();
            return Ok(InsertInput {
                id,
                source,
                features,
                data,
                lists: bovw.nnz(),
            });
        }
    }
    Err(format!(
        "no insertable scene among 64 candidates for image {id}"
    ))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_scale_run_always_supports_the_tail_percentile() {
        assert!(crate::stats::supported(
            Scale::full().min_ops,
            crate::spec::TAIL_PERCENTILE
        ));
    }

    #[test]
    fn inputs_are_a_pure_function_of_seed_and_index() {
        assert_eq!(mix(7, 3, 1), mix(7, 3, 1));
        assert_ne!(mix(7, 3, 1), mix(8, 3, 1));
        assert_ne!(mix(7, 3, 1), mix(7, 4, 1));
        assert_ne!(mix(7, 3, 1), mix(7, 3, 2));
    }
}
