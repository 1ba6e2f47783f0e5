//! The image owner: ADS generation and signing (paper §V-A).

use crate::scheme::{Scheme, SystemConfig};
use crate::shard::{manifest_root, manifest_signing_message, shard_of, ShardManifest};
use imageproof_akm::{AkmParams, Codebook, ImpactModel, SparseBovw};
use imageproof_crypto::{Digest, PublicKey, Signature, SigningKey};
use imageproof_invindex::grouped::Group;
use imageproof_invindex::{Index, Posting, SpaceUsage};
use imageproof_mrkd::MrkdTree;
use imageproof_parallel::{par_map, par_map_chunked, Concurrency};
use imageproof_vision::{Corpus, ImageId, SyntheticImage};
use std::collections::BTreeMap;

/// Everything the owner publishes to clients.
#[derive(Clone, Debug)]
pub struct PublishedParams {
    pub scheme: Scheme,
    pub public_key: PublicKey,
    /// Signature over the MRKD-tree's root digest (which transitively
    /// binds the whole inverted index).
    pub root_signature: Signature,
}

/// One outsourced image: raw payload plus the owner's signature (Eq. 15).
#[derive(Clone, Debug)]
pub struct StoredImage {
    pub data: Vec<u8>,
    pub signature: Signature,
}

/// The inverted index in the form the scheme requires.
#[derive(Clone, Debug)]
pub enum IndexVariant {
    Plain(Index<Posting>),
    Grouped(Index<Group>),
}

impl IndexVariant {
    /// `h_Γ` per cluster.
    pub fn list_digests(&self) -> Vec<Digest> {
        match self {
            IndexVariant::Plain(i) => i.list_digests(),
            IndexVariant::Grouped(i) => i.list_digests(),
        }
    }

    /// Per-structure byte accounting for the inverted index.
    pub fn space_usage(&self) -> SpaceUsage {
        match self {
            IndexVariant::Plain(i) => i.space_usage(),
            IndexVariant::Grouped(i) => i.space_usage(),
        }
    }
}

/// Everything outsourced to the SP.
#[derive(Clone, Debug)]
pub struct Database {
    pub scheme: Scheme,
    pub codebook: Codebook,
    /// The one committed MRKD-tree, over the codebook's tree.
    pub mrkd: MrkdTree,
    pub inv: IndexVariant,
    pub images: BTreeMap<ImageId, StoredImage>,
    /// Per-image BoVW encodings (kept for diagnostics and ablations; a real
    /// SP could drop them).
    pub encodings: Vec<(ImageId, SparseBovw)>,
}

impl Database {
    /// Per-structure byte accounting for the whole outsourced ADS: the
    /// inverted index's own breakdown plus the MRKD-tree's authenticated
    /// digest levels (32 bytes each).
    pub fn space_usage(&self) -> SpaceUsage {
        let mut usage = self.inv.space_usage();
        usage.digest_bytes += self.mrkd.n_digests() * 32;
        usage
    }
}

/// One sharded deployment: the per-shard databases (outsourced to the SP)
/// plus the signed manifest and published parameters (given to clients).
#[derive(Clone, Debug)]
pub struct ShardedSystem {
    /// `shards[i]` holds exactly the images with `shard_of(id, S) == i`.
    pub shards: Vec<Database>,
    pub manifest: ShardManifest,
    pub published: PublishedParams,
}

/// The message an image signature covers: `h(I | h(img_I))` (Eq. 15).
pub fn image_signing_message(id: ImageId, data: &[u8]) -> [u8; 32] {
    Digest::builder()
        .u64(id)
        .digest(&Digest::of(data))
        .finish()
        .0
}

/// The message the root signature covers (domain-separated from image
/// signatures).
// audit:allow(panic) slice bounds are the constants 8 and 40 into a fixed [u8; 40]
pub fn root_signing_message(root: &Digest) -> [u8; 40] {
    let mut msg = [0u8; 40];
    msg[..8].copy_from_slice(b"IPROOF.1");
    msg[8..].copy_from_slice(&root.0);
    msg
}

/// Step 2 of every build: BoVW-encodes each image with the protocol's
/// assignment rule. Images encode independently; merged in image order.
fn encode_corpus(
    corpus: &Corpus,
    codebook: &Codebook,
    concurrency: Concurrency,
) -> Vec<(ImageId, SparseBovw)> {
    par_map(concurrency, &corpus.images, |_, img| {
        let features = img.features.iter().map(Vec::as_slice);
        (img.id, SparseBovw::encode(codebook, features))
    })
}

/// The image owner.
pub struct Owner {
    signing_key: SigningKey,
}

impl Owner {
    /// Creates an owner from a key seed.
    pub fn new(seed: &[u8; 32]) -> Owner {
        Owner {
            signing_key: SigningKey::from_seed(seed),
        }
    }

    /// The owner's public key.
    pub fn public_key(&self) -> PublicKey {
        self.signing_key.public_key()
    }

    /// Crate-internal access for the update module.
    pub(crate) fn signing_key(&self) -> &SigningKey {
        &self.signing_key
    }

    /// Full system setup (§V-A): trains the codebook, encodes the corpus,
    /// builds the inverted index and the MRKD-tree for the configured scheme,
    /// and signs the root digest and every image. `config` is a [`Scheme`]
    /// (serial build) or a full [`SystemConfig`]: with
    /// `concurrency.threads > 1` the ADS construction (encoding,
    /// per-cluster list/filter/digest builds, image signing) fans out across
    /// workers. The resulting database, root
    /// digest, and signatures are bit-identical for every thread count.
    pub fn build_system(
        &self,
        corpus: &Corpus,
        akm: &AkmParams,
        config: impl Into<SystemConfig>,
    ) -> (Database, PublishedParams) {
        // 1. Codebook over all corpus descriptors.
        let codebook = Codebook::train(corpus.config.kind, corpus.all_features(), akm);
        self.build_system_with_codebook(corpus, codebook, config)
    }

    /// Setup with a pre-trained codebook (lets experiments reuse one
    /// codebook across schemes, exactly like the paper compares schemes on
    /// identical indexes).
    pub fn build_system_with_codebook(
        &self,
        corpus: &Corpus,
        codebook: Codebook,
        config: impl Into<SystemConfig>,
    ) -> (Database, PublishedParams) {
        let config = config.into();
        let encodings = encode_corpus(corpus, &codebook, config.concurrency);
        self.build_system_prepared_config(corpus, codebook, encodings, config)
    }

    /// Setup with pre-computed encodings (lets experiments amortize the
    /// encoding pass, the most expensive build step, across schemes).
    pub fn build_system_prepared_config(
        &self,
        corpus: &Corpus,
        codebook: Codebook,
        encodings: Vec<(ImageId, SparseBovw)>,
        config: impl Into<SystemConfig>,
    ) -> (Database, PublishedParams) {
        let SystemConfig {
            scheme,
            concurrency,
        } = config.into();
        let plain_encodings: Vec<SparseBovw> = encodings.iter().map(|(_, b)| b.clone()).collect();
        let model = ImpactModel::build(codebook.len(), &plain_encodings);
        let images: Vec<&SyntheticImage> = corpus.images.iter().collect();
        let db = self.build_ads(scheme, codebook, encodings, &model, &images, concurrency);
        let root_signature = self
            .signing_key
            .sign(&root_signing_message(&db.mrkd.combined_root_digest()));
        if imageproof_obs::enabled() {
            imageproof_obs::global()
                .counter(
                    "imageproof_owner_builds_total",
                    &[("scheme", scheme.slug())],
                )
                .inc();
        }
        let published = PublishedParams {
            scheme,
            public_key: self.public_key(),
            root_signature,
        };
        (db, published)
    }

    /// Steps 3–5 of the build for one ADS set — the whole corpus for a
    /// monolith, one partition for a shard: the inverted index, the
    /// MRKD-tree over its list digests, and the per-image signatures. The
    /// impact model is passed in because sharded builds must share the
    /// owner's *global* model, or per-shard scores would diverge from the
    /// monolith's.
    fn build_ads(
        &self,
        scheme: Scheme,
        codebook: Codebook,
        encodings: Vec<(ImageId, SparseBovw)>,
        model: &ImpactModel,
        images: &[&SyntheticImage],
        concurrency: Concurrency,
    ) -> Database {
        // 3. The inverted index (plain or grouped); per-cluster posting
        // lists, cuckoo filters, and digest chains build in parallel.
        let inv = if scheme.grouped_index() {
            IndexVariant::Grouped(Index::<Group>::build_with(
                codebook.len(),
                &encodings,
                model,
                concurrency,
            ))
        } else {
            IndexVariant::Plain(Index::<Posting>::build_with(
                codebook.len(),
                &encodings,
                model,
                concurrency,
            ))
        };

        // 4. The MRKD-tree over the codebook's tree.
        let mrkd = MrkdTree::build_with(
            &codebook.tree,
            &codebook.centers,
            &inv.list_digests(),
            scheme.candidate_mode(),
            concurrency,
        );

        // 5. Image signatures. Ed25519 signing is deterministic (RFC
        // 8032), so per-image signatures fan out without affecting the
        // bytes.
        let stored: BTreeMap<ImageId, StoredImage> =
            par_map_chunked(concurrency, images, 16, |_, img| {
                let signature = self
                    .signing_key
                    .sign(&image_signing_message(img.id, &img.data));
                (
                    img.id,
                    StoredImage {
                        data: img.data.clone(),
                        signature,
                    },
                )
            })
            .into_iter()
            .collect();

        Database {
            scheme,
            codebook,
            mrkd,
            inv,
            images: stored,
            encodings,
        }
    }

    /// Sharded setup: partitions the corpus with [`shard_of`], builds a
    /// full ADS set per shard — sharing one codebook and one *global*
    /// impact model, so per-shard scores are bit-identical to the monolith
    /// — and signs one manifest committing every shard root.
    pub fn build_sharded_system(
        &self,
        corpus: &Corpus,
        akm: &AkmParams,
        config: impl Into<SystemConfig>,
        shard_count: usize,
    ) -> ShardedSystem {
        let config = config.into();
        let codebook = Codebook::train(corpus.config.kind, corpus.all_features(), akm);
        let encodings = encode_corpus(corpus, &codebook, config.concurrency);
        self.build_sharded_system_prepared_config(corpus, codebook, encodings, config, shard_count)
    }

    /// Sharded setup from a pre-trained codebook and pre-computed
    /// encodings (amortizes the expensive steps across schemes and shard
    /// counts, exactly like the monolith `_prepared` path).
    pub fn build_sharded_system_prepared_config(
        &self,
        corpus: &Corpus,
        codebook: Codebook,
        encodings: Vec<(ImageId, SparseBovw)>,
        config: impl Into<SystemConfig>,
        shard_count: usize,
    ) -> ShardedSystem {
        assert!(
            shard_count > 0,
            "a sharded deployment needs at least one shard"
        );
        let SystemConfig {
            scheme,
            concurrency,
        } = config.into();
        let plain_encodings: Vec<SparseBovw> = encodings.iter().map(|(_, b)| b.clone()).collect();
        // One *global* impact model over the whole corpus: list weights
        // must not depend on the partition, or scores would not be
        // comparable across shards (and would diverge from the monolith).
        let model = ImpactModel::build(codebook.len(), &plain_encodings);
        let mut shards = Vec::with_capacity(shard_count);
        let mut roots = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let shard_encodings: Vec<(ImageId, SparseBovw)> = encodings
                .iter()
                .filter(|(id, _)| shard_of(*id, shard_count) == shard)
                .cloned()
                .collect();
            let shard_images: Vec<&SyntheticImage> = corpus
                .images
                .iter()
                .filter(|img| shard_of(img.id, shard_count) == shard)
                .collect();
            let db = self.build_ads(
                scheme,
                codebook.clone(),
                shard_encodings,
                &model,
                &shard_images,
                concurrency,
            );
            roots.push(db.mrkd.combined_root_digest());
            shards.push(db);
        }
        if imageproof_obs::enabled() {
            imageproof_obs::global()
                .counter(
                    "imageproof_owner_sharded_builds_total",
                    &[("scheme", scheme.slug())],
                )
                .inc();
        }
        let manifest = self.sign_manifest(roots);
        let published = PublishedParams {
            scheme,
            public_key: self.public_key(),
            // For a sharded deployment the manifest signature *is* the
            // root commitment; clients check sub-VO roots against the
            // manifest, never against `root_signature` directly.
            root_signature: manifest.signature,
        };
        ShardedSystem {
            shards,
            manifest,
            published,
        }
    }

    /// Signs a manifest committing the given per-shard root digests.
    pub fn sign_manifest(&self, shard_roots: Vec<Digest>) -> ShardManifest {
        let root = manifest_root(&shard_roots).expect("a manifest needs at least one shard root");
        let signature = self
            .signing_key
            .sign(&manifest_signing_message(&root, shard_roots.len() as u32));
        ShardManifest {
            shard_roots,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use imageproof_vision::{CorpusConfig, DescriptorKind};

    fn tiny() -> (Corpus, Owner) {
        let corpus = Corpus::generate(&CorpusConfig {
            n_images: 60,
            n_latent_words: 60,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        (corpus, Owner::new(&[21u8; 32]))
    }

    fn tiny_akm() -> AkmParams {
        AkmParams {
            n_clusters: 48,
            n_trees: 3,
            max_leaf_size: 2,
            max_checks: 8,
            iterations: 1,
            seed: 5,
        }
    }

    #[test]
    fn database_covers_every_image_with_a_valid_signature() {
        let (corpus, owner) = tiny();
        let (db, published) = owner.build_system(&corpus, &tiny_akm(), Scheme::ImageProof);
        assert_eq!(db.images.len(), corpus.images.len());
        for img in &corpus.images {
            let stored = &db.images[&img.id];
            assert_eq!(stored.data, img.data);
            let msg = image_signing_message(img.id, &stored.data);
            assert!(published.public_key.verify(&msg, &stored.signature));
        }
    }

    #[test]
    fn root_signature_covers_the_mrkd_root() {
        let (corpus, owner) = tiny();
        let (db, published) = owner.build_system(&corpus, &tiny_akm(), Scheme::ImageProof);
        let msg = root_signing_message(&db.mrkd.combined_root_digest());
        assert!(published.public_key.verify(&msg, &published.root_signature));
        // Domain separation: the root message never verifies as an image
        // signature and vice versa.
        assert!(!published
            .public_key
            .verify(&msg[..32], &published.root_signature));
    }

    #[test]
    fn index_digests_are_embedded_in_the_mrkd_tree() {
        let (corpus, owner) = tiny();
        for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
            let (db, _) = owner.build_system(&corpus, &tiny_akm(), scheme);
            let digests = db.inv.list_digests();
            for (c, d) in digests.iter().enumerate() {
                assert_eq!(db.mrkd.inv_digest(c as u32), *d, "{scheme:?} cluster {c}");
            }
        }
    }

    #[test]
    fn schemes_produce_distinct_root_digests() {
        // Different ADS layouts commit differently; a VO for one scheme can
        // never be replayed against another scheme's signature.
        let (corpus, owner) = tiny();
        let mut roots = std::collections::BTreeSet::new();
        for scheme in [
            Scheme::ImageProof,
            Scheme::OptimizedBovw,
            Scheme::OptimizedBoth,
        ] {
            let (db, _) = owner.build_system(&corpus, &tiny_akm(), scheme);
            assert!(roots.insert(db.mrkd.combined_root_digest()), "{scheme:?}");
        }
    }

    #[test]
    fn encodings_are_nonempty_and_cover_all_images() {
        let (corpus, owner) = tiny();
        let (db, _) = owner.build_system(&corpus, &tiny_akm(), Scheme::ImageProof);
        assert_eq!(db.encodings.len(), corpus.images.len());
        for (_, bovw) in &db.encodings {
            assert!(!bovw.is_empty());
        }
    }
}
