//! Owner-side dynamic catalogue updates — an extension beyond the paper's
//! static setting.
//!
//! The paper picks cuckoo filters partly because they "support dynamic
//! deletions" (§II-B) but never spells out the update protocol. This module
//! supplies it: the owner inserts or removes one image, incrementally
//! repairing exactly the affected state —
//!
//! 1. the affected clusters' Merkle inverted lists are rebuilt (postings,
//!    filter, chain digests) by one `Index::rebuild_lists` call: every list
//!    is shaped first, so an overflowing filter fails the update before
//!    anything is hashed, then all are sealed in one batch (eight-lane
//!    SHA3 where the CPU has AVX-512);
//! 2. the MRKD-tree's digests are refreshed along the paths to the
//!    affected leaves (`O(k log n)` hashes for `k` touched clusters);
//! 3. the root is re-signed and the new [`PublishedParams`] is
//!    returned for distribution to clients.
//!
//! **Frozen weights.** True tf-idf weights `w_c = ln(n_D/n_{D,c})` depend
//! globally on the corpus, so exact maintenance would re-hash every list on
//! every update. Like production search engines, updates freeze the
//! weights of the initial build; images mapped to clusters that were empty
//! at build time (weight 0) contribute zero similarity until the owner
//! re-indexes. This is a documented trade-off, not a soundness issue — the
//! scheme authenticates whatever ranking function the index encodes.

use crate::owner::{
    image_signing_message, root_signing_message, Database, IndexVariant, Owner, PublishedParams,
    StoredImage,
};
use imageproof_akm::bovw::SparseBovw;
use imageproof_crypto::Digest;
use imageproof_invindex::{Entry, Index, List, ListEdit};
use imageproof_vision::ImageId;
use std::collections::BTreeMap;

/// Why an update was rejected. The database is left exactly as it was:
/// every affected list is rebuilt before any is swapped in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Inserting an id that already exists.
    DuplicateImage { id: ImageId },
    /// Removing an id that does not exist.
    UnknownImage { id: ImageId },
    /// The new posting set no longer fits the committed filter geometry;
    /// the owner must rebuild the index (the geometry is a global
    /// commitment `MaxCount` depends on).
    FilterGeometryExhausted { cluster: u32 },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DuplicateImage { id } => write!(f, "image {id} already exists"),
            UpdateError::UnknownImage { id } => write!(f, "image {id} does not exist"),
            UpdateError::FilterGeometryExhausted { cluster } => write!(
                f,
                "cluster {cluster} outgrew the committed filter geometry; re-index required"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Replaces the list of every cluster in `bovw` with `edit(frequency)`
/// applied, all or nothing: each replacement is built against the committed
/// filter geometry first, and only when all of them fit are they swapped
/// in. Returns the new `h_Γ` per cluster; on error the index is exactly as
/// it was.
fn replace_lists(
    inv: &mut IndexVariant,
    bovw: &SparseBovw,
    edit: impl Fn(u32) -> ListEdit,
) -> Result<BTreeMap<u32, Digest>, UpdateError> {
    match inv {
        IndexVariant::Plain(index) => replace_in(index, bovw, edit),
        IndexVariant::Grouped(index) => replace_in(index, bovw, edit),
    }
}

fn replace_in<E: Entry>(
    index: &mut Index<E>,
    bovw: &SparseBovw,
    edit: impl Fn(u32) -> ListEdit,
) -> Result<BTreeMap<u32, Digest>, UpdateError> {
    let edits = bovw
        .iter()
        .map(|(cluster, frequency)| (cluster, edit(frequency)));
    let rebuilt = index
        .rebuild_lists(edits)
        .map_err(|(cluster, _)| UpdateError::FilterGeometryExhausted { cluster })?;
    let install = |list: List<E>| (list.cluster, index.install_list(list));
    Ok(rebuilt.into_iter().map(install).collect())
}

impl Owner {
    /// Inserts a new image into the outsourced database, returning the
    /// refreshed [`PublishedParams`] (new root signature) for clients.
    pub fn insert_image(
        &self,
        db: &mut Database,
        id: ImageId,
        data: Vec<u8>,
        features: &[Vec<f32>],
    ) -> Result<PublishedParams, UpdateError> {
        if db.images.contains_key(&id) {
            return Err(UpdateError::DuplicateImage { id });
        }
        let bovw = SparseBovw::encode(&db.codebook, features.iter().map(Vec::as_slice));
        let norm = bovw.norm();
        let digest_updates = replace_lists(&mut db.inv, &bovw, |frequency| ListEdit::Insert {
            image: id,
            frequency,
            norm,
        })?;

        db.mrkd.apply_inv_digest_updates(&digest_updates);
        let signature = self.sign_image(id, &data);
        db.images.insert(id, StoredImage { data, signature });
        db.encodings.push((id, bovw));
        Ok(self.republish(db))
    }

    /// Removes an image from the outsourced database, returning the
    /// refreshed [`PublishedParams`].
    pub fn remove_image(
        &self,
        db: &mut Database,
        id: ImageId,
    ) -> Result<PublishedParams, UpdateError> {
        if !db.images.contains_key(&id) {
            return Err(UpdateError::UnknownImage { id });
        }
        let position = db
            .encodings
            .iter()
            .position(|(i, _)| *i == id)
            .expect("stored images always have an encoding");
        let removed = &db.encodings[position].1;
        let digest_updates =
            replace_lists(&mut db.inv, removed, |_| ListEdit::Remove { image: id })?;

        db.mrkd.apply_inv_digest_updates(&digest_updates);
        db.encodings.remove(position);
        db.images.remove(&id);
        Ok(self.republish(db))
    }

    fn sign_image(&self, id: ImageId, data: &[u8]) -> imageproof_crypto::Signature {
        self.signing_key().sign(&image_signing_message(id, data))
    }

    fn republish(&self, db: &Database) -> PublishedParams {
        PublishedParams {
            scheme: db.scheme,
            public_key: self.public_key(),
            root_signature: self
                .signing_key()
                .sign(&root_signing_message(&db.mrkd.combined_root_digest())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Scheme, ServiceProvider};
    use imageproof_akm::AkmParams;
    use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

    fn setup(scheme: Scheme) -> (Corpus, Owner, Database, PublishedParams) {
        let corpus = Corpus::generate(&CorpusConfig {
            n_images: 80,
            n_latent_words: 80,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let owner = Owner::new(&[33u8; 32]);
        let akm = AkmParams {
            n_clusters: 96,
            n_trees: 3,
            max_leaf_size: 2,
            max_checks: 16,
            iterations: 1,
            seed: 7,
        };
        let (db, published) = owner.build_system(&corpus, &akm, scheme);
        (corpus, owner, db, published)
    }

    #[test]
    fn inserted_image_is_retrieved_and_verifies() {
        for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
            let (corpus, owner, mut db, _) = setup(scheme);
            // A brand-new image reusing image 5's scene (same latent words,
            // fresh noise) with a distinctive id.
            let new_id = 10_000;
            let features = corpus.query_from_image(5, 40, 777);
            let data = vec![0xEE; 128];
            let published = owner
                .insert_image(&mut db, new_id, data, &features)
                .expect("insert succeeds");

            let sp = ServiceProvider::new(db);
            let client = Client::new(published);
            let query = corpus.query_from_image(5, 40, 778);
            let (response, _) = sp.query(&query, 4);
            let verified = client.verify(&query, 4, &response).expect("verifies");
            assert!(
                verified.topk.iter().any(|&(id, _)| id == new_id),
                "{scheme:?}: inserted near-duplicate must be retrieved: {:?}",
                verified.topk
            );
        }
    }

    #[test]
    fn removed_image_disappears_and_queries_still_verify() {
        for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
            let (corpus, owner, mut db, _) = setup(scheme);
            let victim = 5u64;
            let published = owner.remove_image(&mut db, victim).expect("remove");
            let sp = ServiceProvider::new(db);
            let client = Client::new(published);
            let query = corpus.query_from_image(victim, 40, 779);
            let (response, _) = sp.query(&query, 4);
            let verified = client.verify(&query, 4, &response).expect("verifies");
            assert!(
                verified.topk.iter().all(|&(id, _)| id != victim),
                "{scheme:?}: removed image must not reappear"
            );
        }
    }

    #[test]
    fn stale_published_params_reject_updated_database() {
        let (corpus, owner, mut db, stale) = setup(Scheme::ImageProof);
        let features = corpus.query_from_image(9, 30, 780);
        owner
            .insert_image(&mut db, 20_000, vec![1, 2, 3], &features)
            .expect("insert");
        let sp = ServiceProvider::new(db);
        let stale_client = Client::new(stale);
        let query = corpus.query_from_image(9, 30, 781);
        let (response, _) = sp.query(&query, 3);
        // The stale root signature no longer matches the updated ADS.
        assert!(stale_client.verify(&query, 3, &response).is_err());
    }

    #[test]
    fn duplicate_insert_and_unknown_remove_are_rejected() {
        let (corpus, owner, mut db, _) = setup(Scheme::ImageProof);
        let features = corpus.query_from_image(0, 20, 782);
        assert!(matches!(
            owner.insert_image(&mut db, 0, vec![1], &features),
            Err(UpdateError::DuplicateImage { id: 0 })
        ));
        assert!(matches!(
            owner.remove_image(&mut db, 999_999),
            Err(UpdateError::UnknownImage { .. })
        ));
    }

    #[test]
    fn insert_then_remove_restores_the_root() {
        let (corpus, owner, mut db, _) = setup(Scheme::ImageProof);
        let before = db.mrkd.combined_root_digest();
        let features = corpus.query_from_image(3, 30, 783);
        owner
            .insert_image(&mut db, 30_000, vec![9; 64], &features)
            .expect("insert");
        assert_ne!(db.mrkd.combined_root_digest(), before);
        owner.remove_image(&mut db, 30_000).expect("remove");
        assert_eq!(
            db.mrkd.combined_root_digest(),
            before,
            "insert ∘ remove must be the identity on the ADS"
        );
    }

    /// Number of images in `cluster`'s list, whichever index variant.
    fn list_len(db: &Database, cluster: u32) -> usize {
        match &db.inv {
            IndexVariant::Plain(index) => index.list(cluster).pairs().len(),
            IndexVariant::Grouped(index) => index.list(cluster).pairs().len(),
        }
    }

    #[test]
    fn a_failed_update_leaves_the_database_untouched() {
        for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
            let (corpus, owner, mut db, _) = setup(scheme);
            // Grow the fullest list until the committed filter geometry
            // gives out. Every inserted image also maps to a smaller-id
            // cluster, whose list is therefore rebuilt *before* the one
            // that overflows — the mid-update failure of PR 11's finding.
            let full = (0..db.codebook.centers.len() as u32)
                .max_by_key(|&c| list_len(&db, c))
                .expect("clusters");
            let bystander = (0..full)
                .filter(|&c| list_len(&db, c) > 0)
                .min_by_key(|&c| list_len(&db, c))
                .expect("a non-empty list below the fullest one");
            let features = vec![
                db.codebook.centers[bystander as usize].clone(),
                db.codebook.centers[full as usize].clone(),
            ];
            let mut published = None;
            let mut next_id = 50_000u64;
            let snapshot = |db: &Database| {
                (
                    db.mrkd.combined_root_digest(),
                    db.inv.list_digests(),
                    db.images.len(),
                    db.encodings.len(),
                )
            };
            let failed = loop {
                let before = snapshot(&db);
                match owner.insert_image(&mut db, next_id, vec![7; 16], &features) {
                    Ok(p) => published = Some(p),
                    Err(e) => {
                        assert_eq!(
                            before,
                            snapshot(&db),
                            "{scheme:?}: failed insert left a trace"
                        );
                        break e;
                    }
                }
                next_id += 1;
                assert!(next_id < 51_000, "the filter geometry never gave out");
            };
            assert_eq!(
                failed,
                UpdateError::FilterGeometryExhausted { cluster: full },
                "{scheme:?}"
            );

            // The database still answers honestly under the last
            // successfully published parameters...
            let query = corpus.query_from_image(5, 40, 784);
            let sp = ServiceProvider::new(db);
            let client = Client::new(published.expect("at least one insert fit"));
            let (response, _) = sp.query(&query, 4);
            client
                .verify(&query, 4, &response)
                .unwrap_or_else(|e| panic!("{scheme:?}: honest query rejected: {e}"));

            // ...and updates still compose: insert ∘ remove is the identity.
            let mut db = sp.into_database();
            let before = db.mrkd.combined_root_digest();
            let scene = corpus.query_from_image(3, 30, 785);
            owner
                .insert_image(&mut db, 60_000, vec![9; 64], &scene)
                .expect("an ordinary insert still fits");
            assert_ne!(db.mrkd.combined_root_digest(), before);
            owner.remove_image(&mut db, 60_000).expect("remove");
            assert_eq!(db.mrkd.combined_root_digest(), before, "{scheme:?}");
        }
    }
}
