//! Shard-vs-monolith differential harness.
//!
//! The sharded deployment's whole claim is *exact* equivalence: because
//! every shard shares one codebook and one global impact model, and an
//! image's postings live only in its own shard, per-shard scores are
//! bit-identical to the monolith's and the cross-shard merge under
//! `(score desc, id asc)` must reproduce the monolith top-k exactly —
//! ids, scores, and tie resolution included. These tests prove that for
//! every scheme and shard count, including ties straddling the k-th
//! position and the degenerate single-shard deployment (whose sub-VO must
//! be byte-identical to the monolith VO).

use std::sync::OnceLock;

use imageproof_akm::{AkmParams, Codebook, SparseBovw};
use imageproof_core::{
    shard_of, Client, Concurrency, Owner, Scheme, ServiceProvider, ShardedSp, SystemConfig,
};
use imageproof_crypto::wire::Encode;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind, ImageId};
use proptest::prelude::*;

const OWNER_SEED: [u8; 32] = [21u8; 32];

fn akm() -> AkmParams {
    AkmParams {
        n_clusters: 48,
        n_trees: 3,
        max_leaf_size: 2,
        max_checks: 16,
        iterations: 2,
        seed: 7,
    }
}

/// Corpus + codebook + encodings, trained once and reused across schemes
/// and shard counts so every build indexes identical inputs.
struct Prepared {
    corpus: Corpus,
    codebook: Codebook,
    encodings: Vec<(ImageId, SparseBovw)>,
}

fn prepare(corpus: Corpus, akm: &AkmParams) -> Prepared {
    let codebook = Codebook::train(corpus.config.kind, corpus.all_features(), akm);
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
    Prepared {
        corpus,
        codebook,
        encodings,
    }
}

fn base() -> &'static Prepared {
    static BASE: OnceLock<Prepared> = OnceLock::new();
    BASE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images: 60,
            n_latent_words: 60,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        prepare(corpus, &akm())
    })
}

fn monolith(p: &Prepared, scheme: Scheme) -> (ServiceProvider, Client) {
    let owner = Owner::new(&OWNER_SEED);
    let (db, published) = owner.build_system_prepared_config(
        &p.corpus,
        p.codebook.clone(),
        p.encodings.clone(),
        scheme,
    );
    (ServiceProvider::new(db), Client::new(published))
}

fn sharded(
    p: &Prepared,
    scheme: Scheme,
    shard_count: usize,
) -> (ShardedSp, Client, imageproof_core::ShardManifest) {
    let owner = Owner::new(&OWNER_SEED);
    let system = owner.build_sharded_system_prepared_config(
        &p.corpus,
        p.codebook.clone(),
        p.encodings.clone(),
        SystemConfig::new(scheme),
        shard_count,
    );
    (
        ShardedSp::new(system.shards),
        Client::new(system.published),
        system.manifest,
    )
}

/// Asserts one query agrees exactly between the two deployments; returns
/// the verified global top-k.
fn assert_query_matches(
    label: &str,
    (mono_sp, mono_client): (&ServiceProvider, &Client),
    (sp, client, manifest): (&ShardedSp, &Client, &imageproof_core::ShardManifest),
    features: &[Vec<f32>],
    k: usize,
) -> Vec<(ImageId, f32)> {
    let (mono_resp, _) = mono_sp.query(features, k);
    let mono = mono_client
        .verify(features, k, &mono_resp)
        .unwrap_or_else(|e| panic!("{label}: monolith rejected honest SP: {e}"));
    let (resp, stats) = sp.query(features, k);
    let verified = client
        .verify_sharded(features, k, &resp, manifest)
        .unwrap_or_else(|e| panic!("{label}: sharded client rejected honest SP: {e}"));
    assert_eq!(
        verified.topk, mono.topk,
        "{label}: sharded top-k diverged from monolith"
    );
    assert_eq!(
        verified.assignments, mono.assignments,
        "{label}: BoVW assignments diverged"
    );
    // Coverage bookkeeping: one trimmed sub-VO per shard, contributions
    // sum to exactly the verified winners, claims never exceed the trim
    // bound k' = min(j + 1, k), and the SP issued one trim re-query per
    // shard trimmed below the full fan-out k.
    assert_eq!(resp.vo.shards.len(), sp.shard_count(), "{label}");
    let contributed: usize = resp
        .vo
        .shards
        .iter()
        .map(|svo| svo.contributed as usize)
        .sum();
    assert_eq!(
        contributed,
        verified.topk.len(),
        "{label}: contributions do not sum to the winner count"
    );
    for svo in &resp.vo.shards {
        let k_trim = (svo.contributed as usize + 1).min(k);
        assert!(
            svo.claimed.len() <= k_trim,
            "{label}: shard {} claim overflows its trim bound",
            svo.shard_id
        );
    }
    let trimmed_shards = resp
        .vo
        .shards
        .iter()
        .filter(|svo| (svo.contributed as usize) + 1 < k)
        .count();
    assert_eq!(stats.trim_queries, trimmed_shards, "{label}");
    // Returned payloads are the genuine winner images in merge order.
    let ids: Vec<ImageId> = resp.results.iter().map(|r| r.id).collect();
    let want: Vec<ImageId> = verified.topk.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, want, "{label}: result rows not in merge order");
    verified.topk
}

#[test]
fn sharded_matches_monolith_for_every_scheme_and_shard_count() {
    let p = base();
    for scheme in Scheme::ALL {
        let (mono_sp, mono_client) = monolith(p, scheme);
        for &s in &[1usize, 2, 4, 8] {
            let (sp, client, manifest) = sharded(p, scheme, s);
            for (source, n_features, seed, k) in [(5u64, 24, 1u64, 5usize), (33, 20, 2, 3)] {
                let features = p.corpus.query_from_image(source, n_features, seed);
                let label = format!("{scheme:?} S={s} q={source} k={k}");
                let topk = assert_query_matches(
                    &label,
                    (&mono_sp, &mono_client),
                    (&sp, &client, &manifest),
                    &features,
                    k,
                );
                assert_eq!(topk.len(), k, "{label}: short result on a large corpus");
            }
        }
    }
}

#[test]
fn ties_at_the_kth_position_merge_identically() {
    // Duplicate image 9's features into images 10 and 15: the trio encodes
    // to identical BoVW vectors, so all three always score identically.
    // The ids land in different shards for S ∈ {2, 4} (9 ≡ 1, 10 ≡ 2,
    // 15 ≡ 3 mod 4), so a k cutting through the trio forces the
    // cross-shard merge to resolve a genuine tie exactly like the
    // monolith's (score desc, id asc) order.
    let mut corpus = Corpus::generate(&CorpusConfig {
        kind: DescriptorKind::Surf,
        n_images: 60,
        n_latent_words: 60,
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    let features9 = corpus.images[9].features.clone();
    let words9 = corpus.images[9].latent_words.clone();
    for dup in [10usize, 15] {
        corpus.images[dup].features = features9.clone();
        corpus.images[dup].latent_words = words9.clone();
    }
    let p = prepare(corpus, &akm());
    let trio: &[ImageId] = &[9, 10, 15];

    for scheme in [Scheme::ImageProof, Scheme::OptimizedBoth] {
        let (mono_sp, mono_client) = monolith(&p, scheme);
        // Locate the trio in a deep monolith ranking and pick ks that cut
        // through it, so the tie genuinely straddles the k-th position.
        let features = p.corpus.query_from_image(9, 24, 11);
        let (deep, _) = mono_sp.query(&features, 10);
        let deep = mono_client
            .verify(&features, 10, &deep)
            .expect("deep query");
        let positions: Vec<usize> = deep
            .topk
            .iter()
            .enumerate()
            .filter(|(_, &(id, _))| trio.contains(&id))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positions.len(), 3, "{scheme:?}: trio missing from top-10");
        let tie_score = deep.topk[positions[0]].1;
        for &pos in &positions {
            assert_eq!(deep.topk[pos].1, tie_score, "{scheme:?}: trio not tied");
        }

        for &s in &[2usize, 4] {
            let (sp, client, manifest) = sharded(&p, scheme, s);
            for k in [positions[0] + 1, positions[1] + 1] {
                let label = format!("{scheme:?} S={s} k={k} (tie cut)");
                let topk = assert_query_matches(
                    &label,
                    (&mono_sp, &mono_client),
                    (&sp, &client, &manifest),
                    &features,
                    k,
                );
                // The cut really splits the trio: some but not all members
                // are inside the verified top-k.
                let inside = topk.iter().filter(|&&(id, _)| trio.contains(&id)).count();
                assert!(inside > 0 && inside < 3, "{label}: cut missed the tie");
            }
        }
    }
}

#[test]
fn single_shard_sub_vo_is_byte_identical_to_the_monolith_vo() {
    let p = base();
    for scheme in [Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBoth] {
        let (mono_sp, _) = monolith(p, scheme);
        let (sp, client, manifest) = sharded(p, scheme, 1);
        let features = p.corpus.query_from_image(11, 20, 5);
        let (mono_resp, _) = mono_sp.query(&features, 4);
        let (resp, _) = sp.query(&features, 4);
        assert_eq!(resp.vo.shards.len(), 1, "{scheme:?}");
        let sub = &resp.vo.shards[0];
        assert_eq!(sub.shard_id, 0, "{scheme:?}");
        assert_eq!(
            sub.contributed as usize,
            mono_resp.results.len(),
            "{scheme:?}: the lone shard must contribute every winner"
        );
        // A single shard can never patch against a shared template, so the
        // sub-VO components must be bit-equal to the monolith proof.
        let bovw = sub
            .resolve_bovw(&resp.vo.shared)
            .expect("S=1 BoVW VO resolves");
        assert_eq!(
            bovw.to_wire(),
            mono_resp.vo.bovw.to_wire(),
            "{scheme:?}: S=1 BoVW sub-VO differs from the monolith VO"
        );
        assert_eq!(
            sub.inv.to_wire(),
            mono_resp.vo.inv.to_wire(),
            "{scheme:?}: S=1 inverted-index sub-VO differs from the monolith VO"
        );
        assert_eq!(
            sub.signatures, mono_resp.vo.signatures,
            "{scheme:?}: S=1 signature set differs from the monolith VO"
        );
        let mono_ids: Vec<ImageId> = mono_resp.results.iter().map(|r| r.id).collect();
        assert_eq!(sub.claimed, mono_ids, "{scheme:?}");
        for (a, b) in resp.results.iter().zip(&mono_resp.results) {
            assert_eq!(a.id, b.id, "{scheme:?}");
            assert_eq!(a.data, b.data, "{scheme:?}");
            assert_eq!(a.score, b.score, "{scheme:?}");
        }
        client
            .verify_sharded(&features, 4, &resp, &manifest)
            .expect("S=1 verifies");
    }
}

#[test]
fn sharded_build_commits_each_shard_root_and_partitions_by_id() {
    let p = base();
    let owner = Owner::new(&OWNER_SEED);
    let system = owner.build_sharded_system_prepared_config(
        &p.corpus,
        p.codebook.clone(),
        p.encodings.clone(),
        SystemConfig::new(Scheme::ImageProof),
        4,
    );
    assert_eq!(system.manifest.shard_count(), 4);
    assert!(system.manifest.verify(&system.published.public_key));
    let mut total = 0;
    for (i, db) in system.shards.iter().enumerate() {
        assert_eq!(
            system.manifest.shard_roots[i],
            db.mrkd.combined_root_digest(),
            "shard {i}: manifest root does not match the built ADS"
        );
        for &id in db.images.keys() {
            assert_eq!(shard_of(id, 4), i, "image {id} placed in wrong shard");
        }
        assert_eq!(db.images.len(), db.encodings.len(), "shard {i}");
        total += db.images.len();
    }
    assert_eq!(
        total,
        p.corpus.images.len(),
        "partition lost or duplicated images"
    );
}

#[test]
fn sharded_queries_are_thread_count_invariant() {
    let p = base();
    let (sp, client, manifest) = sharded(p, Scheme::OptimizedBoth, 4);
    let features = p.corpus.query_from_image(22, 24, 9);
    let (serial, _) = sp.query(&features, 5);
    for threads in [2usize, 4, 8] {
        let (parallel, _, _) = sp.query_profiled(&features, 5, Concurrency::new(threads));
        assert_eq!(
            parallel.vo.to_wire(),
            serial.vo.to_wire(),
            "{threads} threads: sharded VO bytes differ from serial"
        );
        let ids: Vec<ImageId> = parallel.results.iter().map(|r| r.id).collect();
        let serial_ids: Vec<ImageId> = serial.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, serial_ids, "{threads} threads");
        client
            .verify_sharded(&features, 5, &parallel, &manifest)
            .expect("parallel response verifies");
    }
}

// ---------------------------------------------------------------------------
// Randomized depth with the real proptest crate (the offline stub
// toolchain compiles this block away).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_dbs_and_shard_counts_match_the_monolith(
        seed in 0usize..1000,
        shard_count in 1usize..6,
        k in 1usize..7,
        n_images in 24usize..48,
    ) {
        let corpus = Corpus::generate(&CorpusConfig {
            kind: DescriptorKind::Surf,
            n_images,
            n_latent_words: 40,
            features_per_image: 24,
            seed: seed as u64,
            ..CorpusConfig::small(DescriptorKind::Surf)
        });
        let akm = AkmParams {
            n_clusters: 24,
            n_trees: 2,
            max_leaf_size: 2,
            max_checks: 8,
            iterations: 1,
            seed: seed as u64 + 1,
        };
        let p = prepare(corpus, &akm);
        let (mono_sp, mono_client) = monolith(&p, Scheme::ImageProof);
        let (sp, client, manifest) = sharded(&p, Scheme::ImageProof, shard_count);
        let source = (seed % n_images) as u64;
        let features = p.corpus.query_from_image(source, 16, seed as u64);
        assert_query_matches(
            &format!("random seed={seed} S={shard_count} k={k}"),
            (&mono_sp, &mono_client),
            (&sp, &client, &manifest),
            &features,
            k,
        );
    }
}
