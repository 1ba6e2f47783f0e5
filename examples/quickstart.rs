//! Quickstart: build an authenticated image-retrieval system, run one
//! query, and verify the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use imageproof_akm::AkmParams;
use imageproof_core::{Client, Owner, Scheme, ServiceProvider};
use imageproof_crypto::wire::Encode;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

fn main() {
    // 1. The image owner generates (here: synthesizes) an image corpus and
    //    extracts local SURF-like features.
    let corpus = Corpus::generate(&CorpusConfig {
        n_images: 500,
        n_latent_words: 300,
        ..CorpusConfig::small(DescriptorKind::Surf)
    });
    println!(
        "corpus: {} images, {} descriptors ({:?}, {}-d)",
        corpus.images.len(),
        corpus.total_features(),
        corpus.config.kind,
        corpus.config.kind.dim(),
    );

    // 2. The owner trains an AKM codebook, builds the two authenticated
    //    data structures (a Merkle randomized k-d tree + a Merkle inverted
    //    index with cuckoo filters), signs everything, and outsources the
    //    database to the service provider.
    let owner = Owner::new(&[42u8; 32]);
    let akm = AkmParams {
        n_clusters: 512,
        ..AkmParams::default()
    };
    let (db, published) = owner.build_system(&corpus, &akm, Scheme::ImageProof);
    println!(
        "owner: built the MRKD-tree over a {}-word codebook ({}-tree AKM training); root signed",
        akm.n_clusters, akm.n_trees
    );
    let sp = ServiceProvider::new(db);

    // 3. A client photographs one of the catalogue scenes again (query
    //    features re-sampled around image 17's visual words) and asks the
    //    SP for the top-5 similar images.
    let query = corpus.query_from_image(17, 100, 7);
    let k = 5;
    let (response, sp_stats) = sp.query(&query, k);
    println!(
        "SP: answered top-{k} in {:.1} ms (BoVW) + {:.1} ms (inverted index); \
         VO is {} bytes, {:.1}% of relevant postings popped",
        sp_stats.bovw_seconds * 1e3,
        sp_stats.inv_seconds * 1e3,
        response.vo.wire_size(),
        sp_stats.popped_ratio() * 100.0,
    );

    // 4. The client verifies soundness and completeness against the owner's
    //    public key — without trusting the SP.
    let client = Client::new(published);
    let verified = client
        .verify(&query, k, &response)
        .expect("the honest SP's response must verify");
    println!(
        "client: verified in {:.1} ms; top-{k}:",
        verified.stats.total_seconds() * 1e3
    );
    for (rank, (id, score)) in verified.topk.iter().enumerate() {
        println!("  #{:<2} image {:<4} similarity {:.4}", rank + 1, id, score);
    }
    assert!(
        verified.topk.iter().any(|&(id, _)| id == 17),
        "the photographed scene must rank among the top-{k}"
    );
    println!("ok: image 17 (the photographed scene) is in the verified top-{k}");
}
