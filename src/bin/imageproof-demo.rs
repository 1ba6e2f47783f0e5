//! `imageproof-demo` — a parameterized end-to-end demonstration CLI.
//!
//! ```sh
//! cargo run --release --bin imageproof-demo -- \
//!     --images 800 --codebook 1024 --scheme imageproof -k 10 --queries 5
//! ```
//!
//! Builds a synthetic catalogue, outsources it under the chosen
//! authentication scheme, runs verified queries, and prints a cost summary —
//! the "try it on your own parameters" entry point for the library.

use imageproof_akm::AkmParams;
use imageproof_core::{Client, Owner, Scheme, ServiceProvider};
use imageproof_crypto::wire::Encode;
use imageproof_obs::Stopwatch;
use imageproof_vision::{Corpus, CorpusConfig, DescriptorKind};

struct Args {
    images: usize,
    codebook: usize,
    scheme: Scheme,
    k: usize,
    queries: usize,
    features: usize,
    kind: DescriptorKind,
    profile: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            images: 500,
            codebook: 1024,
            scheme: Scheme::ImageProof,
            k: 10,
            queries: 3,
            features: 100,
            kind: DescriptorKind::Surf,
            profile: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--images" => args.images = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--codebook" => args.codebook = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "-k" | "--topk" => args.k = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => args.queries = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--features" => args.features = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scheme" => {
                args.scheme = match value(&mut i).to_lowercase().as_str() {
                    "baseline" => Scheme::Baseline,
                    "imageproof" => Scheme::ImageProof,
                    "optimized-bovw" | "opt-bovw" => Scheme::OptimizedBovw,
                    "optimized" | "optimized-both" | "opt-both" => Scheme::OptimizedBoth,
                    _ => usage(),
                }
            }
            "--descriptor" => {
                args.kind = match value(&mut i).to_lowercase().as_str() {
                    "sift" => DescriptorKind::Sift,
                    "surf" => DescriptorKind::Surf,
                    _ => usage(),
                }
            }
            "--profile" => args.profile = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: imageproof-demo [--images N] [--codebook N] [-k N] [--queries N]\n\
         \x20                      [--features N] [--scheme baseline|imageproof|opt-bovw|opt-both]\n\
         \x20                      [--descriptor sift|surf] [--profile]\n\
         \n\
         --profile dumps the per-query span tree (SP + client) and the\n\
         metrics-registry snapshot after the run"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    println!(
        "building: {} images ({:?}), codebook {}, scheme {}",
        args.images,
        args.kind,
        args.codebook,
        args.scheme.label()
    );

    let t = Stopwatch::start();
    let corpus = Corpus::generate(&CorpusConfig {
        kind: args.kind,
        n_images: args.images,
        n_latent_words: (args.codebook / 2).max(50),
        ..CorpusConfig::small(args.kind)
    });
    println!(
        "  corpus: {} descriptors in {:.1}s",
        corpus.total_features(),
        t.elapsed_seconds()
    );

    let t = Stopwatch::start();
    let owner = Owner::new(&[0xD3; 32]);
    let akm = AkmParams {
        n_clusters: args.codebook,
        ..AkmParams::default()
    };
    let (db, published) = owner.build_system(&corpus, &akm, args.scheme);
    println!(
        "  owner setup (codebook + ADSs + signatures): {:.1}s",
        t.elapsed_seconds()
    );
    let sp = ServiceProvider::new(db);
    let client = Client::new(published);

    let mut sp_total = 0.0;
    let mut client_total = 0.0;
    let mut vo_total = 0usize;
    for q in 0..args.queries {
        let source = ((q * 71 + 13) % args.images) as u64;
        let query = corpus.query_from_image(source, args.features, 5000 + q as u64);

        let t = Stopwatch::start();
        let (response, stats, sp_profile) = sp.query_profiled(&query, args.k);
        let sp_time = t.elapsed_seconds();

        let t = Stopwatch::start();
        let (verified, client_profile) = client
            .verify_profiled(&query, args.k, &response)
            .expect("honest SP must verify");
        let client_time = t.elapsed_seconds();

        let hit = verified.topk.iter().any(|&(id, _)| id == source);
        println!(
            "  query {q}: source {source:>4} {} | SP {:.0} ms (popped {:.0}%) | \
             client {:.0} ms | VO {} KiB",
            if hit { "FOUND" } else { "miss " },
            sp_time * 1e3,
            stats.popped_ratio() * 100.0,
            client_time * 1e3,
            response.vo.wire_size() / 1024,
        );
        if args.profile {
            print!("{}", sp_profile.render());
            print!("{}", client_profile.render());
        }
        sp_total += sp_time;
        client_total += client_time;
        vo_total += response.vo.wire_size();
    }
    let n = args.queries as f64;
    println!(
        "averages: SP {:.0} ms | client {:.0} ms | VO {} KiB",
        sp_total / n * 1e3,
        client_total / n * 1e3,
        vo_total / args.queries / 1024
    );
    if args.profile {
        println!("\n-- metrics registry (Prometheus text exposition) --");
        print!("{}", imageproof_obs::global().prometheus_text());
    }
}
