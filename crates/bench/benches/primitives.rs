//! Criterion micro-benchmarks for the cryptographic and data-structure
//! substrates (not tied to a specific paper figure; these quantify the
//! building blocks every figure's costs decompose into).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imageproof_akm::kernel::{dist_sq, dist_sq_scalar, dist_sq_within};
use imageproof_akm::rkd::RkdForest;
use imageproof_akm::{AkmParams, Codebook};
use imageproof_crypto::sha3::{Sha3Batch, Sha3_256};
use imageproof_crypto::wire::Writer;
use imageproof_crypto::{Digest, MerkleTree, SigningKey};
use imageproof_cuckoo::{max_count, CuckooFilter};
use imageproof_vision::DescriptorKind;
use rand_like::SplitMix;

/// Tiny deterministic generator so the bench crate needs no extra deps.
mod rand_like {
    pub struct SplitMix(pub u64);
    impl SplitMix {
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        pub fn f32(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }
    }
}

fn sha3_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha3_256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| Sha3_256::digest(&data))
        });
    }
    group.finish();
}

fn sha3_batch_bench(c: &mut Criterion) {
    // The two message sizes client verification is made of: an internal
    // MRKD node (72 bytes, one rate block) and a full-mode table row of a
    // 64-d centroid (300 bytes, three blocks). Each iteration hashes 1024
    // messages; compare per message against `sha3_256/64`. On a host
    // without AVX-512 the batch runs the scalar permutation per message
    // and the two groups read alike.
    println!("sha3_256_batch Keccak instance: {}", Sha3Batch::instance());
    const MESSAGES: usize = 1024;
    let mut group = c.benchmark_group("sha3_256_batch");
    for size in [72usize, 300] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Elements(MESSAGES as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let mut batch = Sha3Batch::new();
            b.iter(|| {
                for _ in 0..MESSAGES {
                    batch.update(&data);
                    batch.end_message();
                }
                batch.finalize_reset()
            })
        });
    }
    group.finish();
}

fn ed25519_bench(c: &mut Criterion) {
    let sk = SigningKey::from_seed(&[1u8; 32]);
    let pk = sk.public_key();
    let msg = [0x5au8; 32];
    let sig = sk.sign(&msg);
    c.bench_function("ed25519/sign", |b| b.iter(|| sk.sign(&msg)));
    c.bench_function("ed25519/verify", |b| b.iter(|| pk.verify(&msg, &sig)));
}

fn merkle_bench(c: &mut Criterion) {
    let leaves: Vec<Vec<u8>> = (0..1024u32).map(|i| i.to_le_bytes().to_vec()).collect();
    c.bench_function("merkle/build_1024", |b| {
        b.iter(|| MerkleTree::from_leaf_data(&leaves).root())
    });
    let tree = MerkleTree::from_leaf_data(&leaves);
    let proof = tree.prove(500);
    let root = tree.root();
    c.bench_function("merkle/verify_path", |b| {
        b.iter(|| proof.verify_data(&leaves[500], &root))
    });
}

fn cuckoo_bench(c: &mut Criterion) {
    let mut filter = CuckooFilter::with_capacity(10_000);
    for i in 0..10_000u64 {
        filter.insert(i).expect("sized");
    }
    c.bench_function("cuckoo/lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 20_000;
            filter.contains(i)
        })
    });
    let filters: Vec<CuckooFilter> = (0..32)
        .map(|f| {
            let mut filter = CuckooFilter::with_buckets(256);
            for i in 0..400u64 {
                filter.insert(i * 32 + f).expect("room");
            }
            filter
        })
        .collect();
    let refs: Vec<&CuckooFilter> = filters.iter().collect();
    c.bench_function("cuckoo/max_count_32x256", |b| b.iter(|| max_count(&refs)));
}

fn rkd_bench(c: &mut Criterion) {
    let mut rng = SplitMix(42);
    let points: Vec<Vec<f32>> = (0..4096)
        .map(|_| (0..64).map(|_| rng.f32()).collect())
        .collect();
    let forest = RkdForest::build(&points, 8, 2, 7);
    let query: Vec<f32> = (0..64).map(|_| rng.f32()).collect();
    c.bench_function("rkd/approx_nearest_4096x64d", |b| {
        b.iter(|| forest.approx_nearest(&points, &query, 32).cluster)
    });
    let codebook = Codebook::from_centers(DescriptorKind::Surf, points, &AkmParams::default());
    c.bench_function("rkd/nearest_4096x64d", |b| {
        b.iter(|| codebook.tree.nearest(&codebook.centers, &query).cluster)
    });
}

fn dist_kernel_bench(c: &mut Criterion) {
    let mut rng = SplitMix(7);
    let mut group = c.benchmark_group("dist_sq");
    for dim in [64usize, 128] {
        let a: Vec<f32> = (0..dim).map(|_| rng.f32()).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.f32()).collect();
        // A limit around half the expected distance makes the early-exit
        // variant representative: roughly half its checkpoints fire.
        let limit = dist_sq(&a, &b) * 0.5;
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |bch, _| {
            bch.iter(|| dist_sq_scalar(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("chunked", dim), &dim, |bch, _| {
            bch.iter(|| dist_sq(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("chunked_within", dim), &dim, |bch, _| {
            bch.iter(|| dist_sq_within(&a, &b, limit))
        });
    }
    group.finish();
}

fn sha3_reuse_bench(c: &mut Criterion) {
    // One VO node digest is a handful of short absorbs; the memoized hot
    // path replaces "fresh hasher per digest" with one streaming state
    // drained via `finalize_reset`.
    let chunks: [&[u8]; 3] = [&[0x01u8; 8], &[0x5au8; 32], &[0xc3u8; 32]];
    let mut group = c.benchmark_group("sha3_256_stream");
    group.bench_function(BenchmarkId::from_parameter("fresh_per_digest_x64"), |b| {
        b.iter(|| {
            let mut last = [0u8; 32];
            for _ in 0..64 {
                let mut h = Sha3_256::new();
                for chunk in chunks {
                    h.update(chunk);
                }
                last = h.finalize();
            }
            last
        })
    });
    group.bench_function(
        BenchmarkId::from_parameter("reused_finalize_reset_x64"),
        |b| {
            b.iter(|| {
                let mut h = Sha3_256::new();
                let mut last = [0u8; 32];
                for _ in 0..64 {
                    for chunk in chunks {
                        h.update(chunk);
                    }
                    last = h.finalize_reset();
                }
                last
            })
        },
    );
    group.finish();
}

fn wire_writer_bench(c: &mut Criterion) {
    // A synthetic VO record: digests + varints + coordinates, the mix the
    // real responses serialize. Compares growing a fresh writer per record
    // against `reset` on a pre-sized one (the zero-realloc assembly path).
    let digest = Digest([0x77u8; 32]);
    let coords: Vec<f32> = (0..64).map(|i| i as f32 * 0.25).collect();
    let encode = |w: &mut Writer| {
        w.seq_len(coords.len());
        for &v in &coords {
            w.f32(v);
        }
        for i in 0..8u64 {
            w.digest(&digest);
            w.varint(i * 1009);
        }
    };
    let mut group = c.benchmark_group("wire_writer");
    group.bench_function(BenchmarkId::from_parameter("fresh_per_record_x64"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..64 {
                let mut w = Writer::new();
                encode(&mut w);
                total += w.len();
            }
            total
        })
    });
    group.bench_function(BenchmarkId::from_parameter("reset_reuse_x64"), |b| {
        let mut w = Writer::with_capacity(1024);
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..64 {
                w.reset();
                encode(&mut w);
                total += w.len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    sha3_bench,
    sha3_batch_bench,
    ed25519_bench,
    merkle_bench,
    cuckoo_bench,
    rkd_bench,
    dist_kernel_bench,
    sha3_reuse_bench,
    wire_writer_bench
);
criterion_main!(benches);
