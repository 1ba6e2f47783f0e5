//! Regenerates every figure of the paper's evaluation (§VII, Figs. 6–14).
//!
//! ```sh
//! cargo run -p imageproof-bench --release --bin figures            # all figures
//! cargo run -p imageproof-bench --release --bin figures -- --fig 9 # one figure
//! cargo run -p imageproof-bench --release --bin figures -- --quick # smoke scale
//! ```
//!
//! Figs. 6–14 are the rows of [`FIGURES`]; every point of every figure runs
//! each query once through the SP and the client ([`measure`]) and prints
//! the means of the step's columns. These are the paper's series, a few
//! queries per point; repeated, gated performance numbers (thread
//! speedups, sharded and RPC costs, ADS bytes) come from the benchmark
//! package in `ledger/`, the repository's one performance harness.
//!
//! Axes are scaled from the paper's server-scale setting to laptop scale
//! with identical ratios (DESIGN.md §3.4); the series *shapes* are the
//! reproduction target, not absolute values.

use imageproof_bench::fixture::{Fixture, FixtureConfig};
use imageproof_bench::measure::{mean, measure, QueryMeasurement};
use imageproof_bench::table::{kib, ms, pct, Table};
use imageproof_core::Scheme;
use imageproof_vision::DescriptorKind;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sweep axes for one run scale.
struct Scale {
    features_sweep: Vec<usize>,
    codebook_sweep: Vec<usize>,
    dataset_sweep: Vec<usize>,
    k_sweep: Vec<usize>,
    default_features: usize,
    default_k: usize,
    n_queries: usize,
    base: fn(DescriptorKind) -> FixtureConfig,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            features_sweep: vec![100, 200, 300, 400, 500],
            codebook_sweep: vec![1000, 2000, 4000],
            dataset_sweep: vec![1000, 2000, 4000],
            k_sweep: vec![1, 5, 10, 20, 50],
            default_features: 200,
            default_k: 10,
            // The paper averages 10 query images; 5 keep the same trends,
            // and Figs. 6-14 at this scale run in ≈ 95 s on a 2-core host
            // with AVX-512.
            n_queries: 5,
            base: FixtureConfig::default_scale,
        }
    }

    fn quick() -> Scale {
        Scale {
            features_sweep: vec![50, 100],
            codebook_sweep: vec![256, 512],
            dataset_sweep: vec![150, 300],
            k_sweep: vec![1, 10],
            default_features: 60,
            default_k: 5,
            n_queries: 3,
            base: FixtureConfig::quick,
        }
    }
}

/// Caches fixtures across figures (several figures share the default
/// configuration).
struct FixtureCache {
    built: BTreeMap<String, Arc<Fixture>>,
}

impl FixtureCache {
    fn new() -> FixtureCache {
        FixtureCache {
            built: BTreeMap::new(),
        }
    }

    fn get(&mut self, config: &FixtureConfig) -> Arc<Fixture> {
        let key = format!(
            "{:?}/{}/{}",
            config.kind, config.n_images, config.codebook_size
        );
        if let Some(f) = self.built.get(&key) {
            return f.clone();
        }
        eprintln!(
            "[build] {:?} corpus: {} images, codebook {} …",
            config.kind, config.n_images, config.codebook_size
        );
        let t = imageproof_obs::Stopwatch::start();
        let fixture = Arc::new(Fixture::build(config.clone()));
        eprintln!("[build] done in {:.1}s", t.elapsed_seconds());
        self.built.insert(key, fixture.clone());
        fixture
    }
}

/// The axis a paper figure sweeps; every other axis stays at its default.
#[derive(Clone, Copy)]
enum Axis {
    Features,
    Codebook,
    Images,
    K,
}

impl Axis {
    fn header(self) -> &'static str {
        match self {
            Axis::Features => "n_feat",
            Axis::Codebook => "codebook",
            Axis::Images => "images",
            Axis::K => "k",
        }
    }

    fn points(self, scale: &Scale) -> &[usize] {
        match self {
            Axis::Features => &scale.features_sweep,
            Axis::Codebook => &scale.codebook_sweep,
            Axis::Images => &scale.dataset_sweep,
            Axis::K => &scale.k_sweep,
        }
    }
}

/// A column of a figure's table: header, and the cell for one point's
/// measurements (a mean over its queries).
type Column = (&'static str, fn(&[QueryMeasurement]) -> String);

/// The retrieval step a figure reports, which fixes the schemes it
/// compares and its columns.
#[derive(Clone, Copy)]
enum Step {
    /// BoVW encoding and its MRKD proof; client steps (i)–(ii).
    Bovw,
    /// Inverted-index search; client step (iii).
    Inv,
    /// The whole query; client steps (i)–(iv).
    Overall,
}

impl Step {
    fn schemes(self) -> &'static [Scheme] {
        match self {
            Step::Bovw => &[Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBovw],
            Step::Inv => &[Scheme::Baseline, Scheme::ImageProof, Scheme::OptimizedBoth],
            Step::Overall => &Scheme::ALL,
        }
    }

    fn columns(self) -> &'static [Column] {
        match self {
            Step::Bovw => &[
                ("sp_ms", |m| ms(mean(m, |q| q.sp.bovw_seconds))),
                ("client_ms", |m| ms(mean(m, |q| q.client.bovw_seconds))),
                ("vo_KiB", |m| kib(mean(m, |q| q.bovw_vo_bytes() as f64))),
                ("shared_ratio", |m| {
                    format!("{:.2}", mean(m, |q| q.sp.shared_ratio))
                }),
            ],
            Step::Inv => &[
                ("sp_ms", |m| ms(mean(m, |q| q.sp.inv_seconds))),
                ("client_ms", |m| ms(mean(m, |q| q.client.inv_seconds))),
                ("popped_%", |m| pct(mean(m, |q| q.sp.popped_ratio()))),
            ],
            Step::Overall => &[
                ("vo_KiB", |m| kib(mean(m, |q| q.vo_bytes() as f64))),
                ("sp_ms", |m| ms(mean(m, |q| q.profile.total_seconds()))),
                ("client_ms", |m| ms(mean(m, |q| q.client.total_seconds()))),
            ],
        }
    }
}

/// One of the paper's evaluation figures (§VII).
struct Figure {
    number: u32,
    kind: DescriptorKind,
    axis: Axis,
    step: Step,
    title: &'static str,
    /// What the paper reports for this figure.
    note: &'static str,
}

/// Printed under the note of every [`Step::Bovw`] figure (Figs. 6–8): what
/// their client and VO columns cover.
const BOVW_COLUMNS: &str = "(client_ms covers §V-C steps (i)-(ii), root-signature check\n\
                            included; vo_KiB counts the BoVW VO's one-byte variant tag)";

const FIGURES: [Figure; 9] = [
    Figure {
        number: 6,
        kind: DescriptorKind::Sift,
        axis: Axis::Features,
        step: Step::Bovw,
        title: "BoVW performance vs # Sift feature vectors",
        note: "(paper: Baseline worst everywhere, gap grows with n_Q; ImageProof best CPU;\n\
               Optimized best VO size; shared-node ratio ~0.4-0.5)",
    },
    Figure {
        number: 7,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Bovw,
        title: "BoVW performance vs # Surf feature vectors",
        note: "(paper: Baseline worst everywhere, gap grows with n_Q; ImageProof best CPU;\n\
               Optimized best VO size; shared-node ratio ~0.4-0.5)",
    },
    Figure {
        number: 8,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Bovw,
        title: "BoVW performance vs codebook size (SURF)",
        note: "(paper: costs almost flat in codebook size; VO grows slightly)",
    },
    Figure {
        number: 9,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Inv,
        title: "inverted-index performance vs # feature vectors",
        note: "(paper: Baseline pops ~all postings and is slowest; InvSearch and\n\
               Optimized stop far earlier)",
    },
    Figure {
        number: 10,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Inv,
        title: "inverted-index performance vs codebook size",
        note: "(paper: all CPU costs fall with codebook size; popped % falls for\n\
               InvSearch/Optimized, stays ~100% for Baseline)",
    },
    Figure {
        number: 11,
        kind: DescriptorKind::Surf,
        axis: Axis::K,
        step: Step::Inv,
        title: "inverted-index performance vs k",
        note: "(paper: popped % grows with k for InvSearch/Optimized; Optimized\n\
               reduces client CPU, similar SP CPU)",
    },
    Figure {
        number: 12,
        kind: DescriptorKind::Surf,
        axis: Axis::Features,
        step: Step::Overall,
        title: "overall performance vs # feature vectors",
        note: "(paper: all costs grow with n_Q; Optimized(BoVW) trades client CPU for\n\
               VO size; Optimized(Both) best client CPU + VO)",
    },
    Figure {
        number: 13,
        kind: DescriptorKind::Surf,
        axis: Axis::Codebook,
        step: Step::Overall,
        title: "overall performance vs codebook size",
        note: "(paper: all costs fall as the codebook grows — shorter posting lists)",
    },
    Figure {
        number: 14,
        kind: DescriptorKind::Surf,
        axis: Axis::Images,
        step: Step::Overall,
        title: "overall performance vs dataset size",
        note: "(paper: Baseline degrades fastest; ImageProof's SP CPU and VO are far\n\
               lower; Optimized(Both) best client CPU + VO, advantage grows with data)",
    },
];

/// Prints one paper figure: for every point on its axis and every scheme
/// of its step, one row of means over the point's queries.
fn paper_figure(cache: &mut FixtureCache, scale: &Scale, fig: &Figure) {
    println!("\n== Fig. {}: {} ==\n{}", fig.number, fig.title, fig.note);
    if let Step::Bovw = fig.step {
        println!("{BOVW_COLUMNS}");
    }
    println!();
    let columns = fig.step.columns();
    let mut t = Table::new(
        ["scheme", fig.axis.header()]
            .into_iter()
            .chain(columns.iter().map(|&(header, _)| header)),
    );
    for &point in fig.axis.points(scale) {
        let mut config = (scale.base)(fig.kind);
        let (mut n_features, mut k) = (scale.default_features, scale.default_k);
        match fig.axis {
            Axis::Features => n_features = point,
            Axis::Codebook => config.codebook_size = point,
            Axis::Images => config.n_images = point,
            Axis::K => k = point,
        }
        let fixture = cache.get(&config);
        let queries = fixture.queries(scale.n_queries, n_features);
        for &scheme in fig.step.schemes() {
            let system = fixture.system(scheme);
            let measured = measure(&system.0, &system.1, &queries, k);
            t.row(
                [scheme.label().to_string(), point.to_string()]
                    .into_iter()
                    .chain(columns.iter().map(|(_, cell)| cell(&measured))),
            );
        }
    }
    println!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<&Figure> = Vec::new();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                let number: u32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                match FIGURES.iter().find(|f| f.number == number) {
                    Some(figure) => figs.push(figure),
                    None => {
                        eprintln!("unknown figure {number}; the paper's figures are 6-14");
                        std::process::exit(2);
                    }
                }
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if figs.is_empty() {
        figs = FIGURES.iter().collect();
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut cache = FixtureCache::new();

    println!(
        "ImageProof evaluation harness — {} scale, {} queries per point",
        if quick { "quick" } else { "full" },
        scale.n_queries
    );
    // Client times below depend on it: without AVX-512 the batched hashing
    // runs the scalar permutation per message.
    println!(
        "batched SHA3 Keccak instance: {}",
        imageproof_crypto::sha3::Sha3Batch::instance()
    );
    for fig in figs {
        paper_figure(&mut cache, &scale, fig);
    }
}

fn usage() -> ! {
    eprintln!("usage: figures [--fig N]... [--quick]");
    std::process::exit(2);
}
