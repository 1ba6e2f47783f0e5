//! `imageproof-audit`: a from-scratch static-analysis pass over the
//! workspace, run as a CI gate.
//!
//! The paper's security argument needs the client verifier to be *total*:
//! any SP-supplied bytes must decode to `Err`, never a panic, and never
//! make it allocate more than the bytes justify. The suite checks that
//! dynamically (`decode_fuzz`); this crate enforces it statically, along
//! call paths, with a hand-rolled token-level scanner (no syn, no external
//! deps). On top of the scanner, [`model`] parses the workspace into a
//! lightweight item/call model (fn items with their `impl`/`trait`
//! context, call edges by name-based path resolution), and the rule
//! families run over it:
//!
//! * `panic` — interprocedural panic-reachability: seeded from every
//!   `impl Decode`, `Client::verify*`, and `wire::Reader` entry point and
//!   propagated over the call graph; no `unwrap`/`expect`/panicking
//!   macros/unchecked indexing/non-constant division anywhere reachable.
//! * `alloc` — hostile-allocation dataflow: a wire-read length must pass a
//!   bound check before it sizes an allocation, slice, or loop.
//! * `wire` — every `impl Encode` has a matching `impl Decode` and a
//!   roundtrip test.
//! * `deps` — every `Cargo.toml` stays inside the offline crate set.
//!
//! What rustc and clippy already enforce is left to them: the workspace
//! lint `unsafe_code = "deny"` (one `#[allow]`, on the Keccak CPU
//! dispatch) and `clippy.toml`'s `disallowed-types` for `HashMap`,
//! `HashSet`, `Instant` and `SystemTime`.
//!
//! Escape hatch: `// audit:allow(<rule>) <reason>` on or directly above
//! the offending line — or on/above a `fn` signature to cover its whole
//! body. Annotations without a reason, and annotations that suppress
//! nothing, are themselves findings.

pub mod dataflow;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod reach;
pub mod rules;

use rules::{Finding, SourceFile};
use std::io;
use std::path::Path;

/// Walks the workspace at `root`, runs every rule, and returns findings
/// sorted by path, line, and rule.
pub fn run_audit(root: &Path) -> io::Result<Vec<Finding>> {
    let mut sources: Vec<SourceFile> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    collect(root, root, &mut sources, &mut manifests)?;
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    manifests.sort_by(|a, b| a.0.cmp(&b.0));
    let mut findings = rules::analyze_sources(&sources);
    for (path, text) in &manifests {
        findings.extend(manifest::analyze_manifest(path, text));
    }
    findings.sort();
    Ok(findings)
}

/// Number of files `run_audit` would scan — reported in the CI summary so
/// an accidentally-empty walk is visible.
pub fn count_files(root: &Path) -> io::Result<usize> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    collect(root, root, &mut sources, &mut manifests)?;
    Ok(sources.len() + manifests.len())
}

/// A manifest as `(path, contents)`.
pub type Manifest = (String, String);

/// The workspace's source files and manifests, sorted by path — the same
/// inputs `run_audit` analyzes, for tools (and tests) that want to build a
/// [`model::Model`] over the real tree.
pub fn collect_workspace(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<Manifest>)> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    collect(root, root, &mut sources, &mut manifests)?;
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    manifests.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((sources, manifests))
}

fn collect(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<SourceFile>,
    manifests: &mut Vec<(String, String)>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build output and VCS metadata are not source.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(root, &path, sources, manifests)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            // Unreadable files (racing editors, permissions) are skipped
            // rather than failing the whole audit.
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if name == "Cargo.toml" {
                manifests.push((rel, text));
            } else {
                sources.push(SourceFile { path: rel, text });
            }
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
