//! The audit rule families.
//!
//! Every rule works on [`crate::lexer::scrub`]bed text, so comments and
//! string literals never produce findings. Rules are deliberately
//! syntactic — the goal is not a type checker but a cheap, zero-dependency
//! gate that makes the paper's total-verifier assumption machine-checked:
//! the client must be able to consume arbitrary attacker-controlled bytes
//! without panicking, and everything feeding a digest must be
//! bit-deterministic across threads and runs.

use crate::lexer::{self, Scrubbed};
use crate::model::Model;

/// Rule names a `// audit:allow(<rule>) <reason>` annotation may name.
pub const SUPPRESSIBLE: &[&str] = &[
    "panic",
    "determinism",
    "wire",
    "deps",
    "unsafe",
    "alloc",
    "lockorder",
    "relaxed",
];

/// One audit finding, printed as `path:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// One workspace source file. `path` is workspace-relative with `/`
/// separators, so rules can match on it portably.
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// Path prefixes exempt from the determinism rule: measurement harnesses
/// and demo binaries that never feed a digest.
const DETERMINISM_SKIP: &[&str] = &["crates/bench/", "src/bin/", "examples/"];

/// The only places allowed to name `Instant`/`SystemTime` in non-test
/// code: the observability crate (whose `Stopwatch` is the workspace's
/// single clock) and vendored third-party sources. Everything else —
/// bench harnesses and demo binaries included — must route timing through
/// `imageproof_obs`, so the zero-perturbation guarantee has one audit
/// surface.
const TIME_ALLOW_PREFIXES: &[&str] = &["crates/obs/", "vendor/"];

/// The one file allowed to reduce floats: its summation order is fixed and
/// shared verbatim by owner, SP, and client.
const FLOAT_KERNEL: &str = "crates/akm/src/kernel.rs";

/// Files allowed to contain `unsafe`: the one CPU-dispatch site, where a
/// `#[target_feature]` Keccak instance is called after feature detection.
/// Such a file holds exactly one `unsafe` token and must name the detection
/// macro; anything more is a finding.
const UNSAFE_ALLOW: &[&str] = &["crates/crypto/src/keccak_lanes.rs"];

/// Keywords that may directly precede `[` without it being an index
/// expression (`&mut [u8]`, `return [a, b]`, …).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "impl", "return", "else", "in", "match", "if", "as", "move", "ref", "const",
    "break", "static", "where",
];

/// Runs every source-level rule over the workspace — the per-file lexical
/// rules plus the three interprocedural passes over the item/call model —
/// and applies `audit:allow` suppression with stale-annotation detection.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Finding> {
    let scrubbed: Vec<Scrubbed> = files.iter().map(|f| lexer::scrub(&f.text)).collect();
    let model = Model::build(files, &scrubbed);
    let mut findings = Vec::new();
    for (f, s) in files.iter().zip(&scrubbed) {
        check_allows(f, s, &mut findings);
        check_unsafe(f, s, &mut findings);
        if !is_test_path(&f.path) {
            check_determinism(f, s, &mut findings);
            check_wire_lines(f, s, &mut findings);
        }
    }
    check_wire_pairing(files, &scrubbed, &mut findings);
    crate::reach::check(files, &scrubbed, &model, &mut findings);
    crate::dataflow::check(files, &scrubbed, &model, &mut findings);
    crate::concurrency::check(files, &scrubbed, &model, &mut findings);
    findings.sort();
    findings.dedup();
    apply_allows(files, &scrubbed, &model, findings)
}

/// Integration-test and bench files are test code in their entirety (they
/// carry no `#[cfg(test)]` attribute).
pub fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

fn in_any(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(a, b)| pos >= a && pos < b)
}

/// Rule `determinism`: no wall-clock types anywhere outside `crates/obs`,
/// and no HashMap/HashSet or float reductions in files that mention
/// `Digest` or `Encode` in code.
fn check_determinism(f: &SourceFile, s: &Scrubbed, out: &mut Vec<Finding>) {
    let bytes = s.text.as_bytes();
    let tests = lexer::test_regions(&s.text);

    // The time half is workspace-wide (no digest trigger, no bench/demo
    // skip): `Instant`/`SystemTime` are legal only inside the obs crate,
    // so every timing source funnels through one auditable clock.
    if !TIME_ALLOW_PREFIXES.iter().any(|p| f.path.starts_with(p)) {
        for word in ["Instant", "SystemTime"] {
            let mut i = 0;
            while let Some(pos) = lexer::find_word(bytes, word.as_bytes(), i) {
                i = pos + 1;
                if in_any(&tests, pos) {
                    continue;
                }
                out.push(Finding {
                    path: f.path.clone(),
                    line: s.line_of(pos),
                    rule: "determinism",
                    message: format!(
                        "{word} outside crates/obs; route timing through imageproof_obs (Stopwatch or spans)"
                    ),
                });
            }
        }
    }

    if DETERMINISM_SKIP.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let triggered = lexer::find_word(bytes, b"Digest", 0).is_some()
        || lexer::find_word(bytes, b"Encode", 0).is_some();
    if !triggered {
        return;
    }

    for word in ["HashMap", "HashSet"] {
        let mut i = 0;
        while let Some(pos) = lexer::find_word(bytes, word.as_bytes(), i) {
            i = pos + 1;
            if in_any(&tests, pos) {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: s.line_of(pos),
                rule: "determinism",
                message: format!(
                    "{word} iteration order is nondeterministic near digest/wire code; use a BTree collection"
                ),
            });
        }
    }
    if f.path != FLOAT_KERNEL {
        for pat in [".sum::<f32>()", ".sum::<f64>()"] {
            let mut i = 0;
            while let Some(pos) = lexer::find_from(bytes, pat.as_bytes(), i) {
                i = pos + 1;
                if in_any(&tests, pos) {
                    continue;
                }
                out.push(Finding {
                    path: f.path.clone(),
                    line: s.line_of(pos),
                    rule: "determinism",
                    message:
                        "float reduction order affects digests; only akm::kernel may reduce floats"
                            .to_string(),
                });
            }
        }
        let mut i = 0;
        while let Some(pos) = lexer::find_from(bytes, b".fold(", i) {
            i = pos + 1;
            if in_any(&tests, pos) {
                continue;
            }
            let mut k = pos + ".fold(".len();
            while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            let start = k;
            while k < bytes.len()
                && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'.' || bytes[k] == b'_')
            {
                k += 1;
            }
            let seed = &s.text[start..k];
            let float_seed = seed.ends_with("f32")
                || seed.ends_with("f64")
                || (seed.contains('.') && seed.chars().next().is_some_and(|c| c.is_ascii_digit()));
            if float_seed {
                out.push(Finding {
                    path: f.path.clone(),
                    line: s.line_of(pos),
                    rule: "determinism",
                    message: "float fold order affects digests; only akm::kernel may reduce floats"
                        .to_string(),
                });
            }
        }
    }
}

/// Rule `wire` (per-file half): inside `impl Encode` blocks, a
/// `.len() as <int>` cast is a usize smuggled onto the wire unless it goes
/// through the bounded `seq_len`/`varint` writers.
fn check_wire_lines(f: &SourceFile, s: &Scrubbed, out: &mut Vec<Finding>) {
    let bytes = s.text.as_bytes();
    let tests = lexer::test_regions(&s.text);
    for b in lexer::impl_blocks(&s.text, "Encode") {
        let mut i = b.start;
        while let Some(pos) = lexer::find_from(bytes, b".len() as ", i) {
            if pos >= b.end {
                break;
            }
            i = pos + 1;
            if in_any(&tests, pos) {
                continue;
            }
            let line = s.line_text(pos);
            if line.contains("seq_len(") || line.contains("varint(") {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: s.line_of(pos),
                rule: "wire",
                message: "usize length cast encoded to the wire; use Writer::seq_len or varint"
                    .to_string(),
            });
        }
    }
}

/// Rule `wire` (cross-file half): every non-test `impl Encode for T` needs
/// a matching `impl Decode for T` and a test that roundtrips `T` through
/// `from_wire`.
fn check_wire_pairing(files: &[SourceFile], scrubbed: &[Scrubbed], out: &mut Vec<Finding>) {
    struct Site {
        path: String,
        line: usize,
        type_name: String,
    }
    let mut encode_sites: Vec<Site> = Vec::new();
    let mut decode_names: Vec<String> = Vec::new();
    let mut test_corpus: Vec<&str> = Vec::new();

    for (f, s) in files.iter().zip(scrubbed) {
        if is_test_path(&f.path) {
            test_corpus.push(&s.text);
            continue;
        }
        let tests = lexer::test_regions(&s.text);
        for &(a, b) in &tests {
            if let Some(region) = s.text.get(a..b) {
                test_corpus.push(region);
            }
        }
        for blk in lexer::impl_blocks(&s.text, "Encode") {
            if in_any(&tests, blk.start) {
                continue;
            }
            encode_sites.push(Site {
                path: f.path.clone(),
                line: s.line_of(blk.start),
                type_name: blk.type_name,
            });
        }
        for blk in lexer::impl_blocks(&s.text, "Decode") {
            if !in_any(&tests, blk.start) {
                decode_names.push(blk.type_name);
            }
        }
    }

    for site in encode_sites {
        if !decode_names.contains(&site.type_name) {
            out.push(Finding {
                path: site.path.clone(),
                line: site.line,
                rule: "wire",
                message: format!(
                    "impl Encode for {} has no matching impl Decode",
                    site.type_name
                ),
            });
        }
        let covered = test_corpus.iter().any(|t| {
            let tb = t.as_bytes();
            lexer::find_word(tb, site.type_name.as_bytes(), 0).is_some()
                && lexer::find_from(tb, b"from_wire", 0).is_some()
        });
        if !covered {
            out.push(Finding {
                path: site.path,
                line: site.line,
                rule: "wire",
                message: format!(
                    "no roundtrip test references {} together with from_wire",
                    site.type_name
                ),
            });
        }
    }
}

/// Rule `unsafe`: no `unsafe` anywhere outside the allowlist — test code
/// included — and in an allowlisted file exactly one, beside CPU feature
/// detection.
fn check_unsafe(f: &SourceFile, s: &Scrubbed, out: &mut Vec<Finding>) {
    let bytes = s.text.as_bytes();
    let mut sites = Vec::new();
    let mut i = 0;
    while let Some(pos) = lexer::find_word(bytes, b"unsafe", i) {
        i = pos + 1;
        sites.push(s.line_of(pos));
    }
    let mut finding = |line: usize, message: &str| {
        out.push(Finding {
            path: f.path.clone(),
            line,
            rule: "unsafe",
            message: message.to_string(),
        });
    };
    if !UNSAFE_ALLOW.contains(&f.path.as_str()) {
        for line in sites {
            finding(line, "unsafe is not allowed in this workspace");
        }
        return;
    }
    if lexer::find_word(bytes, b"is_x86_feature_detected", 0).is_none() {
        finding(
            1,
            "an unsafe-allowlisted file must guard its unsafe call with is_x86_feature_detected!",
        );
    }
    if sites.is_empty() {
        finding(
            1,
            "unsafe-allowlisted file holds no unsafe; drop it from UNSAFE_ALLOW",
        );
    }
    for &line in sites.iter().skip(1) {
        finding(
            line,
            "an unsafe-allowlisted file may hold exactly one unsafe (the dispatch site)",
        );
    }
}

/// Rule `allow`: every `audit:allow` must name known rules and carry a
/// justification.
fn check_allows(f: &SourceFile, s: &Scrubbed, out: &mut Vec<Finding>) {
    for a in &s.allows {
        if a.rules.is_empty() {
            out.push(Finding {
                path: f.path.clone(),
                line: a.line,
                rule: "allow",
                message: "malformed audit:allow annotation names no rules".to_string(),
            });
        }
        for r in &a.rules {
            if !SUPPRESSIBLE.contains(&r.as_str()) {
                out.push(Finding {
                    path: f.path.clone(),
                    line: a.line,
                    rule: "allow",
                    message: format!("unknown rule '{r}' in audit:allow"),
                });
            }
        }
        if !a.has_reason {
            out.push(Finding {
                path: f.path.clone(),
                line: a.line,
                rule: "allow",
                message: "audit:allow without a justification".to_string(),
            });
        }
    }
}

/// Drops findings excused by an `audit:allow`, then reports any allow
/// that excused nothing (allow-rot). Findings about the annotations
/// themselves are never suppressed.
///
/// An allow's scope is its own line plus the next — unless a function
/// signature sits on one of those lines, in which case the scope widens to
/// the whole function body (a *fn-level allow*, for code like fixed-size
/// crypto kernels whose every line indexes arrays).
fn apply_allows(
    files: &[SourceFile],
    scrubbed: &[Scrubbed],
    model: &Model,
    mut findings: Vec<Finding>,
) -> Vec<Finding> {
    struct Scope {
        path: String,
        lines: (usize, usize), // inclusive
        rules: Vec<String>,
        well_formed: bool,
        used: bool,
    }
    let mut scopes: Vec<Scope> = Vec::new();
    for (fidx, (f, s)) in files.iter().zip(scrubbed).enumerate() {
        for a in &s.allows {
            let mut lines = (a.line, a.line + 1);
            for d in &model.fns {
                if d.file != fidx || (d.line != a.line && d.line != a.line + 1) {
                    continue;
                }
                if let Some((_, bend)) = d.body {
                    lines.1 = lines.1.max(s.line_of(bend.saturating_sub(1)));
                }
            }
            let well_formed = !a.rules.is_empty()
                && a.has_reason
                && a.rules.iter().all(|r| SUPPRESSIBLE.contains(&r.as_str()));
            scopes.push(Scope {
                path: f.path.clone(),
                lines,
                rules: a.rules.clone(),
                well_formed,
                used: false,
            });
        }
    }

    findings.retain(|fi| {
        if fi.rule == "allow" {
            return true;
        }
        for sc in scopes.iter_mut() {
            if sc.path == fi.path
                && sc.lines.0 <= fi.line
                && fi.line <= sc.lines.1
                && sc.rules.iter().any(|r| r == fi.rule)
            {
                sc.used = true;
                return false;
            }
        }
        true
    });

    for sc in &scopes {
        if sc.well_formed && !sc.used {
            findings.push(Finding {
                path: sc.path.clone(),
                line: sc.lines.0,
                rule: "allow",
                message: format!(
                    "audit:allow({}) suppresses no findings; remove the stale annotation",
                    sc.rules.join(", ")
                ),
            });
        }
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<Finding> {
        analyze_sources(&[SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- rule `panic`: known-bad fixtures must be flagged ---

    #[test]
    fn panic_rule_flags_unwrap_in_client_verify_methods() {
        let f = one(
            "crates/core/src/client.rs",
            "impl Client { fn verify(&self, x: Option<u32>) -> u32 { x.unwrap() } }",
        );
        assert!(rules_of(&f).contains(&"panic"), "{f:?}");
        assert!(
            f.iter().any(|x| x.message.contains("Client::verify")),
            "{f:?}"
        );
    }

    #[test]
    fn panic_rule_flags_expect_macros_and_indexing_in_reader_methods() {
        let src = "impl Reader {\n\
                   fn f(&self, v: Vec<u8>) -> u8 {\n\
                   let a = v.first().expect(\"boom\");\n\
                   if v.is_empty() { unreachable!() }\n\
                   v[0]\n\
                   }\n\
                   }";
        let f = one("crates/crypto/src/wire.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.rule == "panic")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![3, 4, 5], "{f:?}");
    }

    #[test]
    fn panic_rule_covers_decode_impls_in_any_file() {
        let src = "impl Decode for Foo { fn from_wire(d: &[u8]) -> u8 { d[0] } }";
        let f = one("crates/cuckoo/src/lib.rs", src);
        assert!(rules_of(&f).contains(&"panic"), "{f:?}");
    }

    #[test]
    fn panic_rule_walks_the_call_graph_to_helpers() {
        // The interprocedural core: the panic site is one call away from
        // the Decode entry point, in a fn no hand-maintained list names.
        let src = "impl Decode for Foo { fn from_wire(d: &[u8]) -> u8 { helper(d) } }\n\
                   fn helper(d: &[u8]) -> u8 { d[0] }";
        let f = one("crates/invindex/src/newmod.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "panic" && x.line == 2 && x.message.contains("Foo::from_wire")),
            "{f:?}"
        );
    }

    #[test]
    fn panic_rule_flags_nonconstant_division_in_reach() {
        let src = "impl Client { fn verify_avg(&self, sum: u64, n: u64) -> u64 { sum / n } }";
        let f = one("crates/core/src/client.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "panic" && x.message.contains("division")),
            "{f:?}"
        );
    }

    // --- rule `panic`: known-good fixtures must pass ---

    #[test]
    fn panic_rule_passes_checked_code_and_test_modules() {
        let src = "impl Reader {\n\
                   fn f<'a>(&self, buf: &mut [u8], v: &'a [u8]) -> Option<u8> {\n\
                   let x: [u8; 2] = [1, 2];\n\
                   let _ = (buf, x);\n\
                   v.get(0).copied()\n\
                   }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(v: Vec<u8>) -> u8 { v[0] } }";
        let f = one("crates/crypto/src/wire.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_rule_ignores_unreachable_helpers() {
        // Owner-side code no Decode/verify/Reader entry point reaches.
        let f = one(
            "crates/mrkd/src/build.rs",
            "fn build_index(v: Vec<u8>) -> u8 { v[0] }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // --- rule `determinism` ---

    #[test]
    fn determinism_rule_flags_hashmap_near_digest_code() {
        let src = "use std::collections::HashMap;\n\
                   fn d(h: &HashMap<u32, u32>) -> Digest { Digest::zero() }";
        let f = one("crates/core/src/owner.rs", src);
        assert!(rules_of(&f).contains(&"determinism"), "{f:?}");
    }

    #[test]
    fn determinism_rule_flags_wall_clock_and_float_reductions() {
        let src = "fn d(v: &[f32]) -> Digest {\n\
                   let t = std::time::Instant::now();\n\
                   let s = v.iter().sum::<f32>();\n\
                   let p = v.iter().fold(0.0f32, |a, b| a + b);\n\
                   Digest::of(s + p)\n\
                   }";
        let f = one("crates/akm/src/lib.rs", src);
        let det: Vec<usize> = f
            .iter()
            .filter(|x| x.rule == "determinism")
            .map(|x| x.line)
            .collect();
        assert_eq!(det, vec![2, 3, 4], "{f:?}");
    }

    #[test]
    fn determinism_rule_passes_btree_code_and_the_float_kernel() {
        let good = "use std::collections::BTreeMap;\n\
                    fn d(h: &BTreeMap<u32, u32>) -> Digest { Digest::zero() }";
        assert!(one("crates/core/src/owner.rs", good).is_empty());
        let kernel = "fn dot(v: &[f32]) -> f32 { let d: Digest; v.iter().sum::<f32>() }";
        assert!(one("crates/akm/src/kernel.rs", kernel).is_empty());
    }

    #[test]
    fn determinism_rule_skips_untriggered_and_bench_files() {
        // No Digest/Encode trigger: the collection half stays quiet.
        let src = "use std::collections::HashMap;\nfn f(h: HashMap<u32, u32>) {}";
        assert!(one("crates/mrkd/src/stats.rs", src).is_empty());
        let bench = "fn b() -> Digest { let h: HashMap<u32, u32>; Digest::zero() }";
        assert!(one("crates/bench/src/lib.rs", bench).is_empty());
    }

    #[test]
    fn time_rule_fires_everywhere_outside_obs() {
        // Self-test fixture for the time half: a raw Instant must be
        // flagged even in files the collection half skips (bench
        // harnesses, demo binaries, untriggered library code).
        let src = "fn f() { let t = std::time::Instant::now(); }";
        for path in [
            "crates/bench/src/measure.rs",
            "src/bin/imageproof-demo.rs",
            "examples/quickstart.rs",
            "crates/mrkd/src/stats.rs",
        ] {
            let f = one(path, src);
            assert!(
                f.iter()
                    .any(|x| x.rule == "determinism" && x.message.contains("Instant")),
                "{path}: {f:?}"
            );
        }
        let sys = "fn f() { let t = std::time::SystemTime::now(); }";
        let f = one("crates/core/src/sp.rs", sys);
        assert!(f.iter().any(|x| x.message.contains("SystemTime")), "{f:?}");
    }

    #[test]
    fn time_rule_allows_obs_vendor_and_test_code() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(one("crates/obs/src/clock.rs", src).is_empty());
        assert!(one("vendor/crossbeam/src/lib.rs", src).is_empty());
        let test_only =
            "#[cfg(test)]\nmod t { use std::time::Instant;\nfn f() { let t = Instant::now(); } }";
        assert!(one("crates/core/src/sp.rs", test_only).is_empty());
        // `Duration` is a plain value type, not a clock — never flagged.
        let dur = "fn f(d: std::time::Duration) -> u64 { d.as_micros() as u64 }";
        assert!(one("crates/core/src/sp.rs", dur).is_empty());
    }

    // --- rule `wire` ---

    #[test]
    fn wire_rule_flags_unpaired_encode_and_missing_roundtrip() {
        let src = "impl Encode for Foo { fn to_wire(&self) -> Vec<u8> { Vec::new() } }";
        let f = one("crates/mrkd/src/vo.rs", src);
        let msgs: Vec<&str> = f
            .iter()
            .filter(|x| x.rule == "wire")
            .map(|x| x.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 2, "{f:?}");
        assert!(msgs[0].contains("no matching impl Decode"));
        assert!(msgs[1].contains("no roundtrip test"));
    }

    #[test]
    fn wire_rule_flags_len_cast_but_accepts_seq_len() {
        let bad = "impl Encode for Foo { fn e(&self, w: &mut W) { w.u32(self.xs.len() as u32); } }";
        let f = one("crates/invindex/src/vo.rs", bad);
        assert!(
            f.iter()
                .any(|x| x.rule == "wire" && x.message.contains("seq_len")),
            "{f:?}"
        );
        let good =
            "impl Encode for Foo { fn e(&self, w: &mut W) { w.seq_len(self.xs.len() as u32); } }";
        let f = one("crates/invindex/src/vo.rs", good);
        assert!(
            !f.iter().any(|x| x.message.contains("usize length cast")),
            "{f:?}"
        );
    }

    #[test]
    fn wire_rule_passes_paired_impls_with_a_roundtrip_test() {
        let src = "impl Encode for Foo { fn to_wire(&self) -> Vec<u8> { Vec::new() } }\n\
                   impl Decode for Foo { fn from_wire(d: &[u8]) -> Option<Foo> { None } }\n\
                   #[cfg(test)]\n\
                   mod tests { fn rt() { let f = Foo::from_wire(&Foo.to_wire()); } }";
        let f = one("crates/mrkd/src/vo.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wire_rule_flags_a_shard_wire_type_without_a_roundtrip_test() {
        // Fixture mirroring a freshly added sharded wire type: Encode/Decode
        // are paired, but no test exercises the decoder. The rule must fire so
        // new shard VO types cannot land without decode-totality coverage.
        let src = "impl Encode for ShardFence { fn to_wire(&self) -> Vec<u8> { Vec::new() } }\n\
                   impl Decode for ShardFence { fn from_wire(d: &[u8]) -> Option<ShardFence> { None } }\n\
                   #[cfg(test)]\n\
                   mod tests { fn rt() { let _ = ShardManifest::from_wire(&[]); } }";
        let f = one("crates/core/src/shard.rs", src);
        let msgs: Vec<&str> = f
            .iter()
            .filter(|x| x.rule == "wire")
            .map(|x| x.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 1, "{f:?}");
        assert!(
            msgs[0].contains("no roundtrip test") && msgs[0].contains("ShardFence"),
            "{f:?}"
        );
    }

    // --- rule `unsafe` ---

    #[test]
    fn unsafe_rule_flags_unsafe_even_in_tests() {
        let f = one(
            "crates/akm/src/lib.rs",
            "#[cfg(test)]\nmod t { fn f(p: *const u8) -> u8 { unsafe { *p } } }",
        );
        assert!(rules_of(&f).contains(&"unsafe"), "{f:?}");
    }

    #[test]
    fn unsafe_rule_ignores_the_word_in_comments_and_strings() {
        let f = one(
            "crates/akm/src/lib.rs",
            "// unsafe here would be bad\nfn f() -> &'static str { \"unsafe\" }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_allowlist_admits_exactly_one_unsafe_beside_feature_detection() {
        let path = UNSAFE_ALLOW[0];
        let dispatch =
            "fn go(s: &mut S) { if is_x86_feature_detected!(\"avx512f\") { unsafe { wide(s) } } }";
        assert!(one(path, dispatch).is_empty());

        let second = format!("{dispatch}\nfn more(p: *const u8) -> u8 {{ unsafe {{ *p }} }}");
        let f = one(path, &second);
        assert_eq!(rules_of(&f), ["unsafe"], "{f:?}");
        assert_eq!(f[0].line, 2, "{f:?}");

        let unguarded = one(path, "fn go(s: &mut S) { unsafe { wide(s) } }");
        assert_eq!(rules_of(&unguarded), ["unsafe"], "{unguarded:?}");
        assert!(unguarded[0].message.contains("is_x86_feature_detected"));

        let idle = one(
            path,
            "fn go() -> bool { is_x86_feature_detected!(\"avx512f\") }",
        );
        assert_eq!(rules_of(&idle), ["unsafe"], "{idle:?}");

        // The same text anywhere else is still forbidden.
        let f = one("crates/crypto/src/sha3.rs", dispatch);
        assert_eq!(rules_of(&f), ["unsafe"], "{f:?}");
    }

    // --- rule `allow` + suppression ---

    #[test]
    fn allow_suppresses_on_same_line_and_line_above() {
        let above = "impl Client { fn verify(&self, x: Option<u32>) -> u32 {\n\
                     // audit:allow(panic) fixture: checked by caller\n\
                     x.unwrap()\n\
                     } }";
        assert!(one("crates/core/src/client.rs", above).is_empty());
        let trailing = "impl Client { fn verify(&self, x: Option<u32>) -> u32 { x.unwrap() } } // audit:allow(panic) fixture: checked";
        assert!(one("crates/core/src/client.rs", trailing).is_empty());
    }

    #[test]
    fn allow_does_not_suppress_other_rules_or_far_lines() {
        let wrong_rule = "impl Client { fn verify(&self, x: Option<u32>) -> u32 {\n\
                          // audit:allow(determinism) wrong rule named\n\
                          x.unwrap()\n\
                          } }";
        let f = one("crates/core/src/client.rs", wrong_rule);
        assert!(rules_of(&f).contains(&"panic"), "{f:?}");
        // ...and the mis-aimed annotation is itself reported as stale.
        assert!(
            f.iter()
                .any(|x| x.rule == "allow" && x.message.contains("suppresses no findings")),
            "{f:?}"
        );
        let far = "// audit:allow(panic) too far away\n\n\nimpl Client { fn verify(&self, x: Option<u32>) -> u32 { x.unwrap() } }";
        let f = one("crates/core/src/client.rs", far);
        assert!(rules_of(&f).contains(&"panic"), "{f:?}");
    }

    #[test]
    fn fn_level_allow_covers_the_whole_body() {
        // An allow on (or just above) a fn signature widens to the body —
        // the escape hatch for fixed-size kernels whose every line indexes.
        let src = "impl Reader {\n\
                   // audit:allow(panic) fixture kernel: indices proven in range by the type\n\
                   fn kernel(&self, v: &[u8; 4]) -> u8 {\n\
                   let a = v[0];\n\
                   let b = v[3];\n\
                   a ^ b\n\
                   }\n\
                   }";
        let f = one("crates/crypto/src/wire.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stale_allow_is_flagged() {
        let src = "// audit:allow(panic) nothing here can panic anymore\n\
                   fn calm() -> u32 { 1 }";
        let f = one("crates/core/src/client.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "allow" && x.message.contains("suppresses no findings")),
            "{f:?}"
        );
    }

    #[test]
    fn allow_rule_flags_missing_reason_and_unknown_rule() {
        let f = one(
            "crates/mrkd/src/verify.rs",
            "// audit:allow(panic)\nfn f() {}",
        );
        assert!(
            f.iter()
                .any(|x| x.rule == "allow" && x.message.contains("justification")),
            "{f:?}"
        );
        let f = one(
            "crates/mrkd/src/verify.rs",
            "// audit:allow(speed) because fast\nfn f() {}",
        );
        assert!(
            f.iter()
                .any(|x| x.rule == "allow" && x.message.contains("unknown rule")),
            "{f:?}"
        );
    }

    #[test]
    fn punctuation_only_reason_is_rejected() {
        let f = one(
            "crates/mrkd/src/verify.rs",
            "// audit:allow(panic) ---\nfn f() {}",
        );
        assert!(
            f.iter()
                .any(|x| x.rule == "allow" && x.message.contains("justification")),
            "{f:?}"
        );
    }

    // --- rules `alloc` / `lockorder` / `relaxed` through the full pipeline ---

    #[test]
    fn alloc_rule_fires_and_is_suppressible() {
        let bad = "impl Decode for Foo { fn from_wire(r: &mut Reader) -> Foo {\n\
                   let n = r.varint();\n\
                   let v = Vec::with_capacity(n as usize);\n\
                   Foo\n\
                   } }";
        let f = one("crates/invindex/src/vo.rs", bad);
        assert!(rules_of(&f).contains(&"alloc"), "{f:?}");
        let allowed = "impl Decode for Foo { fn from_wire(r: &mut Reader) -> Foo {\n\
                   let n = r.varint();\n\
                   // audit:allow(alloc) fixture: capacity capped by caller contract\n\
                   let v = Vec::with_capacity(n as usize);\n\
                   Foo\n\
                   } }";
        let f = one("crates/invindex/src/vo.rs", allowed);
        assert!(!rules_of(&f).contains(&"alloc"), "{f:?}");
    }

    #[test]
    fn relaxed_rule_fires_and_allow_with_reason_suppresses() {
        let bad = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let f = one("crates/obs/src/metrics.rs", bad);
        assert!(rules_of(&f).contains(&"relaxed"), "{f:?}");
        let good = "fn bump(c: &AtomicU64) {\n\
                    c.fetch_add(1, Ordering::Relaxed); // audit:allow(relaxed) monotonic counter; readers tolerate lag\n\
                    }";
        let f = one("crates/obs/src/metrics.rs", good);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lockorder_rule_fires_through_the_pipeline() {
        let src = "impl Registry { fn bad(&self) -> (usize, usize) {\n\
                   (self.histograms.lock().len(), self.counters.lock().len())\n\
                   } }";
        let f = one("crates/obs/src/metrics.rs", src);
        assert!(rules_of(&f).contains(&"lockorder"), "{f:?}");
    }

    #[test]
    fn roundtrip_coverage_counts_integration_test_files() {
        let vo = SourceFile {
            path: "crates/mrkd/src/vo.rs".to_string(),
            text: "impl Encode for Foo { fn to_wire(&self) {} }\n\
                   impl Decode for Foo { fn from_wire(d: &[u8]) {} }"
                .to_string(),
        };
        let t = SourceFile {
            path: "tests/decode_fuzz.rs".to_string(),
            text: "fn rt() { let f = Foo::from_wire(&[]); }".to_string(),
        };
        let f = analyze_sources(&[vo, t]);
        assert!(f.is_empty(), "{f:?}");
    }
}
