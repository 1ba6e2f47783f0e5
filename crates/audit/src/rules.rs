//! The audit rule families.
//!
//! Every rule works on [`crate::lexer::scrub`]bed text, so comments and
//! string literals never produce findings. Rules are deliberately
//! syntactic — the goal is not a type checker but a cheap, zero-dependency
//! gate that makes the paper's total-verifier assumption machine-checked:
//! the client must be able to consume arbitrary attacker-controlled bytes
//! without panicking or over-allocating. Properties rustc and clippy check
//! on their own (`unsafe_code`, the clock and hash-collection bans in
//! `clippy.toml`) are left to them.

use crate::lexer::{self, Scrubbed};
use crate::model::Model;

/// Rule names a `// audit:allow(<rule>) <reason>` annotation may name.
pub const SUPPRESSIBLE: &[&str] = &["panic", "wire", "deps", "alloc"];

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

/// Keywords that may directly precede `[` without it being an index
/// expression (`&mut [u8]`, `return [a, b]`, …).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "impl", "return", "else", "in", "match", "if", "as", "move", "ref", "const",
    "break", "static", "where",
];

/// Runs every source-level rule over the workspace — the annotation check,
/// wire pairing, and the two interprocedural passes over the item/call
/// model — and applies `audit:allow` suppression with stale-annotation
/// detection.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Finding> {
    let scrubbed: Vec<Scrubbed> = files.iter().map(|f| lexer::scrub(&f.text)).collect();
    let model = Model::build(files, &scrubbed);
    let mut findings = Vec::new();
    for (f, s) in files.iter().zip(&scrubbed) {
        check_allows(f, s, &mut findings);
    }
    check_wire_pairing(files, &scrubbed, &mut findings);
    crate::reach::check(files, &scrubbed, &model, &mut findings);
    crate::dataflow::check(files, &scrubbed, &model, &mut findings);
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

/// Rule `wire`: every non-test `impl Encode for T` needs a matching
/// `impl Decode for T` and a test that roundtrips `T` through `from_wire`.
/// (Length prefixes need no rule of their own: `Writer::seq_len` writes a
/// fixed-width u32, a mismatched width fails the roundtrip tests, and
/// `alloc` polices any length a reader allocates from.)
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
                          // audit:allow(alloc) wrong rule named\n\
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

    // --- rule `alloc` through the full pipeline ---

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
