//! Rules `lockorder` and `relaxed`: concurrency lints for the crates that
//! actually share mutable state across threads (`crates/obs`,
//! `crates/parallel`).
//!
//! **Lock order.** [`LOCK_ORDER`] declares the one legal acquisition order
//! for the workspace's named mutexes. The pass finds every `.lock()` site,
//! derives nesting two ways — two acquisitions in the same statement
//! (temporaries live to the statement's end, as in `Registry::snapshot`'s
//! struct literal), and a `let`-bound guard held to the end of its
//! enclosing block — and flags recursive acquisition (parking_lot mutexes
//! are not reentrant), acquisition against the declared order, and any
//! nested lock missing from the manifest. Calls made while a guard is held
//! are checked interprocedurally: if the callee (transitively) acquires
//! the same lock, that is a self-deadlock.
//!
//! **Relaxed.** `Ordering::Relaxed` is usually right for monotonic
//! counters, but each use on a cross-thread-read metric must say *why*
//! relaxed is sound via `audit:allow(relaxed) <reason>` — so new code
//! can't silently inherit the weakest ordering.

use crate::lexer::{self, Scrubbed};
use crate::model::Model;
use crate::rules::{Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// The declared workspace lock-order manifest: an earlier lock may be held
/// while taking a later one, never the reverse.
pub const LOCK_ORDER: &[&str] = &["counters", "histograms", "collected"];

/// File prefixes the concurrency lints apply to.
const SCOPE: &[&str] = &["crates/obs/", "crates/parallel/"];

fn in_scope(path: &str) -> bool {
    SCOPE.iter().any(|p| path.starts_with(p))
}

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
struct LockSite {
    pos: usize,
    name: String,
}

/// Runs both lints.
pub fn check(files: &[SourceFile], scrubbed: &[Scrubbed], model: &Model, out: &mut Vec<Finding>) {
    // Transitive lock sets per function, for the held-guard call check.
    let trans = transitive_locks(model, scrubbed);

    for (fi, d) in model.fns.iter().enumerate() {
        if d.in_test || !in_scope(&model.file_paths[d.file]) {
            continue;
        }
        let Some((b0, b1)) = d.body else { continue };
        let s = &scrubbed[d.file];
        let path = &files[d.file].path;
        let sites = lock_sites(&s.text, b0, b1);

        // Nesting by same-statement temporaries.
        for (a, b) in same_statement_pairs(&s.text, &sites) {
            check_pair(path, s, &sites[a], &sites[b], out);
        }

        // Nesting by a let-bound guard held to end of block.
        for (gi, g) in sites.iter().enumerate() {
            let Some(region) = guard_region(&s.text, b0, b1, g.pos) else {
                continue;
            };
            for (bi, inner) in sites.iter().enumerate() {
                if bi != gi && inner.pos > region.0 && inner.pos < region.1 {
                    // Same-statement pairs were already checked above.
                    if !same_statement(&s.text, g.pos, inner.pos) {
                        check_pair(path, s, g, inner, out);
                    }
                }
            }
            // Calls made while the guard is held.
            for (cpos, callee) in named_calls(&s.text, region.0, region.1) {
                for (&ci, locks) in &trans {
                    if model.fns[ci].name == callee && ci != fi && locks.contains(&g.name) {
                        out.push(Finding {
                            path: path.clone(),
                            line: s.line_of(cpos),
                            rule: "lockorder",
                            message: format!(
                                "call to `{callee}` while holding `{}`, which it (transitively) re-acquires — self-deadlock",
                                g.name
                            ),
                        });
                        break;
                    }
                }
            }
        }
    }

    check_relaxed(files, scrubbed, out);
}

/// Flags one nested acquisition pair (outer `a`, inner `b`).
fn check_pair(path: &str, s: &Scrubbed, a: &LockSite, b: &LockSite, out: &mut Vec<Finding>) {
    let mut push = |pos: usize, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line: s.line_of(pos),
            rule: "lockorder",
            message,
        });
    };
    if a.name == b.name {
        push(
            b.pos,
            format!(
                "`{}` acquired while already held (parking_lot mutexes are not reentrant)",
                a.name
            ),
        );
        return;
    }
    let ia = LOCK_ORDER.iter().position(|&l| l == a.name);
    let ib = LOCK_ORDER.iter().position(|&l| l == b.name);
    match (ia, ib) {
        (Some(ia), Some(ib)) if ia > ib => push(
            b.pos,
            format!(
                "`{}` acquired while holding `{}` violates the declared lock order [{}]",
                b.name,
                a.name,
                LOCK_ORDER.join(" < ")
            ),
        ),
        (None, _) => push(
            a.pos,
            format!(
                "nested lock `{}` is not in the declared lock-order manifest",
                a.name
            ),
        ),
        (_, None) => push(
            b.pos,
            format!(
                "nested lock `{}` is not in the declared lock-order manifest",
                b.name
            ),
        ),
        _ => {}
    }
}

/// Every `.lock()` call in `text[from..to]` with its receiver's final
/// path segment.
fn lock_sites(text: &str, from: usize, to: usize) -> Vec<LockSite> {
    let bytes = text.as_bytes();
    let to = to.min(bytes.len());
    let mut sites = Vec::new();
    let mut i = from;
    while let Some(pos) = lexer::find_word(bytes, b"lock", i) {
        if pos >= to {
            break;
        }
        i = pos + 1;
        if pos == 0 || bytes[pos - 1] != b'.' || bytes.get(pos + 4) != Some(&b'(') {
            continue;
        }
        // Receiver: the identifier before the dot, across line breaks
        // (`self.counters\n    .lock()`).
        let mut e = pos - 1;
        while e > 0 && bytes[e - 1].is_ascii_whitespace() {
            e -= 1;
        }
        let mut st = e;
        while st > 0 && lexer::is_ident(bytes[st - 1]) {
            st -= 1;
        }
        if st == e {
            continue; // `).lock()` — receiver expression unnamed, skip
        }
        sites.push(LockSite {
            pos,
            name: text[st..e].to_string(),
        });
    }
    sites
}

/// True when no statement terminator separates the two offsets.
fn same_statement(text: &str, a: usize, b: usize) -> bool {
    !text[a..b].contains(';')
}

/// Ordered index pairs of sites nested by same-statement temporaries.
fn same_statement_pairs(text: &str, sites: &[LockSite]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for a in 0..sites.len() {
        for b in (a + 1)..sites.len() {
            if same_statement(text, sites[a].pos, sites[b].pos) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// If the statement containing `pos` is a `let` binding, the byte range
/// over which its guard stays alive: from the end of that statement to the
/// end of the innermost block containing it.
fn guard_region(text: &str, b0: usize, b1: usize, pos: usize) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    // Statement start: after the previous `;`, `{`, or `}`.
    let stmt_start = text[b0..pos]
        .rfind([';', '{', '}'])
        .map(|p| b0 + p + 1)
        .unwrap_or(b0);
    let first = lexer::skip_ws(bytes, stmt_start);
    let (word, _) = lexer::read_word(bytes, first);
    if word != "let" {
        return None;
    }
    let stmt_end = text[pos..b1].find(';').map(|p| pos + p).unwrap_or(b1);
    // Innermost enclosing block: the smallest `{ … }` within the body that
    // contains the site.
    let mut best = (b0, b1);
    let mut i = b0;
    while i < pos {
        if bytes[i] == b'{' {
            if let Some(end) = lexer::matching_brace(bytes, i) {
                if end > pos && end - i < best.1 - best.0 {
                    best = (i, end);
                }
            }
        }
        i += 1;
    }
    Some((stmt_end, best.1.min(b1)))
}

/// `(offset, name)` of plain `name(..)` / `.name(..)` call sites in a
/// range — enough to look up workspace functions by name.
fn named_calls(text: &str, from: usize, to: usize) -> Vec<(usize, String)> {
    let bytes = text.as_bytes();
    let to = to.min(bytes.len());
    let mut calls = Vec::new();
    for pos in from..to {
        if bytes[pos] != b'(' || pos == 0 || !lexer::is_ident(bytes[pos - 1]) {
            continue;
        }
        let mut st = pos;
        while st > 0 && lexer::is_ident(bytes[st - 1]) {
            st -= 1;
        }
        let name = &text[st..pos];
        if name == "lock" || name.starts_with(|c: char| c.is_ascii_digit()) {
            continue;
        }
        calls.push((pos, name.to_string()));
    }
    calls
}

/// Direct + transitive lock names acquired by each in-scope function.
fn transitive_locks(model: &Model, scrubbed: &[Scrubbed]) -> BTreeMap<usize, BTreeSet<String>> {
    let mut direct: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (fi, d) in model.fns.iter().enumerate() {
        if d.in_test || !in_scope(&model.file_paths[d.file]) {
            continue;
        }
        let Some((b0, b1)) = d.body else { continue };
        let names: BTreeSet<String> = lock_sites(&scrubbed[d.file].text, b0, b1)
            .into_iter()
            .map(|s| s.name)
            .collect();
        direct.insert(fi, names);
    }
    // Close over call edges between in-scope functions.
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        let keys: Vec<usize> = trans.keys().copied().collect();
        for &fi in &keys {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for &callee in &model.calls[fi] {
                if let Some(locks) = trans.get(&callee) {
                    add.extend(locks.iter().cloned());
                }
            }
            let set = trans.get_mut(&fi).expect("key from keys()");
            let before = set.len();
            set.extend(add);
            changed |= set.len() != before;
        }
        if !changed {
            break;
        }
    }
    trans
}

/// Rule `relaxed`: each `Ordering::Relaxed` outside tests needs an
/// `audit:allow(relaxed)` justification.
fn check_relaxed(files: &[SourceFile], scrubbed: &[Scrubbed], out: &mut Vec<Finding>) {
    for (f, s) in files.iter().zip(scrubbed) {
        if !in_scope(&f.path) || crate::rules::is_test_path(&f.path) {
            continue;
        }
        let bytes = s.text.as_bytes();
        let tests = lexer::test_regions(&s.text);
        let mut i = 0;
        while let Some(pos) = lexer::find_word(bytes, b"Relaxed", i) {
            i = pos + 1;
            if tests.iter().any(|&(a, b)| pos >= a && pos < b) {
                continue;
            }
            // Must be the atomic ordering (`Ordering::Relaxed`), not
            // `cmp::Ordering` variants (those are Less/Equal/Greater).
            if pos < 2 || bytes[pos - 1] != b':' || bytes[pos - 2] != b':' {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: s.line_of(pos),
                rule: "relaxed",
                message: "Ordering::Relaxed on a cross-thread atomic; justify with audit:allow(relaxed) <why relaxed is sound>".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn run(path: &str, text: &str) -> Vec<Finding> {
        let files = vec![SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }];
        let scrubbed: Vec<Scrubbed> = files.iter().map(|f| scrub(&f.text)).collect();
        let model = Model::build(&files, &scrubbed);
        let mut out = Vec::new();
        check(&files, &scrubbed, &model, &mut out);
        out
    }

    #[test]
    fn out_of_order_same_statement_acquisition_fires() {
        let src = "impl Registry { fn bad(&self) -> (usize, usize) {\n\
                   (self.histograms.lock().len(), self.counters.lock().len())\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "lockorder" && x.message.contains("declared lock order")),
            "{f:?}"
        );
    }

    #[test]
    fn declared_order_nesting_is_clean() {
        let src = "impl Registry { fn snap(&self) -> Snap {\n\
                   Snap { c: self.counters.lock().len(), h: self.histograms.lock().len() }\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(f.iter().all(|x| x.rule != "lockorder"), "{f:?}");
    }

    #[test]
    fn recursive_same_statement_acquisition_fires() {
        let src = "impl Registry { fn twice(&self) -> usize {\n\
                   self.counters.lock().len() + self.counters.lock().len()\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "lockorder" && x.message.contains("not reentrant")),
            "{f:?}"
        );
    }

    #[test]
    fn undeclared_lock_in_nesting_fires() {
        let src = "impl Registry { fn rogue(&self) -> usize {\n\
                   self.counters.lock().len() + self.rogue_cache.lock().len()\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "lockorder" && x.message.contains("manifest")),
            "{f:?}"
        );
    }

    #[test]
    fn guard_held_across_out_of_order_lock_fires() {
        let src = "impl Registry { fn held(&self) -> usize {\n\
                   let g = self.histograms.lock();\n\
                   let c = self.counters.lock();\n\
                   g.len() + c.len()\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "lockorder" && x.message.contains("declared lock order")),
            "{f:?}"
        );
    }

    #[test]
    fn guard_dropped_by_statement_end_is_clean() {
        let src = "impl Registry { fn seq(&self) {\n\
                   self.histograms.lock().clear();\n\
                   self.counters.lock().clear();\n\
                   } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(f.iter().all(|x| x.rule != "lockorder"), "{f:?}");
    }

    #[test]
    fn call_reacquiring_a_held_lock_fires() {
        let src = "impl Registry { fn outer(&self) -> usize {\n\
                   let g = self.counters.lock();\n\
                   self.inner_count();\n\
                   g.len()\n\
                   }\n\
                   fn inner_count(&self) -> usize { self.counters.lock().len() } }";
        let f = run("crates/obs/src/metrics.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "lockorder" && x.message.contains("self-deadlock")),
            "{f:?}"
        );
    }

    #[test]
    fn relaxed_ordering_fires_outside_tests_only() {
        let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n\
                   #[cfg(test)]\nmod t { fn x(c: &AtomicU64) { c.load(Ordering::Relaxed); } }";
        let f = run("crates/obs/src/metrics.rs", src);
        let relaxed: Vec<_> = f.iter().filter(|x| x.rule == "relaxed").collect();
        assert_eq!(relaxed.len(), 1, "{f:?}");
        assert_eq!(relaxed[0].line, 1);
    }

    #[test]
    fn relaxed_load_fires_and_cmp_ordering_does_not() {
        let src = "fn get(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n\
                   fn cmp(a: u32, b: u32) -> Ordering { a.cmp(&b) }";
        let f = run("crates/parallel/src/lib.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == "relaxed").count(), 1, "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_are_not_linted() {
        let src = "impl S { fn bad(&self) -> usize {\n\
                   self.histograms.lock().len() + self.counters.lock().len()\n\
                   } }\n\
                   fn r(c: &AtomicU64) { c.load(Ordering::Relaxed); }";
        let f = run("crates/core/src/sp.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
