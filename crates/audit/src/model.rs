//! A lightweight workspace item/call model.
//!
//! [`Model::build`] parses every non-test, non-vendored source file into
//! function items (with the `impl`/`trait` block each lives in) and
//! syntactic call edges between them, resolved by the path forms this
//! codebase actually uses:
//!
//! * `free_fn(..)` and `module::free_fn(..)`
//! * `Type::assoc(..)` and `Self::assoc(..)`
//! * `self.method(..)` and `expr.method(..)`
//!
//! Resolution is name-based and deliberately over-approximate: a call that
//! cannot be pinned to one item fans out to every function with a matching
//! name, so the interprocedural passes (panic reachability,
//! hostile-allocation dataflow) err on the side of checking *more* code,
//! never less. Vendored third-party stubs and test code are excluded — they are
//! neither adversary-facing nor call targets of product code.

use crate::lexer::{self, Scrubbed};
use crate::rules::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One function item in the model.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into the file list the model was built from.
    pub file: usize,
    pub name: String,
    /// `Foo` for `impl Foo`, `impl Trait for Foo`, and items declared
    /// inside `trait Foo { … }`; `None` for free functions.
    pub self_type: Option<String>,
    /// `Trait` for `impl Trait for Foo` and for items declared inside
    /// `trait Trait { … }` (default methods included).
    pub trait_name: Option<String>,
    /// Byte offset of the `fn` keyword in the scrubbed text.
    pub sig_start: usize,
    /// Byte range of the `{ … }` body; `None` for bodyless signatures.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnDef {
    /// `Type::name` or bare `name`, for findings and messages.
    pub fn qual_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallForm {
    /// `name(..)` with no qualifier.
    Free { name: String },
    /// `qual::name(..)` — `qual` is the immediate path segment.
    Qualified { qual: String, name: String },
    /// `recv.name(..)`; `on_self` when the receiver token is `self`;
    /// `recv` is the receiver identifier when it is a plain one (a type
    /// hint — locals here are conventionally named after their type).
    Method {
        name: String,
        on_self: bool,
        recv: Option<String>,
    },
}

/// Keywords (and prelude constructors) that look like `ident(` but are
/// never workspace function calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "ref",
    "mut", "let", "where", "impl", "dyn", "use", "pub", "crate", "super", "break", "continue",
    "unsafe", "static", "const", "type", "enum", "struct", "trait", "mod", "Some", "None", "Ok",
    "Err", "self", "true", "false",
];

/// Method names dominated by std containers and primitives. A `.len()` or
/// `.get()` on an untyped receiver is almost always `Vec`/slice/map, not a
/// workspace method; fanning these out to every same-named workspace item
/// welds unrelated crates together and inflates every interprocedural
/// frontier. Receivers we *can* type (`self.…`, or a receiver named after
/// its type) still resolve precisely.
const STD_SHADOWED_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clear",
    "extend",
    "entry",
    "clone",
    "to_vec",
    "as_slice",
    "as_bytes",
    "as_str",
    "to_string",
    "sort",
    "sort_by",
    "split_at",
    "chunks",
    "windows",
    "default",
    "min",
    "max",
    "abs",
];

/// `T`, `K`, `V1`, … — the shapes type parameters take in this workspace.
/// Only these quals may fan a `Qual::assoc(..)` call out to every impl;
/// `Vec::new(..)`/`Mutex::lock(..)` on std types must resolve to nothing
/// rather than to every workspace `new`.
fn is_generic_param(qual: &str) -> bool {
    let mut chars = qual.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_uppercase())
        && qual.len() <= 2
        && chars.all(|c| c.is_ascii_digit())
}

/// Whether a receiver identifier names a value of type `ty` by convention:
/// `codebook` / `query_codebook` for `Codebook`. Conservative — used only
/// to *narrow* resolution, never to widen it.
fn recv_matches_type(recv: &str, ty: &str) -> bool {
    let snake = camel_to_snake(ty);
    recv == snake || recv.ends_with(&format!("_{snake}"))
}

fn camel_to_snake(ty: &str) -> String {
    let mut out = String::with_capacity(ty.len() + 4);
    for (i, c) in ty.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The workspace item/call model: functions plus resolved call edges.
pub struct Model {
    pub fns: Vec<FnDef>,
    /// `calls[i]` = indices of functions `fns[i]` may call.
    pub calls: Vec<BTreeSet<usize>>,
    /// Files the model was built over (workspace-relative paths).
    pub file_paths: Vec<String>,
    /// Per-file model inclusion (false for vendored / test-path files).
    pub file_in_model: Vec<bool>,
}

impl Model {
    /// Whether a file participates in the model (product code only).
    fn models_file(path: &str) -> bool {
        !path.starts_with("vendor/") && !crate::rules::is_test_path(path)
    }

    pub fn build(files: &[SourceFile], scrubbed: &[Scrubbed]) -> Model {
        let mut fns: Vec<FnDef> = Vec::new();
        let file_in_model: Vec<bool> = files.iter().map(|f| Self::models_file(&f.path)).collect();
        for (idx, s) in scrubbed.iter().enumerate() {
            if !file_in_model[idx] {
                continue;
            }
            collect_fns(idx, s, &mut fns);
        }

        // Name-resolution indexes over non-test functions.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_and_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_trait_and_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, d) in fns.iter().enumerate() {
            if d.in_test {
                continue;
            }
            by_name.entry(&d.name).or_default().push(i);
            if let Some(t) = &d.trait_name {
                by_trait_and_name
                    .entry((t.as_str(), d.name.as_str()))
                    .or_default()
                    .push(i);
            }
            match &d.self_type {
                Some(t) => {
                    methods_by_name.entry(&d.name).or_default().push(i);
                    by_type_and_name
                        .entry((t.as_str(), d.name.as_str()))
                        .or_default()
                        .push(i);
                }
                None => free_by_name.entry(&d.name).or_default().push(i),
            }
        }

        let mut calls: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fns.len()];
        for (i, d) in fns.iter().enumerate() {
            let Some((b0, b1)) = d.body else { continue };
            let text = &scrubbed[d.file].text;
            for site in call_sites(text, b0, b1) {
                let targets: Vec<usize> = match &site {
                    CallForm::Free { name } => free_by_name.get(name.as_str()).cloned(),
                    CallForm::Qualified { qual, name } => {
                        let qual = if qual == "Self" {
                            d.self_type.clone().unwrap_or_else(|| qual.clone())
                        } else {
                            qual.clone()
                        };
                        if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
                            // `Type::assoc` resolves to the type's own
                            // items; `Trait::assoc` to every impl of that
                            // trait; a generic `T::f` dispatches to any
                            // same-named fn. Anything else uppercase is a
                            // std/extern type (`Vec::new`) — no workspace
                            // target, no edge.
                            by_type_and_name
                                .get(&(qual.as_str(), name.as_str()))
                                .or_else(|| by_trait_and_name.get(&(qual.as_str(), name.as_str())))
                                .cloned()
                                .or_else(|| {
                                    is_generic_param(&qual)
                                        .then(|| by_name.get(name.as_str()).cloned())
                                        .flatten()
                                })
                        } else {
                            // `module::free_fn`: prefer fns living in a
                            // file matching the module segment.
                            free_by_name.get(name.as_str()).map(|cands| {
                                let seg_rs = format!("/{qual}.rs");
                                let seg_dir = format!("/{qual}/");
                                let narrowed: Vec<usize> = cands
                                    .iter()
                                    .copied()
                                    .filter(|&c| {
                                        let p = &files[fns[c].file].path;
                                        p.ends_with(&seg_rs) || p.contains(&seg_dir)
                                    })
                                    .collect();
                                if narrowed.is_empty() {
                                    cands.clone()
                                } else {
                                    narrowed
                                }
                            })
                        }
                    }
                    CallForm::Method {
                        name,
                        on_self,
                        recv,
                    } => {
                        let own = d
                            .self_type
                            .as_deref()
                            .and_then(|t| by_type_and_name.get(&(t, name.as_str())).cloned());
                        // A receiver named after a workspace type that
                        // defines this method pins the call to that type.
                        let hinted: Option<Vec<usize>> = recv.as_deref().and_then(|r| {
                            let matched: Vec<usize> = by_type_and_name
                                .iter()
                                .filter(|((t, n), _)| *n == name && recv_matches_type(r, t))
                                .flat_map(|(_, v)| v.iter().copied())
                                .collect();
                            (!matched.is_empty()).then_some(matched)
                        });
                        if *on_self && own.is_some() {
                            own
                        } else if hinted.is_some() {
                            hinted
                        } else if STD_SHADOWED_METHODS.contains(&name.as_str()) {
                            // An untyped `.len()`/`.get()` receiver is a
                            // std container, not a workspace call.
                            None
                        } else {
                            // Otherwise an unqualified receiver dispatches
                            // to any same-named method in the workspace.
                            methods_by_name.get(name.as_str()).cloned()
                        }
                    }
                }
                .unwrap_or_default();
                calls[i].extend(targets);
            }
        }

        Model {
            fns,
            calls,
            file_paths: files.iter().map(|f| f.path.clone()).collect(),
            file_in_model,
        }
    }

    /// BFS over call edges from `seeds`; returns every reachable function
    /// index mapped to the seed it was first discovered from (seeds map to
    /// themselves).
    pub fn reachable_from(&self, seeds: &[usize]) -> BTreeMap<usize, usize> {
        let mut origin: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier: Vec<usize> = Vec::new();
        for &s in seeds {
            if origin.insert(s, s).is_none() {
                frontier.push(s);
            }
        }
        while let Some(f) = frontier.pop() {
            let seed = origin[&f];
            for &callee in &self.calls[f] {
                if self.fns[callee].in_test {
                    continue;
                }
                if origin.insert(callee, seed).is_none() {
                    frontier.push(callee);
                }
            }
        }
        origin
    }
}

/// Scans one file for `fn` items.
fn collect_fns(file: usize, s: &Scrubbed, out: &mut Vec<FnDef>) {
    let bytes = s.text.as_bytes();
    let items = lexer::all_item_blocks(&s.text);
    let tests = lexer::test_regions(&s.text);
    let in_tests = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos < b);

    let mut i = 0usize;
    while let Some(pos) = lexer::find_word(bytes, b"fn", i) {
        i = pos + 2;
        let j = lexer::skip_ws(bytes, pos + 2);
        let (name, after_name) = lexer::read_word(bytes, j);
        if name.is_empty() {
            continue; // `fn(..)` pointer type
        }
        let mut k = lexer::skip_ws(bytes, after_name);
        if bytes.get(k) == Some(&b'<') {
            k = lexer::skip_angles(bytes, k);
        }
        let k = lexer::skip_ws(bytes, k);
        if bytes.get(k) != Some(&b'(') {
            continue;
        }
        let Some(params_end) = matching_paren(bytes, k) else {
            continue;
        };
        // Scan past the return type / where clause to the body `{` or a
        // terminating `;`, skipping `[u8; 32]`-style bracket groups whose
        // `;` is not a terminator.
        let mut t = params_end;
        let mut body = None;
        while t < bytes.len() {
            match bytes[t] {
                b'[' => {
                    t = matching_bracket(bytes, t).unwrap_or(bytes.len());
                }
                b'{' => {
                    let end = lexer::matching_brace(bytes, t).unwrap_or(bytes.len());
                    body = Some((t, end));
                    break;
                }
                b';' => break,
                _ => t += 1,
            }
        }
        let item = items
            .iter()
            .filter(|b| b.start <= pos && pos < b.end)
            .min_by_key(|b| b.end - b.start);
        out.push(FnDef {
            file,
            name,
            self_type: item.map(|b| b.type_name.clone()),
            trait_name: item.and_then(|b| b.trait_name.clone()),
            sig_start: pos,
            body,
            line: s.line_of(pos),
            in_test: in_tests(pos),
        });
        // `i` stays just past the `fn` keyword, so nested fns inside this
        // body are scanned as items of their own.
    }
}

/// Extracts every call site in `text[from..to]`.
pub fn call_sites(text: &str, from: usize, to: usize) -> Vec<CallForm> {
    let bytes = text.as_bytes();
    let mut sites = Vec::new();
    for pos in from..to.min(bytes.len()) {
        if bytes[pos] != b'(' {
            continue;
        }
        // The callee name must directly precede the `(`.
        if pos == 0 || !lexer::is_ident(bytes[pos - 1]) {
            continue;
        }
        let mut start = pos - 1;
        while start > 0 && lexer::is_ident(bytes[start - 1]) {
            start -= 1;
        }
        let name = &text[start..pos];
        if name.starts_with(|c: char| c.is_ascii_digit()) || NON_CALL_WORDS.contains(&name) {
            continue;
        }
        // `fn name(` is the definition, not a call.
        if preceded_by_word(bytes, start, b"fn") {
            continue;
        }
        let site = if start >= 1 && bytes[start - 1] == b'.' {
            let on_self = preceded_by_word(bytes, start - 1, b"self");
            // Capture a plain-identifier receiver (`reader.take(..)`) as a
            // type hint; `foo().bar(..)` / `x[i].bar(..)` receivers are
            // expressions and carry none.
            let recv = if on_self {
                None
            } else {
                let re = start - 1;
                let mut rs = re;
                while rs > 0 && lexer::is_ident(bytes[rs - 1]) {
                    rs -= 1;
                }
                // Only a standalone ident (not a field access / path tail).
                if rs < re
                    && (rs == 0 || (bytes[rs - 1] != b'.' && bytes[rs - 1] != b':'))
                    && !bytes[rs].is_ascii_digit()
                {
                    Some(text[rs..re].to_string())
                } else {
                    None
                }
            };
            CallForm::Method {
                name: name.to_string(),
                on_self,
                recv,
            }
        } else if start >= 2 && bytes[start - 1] == b':' && bytes[start - 2] == b':' {
            // Read the immediate qualifier segment.
            let mut qe = start - 2;
            while qe > 0 && bytes[qe - 1].is_ascii_whitespace() {
                qe -= 1;
            }
            let mut qs = qe;
            while qs > 0 && lexer::is_ident(bytes[qs - 1]) {
                qs -= 1;
            }
            if qs == qe {
                continue; // `<T as Trait>::f(` and friends — unmodeled
            }
            CallForm::Qualified {
                qual: text[qs..qe].to_string(),
                name: name.to_string(),
            }
        } else {
            CallForm::Free {
                name: name.to_string(),
            }
        };
        sites.push(site);
    }
    sites
}

/// True when the identifier ending just before `end` (skipping whitespace)
/// is exactly `word`.
fn preceded_by_word(bytes: &[u8], end: usize, word: &[u8]) -> bool {
    let mut e = end;
    while e > 0 && bytes[e - 1].is_ascii_whitespace() {
        e -= 1;
    }
    let mut s = e;
    while s > 0 && lexer::is_ident(bytes[s - 1]) {
        s -= 1;
    }
    &bytes[s..e] == word
}

fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    matching_delim(bytes, open, b'(', b')')
}

fn matching_bracket(bytes: &[u8], open: usize) -> Option<usize> {
    matching_delim(bytes, open, b'[', b']')
}

/// Offset one past the closer matching the opener at `open`.
fn matching_delim(bytes: &[u8], open: usize, o: u8, c: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<Scrubbed>) {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(p, t)| SourceFile {
                path: p.to_string(),
                text: t.to_string(),
            })
            .collect();
        let scrubbed = files.iter().map(|f| lexer::scrub(&f.text)).collect();
        (files, scrubbed)
    }

    fn idx(m: &Model, name: &str) -> usize {
        m.fns
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("fn {name} not in model"))
    }

    #[test]
    fn fns_get_their_impl_and_trait_context() {
        let (files, scrubbed) = model_of(&[(
            "crates/x/src/lib.rs",
            "impl Decode for Foo { fn decode(r: &mut Reader) -> Foo { helper() } }\n\
             impl Foo { fn inherent(&self) {} }\n\
             trait Decode { fn decode(r: &mut Reader) -> Self; fn from_wire(b: &[u8]) -> Self { Self::decode(b) } }\n\
             fn helper() {}",
        )]);
        let m = Model::build(&files, &scrubbed);
        let decode = &m.fns[idx(&m, "decode")];
        assert_eq!(decode.self_type.as_deref(), Some("Foo"));
        assert_eq!(decode.trait_name.as_deref(), Some("Decode"));
        let inherent = &m.fns[idx(&m, "inherent")];
        assert_eq!(inherent.self_type.as_deref(), Some("Foo"));
        assert_eq!(inherent.trait_name, None);
        let from_wire = &m.fns[idx(&m, "from_wire")];
        assert_eq!(from_wire.trait_name.as_deref(), Some("Decode"));
        let helper = &m.fns[idx(&m, "helper")];
        assert_eq!(helper.self_type, None);
    }

    #[test]
    fn call_edges_resolve_free_assoc_and_method_forms() {
        let (files, scrubbed) = model_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); Widget::make(); util::shared(); }\n\
                 fn helper() { }\n\
                 pub struct Widget;\n\
                 impl Widget { pub fn make() -> Widget { Widget } pub fn spin(&self) { self.inner() } fn inner(&self) {} }",
            ),
            ("crates/a/src/util.rs", "pub fn shared() {}"),
            ("crates/b/src/other.rs", "pub fn shared() {}"),
        ]);
        let m = Model::build(&files, &scrubbed);
        let entry = idx(&m, "entry");
        assert!(m.calls[entry].contains(&idx(&m, "helper")));
        assert!(m.calls[entry].contains(&idx(&m, "make")));
        // `util::shared` narrows to the file matching the module segment.
        let shared_in_util = m
            .fns
            .iter()
            .position(|d| d.name == "shared" && d.file == 1)
            .unwrap();
        let shared_in_other = m
            .fns
            .iter()
            .position(|d| d.name == "shared" && d.file == 2)
            .unwrap();
        assert!(m.calls[entry].contains(&shared_in_util));
        assert!(!m.calls[entry].contains(&shared_in_other));
        // `self.inner()` resolves within the impl.
        assert!(m.calls[idx(&m, "spin")].contains(&idx(&m, "inner")));
    }

    #[test]
    fn generic_assoc_calls_fan_out_to_every_impl() {
        let (files, scrubbed) = model_of(&[(
            "crates/a/src/lib.rs",
            "fn generic<T: Decode>(b: &[u8]) { T::decode(b); }\n\
             impl Decode for Foo { fn decode(b: &[u8]) {} }\n\
             impl Decode for Bar { fn decode(b: &[u8]) {} }",
        )]);
        let m = Model::build(&files, &scrubbed);
        let g = idx(&m, "generic");
        let decodes: Vec<usize> = m
            .fns
            .iter()
            .enumerate()
            .filter(|(_, d)| d.name == "decode")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(decodes.len(), 2);
        for d in decodes {
            assert!(m.calls[g].contains(&d), "generic call must reach impl {d}");
        }
    }

    #[test]
    fn reachability_walks_transitively_and_skips_tests() {
        let (files, scrubbed) = model_of(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}\n\
             #[cfg(test)]\nmod tests { fn c() {} }",
        )]);
        let m = Model::build(&files, &scrubbed);
        let reach = m.reachable_from(&[idx(&m, "a")]);
        assert!(reach.contains_key(&idx(&m, "b")));
        assert!(reach.contains_key(&idx(&m, "c")));
        assert!(!reach.contains_key(&idx(&m, "unrelated")));
        for &f in reach.keys() {
            assert!(!m.fns[f].in_test, "test fns are never reachable");
        }
    }

    #[test]
    fn vendored_and_test_files_are_excluded() {
        let (files, scrubbed) = model_of(&[
            ("vendor/rand/src/lib.rs", "pub fn gen() {}"),
            ("crates/a/tests/suite.rs", "fn t() {}"),
            ("crates/a/src/lib.rs", "fn live() {}"),
        ]);
        let m = Model::build(&files, &scrubbed);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "live");
    }

    #[test]
    fn bracketed_return_types_do_not_truncate_the_body() {
        let (files, scrubbed) = model_of(&[(
            "crates/a/src/lib.rs",
            "fn digest(&self) -> [u8; 32] { finish() }\nfn finish() -> [u8; 32] { [0; 32] }",
        )]);
        let m = Model::build(&files, &scrubbed);
        let d = &m.fns[idx(&m, "digest")];
        assert!(d.body.is_some(), "array return type must not look bodyless");
        assert!(m.calls[idx(&m, "digest")].contains(&idx(&m, "finish")));
    }
}
