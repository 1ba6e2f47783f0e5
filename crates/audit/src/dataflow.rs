//! Rule `alloc`, interprocedural scope / intraprocedural flow: hostile
//! allocation sizes.
//!
//! A malicious SP can put any integer on the wire, so a length read by
//! `Reader::varint`/`u32`/`u64` — or arithmetic derived from one, even
//! from an already-bounded `vseq_len` result (`n * RECORD_SIZE` can dwarf
//! the stream) — must flow through a bound check before it sizes an
//! allocation, a slice, or a loop. This pass tracks a three-state taint
//! per local variable through each function body and flags
//! `Vec::with_capacity`, `vec![..; n]`, `.reserve`, range slicing, and
//! `for … in 0..n` sinks fed by hostile values:
//!
//! * `Raw` — attacker-sized: hostile at every sink;
//! * `Counted` — a `seq_len`/`vseq_len`/`bound_len` result, a count no
//!   larger than the bytes left: fine as a loop bound or slice range, but
//!   still hostile as an allocation size, because each counted item may
//!   occupy many more bytes in memory than on the wire;
//! * `Bounded` — capped in bytes: safe everywhere.
//!
//! Sanitizers: `take`/`take_array`/`vbytes` (bounds-checked reads),
//! `checked_*` arithmetic, `.min(..)`, and an explicit `<`/`>` comparison
//! against the variable. Multiplication or shifting re-taints: a bounded
//! factor times anything is attacker-expandable.

use crate::lexer::{self, Scrubbed};
use crate::model::Model;
use crate::rules::{Finding, SourceFile};
use std::collections::BTreeMap;

/// Ordered from the weakest guarantee to the strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    /// Attacker-chosen magnitude: a raw wire integer or expansion thereof.
    Raw,
    /// A count checked against the remaining stream, not yet clamped in
    /// bytes.
    Counted,
    /// Capped in bytes, by a bounds-checked read, a clamp, or an explicit
    /// comparison.
    Bounded,
}

/// Reader methods that return an attacker-chosen integer. They are reads
/// (no arguments) — the same-named `Writer` methods take a value, so an
/// empty argument list is the discriminator.
const RAW_READS: &[&str] = &[".varint", ".u64", ".u32", ".u16", ".u8"];

/// Reader calls that return a count checked against the bytes left.
const COUNT_MARKS: &[&str] = &["vseq_len(", "seq_len(", "bound_len("];

/// Substrings whose presence means a value was bounds-checked at its
/// source or sanitized inline.
const BOUNDED_MARKS: &[&str] = &[
    "vbytes(",
    "take_array",
    ".take(",
    "checked_mul(",
    "checked_add(",
    "checked_sub(",
    "checked_shl(",
    "checked_div(",
    ".min(",
];

/// Runs the pass over every non-test function body in the model.
pub fn check(files: &[SourceFile], scrubbed: &[Scrubbed], model: &Model, out: &mut Vec<Finding>) {
    for d in &model.fns {
        if d.in_test {
            continue;
        }
        let Some((b0, b1)) = d.body else { continue };
        let s = &scrubbed[d.file];
        for (pos, var, sink) in hostile_sinks(&s.text, b0, b1) {
            out.push(Finding {
                path: files[d.file].path.clone(),
                line: s.line_of(pos),
                rule: "alloc",
                message: format!(
                    "wire-derived length `{var}` reaches {sink} without a bound in bytes (Reader::seq, a .min/checked_* clamp, or an explicit cap comparison)"
                ),
            });
        }
    }
}

/// Statement-level taint walk over `text[from..to]`; returns
/// `(offset, tainted value, sink description)` per finding.
pub fn hostile_sinks(text: &str, from: usize, to: usize) -> Vec<(usize, String, String)> {
    let mut vars: BTreeMap<String, Taint> = BTreeMap::new();
    let mut findings = Vec::new();
    for (seg_start, seg) in segments(text, from, to) {
        // Sinks first: a sanitizer inside this statement (`n.min(CAP)`)
        // is visible to the argument check itself, but a comparison later
        // in the statement must not retroactively bless it.
        check_sinks(seg, seg_start, &vars, &mut findings);

        // Assignment: classify the right-hand side.
        if let Some((name, rhs)) = assignment(seg) {
            match classify(rhs, &vars) {
                Some(t) => {
                    vars.insert(name, t);
                }
                None => {
                    vars.remove(&name);
                }
            }
        }

        // Explicit comparison sanitizes the compared variable from the
        // next statement on.
        let unbounded: Vec<String> = vars
            .iter()
            .filter(|&(_, &t)| t != Taint::Bounded)
            .map(|(n, _)| n.clone())
            .collect();
        for name in unbounded {
            if compared(seg, &name) || sanitized_by_call(seg, &name) {
                vars.insert(name, Taint::Bounded);
            }
        }
    }
    findings
}

/// Splits `text[from..to]` into statements at `;` (outside brackets and
/// parens, so `vec![0u8; n]` stays whole) and at braces.
fn segments(text: &str, from: usize, to: usize) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let to = to.min(bytes.len());
    let mut segs = Vec::new();
    let mut start = from;
    let mut depth = 0usize;
    for i in from..to {
        match bytes[i] {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => {
                segs.push((start, &text[start..i]));
                start = i + 1;
            }
            b'{' | b'}' => {
                segs.push((start, &text[start..i]));
                start = i + 1;
                depth = 0;
            }
            _ => {}
        }
    }
    if start < to {
        segs.push((start, &text[start..to]));
    }
    segs
}

/// Parses `let [mut] NAME = rhs` / `NAME = rhs` (not `==`, `+=`, …);
/// returns the bound name and the right-hand side.
fn assignment(seg: &str) -> Option<(String, &str)> {
    let bytes = seg.as_bytes();
    let eq = seg.find('=').filter(|&e| {
        bytes.get(e + 1) != Some(&b'=')
            && (e == 0
                || !matches!(
                    bytes[e - 1],
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                ))
    })?;
    let lhs = seg[..eq].trim();
    let lhs = lhs.strip_prefix("let ").unwrap_or(lhs).trim();
    let lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
    // Only simple `name` / `name: Type` bindings are tracked.
    let name_end = lhs.find(':').map(|c| lhs[..c].trim_end()).unwrap_or(lhs);
    if name_end.is_empty() || !name_end.bytes().all(lexer::is_ident) {
        return None;
    }
    Some((name_end.to_string(), &seg[eq + 1..]))
}

/// Taint of an expression, given current variable states. `None` means
/// untracked (not length-like).
fn classify(rhs: &str, vars: &BTreeMap<String, Taint>) -> Option<Taint> {
    let bounded_src = BOUNDED_MARKS.iter().any(|m| rhs.contains(m));
    let counted_src = COUNT_MARKS.iter().any(|m| rhs.contains(m));
    let raw_src = has_raw_read(rhs);
    let expand = has_expansion_op(rhs);
    let mut touched = Vec::new();
    for (name, &t) in vars {
        if word_in(rhs, name) {
            touched.push(t);
        }
    }
    if (bounded_src || counted_src) && !raw_src && !expand {
        return Some(if bounded_src {
            Taint::Bounded
        } else {
            Taint::Counted
        });
    }
    // bounded * anything is attacker-expandable.
    if raw_src || (expand && !touched.is_empty()) {
        return Some(Taint::Raw);
    }
    touched.into_iter().min()
}

/// A `.varint()`-style zero-argument Reader read somewhere in `s`.
fn has_raw_read(s: &str) -> bool {
    let bytes = s.as_bytes();
    RAW_READS.iter().any(|m| {
        let mut i = 0;
        while let Some(pos) = lexer::find_from(bytes, m.as_bytes(), i) {
            i = pos + 1;
            let after = lexer::skip_ws(bytes, pos + m.len());
            // Word boundary (`.u8` must not match `.u8_at`) then `()`.
            if bytes
                .get(pos + m.len())
                .is_some_and(|&b| lexer::is_ident(b))
            {
                continue;
            }
            if bytes.get(after) == Some(&b'(') {
                let inner = lexer::skip_ws(bytes, after + 1);
                if bytes.get(inner) == Some(&b')') {
                    return true;
                }
            }
        }
        false
    })
}

/// A binary `*` or `<<` (multiplication/shift, not deref or generics).
fn has_expansion_op(s: &str) -> bool {
    let bytes = s.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'*' => {
                let Some(prev) = bytes[..i].iter().rposition(|&c| !c.is_ascii_whitespace()) else {
                    continue;
                };
                // deref (`*x`, `&*x`) has an operator on the left;
                // multiplication has a value.
                if lexer::is_ident(bytes[prev]) || bytes[prev] == b')' || bytes[prev] == b']' {
                    return true;
                }
            }
            b'<' if bytes.get(i + 1) == Some(&b'<') && bytes.get(i + 2) != Some(&b'<') => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Identifier-boundary containment of `word` in `s`.
fn word_in(s: &str, word: &str) -> bool {
    lexer::find_word(s.as_bytes(), word.as_bytes(), 0).is_some()
}

/// Whether `seg` compares `name` with `<`/`>`/`<=`/`>=` (adjacency on
/// either side, so `if n > MAX` and `if MAX > n` both sanitize).
fn compared(seg: &str, name: &str) -> bool {
    let bytes = seg.as_bytes();
    let mut i = 0;
    while let Some(pos) = lexer::find_word(bytes, name.as_bytes(), i) {
        i = pos + 1;
        // Right neighbor.
        let r = lexer::skip_ws(bytes, pos + name.len());
        if matches!(bytes.get(r), Some(&b'<') | Some(&b'>'))
            && bytes.get(r + 1) != Some(&b'<')
            && bytes.get(r + 1) != Some(&b'>')
        {
            return true;
        }
        // Left neighbor (skipping ws): `MAX > n`, `MAX >= n`.
        if pos > 0 {
            let mut l = pos;
            while l > 0 && bytes[l - 1].is_ascii_whitespace() {
                l -= 1;
            }
            if l > 0 {
                let c = bytes[l - 1];
                let c2 = if l > 1 { Some(bytes[l - 2]) } else { None };
                if c == b'<' || c == b'>' {
                    if c2 != Some(b'<') && c2 != Some(b'>') && c2 != Some(b'-') {
                        return true;
                    }
                } else if c == b'=' && matches!(c2, Some(b'<') | Some(b'>')) {
                    return true;
                }
            }
        }
    }
    false
}

/// Whether `seg` feeds `name` through an explicit bounding call.
fn sanitized_by_call(seg: &str, name: &str) -> bool {
    word_in(seg, name)
        && [".min(", "checked_mul(", "checked_add("]
            .iter()
            .any(|m| seg.contains(m))
}

/// Flags allocation/slice/loop sinks in one statement fed by a Raw value.
fn check_sinks(
    seg: &str,
    seg_start: usize,
    vars: &BTreeMap<String, Taint>,
    out: &mut Vec<(usize, String, String)>,
) {
    let bytes = seg.as_bytes();
    // `alloc`: the sink reserves memory, so a mere count is hostile too.
    let mut push = |pos: usize, arg: &str, sink: &str, alloc: bool| {
        if let Some(culprit) = hostile_value(arg, vars, alloc) {
            out.push((seg_start + pos, culprit, sink.to_string()));
        }
    };

    for pat in ["with_capacity(", ".reserve("] {
        let mut i = 0;
        while let Some(pos) = lexer::find_from(bytes, pat.as_bytes(), i) {
            i = pos + 1;
            let open = pos + pat.len() - 1;
            let arg = paren_arg(seg, open);
            let sink = if pat.starts_with('.') {
                "reserve"
            } else {
                "with_capacity"
            };
            push(pos, arg, sink, true);
        }
    }
    // `vec![elem; len]` — the repeat length after the top-level `;`.
    let mut i = 0;
    while let Some(pos) = lexer::find_from(bytes, b"vec!", i) {
        i = pos + 1;
        let Some(open) = seg[pos..].find('[').map(|p| pos + p) else {
            continue;
        };
        let inner = bracket_arg(seg, open);
        if let Some(semi) = inner.rfind(';') {
            push(pos, &inner[semi + 1..], "vec![..; n]", true);
        }
    }
    // `for … in a..b` loop bounds.
    if lexer::find_word(bytes, b"for", 0).is_some() {
        if let Some(in_pos) = lexer::find_word(bytes, b"in", 0) {
            let range = &seg[in_pos + 2..];
            if range.contains("..") {
                push(in_pos, range, "a loop bound", false);
            }
        }
    }
    // Range slicing `x[a..b]` (plain `x[i]` indexing is the panic rule's).
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' && i > 0 && (lexer::is_ident(bytes[i - 1]) || bytes[i - 1] == b')') {
            let inner = bracket_arg(seg, i);
            if inner.contains("..") {
                push(i, inner, "a slice range", false);
            }
        }
        i += 1;
    }
}

/// The hostile variable or read feeding `arg`, if any. Inline sanitizers
/// (`.min(CAP)`, `checked_*`) clear it; an inline count clears it only
/// outside an allocation (`alloc`).
fn hostile_value(arg: &str, vars: &BTreeMap<String, Taint>, alloc: bool) -> Option<String> {
    if BOUNDED_MARKS.iter().any(|m| arg.contains(m)) {
        return None;
    }
    let counted = COUNT_MARKS.iter().any(|m| arg.contains(m));
    if counted && !alloc {
        return None;
    }
    if has_raw_read(arg) {
        return Some("a raw wire read".to_string());
    }
    if counted {
        return Some("a stream-bounded count".to_string());
    }
    for (name, &t) in vars {
        let hostile = t == Taint::Raw || (alloc && t == Taint::Counted);
        if hostile && word_in(arg, name) {
            return Some(name.clone());
        }
    }
    if has_expansion_op(arg) {
        for name in vars.keys() {
            if word_in(arg, name) {
                return Some(format!("{name} (scaled)"));
            }
        }
    }
    None
}

/// Contents of the balanced paren group opening at `open`.
fn paren_arg(seg: &str, open: usize) -> &str {
    balanced(seg, open, b'(', b')')
}

fn bracket_arg(seg: &str, open: usize) -> &str {
    balanced(seg, open, b'[', b']')
}

fn balanced(seg: &str, open: usize, o: u8, c: u8) -> &str {
    let bytes = seg.as_bytes();
    let mut depth = 0usize;
    for i in open..bytes.len() {
        if bytes[i] == o {
            depth += 1;
        } else if bytes[i] == c {
            depth -= 1;
            if depth == 0 {
                return &seg[open + 1..i];
            }
        }
    }
    &seg[(open + 1).min(seg.len())..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinks(body: &str) -> Vec<(usize, String, String)> {
        let s = crate::lexer::scrub(body);
        hostile_sinks(&s.text, 0, s.text.len())
    }

    #[test]
    fn raw_read_reaching_with_capacity_fires() {
        let f = sinks("{ let n = r.varint(); let v = Vec::with_capacity(n as usize); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, "n");
        assert_eq!(f[0].2, "with_capacity");
    }

    #[test]
    fn bounded_length_scaled_by_multiplication_fires_on_reserve() {
        let f = sinks("{ let n = r.vseq_len(8)?; let total = n * 40; buf.reserve(total); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, "total");
        assert_eq!(f[0].2, "reserve");
    }

    #[test]
    fn inline_raw_read_in_loop_bound_fires() {
        let f = sinks("{ for i in 0..r.u32() { step(i); } }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "a loop bound");
    }

    #[test]
    fn raw_vec_repeat_length_fires() {
        let f = sinks("{ let n = r.u64(); let buf = vec![0u8; n as usize]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "vec![..; n]");
    }

    #[test]
    fn stream_bounded_lengths_are_clean() {
        for ok in [
            "{ let n = r.seq_len(4, 1024)?; for i in 0..n { step(i); } }",
            "{ let n = r.vseq_len()?; let head = &buf[..n]; }",
            "{ let b = r.vbytes()?; let v = Vec::with_capacity(b.len()); }",
        ] {
            let f = sinks(ok);
            assert!(f.is_empty(), "{ok}: {f:?}");
        }
    }

    /// A count bounded by the bytes left still multiplies by the item's
    /// size in memory when it sizes an allocation.
    #[test]
    fn a_stream_bounded_count_reaching_an_allocation_fires() {
        for (bad, sink) in [
            (
                "{ let n = r.seq_len()?; let v = Vec::with_capacity(n); }",
                "with_capacity",
            ),
            ("{ let n = r.vseq_len()?; buf.reserve(n); }", "reserve"),
            (
                "{ let n = r.seq_len()?; let v = vec![0u64; n]; }",
                "vec![..; n]",
            ),
            (
                "{ let v = Vec::with_capacity(r.vseq_len()?); }",
                "with_capacity",
            ),
        ] {
            let f = sinks(bad);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].2, sink, "{bad}");
        }
    }

    /// `Reader::collect`'s form: the count drives the loop, and the
    /// reservation is clamped in bytes.
    #[test]
    fn a_count_clamped_in_bytes_is_clean() {
        let f = sinks(
            "{ let n = r.seq_len()?; \
               let mut out = Vec::with_capacity(n.min(r.remaining().checked_div(size_of::<T>()).unwrap_or(n))); \
               for _ in 0..n { out.push(item(r)?); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn explicit_comparison_sanitizes() {
        let f = sinks(
            "{ let n = r.varint(); if n > MAX_ITEMS { return None; } let v = Vec::with_capacity(n as usize); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inline_min_cap_sanitizes() {
        let f = sinks("{ let n = r.varint(); let v = Vec::with_capacity(n.min(CAP) as usize); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn comparison_later_in_same_statement_does_not_bless_the_sink() {
        let f = sinks(
            "{ let n = r.varint(); let ok = fill(Vec::with_capacity(n as usize)) && n < cap }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn raw_slice_range_fires() {
        let f = sinks("{ let n = r.u64(); let head = &buf[..n as usize]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "a slice range");
    }

    #[test]
    fn writer_calls_with_arguments_are_not_raw_reads() {
        let f = sinks("{ w.u32(x); w.varint(n as u64); let v = Vec::with_capacity(k); }");
        assert!(f.is_empty(), "{f:?}");
    }
}
