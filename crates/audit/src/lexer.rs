//! A hand-rolled token-level Rust scanner.
//!
//! The rules in [`crate::rules`] match on *code*, never on comments or
//! string literals, so the scanner produces a "scrubbed" copy of each
//! source file in which every comment, string, char literal, and raw
//! string is blanked with spaces. Blanking (rather than deleting)
//! preserves byte offsets and line numbers, so findings point at the
//! original source. Comment text is retained separately to parse
//! `// audit:allow(<rule>) <reason>` escape hatches.

/// One `audit:allow` annotation extracted from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment starts on. The annotation suppresses
    /// findings on this line and the next (so it can sit on its own line
    /// above the code it excuses, or trail the code itself).
    pub line: usize,
    /// Rule names inside the parentheses, comma-separated.
    pub rules: Vec<String>,
    /// Whether any justification text follows the closing parenthesis.
    pub has_reason: bool,
}

/// A source file after comment/string scrubbing.
pub struct Scrubbed {
    /// Same length as the input; comments and literals blanked with
    /// spaces (newlines preserved).
    pub text: String,
    /// Every `audit:allow` annotation found in a comment.
    pub allows: Vec<Allow>,
    /// Byte offsets at which each line starts (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl Scrubbed {
    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point; offset belongs to line `i`
        }
    }
}

pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parses `audit:allow(rule_a, rule_b) reason` out of one comment's text.
/// The annotation must start the comment body, so prose that merely
/// *mentions* the syntax (like this crate's own docs) is not an annotation.
fn parse_allow(comment: &str, line: usize, allows: &mut Vec<Allow>) {
    let body = comment.trim_start_matches(['/', '!', '*']).trim_start();
    let Some(after) = body.strip_prefix("audit:allow(") else {
        return;
    };
    let Some(close) = after.find(')') else {
        // An unterminated annotation still counts (and will be reported
        // as malformed by the allow rule, since it names no rules).
        allows.push(Allow {
            line,
            rules: Vec::new(),
            has_reason: false,
        });
        return;
    };
    let rules: Vec<String> = after[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = after[close + 1..].trim();
    allows.push(Allow {
        line,
        rules,
        // Punctuation-only "reasons" (`---`, `..`) don't justify anything.
        has_reason: reason.chars().any(|c| c.is_ascii_alphanumeric()),
    });
}

/// Blanks comments, strings, chars, and raw strings; collects
/// `audit:allow` annotations.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i,
    };

    let mut allows = Vec::new();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for slot in out.iter_mut().take(to).skip(from) {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };

    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|p| i + p)
                    .unwrap_or(bytes.len());
                if let Ok(text) = std::str::from_utf8(&bytes[i..end]) {
                    parse_allow(text, line_of(i), &mut allows);
                }
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                if let Ok(text) = std::str::from_utf8(&bytes[start..j]) {
                    parse_allow(text, line_of(start), &mut allows);
                }
                blank(&mut out, start, j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (hash_from, hashes) = raw_string_hashes(bytes, i);
                // Find the closing quote followed by the same number of #s.
                let open_quote = hash_from + hashes;
                let mut j = open_quote + 1;
                while j < bytes.len() {
                    if bytes[j] == b'"'
                        && bytes[j + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&b| b == b'#')
                            .count()
                            == hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'\'' => {
                // Disambiguate char literal vs lifetime: a lifetime is `'`
                // followed by an identifier NOT terminated by another `'`.
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal; skip the escaped byte so that
                    // `'\''` and `'\\'` terminate at the right quote.
                    let mut j = i + 3;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    blank(&mut out, i, (j + 1).min(bytes.len()));
                    i = (j + 1).min(bytes.len());
                } else if bytes.get(i + 1).is_some_and(|&b| is_ident(b))
                    && bytes.get(i + 2) != Some(&b'\'')
                {
                    // Lifetime like `'a` — leave as code.
                    i += 2;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    // Plain char literal like 'x'.
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    Scrubbed {
        text: String::from_utf8_lossy(&out).into_owned(),
        allows,
        line_starts,
    }
}

/// True when position `i` starts a raw (possibly byte) string: `r"`,
/// `r#"`, `br"`, `br#"` — and is not merely an identifier containing `r`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_ident(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) != Some(&b'r') {
            // A plain byte string b"…" is handled by the `"` arm.
            return false;
        }
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Returns (offset of the first `#` or the quote, number of `#`s).
fn raw_string_hashes(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    j += 1; // the `r`
    let from = j;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (from, hashes)
}

/// Byte ranges of `#[cfg(test)]`-gated items (attribute through matching
/// closing brace), found by brace matching on scrubbed text.
pub fn test_regions(scrubbed: &str) -> Vec<(usize, usize)> {
    let bytes = scrubbed.as_bytes();
    let mut regions = Vec::new();
    let needle = b"#[cfg(test)]";
    let mut i = 0usize;
    while let Some(pos) = find_from(bytes, needle, i) {
        let mut j = pos + needle.len();
        // Scan to the item's opening brace (or a terminating semicolon for
        // brace-less items like `#[cfg(test)] use …;`).
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        let end = if j < bytes.len() && bytes[j] == b'{' {
            matching_brace(bytes, j).unwrap_or(bytes.len())
        } else {
            (j + 1).min(bytes.len())
        };
        regions.push((pos, end));
        i = end.max(pos + 1);
    }
    regions
}

pub(crate) fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

/// Offset one past the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// A trait impl block found in scrubbed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplBlock {
    /// Byte range of the whole `impl … { … }` item.
    pub start: usize,
    pub end: usize,
    /// The base name of the implementing type (`Foo` in
    /// `impl<'a> Trait for Foo<'a>`).
    pub type_name: String,
}

/// An `impl`, trait-`impl`, or `trait` declaration block, with both sides
/// of the item resolved — the general form [`crate::model`] builds the
/// item/call model from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemBlock {
    /// Byte range of the whole item.
    pub start: usize,
    pub end: usize,
    /// The implementing type's base name (`Foo` in `impl Trait for Foo`,
    /// `impl Foo`, …); for a `trait Foo { … }` declaration, the trait's own
    /// name (its items are addressed as `Foo::item`).
    pub type_name: String,
    /// `Some(Trait)` for `impl Trait for Type` and for `trait Trait { … }`
    /// declarations; `None` for inherent impls.
    pub trait_name: Option<String>,
}

/// Finds every `impl [<…>] TRAIT for TYPE { … }` block for `trait_name`.
pub fn impl_blocks(scrubbed: &str, trait_name: &str) -> Vec<ImplBlock> {
    all_item_blocks(scrubbed)
        .into_iter()
        .filter(|b| b.trait_name.as_deref() == Some(trait_name) && b.type_name != trait_name)
        .map(|b| ImplBlock {
            start: b.start,
            end: b.end,
            type_name: b.type_name,
        })
        .collect()
}

/// Finds every `impl` block (inherent or trait) and every `trait`
/// declaration in scrubbed text.
pub fn all_item_blocks(scrubbed: &str) -> Vec<ItemBlock> {
    let bytes = scrubbed.as_bytes();
    let mut blocks = Vec::new();

    let mut i = 0usize;
    while let Some(pos) = find_word(bytes, b"impl", i) {
        i = pos + 4;
        let mut j = skip_ws(bytes, i);
        // Optional generic parameters on the impl.
        if bytes.get(j) == Some(&b'<') {
            j = skip_angles(bytes, j);
        }
        j = skip_ws(bytes, j);
        // First path: the trait (when `for` follows) or the inherent type.
        let (first, after_first) = read_path_base(bytes, j);
        if first.is_empty() {
            continue;
        }
        let mut j = skip_ws(bytes, after_first);
        if bytes.get(j) == Some(&b'<') {
            j = skip_angles(bytes, j);
            j = skip_ws(bytes, j);
        }
        let (kw, after_kw) = read_word(bytes, j);
        let (type_name, trait_name, after) = if kw == "for" {
            let k = skip_ws(bytes, after_kw);
            let (ty, after_ty) = read_path_base(bytes, k);
            if ty.is_empty() {
                continue;
            }
            (ty, Some(first), after_ty)
        } else {
            (first, None, after_first)
        };
        // The item body: first `{` after the type (where-clauses carry no
        // braces of their own).
        let Some(open) = bytes[after..]
            .iter()
            .position(|&b| b == b'{')
            .map(|p| after + p)
        else {
            continue;
        };
        let end = matching_brace(bytes, open).unwrap_or(bytes.len());
        blocks.push(ItemBlock {
            start: pos,
            end,
            type_name,
            trait_name,
        });
        i = end;
    }

    let mut i = 0usize;
    while let Some(pos) = find_word(bytes, b"trait", i) {
        i = pos + 5;
        let j = skip_ws(bytes, i);
        let (name, after) = read_word(bytes, j);
        if name.is_empty() {
            continue;
        }
        // Supertrait bounds and generics carry no braces, so the first `{`
        // opens the trait body.
        let Some(open) = bytes[after..]
            .iter()
            .position(|&b| b == b'{' || b == b';')
            .map(|p| after + p)
        else {
            continue;
        };
        if bytes[open] == b';' {
            continue; // trait alias / marker declaration without a body
        }
        let end = matching_brace(bytes, open).unwrap_or(bytes.len());
        blocks.push(ItemBlock {
            start: pos,
            end,
            type_name: name.clone(),
            trait_name: Some(name),
        });
        i = end;
    }

    blocks.sort_by_key(|b| b.start);
    blocks
}

/// Next occurrence of `word` at an identifier boundary, at or after `from`.
pub fn find_word(bytes: &[u8], word: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while let Some(pos) = find_from(bytes, word, i) {
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after_ok = pos + word.len() >= bytes.len() || !is_ident(bytes[pos + word.len()]);
        if before_ok && after_ok {
            return Some(pos);
        }
        i = pos + 1;
    }
    None
}

pub(crate) fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Skips a balanced `<…>` group starting at `i` (which must be `<`);
/// tolerates `->` inside by not counting a `>` preceded by `-`.
pub(crate) fn skip_angles(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Reads one identifier; returns it and the offset past it.
pub(crate) fn read_word(bytes: &[u8], i: usize) -> (String, usize) {
    let mut j = i;
    while j < bytes.len() && is_ident(bytes[j]) {
        j += 1;
    }
    (
        String::from_utf8_lossy(bytes.get(i..j).unwrap_or(b"")).into_owned(),
        j,
    )
}

/// Reads a (possibly `::`-qualified, possibly `&`-prefixed) path and
/// returns its final segment's base identifier plus the offset past the
/// whole path (excluding generic arguments).
pub(crate) fn read_path_base(bytes: &[u8], i: usize) -> (String, usize) {
    let mut j = skip_ws(bytes, i);
    while j < bytes.len() && (bytes[j] == b'&' || bytes[j] == b'\'') {
        if bytes[j] == b'\'' {
            j += 1;
            while j < bytes.len() && is_ident(bytes[j]) {
                j += 1;
            }
        } else {
            j += 1;
        }
        j = skip_ws(bytes, j);
    }
    let (mut seg, mut end) = read_word(bytes, j);
    loop {
        let k = skip_ws(bytes, end);
        if bytes.get(k) == Some(&b':') && bytes.get(k + 1) == Some(&b':') {
            let (next, next_end) = read_word(bytes, skip_ws(bytes, k + 2));
            if next.is_empty() {
                break;
            }
            seg = next;
            end = next_end;
        } else {
            break;
        }
    }
    (seg, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unwrap()\"; // .unwrap() here\nlet y = 1;";
        let s = scrub(src);
        assert!(!s.text.contains("unwrap"));
        assert!(s.text.contains("let y = 1;"));
        assert_eq!(s.text.len(), src.len());
    }

    #[test]
    fn block_comments_nest() {
        let src = "a /* outer /* inner */ still comment */ b";
        let s = scrub(src);
        assert!(!s.text.contains("comment"));
        assert!(s.text.starts_with('a'));
        assert!(s.text.ends_with('b'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = r####"let p = r#"HashMap "quoted" inside"#; let q = 2;"####;
        let s = scrub(src);
        assert!(!s.text.contains("HashMap"));
        assert!(s.text.contains("let q = 2;"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) -> char { '{' }";
        let s = scrub(src);
        assert!(s.text.contains("&'a str"));
        assert!(!s.text.contains("'{'"));
        // The blanked brace must not confuse brace matching.
        assert_eq!(s.text.matches('{').count(), 1);
    }

    #[test]
    fn allow_annotations_are_parsed() {
        let src = "x(); // audit:allow(alloc) capacity capped by the caller\ny();";
        let s = scrub(src);
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].line, 1);
        assert_eq!(s.allows[0].rules, vec!["alloc".to_string()]);
        assert!(s.allows[0].has_reason);
    }

    #[test]
    fn allow_without_reason_is_flagged_as_reasonless() {
        let src = "// audit:allow(panic)\nfoo();";
        let s = scrub(src);
        assert_eq!(s.allows.len(), 1);
        assert!(!s.allows[0].has_reason);
    }

    #[test]
    fn prose_mentioning_the_allow_syntax_is_not_an_annotation() {
        let src = "//! Escape with `// audit:allow(<rule>) <reason>` comments.\nfn f() {}";
        let s = scrub(src);
        assert!(s.allows.is_empty());
    }

    #[test]
    fn cfg_test_regions_are_found() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}";
        let s = scrub(src);
        let regions = test_regions(&s.text);
        assert_eq!(regions.len(), 1);
        let (start, end) = regions[0];
        assert!(s.text[start..end].contains("unwrap"));
        assert!(!s.text[..start].contains("unwrap"));
        assert!(s.text[end..].contains("fn c"));
    }

    #[test]
    fn impl_blocks_are_located_with_type_names() {
        let src = "impl Encode for Foo { fn encode(&self) {} }\n\
                   impl<'a> Decode for Bar<'a> { fn decode() {} }\n\
                   impl Display for Baz { }";
        let blocks = impl_blocks(&scrub(src).text, "Encode");
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].type_name, "Foo");
        let blocks = impl_blocks(&scrub(src).text, "Decode");
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].type_name, "Bar");
    }

    #[test]
    fn line_numbers_are_one_based() {
        let s = scrub("a\nb\nc");
        assert_eq!(s.line_of(0), 1);
        assert_eq!(s.line_of(2), 2);
        assert_eq!(s.line_of(4), 3);
    }
}
