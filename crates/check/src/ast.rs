//! The one front end of the source-reading passes ([`crate::lint`],
//! [`crate::taint`], [`crate::ledgercheck`]): every file is read, lexed,
//! brace-matched and scanned for directives once, here.
//!
//! This is *not* a Rust parser — it is one lexer ([`lex`]) that classifies
//! comments and literals, one delimiter matcher over the code they are
//! blanked out of, a deliberately small function extractor on top, and a
//! name-based call graph. The
//! workspace is offline, so depending on `rustc` internals or `syn` is not
//! an option; the model over-approximates instead: a call `foo(…)`
//! resolves to *every* workspace function named `foo`. Passes that walk
//! the graph therefore see a superset of the true reachable set, which is
//! the safe direction for taint-style analyses (nothing real escapes; the
//! cost is that an exempting annotation may occasionally be demanded on a
//! function only spuriously reachable).
//!
//! Beyond functions and calls the model extracts **annotations**: plain
//! `//` comments of the form `sar-check: <key>(<argument>)` attached to a
//! line or to the declaration they precede. Two keys carry meaning. A
//! *waiver* `allow(<rule>)` silences one rule at one site, and the pass
//! owning the rule audits it (`unused-waiver`). A `deterministic(<why>)`
//! annotation, consumed by the taint pass, states a proof obligation
//! discharged by review (one writer per row, fixed rank order,
//! metering-only time).

use std::collections::HashMap;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A `sar-check: <key>(<arg>)` comment found in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Annotation kind: `allow` for a waiver, or e.g. `deterministic`.
    pub key: String,
    /// The parenthesized argument: the waived rule, or the reviewed
    /// justification.
    pub arg: String,
    /// 1-based line the annotation comment sits on.
    pub line: usize,
}

/// One function extracted from a source file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare function name (no path, no impl qualifier).
    pub name: String,
    /// Index of the declaring file in [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Blanked signature text between `fn` and the body's `{`.
    pub sig: String,
    /// Blanked body text, braces included.
    pub body: String,
    /// Byte offset of the body's opening brace in the file's blanked code.
    pub body_offset: usize,
    /// Bare names this body calls (`ident(` and `.ident(` sites), deduped.
    pub calls: Vec<String>,
}

/// One source file in the model.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Path relative to the workspace root.
    pub rel: String,
    /// Raw text (annotations, waivers, SAFETY comments live here).
    pub raw: String,
    /// Comments/strings blanked and `#[cfg(test)]` items blanked.
    pub code: String,
    /// Byte offset of each line start (shared by `raw` and `code`).
    pub line_starts: Vec<usize>,
    /// Indices into [`Workspace::fns`] of the functions declared here.
    pub fns: Vec<usize>,
    /// Every `sar-check:` annotation in the file, waivers included, in
    /// line order.
    pub annotations: Vec<Annotation>,
    /// Identifiers declared with a float-bearing type anywhere in the
    /// file (`name: f32`, `name: &mut [f32]`, `name: Vec<f64>`, …) —
    /// struct fields and parameters merged, an over-approximation used to
    /// type `+=` targets.
    pub float_names: Vec<String>,
    /// Identifiers declared with a `HashMap`/`HashSet` type anywhere in
    /// the file — used to type iteration receivers.
    pub hash_names: Vec<String>,
}

/// The whole-workspace model: every file, every function, and a
/// name-based call graph.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All scanned files.
    pub files: Vec<FileInfo>,
    /// All extracted functions.
    pub fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
}

/// Keywords that look like call heads but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "in", "as", "fn", "let", "move", "else",
    "unsafe", "ref", "mut", "dyn", "impl", "where", "use", "pub", "crate", "self", "Self", "super",
    "break", "continue",
];

/// 1-based line number of byte `offset` given sorted line starts.
#[must_use]
pub fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx + 1,
        Err(idx) => idx,
    }
}

/// Identifier tokens (start offset, text) of blanked source — the one
/// tokenizer every pass scans with.
pub(crate) fn tokens(src: &str) -> Vec<(usize, &str)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'_' || b.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.push((start, &src[start..i]));
        } else if b.is_ascii_digit() {
            // Skip numeric literals (and suffixes) whole.
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// First non-whitespace byte at or after `from`.
pub(crate) fn next_nonspace(src: &str, from: usize) -> Option<(usize, u8)> {
    src.as_bytes()[from..]
        .iter()
        .enumerate()
        .find(|(_, b)| !b.is_ascii_whitespace())
        .map(|(off, &b)| (from + off, b))
}

/// Lexes Rust source into its comment and literal spans, in order, each
/// paired with whether it is a plain `//` comment — the only place a
/// directive is read from. Doc comments (`///`, `//!`), nested `/* … */`
/// comments, strings (escaped or raw) and char literals are only blanked.
/// Everything between the spans is code. A quote that does not close
/// within a char literal's length is a lifetime, and stays code.
#[must_use]
pub fn lex(src: &str) -> Vec<(Range<usize>, bool)> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied();
    // Offset of the first `pat` at or after `from` (bytes, so a `from`
    // inside a multi-byte char is harmless).
    let find = |from: usize, pat: &[u8]| {
        b.get(from..)?
            .windows(pat.len())
            .position(|w| w == pat)
            .map(|n| from + n)
    };
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let plain_comment = match (b[i], at(i + 1)) {
            (b'/', Some(b'/')) => {
                i = find(i, b"\n").unwrap_or(b.len());
                !matches!(at(start + 2), Some(b'/' | b'!'))
            }
            (b'/', Some(b'*')) => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    match (b[i], at(i + 1)) {
                        (b'/', Some(b'*')) => (depth, i) = (depth + 1, i + 2),
                        (b'*', Some(b'/')) => (depth, i) = (depth - 1, i + 2),
                        _ => i += 1,
                    }
                }
                false
            }
            (b'r', Some(b'"' | b'#')) => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                if at(i + 1 + hashes) != Some(b'"') {
                    // A raw identifier (`r#type`).
                    i += 1;
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                i = find(i + 2 + hashes, close.as_bytes()).map_or(b.len(), |c| c + close.len());
                false
            }
            (b'"', _) => {
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => break,
                        _ => i += 1,
                    }
                }
                i = (i + 1).min(b.len());
                false
            }
            (b'\'', Some(b'\\')) if b[i + 2..].iter().take(6).any(|&c| c == b'\'') => {
                // An escape (`'\n'`, `'\''`, `'\\'`): the first quote after
                // the escaped byte closes it.
                i = find(i + 3, b"'").map_or(b.len(), |c| c + 1);
                false
            }
            (b'\'', _) if at(i + 2) == Some(b'\'') => {
                i += 3;
                false
            }
            _ => {
                i += 1;
                continue;
            }
        };
        spans.push((start..i, plain_comment));
    }
    spans
}

/// `src` with every lexed span blanked to spaces: same length, same
/// newlines, so offsets and line numbers carry over.
fn blank(src: &str, spans: &[(Range<usize>, bool)]) -> String {
    let mut out = src.as_bytes().to_vec();
    for (span, _) in spans {
        blank_range(&mut out[span.clone()]);
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn blank_range(bytes: &mut [u8]) {
    for b in bytes.iter_mut().filter(|b| **b != b'\n') {
        *b = b' ';
    }
}

/// Additionally blanks every `#[cfg(test)]`-gated item (the attribute
/// through its item's closing brace), so test-only code is exempt from
/// every rule.
fn blank_test_items(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let attr = from + pos;
        let end = code[attr..]
            .find('{')
            .and_then(|open| closing(code, attr + open))
            .map_or(code.len(), |close| close + 1);
        blank_range(&mut out[attr..end]);
        from = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Offset of the delimiter closing the `{`, `(` or `[` at `open` — the one
/// delimiter matcher, run on blanked code so no literal or comment can
/// unbalance it. `None` when `open` is no opening delimiter or it is
/// never closed.
pub(crate) fn closing(code: &str, open: usize) -> Option<usize> {
    let b = code.as_bytes();
    let close = match b.get(open)? {
        b'{' => b'}',
        b'(' => b')',
        b'[' => b']',
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == b[open] {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The `sar-check: <key>(<arg>)` directive in one plain comment, if any.
/// An argument wrapping onto following comment lines is cut at this
/// line's end: only the key and a waiver's rule carry checker semantics.
fn directive(comment: &str) -> Option<(&str, &str)> {
    let rest = comment[comment.find("sar-check:")? + "sar-check:".len()..].trim_start();
    let open = rest.find('(')?;
    let key = rest[..open].trim();
    let well_formed = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    if key.is_empty() || !key.chars().all(well_formed) {
        return None;
    }
    let arg_end = closing(rest, open).unwrap_or(rest.len());
    Some((key, rest[open + 1..arg_end].trim()))
}

/// Whether a declared type / initializer text is float-bearing.
fn is_float_type(text: &str) -> bool {
    text.contains("f32") || text.contains("f64")
}

/// Whether a declared type / initializer text is an unordered hash
/// collection.
fn is_hash_type(text: &str) -> bool {
    text.contains("HashMap") || text.contains("HashSet")
}

/// Collects `name: Type` declarations (fields and parameters alike) whose
/// type text is float-bearing or hash-typed. Line-based heuristic over
/// blanked code: good enough for the workspace's rustfmt'd layout.
fn collect_typed_names(code: &str) -> (Vec<String>, Vec<String>) {
    let mut float_names = Vec::new();
    let mut hash_names = Vec::new();
    for line in code.lines() {
        let trimmed = line.trim_start();
        // `let [mut] name = HashMap::new()` / `let mut acc = 0.0f32;`
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let tail = &rest[name.len()..];
            if is_hash_type(tail) {
                hash_names.push(name.clone());
            }
            // Float if typed so, initialized with a float literal, or
            // bound to a known float accessor of the tensor types.
            let float_hint = [
                ".row_mut(",
                ".data_mut(",
                ".as_mut_slice(",
                ".row(",
                ".data(",
            ]
            .iter()
            .any(|h| tail.contains(h));
            if is_float_type(tail) || has_float_literal(tail) || float_hint {
                float_names.push(name);
            }
            continue;
        }
        // `name: Type,` — struct fields and fn parameters.
        let name: String = trimmed
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let tail = trimmed[name.len()..].trim_start();
        // Require a type-position colon (not `::` path separator).
        if let Some(ty) = tail.strip_prefix(':') {
            if ty.starts_with(':') {
                continue;
            }
            if is_hash_type(ty) {
                hash_names.push(name.clone());
            }
            if is_float_type(ty) {
                float_names.push(name);
            }
        }
    }
    float_names.sort();
    float_names.dedup();
    hash_names.sort();
    hash_names.dedup();
    (float_names, hash_names)
}

/// Whether `text` contains a float literal (`0.0`, `1.5e-3`, …).
#[must_use]
pub fn has_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    bytes.iter().enumerate().any(|(i, &b)| {
        b == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
    })
}

/// Extracts every `fn` (name, decl line, signature, body, calls) from
/// blanked code. Bodyless declarations (trait methods) are skipped.
fn extract_fns(code: &str, line_starts: &[usize]) -> Vec<(String, usize, String, usize, String)> {
    let mut out = Vec::new();
    for pair in tokens(code).windows(2) {
        let [(start, "fn"), (name_start, name)] = *pair else {
            continue;
        };
        // The name must directly follow `fn` (only whitespace between).
        if code[start + 2..name_start]
            .bytes()
            .any(|b| !b.is_ascii_whitespace())
        {
            continue;
        }
        // Walk the signature to the body's `{`, stepping over each
        // parenthesized group whole; a `;` first ⇒ bodyless.
        let sig_start = name_start + name.len();
        let mut j = sig_start;
        let open = loop {
            let Some(at) = code[j..].find(['(', ';', '{']).map(|n| j + n) else {
                break None;
            };
            match code.as_bytes()[at] {
                b'(' => match closing(code, at) {
                    Some(close) => j = close + 1,
                    None => break None,
                },
                b'{' => break Some(at),
                _ => break None,
            }
        };
        let Some(open) = open else { continue };
        let body_end = closing(code, open).map_or(code.len(), |close| close + 1);
        out.push((
            name.to_string(),
            line_of(line_starts, start),
            code[sig_start..open].to_string(),
            open,
            code[open..body_end].to_string(),
        ));
    }
    out
}

/// Bare call names in a blanked body: `ident(` and `.ident(` sites,
/// excluding keywords, macro invocations (`ident!`), and the body's own
/// nested `fn` names.
fn extract_calls(body: &str) -> Vec<String> {
    let mut calls = Vec::new();
    let toks = tokens(body);
    for (idx, &(start, text)) in toks.iter().enumerate() {
        if NON_CALL_KEYWORDS.contains(&text) {
            continue;
        }
        // Skip the name in a nested `fn name(` declaration. Macro
        // invocations (`ident!`) fail the `(`-follows test on their own.
        if idx > 0 && toks[idx - 1].1 == "fn" {
            continue;
        }
        if next_nonspace(body, start + text.len()).is_some_and(|(_, b)| b == b'(') {
            calls.push(text.to_string());
        }
    }
    calls.sort();
    calls.dedup();
    calls
}

impl Workspace {
    /// Builds the model from in-memory `(relative path, source)` pairs —
    /// the mutation-test entry point.
    #[must_use]
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for &(rel, raw) in sources {
            ws.add_file(rel.to_string(), raw.to_string());
        }
        ws
    }

    /// Builds the model from a workspace checkout: the one walk of
    /// `crates/*/src/**/*.rs` (sorted, so every run sees the same order)
    /// that the linter and the dataflow passes all scan.
    #[must_use]
    pub fn load(root: &Path) -> Workspace {
        let mut ws = Workspace::default();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map(|entries| entries.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        crate_dirs.sort();
        let mut files = Vec::new();
        for dir in crate_dirs {
            rust_files(&dir.join("src"), &mut files);
        }
        for path in files {
            let Ok(raw) = fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string()
                .replace('\\', "/");
            ws.add_file(rel, raw);
        }
        ws
    }

    fn add_file(&mut self, rel: String, raw: String) {
        let spans = lex(&raw);
        let code = blank_test_items(&blank(&raw, &spans));
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let annotations = spans
            .iter()
            .filter(|(_, plain_comment)| *plain_comment)
            .filter_map(|(span, _)| {
                let (key, arg) = directive(&raw[span.clone()])?;
                Some(Annotation {
                    key: key.to_string(),
                    arg: arg.to_string(),
                    line: line_of(&line_starts, span.start),
                })
            })
            .collect();
        let (float_names, hash_names) = collect_typed_names(&code);
        let file_idx = self.files.len();
        let mut fn_indices = Vec::new();
        for (name, line, sig, body_offset, body) in extract_fns(&code, &line_starts) {
            let fn_idx = self.fns.len();
            let calls = extract_calls(&body);
            self.by_name.entry(name.clone()).or_default().push(fn_idx);
            self.fns.push(FnInfo {
                name,
                file: file_idx,
                line,
                sig,
                body,
                body_offset,
                calls,
            });
            fn_indices.push(fn_idx);
        }
        self.files.push(FileInfo {
            rel,
            raw,
            code,
            line_starts,
            fns: fn_indices,
            annotations,
            float_names,
            hash_names,
        });
    }

    /// Every function named `name`, across all files.
    #[must_use]
    pub fn fns_by_name(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The file declaring function `fi`.
    #[must_use]
    pub fn file_of(&self, fi: usize) -> &FileInfo {
        &self.files[self.fns[fi].file]
    }

    /// Breadth-first call-graph closure from `roots`, descending only
    /// into functions whose declaring file satisfies `allowed`. Returns
    /// function indices in deterministic (BFS, index-sorted) order.
    #[must_use]
    pub fn closure(&self, roots: &[usize], allowed: impl Fn(&FileInfo) -> bool) -> Vec<usize> {
        let mut seen = vec![false; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let fi = queue[head];
            head += 1;
            let mut targets: Vec<usize> = self.fns[fi]
                .calls
                .iter()
                .flat_map(|name| self.fns_by_name(name).iter().copied())
                .filter(|&t| !seen[t] && allowed(self.file_of(t)))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                seen[t] = true;
                queue.push(t);
            }
        }
        queue.sort_unstable();
        queue
    }
}

impl FileInfo {
    /// The annotations covering `line`, with their indices into
    /// [`FileInfo::annotations`]: those on the line itself or in the
    /// contiguous run of `//` lines directly above it. With
    /// `through_attrs` the run may also hold `#[…]` attribute lines, so an
    /// annotation above a declaration's attributes still reaches it.
    pub fn covering(
        &self,
        line: usize,
        through_attrs: bool,
    ) -> impl Iterator<Item = (usize, &Annotation)> {
        let text = |l: usize| {
            let end = self.line_starts.get(l).copied().unwrap_or(self.raw.len());
            self.raw[self.line_starts[l - 1]..end].trim_start()
        };
        let mut first = line;
        while first > 1
            && (text(first - 1).starts_with("//")
                || (through_attrs && text(first - 1).starts_with("#[")))
        {
            first -= 1;
        }
        self.annotations
            .iter()
            .enumerate()
            .filter(move |(_, a)| (first..=line).contains(&a.line))
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_and_calls_are_extracted() {
        let ws = Workspace::from_sources(&[(
            "crates/x/src/a.rs",
            "fn root() { helper(1); other.method(); }\nfn helper(v: usize) -> usize { v }\n",
        )]);
        assert_eq!(ws.fns.len(), 2);
        assert_eq!(ws.fns[0].name, "root");
        assert_eq!(
            ws.fns[0].calls,
            vec!["helper".to_string(), "method".to_string()]
        );
        assert_eq!(ws.fns[1].sig.trim(), "(v: usize) -> usize");
    }

    #[test]
    fn call_closure_follows_names_and_respects_file_filter() {
        let ws = Workspace::from_sources(&[
            ("crates/x/src/a.rs", "fn root() { helper(); }\n"),
            (
                "crates/x/src/b.rs",
                "fn helper() { deep(); }\nfn deep() {}\n",
            ),
            (
                "crates/y/src/c.rs",
                "fn deep() { excluded(); }\nfn excluded() {}\n",
            ),
        ]);
        let roots = ws.fns_by_name("root").to_vec();
        let all = ws.closure(&roots, |_| true);
        assert_eq!(all.len(), 5, "both `deep`s and `excluded` resolve");
        let scoped = ws.closure(&roots, |f| f.rel.starts_with("crates/x/"));
        let names: Vec<&str> = scoped.iter().map(|&fi| ws.fns[fi].name.as_str()).collect();
        assert_eq!(names, vec!["root", "helper", "deep"]);
    }

    #[test]
    fn annotations_are_parsed_from_plain_comments_only() {
        let src = "\
//! Doc prose: `sar-check: deterministic(not this)` is ignored.
// sar-check: deterministic(one writer per row)
fn kernel() {}
fn plain() {
    let s = \"sar-check: deterministic(in a string)\";
    let _ = s;
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/a.rs", src)]);
        let file = &ws.files[0];
        assert_eq!(file.annotations.len(), 1);
        assert_eq!(file.annotations[0].key, "deterministic");
        assert_eq!(file.annotations[0].arg, "one writer per row");
        let kernel_line = ws.fns[0].line;
        assert_eq!(file.covering(kernel_line, true).count(), 1);
        let plain_line = ws.fns[1].line;
        assert_eq!(file.covering(plain_line, true).count(), 0);
    }

    #[test]
    fn waivers_are_annotations_and_attributes_break_their_cover_on_request() {
        let src = "\
// sar-check: allow(no-unbounded-channel) — reason (with parens)
#[inline]
fn f() {}
";
        let ws = Workspace::from_sources(&[("crates/x/src/a.rs", src)]);
        let file = &ws.files[0];
        assert_eq!(file.annotations[0].key, "allow");
        assert_eq!(file.annotations[0].arg, "no-unbounded-channel");
        assert_eq!(file.covering(3, true).count(), 1);
        assert_eq!(file.covering(3, false).count(), 0);
        assert_eq!(file.covering(2, false).count(), 1);
    }

    #[test]
    fn one_lexer_blanks_literals_and_finds_directive_comments() {
        // The cases two earlier lexers disagreed on: escaped and quote
        // char literals, byte chars, lifetimes, raw strings holding `//`,
        // URLs in strings, nested block comments and doc comments.
        let cases: &[(&str, &[&str], &[&str])] = &[
            (r"let q = '\''; // c", &["let", "q", "=", ";"], &["// c"]),
            (r"let q = '\\'; // c", &["let", "q", "=", ";"], &["// c"]),
            (
                r#"let q = b'"'; // c"#,
                &["let", "q", "=", "b", ";"],
                &["// c"],
            ),
            (r#"let q = '"'; // c"#, &["let", "q", "=", ";"], &["// c"]),
            (
                "fn f<'a>(x: &'a str) -> char { 'x' } // c",
                &["fn", "f<'a>(x:", "&'a", "str)", "->", "char", "{", "}"],
                &["// c"],
            ),
            (
                r##"let s = r#"// not a comment"#; // c"##,
                &["let", "s", "=", ";"],
                &["// c"],
            ),
            (
                r#"let u = "http://x"; // c"#,
                &["let", "u", "=", ";"],
                &["// c"],
            ),
            ("a /* /* */ */ b // c", &["a", "b"], &["// c"]),
            ("/// doc\n//! inner\n// c\nx", &["x"], &["// c"]),
        ];
        for &(src, code, comments) in cases {
            let spans = lex(src);
            let blanked = blank(src, &spans);
            assert_eq!(blanked.len(), src.len(), "{src}");
            assert_eq!(
                blanked.split_whitespace().collect::<Vec<_>>(),
                code,
                "{src}"
            );
            let plain: Vec<&str> = spans
                .iter()
                .filter(|(_, plain_comment)| *plain_comment)
                .map(|(span, _)| &src[span.clone()])
                .collect();
            assert_eq!(plain, comments, "{src}");
        }
    }

    #[test]
    fn blanking_preserves_line_structure() {
        let src = "let a = \"un//wrap()\"; // unwrap()\nlet b = 1;\n";
        let blanked = blank(src, &lex(src));
        assert_eq!(blanked.lines().count(), src.lines().count());
        assert!(!blanked.contains("unwrap"));
        assert!(blanked.contains("let b = 1;"));
    }

    #[test]
    fn test_items_are_exempt() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        let code = &Workspace::from_sources(&[("crates/x/src/a.rs", src)]).files[0].code;
        assert!(code.contains("x.unwrap"));
        assert!(!code.contains("y.unwrap"));
    }

    #[test]
    fn delimiters_match_by_kind_and_depth() {
        let code = "f(a[b(c)], { d[0] })";
        assert_eq!(closing(code, 1), Some(code.len() - 1));
        assert_eq!(closing(code, 3), Some(8));
        assert_eq!(closing(code, 11), Some(18));
        assert_eq!(closing(code, 0), None, "not a delimiter");
        assert_eq!(closing("{ {", 0), None, "never closed");
    }

    #[test]
    fn typed_names_capture_floats_and_hash_collections() {
        let src = "\
struct S {
    acc: Vec<f32>,
    pending: HashMap<u64, usize>,
}
fn f() {
    let mut dot = 0.0;
    let mut count = 0usize;
    let seen = HashSet::new();
    let _ = (dot, count, seen);
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/a.rs", src)]);
        let file = &ws.files[0];
        assert!(file.float_names.contains(&"acc".to_string()));
        assert!(file.float_names.contains(&"dot".to_string()));
        assert!(!file.float_names.contains(&"count".to_string()));
        assert!(file.hash_names.contains(&"pending".to_string()));
        assert!(file.hash_names.contains(&"seen".to_string()));
    }
}
