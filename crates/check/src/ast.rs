//! A lightweight whole-workspace Rust source model for the dataflow
//! passes ([`crate::taint`], [`crate::ledgercheck`]).
//!
//! This is *not* a Rust parser — it is a deliberately small item/function/
//! block extractor over comment-and-string-blanked source (reusing the
//! linter's blanking machinery), plus a name-based call graph. The
//! workspace is offline, so depending on `rustc` internals or `syn` is not
//! an option; the model over-approximates instead: a call `foo(…)`
//! resolves to *every* workspace function named `foo`. Passes that walk
//! the graph therefore see a superset of the true reachable set, which is
//! the safe direction for taint-style analyses (nothing real escapes; the
//! cost is that an exempting annotation may occasionally be demanded on a
//! function only spuriously reachable).
//!
//! Beyond functions and calls the model extracts **annotations**: workspace
//! comments of the form `sar-check: <key>(<argument>)` attached to a line
//! or to the declaration they precede. The taint pass consumes
//! `deterministic(<why>)` annotations — a reviewed claim that a flagged
//! construct is deterministic (one writer per row, fixed rank order,
//! metering-only time) — which are deliberately distinct from lint
//! waivers (`allow(<rule>)`): a waiver silences a style rule, an
//! annotation states a proof obligation discharged by review.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lint::{blank_comments_and_strings, blank_test_items};

/// A `sar-check: <key>(<arg>)` comment found in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Annotation kind (e.g. `deterministic`). Never `allow` — waivers
    /// belong to the linter.
    pub key: String,
    /// The parenthesized argument: the reviewed justification.
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
    /// Every `sar-check:` annotation in the file (key ≠ `allow`).
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

/// Spans of plain `//` line comments (excluding `///` and `//!` doc
/// comments, which are prose, not directives) in raw source.
#[must_use]
pub fn comment_spans(raw: &str) -> Vec<(usize, usize)> {
    let bytes = raw.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                let doc = matches!(bytes.get(i + 2), Some(&b'/') | Some(&b'!'));
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                if !doc {
                    spans.push((start, i));
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string r"…" / r#"…"# — skip to the matching close.
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0usize;
                            while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes; a lifetime has no closing quote.
                let is_char = if bytes.get(i + 1) == Some(&b'\\') {
                    bytes[i + 2..].iter().take(6).any(|&b| b == b'\'')
                } else {
                    bytes.get(i + 2) == Some(&b'\'')
                };
                if is_char {
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    spans
}

/// Parses every `sar-check: <key>(<arg>)` directive (key ≠ `allow`) out of
/// the file's plain comments.
fn parse_annotations(raw: &str, line_starts: &[usize]) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (start, end) in comment_spans(raw) {
        let text = &raw[start..end];
        let Some(pos) = text.find("sar-check:") else {
            continue;
        };
        let rest = text[pos + "sar-check:".len()..].trim_start();
        let Some(open) = rest.find('(') else {
            continue;
        };
        let key = rest[..open].trim();
        if key.is_empty()
            || key == "allow"
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            continue;
        }
        // The rationale may wrap onto following comment lines; the close
        // paren is then not on this line. Take what is here — only the key
        // carries checker semantics, the arg is the human-reviewed why.
        let arg = match rest.rfind(')') {
            Some(close) if close > open => &rest[open + 1..close],
            _ => rest[open + 1..].trim_end(),
        };
        out.push(Annotation {
            key: key.to_string(),
            arg: arg.to_string(),
            line: line_of(line_starts, start),
        });
    }
    out
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
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (start, text) in tokens(code) {
        if text != "fn" {
            continue;
        }
        // `fn` must be a standalone keyword (tokens() guarantees word
        // boundaries, but reject `fn` inside a path like `fn_ptr` — the
        // tokenizer already splits on `_`-joined words correctly).
        let after = start + 2;
        let Some((name_start, name)) = tokens(&code[after..])
            .into_iter()
            .next()
            .map(|(off, t)| (after + off, t.to_string()))
        else {
            continue;
        };
        // The name must directly follow `fn` (only whitespace between).
        if code[after..name_start]
            .bytes()
            .any(|b| !b.is_ascii_whitespace())
        {
            continue;
        }
        // Walk the signature to the body's `{` (a `;` first ⇒ bodyless).
        let mut j = name_start;
        let mut paren = 0i32;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b';' if paren == 0 => break,
                b'{' if paren == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut k = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let body_end = (k + 1).min(bytes.len());
        let sig_start = name_start + name.len();
        out.push((
            name,
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
        let code = blank_test_items(&blank_comments_and_strings(&raw));
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let annotations = parse_annotations(&raw, &line_starts);
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

    /// The annotation with `key` covering `line` of file `file`: on the
    /// line itself or in the contiguous comment/attribute block directly
    /// above it.
    #[must_use]
    pub fn annotation_at<'a>(
        &'a self,
        file: &'a FileInfo,
        line: usize,
        key: &str,
    ) -> Option<&'a Annotation> {
        let raw_lines: Vec<&str> = file.raw.lines().collect();
        let hit = |l: usize| {
            file.annotations
                .iter()
                .find(|a| a.line == l && a.key == key)
        };
        if let Some(a) = hit(line) {
            return Some(a);
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && l <= raw_lines.len() {
            let t = raw_lines[l - 1].trim_start();
            if t.starts_with("//") || t.starts_with("#[") {
                if let Some(a) = hit(l) {
                    return Some(a);
                }
                l -= 1;
            } else {
                break;
            }
        }
        None
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
        assert!(ws
            .annotation_at(file, kernel_line, "deterministic")
            .is_some());
        let plain_line = ws.fns[1].line;
        assert!(ws
            .annotation_at(file, plain_line, "deterministic")
            .is_none());
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

    #[test]
    fn comment_spans_skip_doc_comments_and_strings() {
        let src = "/// doc\n//! inner\n// plain\nlet s = \"// not a comment\";\n";
        let spans = comment_spans(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(&src[spans[0].0..spans[0].1], "// plain");
    }
}
