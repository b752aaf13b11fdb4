//! The lint rules. Each rule is a function from the loaded
//! [`Workspace`] to a list of [`Violation`]s; suppression against the
//! allowlist happens in one place afterwards (`lib.rs`), so rules always
//! report everything they see.

use crate::lex::{is_ident, line_of};
use crate::model::{SourceFile, Workspace};
use crate::Violation;

/// True for files subject to the hygiene rules: library/binary source under
/// `crates/<c>/src/` or the facade's `src/`.
fn is_lib_source(rel: &str) -> bool {
    (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
        && rel.ends_with(".rs")
}

fn violation(rule: &'static str, f: &SourceFile, offset: usize, msg: String) -> Violation {
    Violation {
        rule,
        path: f.rel.clone(),
        line: line_of(&f.text, offset),
        msg,
    }
}

/// Yields every occurrence of `needle` in `hay`. When the needle starts
/// with an identifier byte, the occurrence must sit on an identifier
/// boundary (the byte before is not an identifier byte) — `my_panic!(`
/// is not `panic!(`. Needles starting with punctuation (`.unwrap()`)
/// match anywhere: `x.unwrap()` is exactly the site the ban targets.
fn occurrences<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = hay.as_bytes();
    let check_left = needle.as_bytes().first().is_some_and(|&b| is_ident(b));
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(k) = hay[from..].find(needle) {
            let at = from + k;
            from = at + 1;
            if !check_left || at == 0 || !is_ident(bytes[at - 1]) {
                return Some(at);
            }
        }
        None
    })
}

/// The banned-call patterns: `(rule, pattern)` searched in the code view.
/// Patterns ending in `(` are call/macro sites; `.unwrap()` is matched in
/// full so `.unwrap_or(..)` and friends stay legal.
const BANNED: &[(&str, &str)] = &[
    ("no-unwrap", ".unwrap()"),
    ("no-expect", ".expect("),
    ("no-panic", "panic!("),
    ("no-todo", "todo!("),
    ("no-todo", "unimplemented!("),
    ("no-dbg", "dbg!("),
];

/// `unwrap()`/`expect(`/`panic!`/`todo!`/`dbg!` are banned in non-test
/// library code: a partitioned solve must fail as a value (typed error,
/// poisoned job), never by tearing the process down.
pub fn banned_calls(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !is_lib_source(&f.rel) || f.test_tier {
            continue;
        }
        for &(rule, pat) in BANNED {
            for at in occurrences(&f.views.code, pat) {
                // Fault-inject-gated code is test harness: only compiled
                // into test builds, so the production ban does not apply.
                if f.in_test(at) || f.in_gate(at) {
                    continue;
                }
                out.push(violation(
                    rule,
                    f,
                    at,
                    format!("`{}` in non-test library code", pat.trim_end_matches('(')),
                ));
            }
        }
    }
    out
}

/// Every `unsafe` keyword needs a `// SAFETY:` comment in the contiguous
/// comment block immediately above it (or earlier on the same line).
pub fn safety_comments(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !f.rel.ends_with(".rs") {
            continue;
        }
        let line_starts = line_start_offsets(&f.text);
        for at in occurrences(&f.views.code, "unsafe") {
            // `unsafe` must be a whole token (occurrences() checks the
            // left boundary; check the right one here).
            let end = at + "unsafe".len();
            if end < f.views.code.len() && is_ident(f.views.code.as_bytes()[end]) {
                continue;
            }
            if !has_safety_comment(f, &line_starts, at) {
                out.push(violation(
                    "safety-comment",
                    f,
                    at,
                    "`unsafe` without a `// SAFETY:` comment immediately above".to_string(),
                ));
            }
        }
    }
    out
}

/// Byte offsets at which each line starts.
fn line_start_offsets(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (k, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(k + 1);
        }
    }
    starts
}

fn line_span(starts: &[usize], text_len: usize, line_idx: usize) -> (usize, usize) {
    let a = starts[line_idx];
    let b = starts.get(line_idx + 1).copied().unwrap_or(text_len);
    (a, b)
}

fn has_safety_comment(f: &SourceFile, starts: &[usize], at: usize) -> bool {
    let line_idx = line_of(&f.text, at) - 1;
    // Same line, before the keyword (e.g. `let p = /* SAFETY: .. */ unsafe`).
    let (ls, _) = line_span(starts, f.text.len(), line_idx);
    if f.views.comments[ls..at].contains("SAFETY:") {
        return true;
    }
    // The contiguous run of pure-comment lines directly above.
    let mut k = line_idx;
    while k > 0 {
        k -= 1;
        let (a, b) = line_span(starts, f.text.len(), k);
        let code = f.views.code[a..b].trim();
        let comment = f.views.comments[a..b].trim();
        if !code.is_empty() || comment.is_empty() {
            return false; // code line or blank line breaks the block
        }
        if comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// A named token with the site it was first seen at.
struct Seen {
    token: String,
    path: String,
    line: usize,
}

fn record(seen: &mut Vec<Seen>, token: &str, path: &str, line: usize) {
    if !seen.iter().any(|s| s.token == token) {
        seen.push(Seen {
            token: token.to_string(),
            path: path.to_string(),
            line,
        });
    }
}

/// Extracts `langeq_[a-z0-9_]+` identifiers from `hay`, excluding
/// workspace crate idents (`langeq_core` the crate vs `langeq_core` a
/// hypothetical metric would be indistinguishable, so crate names are
/// reserved and never valid metric names).
fn metric_tokens(hay: &str, crate_idents: &[String], path: &str, src: &str, seen: &mut Vec<Seen>) {
    let bytes = hay.as_bytes();
    for at in occurrences(hay, "langeq_") {
        let mut end = at;
        while end < bytes.len() && is_ident(bytes[end]) {
            end += 1;
        }
        let token = &hay[at..end];
        if token.len() == "langeq_".len() || crate_idents.iter().any(|c| c == token) {
            continue;
        }
        record(seen, token, path, line_of(src, at));
    }
}

/// The family a Prometheus sample name belongs to. A histogram named
/// `foo` is exposed as the series `foo_bucket{le=…}`, `foo_sum`, and
/// `foo_count`, so a suffixed token — in code or in DESIGN.md — documents
/// the same metric as the bare family name (a `{label="…"}` set never
/// reaches the token: `{` is not an identifier byte). Plain names map to
/// themselves.
fn metric_family(token: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = token.strip_suffix(suffix) {
            if base.len() > "langeq_".len() {
                return base;
            }
        }
    }
    token
}

/// Every `langeq_*` metric emitted by the daemon must be documented in
/// DESIGN.md, and every metric DESIGN.md documents must still be emitted.
/// Names are compared per [`metric_family`], so `foo_bucket` on either
/// side matches `foo` on the other.
pub fn metrics_docs(ws: &Workspace) -> Vec<Violation> {
    let crate_idents: Vec<String> = ws
        .crate_dirs
        .iter()
        .map(|d| format!("langeq_{}", d.replace('-', "_")))
        .collect();
    let mut code: Vec<Seen> = Vec::new();
    for f in &ws.files {
        if !f.rel.starts_with("crates/serve/src/") || f.test_tier {
            continue;
        }
        // Metric names live in string literals; scan the strings view but
        // skip test regions.
        let mut masked = f.views.strings.clone();
        mask_test_spans(f, &mut masked);
        metric_tokens(&masked, &crate_idents, &f.rel, &f.text, &mut code);
    }
    let mut docs: Vec<Seen> = Vec::new();
    metric_tokens(
        &ws.design_md,
        &crate_idents,
        "DESIGN.md",
        &ws.design_md,
        &mut docs,
    );
    let mut out = Vec::new();
    let mut flagged: Vec<&str> = Vec::new();
    for s in &code {
        let family = metric_family(&s.token);
        if !docs.iter().any(|d| metric_family(&d.token) == family) && !flagged.contains(&family) {
            flagged.push(family);
            out.push(Violation {
                rule: "metrics-docs",
                path: s.path.clone(),
                line: s.line,
                msg: format!("metric `{family}` is emitted but not documented in DESIGN.md"),
            });
        }
    }
    flagged.clear();
    for d in &docs {
        let family = metric_family(&d.token);
        if !code.iter().any(|s| metric_family(&s.token) == family) && !flagged.contains(&family) {
            flagged.push(family);
            out.push(Violation {
                rule: "metrics-docs",
                path: d.path.clone(),
                line: d.line,
                msg: format!(
                    "DESIGN.md documents metric `{family}` that the daemon no longer emits"
                ),
            });
        }
    }
    out
}

/// Blanks test-region bytes of `masked` (same length as the file) so a
/// scan of the view cannot see test code. Newlines are preserved.
fn mask_test_spans(f: &SourceFile, masked: &mut String) {
    // SAFETY-free: operate on a byte copy, then rebuild lossily.
    let mut bytes = std::mem::take(masked).into_bytes();
    let len = bytes.len();
    for &(a, b) in &f.test_spans {
        for t in bytes.iter_mut().take(b.min(len)).skip(a) {
            if *t != b'\n' {
                *t = b' ';
            }
        }
    }
    *masked = String::from_utf8_lossy(&bytes).into_owned();
}

/// Extracts `/v1/...` endpoint paths from `hay`. Path parameters are
/// normalized (`{job}` → `{}`); prefix fragments ending in `/` (matcher
/// helpers like `"/v1/jobs/"`) are skipped.
fn endpoint_tokens(hay: &str, path: &str, src: &str, seen: &mut Vec<Seen>) {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(k) = hay[from..].find("/v1/") {
        let at = from + k;
        let mut end = at;
        while end < bytes.len()
            && (is_ident(bytes[end]) || matches!(bytes[end], b'/' | b'-' | b'{' | b'}'))
        {
            end += 1;
        }
        from = end.max(at + 1);
        let raw = &hay[at..end];
        if raw.len() <= "/v1/".len() || raw.ends_with('/') {
            continue;
        }
        // Normalize `{anything}` to `{}`.
        let mut norm = String::new();
        let mut inside = false;
        for c in raw.chars() {
            match c {
                '{' => {
                    inside = true;
                    norm.push_str("{}");
                }
                '}' => inside = false,
                c if !inside => norm.push(c),
                _ => {}
            }
        }
        record(seen, &norm, path, line_of(src, at));
    }
}

/// Every `/v1/*` endpoint in the daemon/client must be documented (README
/// or DESIGN.md), and documented endpoints must exist in code.
pub fn endpoints_docs(ws: &Workspace) -> Vec<Violation> {
    let mut code: Vec<Seen> = Vec::new();
    for f in &ws.files {
        if !is_lib_source(&f.rel) || f.test_tier {
            continue;
        }
        let mut masked = f.views.strings.clone();
        mask_test_spans(f, &mut masked);
        endpoint_tokens(&masked, &f.rel, &f.text, &mut code);
    }
    let mut docs: Vec<Seen> = Vec::new();
    endpoint_tokens(&ws.readme_md, "README.md", &ws.readme_md, &mut docs);
    endpoint_tokens(&ws.design_md, "DESIGN.md", &ws.design_md, &mut docs);
    let mut out = Vec::new();
    for s in &code {
        if !docs.iter().any(|d| d.token == s.token) {
            out.push(Violation {
                rule: "endpoints-docs",
                path: s.path.clone(),
                line: s.line,
                msg: format!("endpoint `{}` is served but not documented", s.token),
            });
        }
    }
    for d in &docs {
        if !code.iter().any(|s| s.token == d.token) {
            out.push(Violation {
                rule: "endpoints-docs",
                path: d.path.clone(),
                line: d.line,
                msg: format!("documented endpoint `{}` does not exist in code", d.token),
            });
        }
    }
    out
}

/// Extracts the CLI's known-flag sets: string literals inside the bracket
/// group following `reject_unknown(&[`, a `&[&str]] = &[` constant
/// initializer, or `.extend([`.
fn cli_flags(f: &SourceFile, seen: &mut Vec<Seen>) {
    let code = &f.views.code;
    for anchor in ["reject_unknown", "&[&str]", ".extend("] {
        let mut from = 0usize;
        while let Some(k) = code[from..].find(anchor) {
            let at = from + k;
            from = at + anchor.len();
            // The list bracket is searched *after* the anchor — the
            // `&[&str]` anchor contains brackets of its own.
            let Some(open_rel) = code[from..].find('[') else {
                continue;
            };
            let open = from + open_rel;
            // Bracket-match in the code view.
            let bytes = code.as_bytes();
            let mut depth = 0i32;
            let mut close = None;
            for (t, &b) in bytes.iter().enumerate().skip(open) {
                if b == b'[' {
                    depth += 1;
                } else if b == b']' {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(t);
                        break;
                    }
                }
            }
            let Some(close) = close else { continue };
            // Flag names carry no whitespace, so literal contents in the
            // strings view split cleanly on blanks.
            for (off, token) in split_tokens(&f.views.strings[open..close]) {
                if f.in_test(open + off) {
                    continue;
                }
                record(seen, token, &f.rel, line_of(&f.text, open + off));
            }
        }
    }
}

/// `(offset, token)` for each maximal non-space run.
fn split_tokens(hay: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (k, c) in hay.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s, &hay[s..k]));
            }
        } else if start.is_none() {
            start = Some(k);
        }
    }
    if let Some(s) = start {
        out.push((s, &hay[s..]));
    }
    out
}

/// `--flag` mentions in `hay`: a `--` not glued to a preceding flag or
/// identifier byte, followed by a flag name that starts alphanumeric.
fn long_flags(hay: &str, path: &str, src: &str, seen: &mut Vec<Seen>) {
    let bytes = hay.as_bytes();
    let flag_byte = |b: u8| is_ident(b) || b == b'-';
    for at in occurrences(hay, "--") {
        if at > 0 && flag_byte(bytes[at - 1]) {
            continue;
        }
        let start = at + 2;
        if !bytes.get(start).is_some_and(u8::is_ascii_alphanumeric) {
            continue;
        }
        let mut end = start;
        while end < bytes.len() && flag_byte(bytes[end]) {
            end += 1;
        }
        record(seen, &hay[start..end], path, line_of(src, at));
    }
}

/// Every CLI `--flag` the parser accepts must be documented in the usage
/// text, README, or DESIGN.md, and every `--flag` the CLI's own text
/// mentions must be accepted by some command (`--help` is dispatched by
/// `main`). (Single-letter keys like `-o` are out of scope — the rule
/// tracks long flags.)
pub fn flags_docs(ws: &Workspace) -> Vec<Violation> {
    let mut code: Vec<Seen> = Vec::new();
    for f in &ws.files {
        if f.rel.starts_with("crates/cli/src/") && !f.test_tier {
            cli_flags(f, &mut code);
        }
    }
    // Documentation corpus: README, DESIGN, and every usage string the CLI
    // itself prints (`--flag` occurrences inside cli string literals).
    let mut docs = String::new();
    docs.push_str(&ws.readme_md);
    docs.push_str(&ws.design_md);
    for f in &ws.files {
        if f.rel.starts_with("crates/cli/src/") {
            docs.push_str(&f.views.strings);
        }
    }
    let mut out = Vec::new();
    for s in &code {
        if s.token.len() < 2 {
            continue;
        }
        let long = format!("--{}", s.token);
        let documented = occurrences(&docs, &long).any(|at| {
            // The flag must end at a non-flag byte (`--no` must not count
            // as documentation for `--no-wait`... but the reverse is fine).
            let end = at + long.len();
            end >= docs.len() || !(is_ident(docs.as_bytes()[end]) || docs.as_bytes()[end] == b'-')
        });
        if !documented {
            out.push(Violation {
                rule: "flags-docs",
                path: s.path.clone(),
                line: s.line,
                msg: format!(
                    "CLI flag `--{}` is accepted but documented nowhere",
                    s.token
                ),
            });
        }
    }
    let mut mentioned: Vec<Seen> = Vec::new();
    for f in &ws.files {
        if f.rel.starts_with("crates/cli/src/") && !f.test_tier {
            let mut masked = f.views.strings.clone();
            mask_test_spans(f, &mut masked);
            long_flags(&masked, &f.rel, &f.text, &mut mentioned);
        }
    }
    for m in &mentioned {
        if m.token != "help" && !code.iter().any(|s| s.token == m.token) {
            out.push(Violation {
                rule: "flags-docs",
                path: m.path.clone(),
                line: m.line,
                msg: format!(
                    "CLI text mentions `--{}` but no command accepts it",
                    m.token
                ),
            });
        }
    }
    out
}

/// Names defined under `#[cfg(feature = "fault-inject")]` must never be
/// referenced from unguarded non-test code — otherwise a plain
/// `cargo build` breaks the moment the gated path is exercised.
pub fn fault_gate(ws: &Workspace) -> Vec<Violation> {
    // Collect definition names, split by whether the definition is gated.
    let mut gated: Vec<String> = Vec::new();
    let mut ungated: Vec<String> = Vec::new();
    for f in &ws.files {
        if !is_lib_source(&f.rel) {
            continue;
        }
        if f.fully_gated {
            collect_defs(&f.views.code, 0, f.views.code.len(), &mut gated);
            continue;
        }
        let code_len = f.views.code.len();
        let mut cursor = 0usize;
        let mut spans = f.gated_spans.clone();
        spans.sort_unstable();
        for &(a, b) in &spans {
            collect_defs(&f.views.code, a, b.min(code_len), &mut gated);
            if a > cursor {
                collect_defs(&f.views.code, cursor, a, &mut ungated);
            }
            cursor = cursor.max(b.min(code_len));
        }
        collect_defs(&f.views.code, cursor.min(code_len), code_len, &mut ungated);
    }
    // Track only *distinctive* gated names: CamelCase types or snake_case
    // with an underscore, and never names that also have an ungated
    // definition. Bare lowercase words (`new`, `take`) collide with
    // ubiquitous std/workspace idents and would drown the signal.
    let mut defs: Vec<String> = gated
        .into_iter()
        .filter(|n| {
            (n.chars().next().is_some_and(|c| c.is_ascii_uppercase()) || n.contains('_'))
                && !ungated.contains(n)
        })
        .collect();
    defs.sort();
    defs.dedup();
    let mut out = Vec::new();
    for f in &ws.files {
        if !is_lib_source(&f.rel) || f.test_tier || f.fully_gated {
            continue;
        }
        for def in &defs {
            for at in occurrences(&f.views.code, def) {
                let end = at + def.len();
                if end < f.views.code.len() && is_ident(f.views.code.as_bytes()[end]) {
                    continue;
                }
                if f.in_test(at) || f.in_gate(at) {
                    continue;
                }
                out.push(violation(
                    "fault-gate",
                    f,
                    at,
                    format!("`{def}` is fault-inject-gated but referenced without a guard"),
                ));
            }
        }
    }
    out
}

/// Item-definition keywords whose following identifier names the item.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

fn collect_defs(code: &str, a: usize, b: usize, defs: &mut Vec<String>) {
    let span = &code[a..b];
    for kw in DEF_KEYWORDS {
        for at in occurrences(span, kw) {
            let end = at + kw.len();
            if end < span.len() && is_ident(span.as_bytes()[end]) {
                continue;
            }
            let rest = &span[end..];
            let trimmed = rest.trim_start();
            let skipped = rest.len() - trimmed.len();
            // `static mut NAME` / `const fn name`-style keyword chains.
            let trimmed = trimmed.strip_prefix("mut ").unwrap_or(trimmed).trim_start();
            let name: String = trimmed.chars().take_while(|c| is_ident(*c as u8)).collect();
            let _ = skipped;
            if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                // `const fn` yields "fn" as the const's name; the fn pass
                // picks the real name up, so drop keyword collisions.
                if !DEF_KEYWORDS.contains(&name.as_str()) {
                    defs.push(name);
                }
            }
        }
    }
}
