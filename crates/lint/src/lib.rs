//! `demodq-lint` — the workspace determinism & safety linter.
//!
//! The study runner's headline guarantee — *exports are byte-identical
//! at any thread count and journals replay exactly* — is a property of
//! the code, not of any one test. This crate makes it a **checked**
//! property: a dependency-free static-analysis pass over every `.rs`
//! file in the workspace, built on a comment/string-aware Rust lexer
//! ([`lexer`]) so patterns inside strings or comments can never fire.
//!
//! One walk of the tree ([`lint_tree`]) runs two kinds of check: token
//! lints on every file, and flow analyses ([`analyze`]) on a parsed AST
//! and workspace call graph of every file outside `vendor/`.
//!
//! # Token lints
//!
//! | code | meaning |
//! |------|---------|
//! | D001 | nondeterministically-ordered collection (`HashMap`/`HashSet`/`RandomState`) in an export/journal/runner/summary path — use `BTreeMap` or sort at the boundary |
//! | D002 | wall-clock or entropy source (`SystemTime::now`, `Instant::now`, `from_entropy`, `thread_rng`) outside the allowlisted telemetry modules |
//! | D003 | RNG seeded from a constant (`seed_from_u64(<literal>)`) in library code — seeds must derive from the grid-position helpers |
//! | S001 | `unsafe` block or `unsafe impl` without an attached `// SAFETY:` comment |
//! | P001 | `.unwrap()` / `.expect(..)` / `panic!` in library-crate code outside tests |
//! | F001 | float `==` / `!=` comparison against a float literal in library code |
//!
//! # Flow analyses
//!
//! | code | meaning |
//! |------|---------|
//! | T001 | determinism taint: a fn in a D001 path transitively reaches a wall-clock/entropy source outside the D002 allowlist |
//! | L001 | lock-order cycle across `Mutex`/`RwLock` acquisition orders (one call level inlined) |
//! | E001 | blocking call reachable from an event-loop handler |
//! | K001 | allocation inside the hot scoring kernels |
//!
//! They catch what the token lints cannot see: a tainted helper three
//! calls away, a lock-order inversion across functions, a blocking call
//! on an event-loop path. T001 does not replace D002: D002 still flags
//! a clock read that reaches no export at all.
//!
//! # Suppressions
//!
//! A finding is suppressed by `// lint:allow(CODE, reason)` on the same
//! line or on a comment line directly above. The reason is mandatory —
//! an allow without one does **not** suppress (and is itself reported).
//!
//! # Baseline
//!
//! Pre-existing findings are grandfathered in a committed baseline file
//! (`lint-baseline.txt`: `CODE count path` lines). The gate fails when a
//! (file, code) pair exceeds its baselined count (**new findings**) and
//! when the baseline over-records (**stale entries**) — so the baseline
//! can only ever shrink, and `--write-baseline` regenerates it after a
//! burn-down.

pub mod analyze;
pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod output;
pub mod parser;
pub mod taint;

use lexer::{Comment, Lexed, Tok, Token};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Stable lint codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Nondeterministically-ordered collection in a determinism-critical path.
    D001,
    /// Wall-clock / entropy source outside the telemetry allowlist.
    D002,
    /// RNG constructed from a constant seed in library code.
    D003,
    /// `unsafe` without a `// SAFETY:` comment.
    S001,
    /// `unwrap` / `expect` / `panic!` in library code.
    P001,
    /// Float `==` / `!=` comparison.
    F001,
    /// Interprocedural determinism taint (flow analysis).
    T001,
    /// Lock-order cycle (flow analysis).
    L001,
    /// Blocking call reachable from the event loop (flow analysis).
    E001,
    /// Allocation in a hot kernel (flow analysis).
    K001,
}

impl Code {
    /// All codes, in reporting order.
    pub const ALL: [Code; 10] = [
        Code::D001,
        Code::D002,
        Code::D003,
        Code::S001,
        Code::P001,
        Code::F001,
        Code::T001,
        Code::L001,
        Code::E001,
        Code::K001,
    ];

    /// The stable code string.
    pub fn name(self) -> &'static str {
        match self {
            Code::D001 => "D001",
            Code::D002 => "D002",
            Code::D003 => "D003",
            Code::S001 => "S001",
            Code::P001 => "P001",
            Code::F001 => "F001",
            Code::T001 => "T001",
            Code::L001 => "L001",
            Code::E001 => "E001",
            Code::K001 => "K001",
        }
    }

    /// One-line description (shown by `--codes`).
    pub fn describe(self) -> &'static str {
        match self {
            Code::D001 => {
                "nondeterministically-ordered collection (HashMap/HashSet/RandomState) in an \
                 export/journal/runner/summary path; use BTreeMap or sort at the boundary"
            }
            Code::D002 => {
                "wall-clock or entropy source (SystemTime::now, Instant::now, from_entropy, \
                 thread_rng) outside the allowlisted telemetry modules"
            }
            Code::D003 => {
                "RNG seeded from a constant; seeds must derive from the documented \
                 grid-position seed-derivation helpers"
            }
            Code::S001 => "unsafe block or unsafe impl without an attached // SAFETY: comment",
            Code::P001 => "unwrap/expect/panic! in library-crate code outside tests",
            Code::F001 => "float ==/!= comparison against a float literal",
            Code::T001 => {
                "determinism taint: a fn in an export/journal/runner/summary file \
                 transitively calls a wall-clock/entropy source through the call graph"
            }
            Code::L001 => {
                "lock-order cycle: two Mutex/RwLock guards are acquired in both orders \
                 somewhere in the workspace (one call level inlined)"
            }
            Code::E001 => {
                "blocking call (thread::sleep, read_to_end/write_all, lock held across \
                 predict_batch) on a path reachable from the epoll event loop"
            }
            Code::K001 => {
                "allocation (Vec::new/push/to_vec/vec!/format!) inside a hot scoring \
                 kernel; buffers must come from the caller-reserved scratch pool"
            }
        }
    }

    /// Parses a code string (`"D001"`).
    pub fn parse(text: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.name() == text)
    }
}

/// How a file participates in the lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/*/src` or `vendor/*/src` (except bins) — full lint set.
    Library,
    /// Binaries (`src/bin`, `main.rs`, `build.rs`) — determinism + safety lints.
    Binary,
    /// Integration tests, examples, benches — safety lints only.
    Test,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let p = rel;
    if p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
        || p.contains("/benches/")
    {
        return FileClass::Test;
    }
    if p.contains("/src/bin/") || p.ends_with("/main.rs") || p.ends_with("build.rs") {
        return FileClass::Binary;
    }
    FileClass::Library
}

/// Repo policy: which paths the path-scoped checks apply to.
#[derive(Debug, Clone)]
pub struct Config {
    /// D001 applies to files whose relative path ends with one of these
    /// suffixes (the export/journal/runner/summary paths); they are also
    /// T001's sinks.
    pub d001_paths: Vec<String>,
    /// D002 is waived for files whose relative path starts with one of
    /// these prefixes (telemetry/benchmark modules that measure time by
    /// design and never feed seeds or exports); T001 taint neither
    /// starts in nor passes through them.
    pub d002_allow: Vec<String>,
    /// Top-level directories to scan (relative to the workspace root).
    pub roots: Vec<String>,
    /// E001 entries: files (suffix match) whose non-test fns anchor the
    /// event-loop reachability scan.
    pub entry_files: Vec<String>,
    /// K001 scope: hot-kernel files (suffix match).
    pub kernel_paths: Vec<String>,
}

impl Config {
    /// The demodq workspace policy.
    pub fn demodq() -> Config {
        Config {
            d001_paths: vec![
                "crates/core/src/export.rs".to_string(),
                "crates/core/src/journal.rs".to_string(),
                "crates/core/src/runner.rs".to_string(),
                "crates/core/src/results.rs".to_string(),
                "crates/core/src/report.rs".to_string(),
                "crates/core/src/tables.rs".to_string(),
                "crates/serve/src/metrics.rs".to_string(),
            ],
            d002_allow: vec![
                "crates/core/src/progress.rs".to_string(),
                "crates/serve/".to_string(),
                "crates/bench/".to_string(),
            ],
            roots: vec![
                "crates".to_string(),
                "vendor".to_string(),
                "src".to_string(),
                "tests".to_string(),
                "examples".to_string(),
            ],
            entry_files: vec!["crates/serve/src/event.rs".to_string()],
            kernel_paths: vec!["crates/mlcore/src/kernels.rs".to_string()],
        }
    }

    pub(crate) fn d001_applies(&self, rel: &str) -> bool {
        self.d001_paths.iter().any(|s| rel.ends_with(s.as_str()))
    }

    pub(crate) fn d002_allowed(&self, rel: &str) -> bool {
        self.d002_allow.iter().any(|p| rel.starts_with(p.as_str()))
    }

    pub(crate) fn is_entry_file(&self, rel: &str) -> bool {
        self.entry_files.iter().any(|s| rel.ends_with(s.as_str()))
    }

    pub(crate) fn is_kernel(&self, rel: &str) -> bool {
        self.kernel_paths.iter().any(|s| rel.ends_with(s.as_str()))
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The lint code.
    pub code: Code,
    /// Human-readable message.
    pub message: String,
    /// True when a valid `lint:allow` covers this finding.
    pub suppressed: bool,
    /// The suppression reason, when suppressed.
    pub reason: Option<String>,
}

/// A `lint:allow(CODE, reason)` parsed from a comment.
#[derive(Debug, Clone)]
struct Allow {
    code: Code,
    reason: Option<String>,
    line: usize,
    end_line: usize,
}

/// Per-file lex + derived facts shared by all lint passes.
struct FileScan<'a> {
    rel: &'a str,
    class: FileClass,
    tokens: &'a [Token],
    /// Token index -> inside a `#[cfg(test)]` module or `#[test]` fn.
    in_test: Vec<bool>,
    /// Lines that carry (part of) a `SAFETY:` comment.
    safety_lines: Vec<bool>,
    /// Lines with at least one code token (non-comment, non-blank).
    code_lines: Vec<bool>,
    allows: Vec<Allow>,
}

/// Parses `lint:allow(CODE, reason)` out of a comment body.
fn parse_allows(comment: &Comment) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment.text.as_str();
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let inner = &rest[..close];
        rest = &rest[close + 1..];
        let (code_text, reason) = match inner.split_once(',') {
            Some((c, r)) => (c.trim(), Some(r.trim().to_string())),
            None => (inner.trim(), None),
        };
        let Some(code) = Code::parse(code_text) else { continue };
        let reason = reason.filter(|r| !r.is_empty());
        out.push(Allow { code, reason, line: comment.line, end_line: comment.end_line });
    }
    out
}

/// Marks tokens inside `#[cfg(test)] mod { ... }` regions and `#[test]`
/// functions. Depth-tracked on braces; attributes are recognised as the
/// token sequence `# [ cfg ( test ) ]` / `# [ test ]`.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth: i64 = 0;
    // Stack of depths at which a test region opened.
    let mut test_depths: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i].tok;
        let is_test_attr = |j: usize| -> Option<usize> {
            // Returns the index just past the attribute when tokens[j..]
            // start with #[cfg(test)] or #[test] (or #[cfg(test, ...)]).
            if tokens.get(j).map(|t| &t.tok) != Some(&Tok::Punct('#')) {
                return None;
            }
            if tokens.get(j + 1).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
                return None;
            }
            match tokens.get(j + 2).map(|t| &t.tok) {
                Some(Tok::Ident(name)) if name == "test" => {
                    if tokens.get(j + 3).map(|t| &t.tok) == Some(&Tok::Punct(']')) {
                        Some(j + 4)
                    } else {
                        None
                    }
                }
                Some(Tok::Ident(name)) if name == "cfg" => {
                    if tokens.get(j + 3).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
                        return None;
                    }
                    match tokens.get(j + 4).map(|t| &t.tok) {
                        Some(Tok::Ident(arg)) if arg == "test" => {
                            // Scan to the closing `]`.
                            let mut k = j + 5;
                            let mut par = 1i64;
                            while k < tokens.len() && par > 0 {
                                match tokens[k].tok {
                                    Tok::Punct('(') => par += 1,
                                    Tok::Punct(')') => par -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                            if tokens.get(k).map(|t| &t.tok) == Some(&Tok::Punct(']')) {
                                Some(k + 1)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    }
                }
                _ => None,
            }
        };
        if let Some(next) = is_test_attr(i) {
            pending_attr = true;
            i = next;
            continue;
        }
        match tok {
            Tok::Punct('{') => {
                depth += 1;
                if pending_attr {
                    // The body that this attribute gates starts here.
                    test_depths.push(depth);
                    pending_attr = false;
                }
            }
            Tok::Punct('}') => {
                if test_depths.last().is_some_and(|&d| d == depth) {
                    test_depths.pop();
                }
                depth -= 1;
            }
            Tok::Punct(';') if pending_attr => {
                // `#[cfg(test)] use ...;` — attribute gated a single item.
                pending_attr = false;
            }
            _ => {}
        }
        if !test_depths.is_empty() {
            in_test[i] = true;
        }
        i += 1;
    }
    in_test
}

/// Lints one file's source. `rel` is the workspace-relative path used
/// for classification and messages.
pub fn lint_source(rel: &str, source: &str, config: &Config) -> Vec<Finding> {
    let lexed = lex_file(source);
    let class = classify(rel);
    let n_lines = lexed.n_lines.max(1);

    let mut safety_lines = vec![false; n_lines + 2];
    let mut allows = Vec::new();
    for comment in &lexed.comments {
        let trimmed = comment.text.trim_start_matches(['/', '*', '!']).trim_start();
        if trimmed.to_ascii_lowercase().starts_with("safety:") {
            safety_lines[comment.line..=comment.end_line.min(n_lines)]
                .iter_mut()
                .for_each(|l| *l = true);
        }
        allows.extend(parse_allows(comment));
    }

    let mut code_lines = vec![false; n_lines + 2];
    for token in &lexed.tokens {
        if token.line <= n_lines {
            code_lines[token.line] = true;
        }
    }

    let scan = FileScan {
        rel,
        class,
        tokens: &lexed.tokens,
        in_test: mark_test_regions(&lexed.tokens),
        safety_lines,
        code_lines,
        allows,
    };

    let mut findings = Vec::new();
    lint_d001(&scan, config, &mut findings);
    lint_d002(&scan, config, &mut findings);
    lint_d003(&scan, &mut findings);
    lint_s001(&scan, &mut findings);
    lint_p001(&scan, &mut findings);
    lint_f001(&scan, &mut findings);

    apply_suppressions(&scan, &mut findings);
    findings.sort_by_key(|f| (f.line, f.code));
    findings
}

fn lex_file(source: &str) -> Lexed {
    lexer::lex(source)
}

/// Marks findings covered by a valid allow. An allow covers its own
/// line(s) and, when written on comment-only lines, the next code line
/// below it.
fn apply_suppressions(scan: &FileScan<'_>, findings: &mut [Finding]) {
    suppress_core(&scan.allows, &scan.code_lines, findings.iter_mut());
}

/// The suppression core, shared between the token lints (which hold a
/// full [`FileScan`]) and the flow analyses (which re-derive the allow
/// facts from the lex they already have).
fn suppress_core<'a>(
    allows: &[Allow],
    code_lines: &[bool],
    findings: impl Iterator<Item = &'a mut Finding>,
) {
    if allows.is_empty() {
        return;
    }
    for finding in findings {
        for allow in allows {
            if allow.code != finding.code {
                continue;
            }
            let allow_on_comment_only_line =
                code_lines.get(allow.line).map(|has_code| !has_code).unwrap_or(true);
            let covers = if allow.end_line >= finding.line {
                // Same line (trailing comment) or a comment above that
                // hasn't started yet — only the same line counts here.
                allow.line <= finding.line
            } else {
                // Comment block above: the allow must sit on a
                // comment-only line, with only comment/blank lines
                // between it and the finding line (a trailing allow on
                // an unrelated code line never leaks downward).
                allow_on_comment_only_line
                    && (allow.end_line + 1..finding.line)
                        .all(|l| l >= code_lines.len() || !code_lines[l])
            };
            if covers {
                if allow.reason.is_some() {
                    finding.suppressed = true;
                    finding.reason = allow.reason.clone();
                } else {
                    finding.message.push_str(
                        " [lint:allow without a reason is ignored — write lint:allow(CODE, why)]",
                    );
                }
                break;
            }
        }
    }
}

/// Is `line` covered by a valid (reasoned) `lint:allow` for any of
/// `codes`? Used by the taint analysis: a wall-clock source the token
/// lint D002 excused with a reason (telemetry-only timing) must not
/// seed interprocedural taint either — the human already adjudicated
/// that call site.
pub(crate) fn line_excused(lexed: &Lexed, line: usize, codes: &[Code]) -> bool {
    let mut dummies: Vec<Finding> = codes
        .iter()
        .map(|&code| Finding {
            file: String::new(),
            line,
            code,
            message: String::new(),
            suppressed: false,
            reason: None,
        })
        .collect();
    let mut refs: Vec<&mut Finding> = dummies.iter_mut().collect();
    suppress_by_allows(lexed, &mut refs);
    dummies.iter().any(|f| f.suppressed)
}

/// Applies `lint:allow` suppressions to flow findings for one file,
/// deriving the allow list and code-line map from its lex.
pub(crate) fn suppress_by_allows(lexed: &Lexed, findings: &mut [&mut Finding]) {
    let n_lines = lexed.n_lines.max(1);
    let mut allows = Vec::new();
    for comment in &lexed.comments {
        allows.extend(parse_allows(comment));
    }
    let mut code_lines = vec![false; n_lines + 2];
    for token in &lexed.tokens {
        if token.line <= n_lines {
            code_lines[token.line] = true;
        }
    }
    suppress_core(&allows, &code_lines, findings.iter_mut().map(|f| &mut **f));
}

fn ident_is(tok: &Tok, name: &str) -> bool {
    matches!(tok, Tok::Ident(n) if n == name)
}

/// D001: HashMap/HashSet/RandomState anywhere in a determinism-critical
/// path (the fix is BTreeMap/BTreeSet or an explicit sort at the
/// boundary, at which point the name disappears from the file).
fn lint_d001(scan: &FileScan<'_>, config: &Config, findings: &mut Vec<Finding>) {
    if scan.class == FileClass::Test || !config.d001_applies(scan.rel) {
        return;
    }
    for (i, token) in scan.tokens.iter().enumerate() {
        if scan.in_test[i] {
            continue;
        }
        if let Tok::Ident(name) = &token.tok {
            if name == "HashMap" || name == "HashSet" || name == "RandomState" {
                findings.push(Finding {
                    file: scan.rel.to_string(),
                    line: token.line,
                    code: Code::D001,
                    message: format!(
                        "`{name}` in a determinism-critical path (iteration order feeds \
                         exports/journals); use BTreeMap/BTreeSet or sort at the boundary"
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
        }
    }
}

/// D002: wall-clock / entropy sources outside the telemetry allowlist.
fn lint_d002(scan: &FileScan<'_>, config: &Config, findings: &mut Vec<Finding>) {
    if scan.class == FileClass::Test || config.d002_allowed(scan.rel) {
        return;
    }
    let toks = scan.tokens;
    for i in 0..toks.len() {
        if scan.in_test[i] {
            continue;
        }
        let qualified_now = |type_name: &str| -> bool {
            ident_is(&toks[i].tok, type_name)
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                && toks.get(i + 3).is_some_and(|t| ident_is(&t.tok, "now"))
        };
        let source = if qualified_now("SystemTime") {
            Some("SystemTime::now")
        } else if qualified_now("Instant") {
            Some("Instant::now")
        } else if ident_is(&toks[i].tok, "from_entropy") {
            Some("from_entropy")
        } else if ident_is(&toks[i].tok, "thread_rng") {
            Some("thread_rng")
        } else {
            None
        };
        if let Some(source) = source {
            findings.push(Finding {
                file: scan.rel.to_string(),
                line: toks[i].line,
                code: Code::D002,
                message: format!(
                    "wall-clock/entropy source `{source}` outside the telemetry allowlist; \
                     results must not depend on time or machine entropy"
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// D003: `seed_from_u64(...)` whose argument contains no identifier —
/// i.e. a constant seed that cannot derive from the grid-position
/// helpers (`split_seed`, the model-seed formula, or a caller-provided
/// seed).
fn lint_d003(scan: &FileScan<'_>, findings: &mut Vec<Finding>) {
    if scan.class == FileClass::Test {
        return;
    }
    let toks = scan.tokens;
    for i in 0..toks.len() {
        if scan.in_test[i] || !ident_is(&toks[i].tok, "seed_from_u64") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
            continue;
        }
        let mut depth = 1i64;
        let mut k = i + 2;
        let mut has_ident = false;
        let mut empty = true;
        while k < toks.len() && depth > 0 {
            match &toks[k].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Ident(_) => has_ident = true,
                _ => {}
            }
            if depth > 0 {
                empty = false;
            }
            k += 1;
        }
        // `fn seed_from_u64(seed: u64)` declarations contain the
        // parameter identifier, so only literal-only argument lists fire.
        if !has_ident && !empty {
            findings.push(Finding {
                file: scan.rel.to_string(),
                line: toks[i].line,
                code: Code::D003,
                message: "RNG constructed from a constant seed; derive the seed from the \
                          grid-position helpers (split_seed / model-seed formula) or take it \
                          from the caller"
                    .to_string(),
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// S001: `unsafe` block / `unsafe impl` / `unsafe trait` without a
/// `SAFETY:` comment on the same line or in the contiguous comment block
/// directly above.
fn lint_s001(scan: &FileScan<'_>, findings: &mut Vec<Finding>) {
    let toks = scan.tokens;
    for i in 0..toks.len() {
        if !ident_is(&toks[i].tok, "unsafe") {
            continue;
        }
        let next = toks.get(i + 1).map(|t| &t.tok);
        let what = match next {
            Some(Tok::Punct('{')) => "unsafe block",
            Some(Tok::Ident(n)) if n == "impl" => "unsafe impl",
            Some(Tok::Ident(n)) if n == "trait" => "unsafe trait",
            // `unsafe fn` bodies get explicit blocks via
            // deny(unsafe_op_in_unsafe_fn); the declaration itself is a
            // contract, not an assertion.
            _ => continue,
        };
        let line = toks[i].line;
        let mut covered = scan.safety_lines.get(line).copied().unwrap_or(false);
        if !covered {
            // Walk up through the contiguous comment/blank block.
            let mut l = line.saturating_sub(1);
            while l >= 1 {
                let has_code = scan.code_lines.get(l).copied().unwrap_or(false);
                if has_code {
                    break;
                }
                if scan.safety_lines.get(l).copied().unwrap_or(false) {
                    covered = true;
                    break;
                }
                if l == 1 {
                    break;
                }
                l -= 1;
            }
        }
        if !covered {
            findings.push(Finding {
                file: scan.rel.to_string(),
                line,
                code: Code::S001,
                message: format!("{what} without a `// SAFETY:` comment justifying it"),
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// P001: `.unwrap()` / `.expect(` / `panic!` in library code.
fn lint_p001(scan: &FileScan<'_>, findings: &mut Vec<Finding>) {
    if scan.class != FileClass::Library {
        return;
    }
    let toks = scan.tokens;
    for i in 0..toks.len() {
        if scan.in_test[i] {
            continue;
        }
        let preceded_by_dot =
            i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
        let followed_by_paren =
            matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
        let what = match &toks[i].tok {
            Tok::Ident(n) if n == "unwrap" && preceded_by_dot && followed_by_paren => ".unwrap()",
            Tok::Ident(n) if n == "expect" && preceded_by_dot && followed_by_paren => ".expect(..)",
            Tok::Ident(n)
                if n == "panic"
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) =>
            {
                "panic!"
            }
            _ => continue,
        };
        findings.push(Finding {
            file: scan.rel.to_string(),
            line: toks[i].line,
            code: Code::P001,
            message: format!(
                "`{what}` in library code; return an error (graceful degradation) or \
                 justify the invariant with lint:allow(P001, why)"
            ),
            suppressed: false,
            reason: None,
        });
    }
}

/// F001: `==` / `!=` where an adjacent operand token is a float literal.
fn lint_f001(scan: &FileScan<'_>, findings: &mut Vec<Finding>) {
    if scan.class != FileClass::Library {
        return;
    }
    let toks = scan.tokens;
    for i in 0..toks.len() {
        if scan.in_test[i] || !matches!(toks[i].tok, Tok::EqEq | Tok::NotEq) {
            continue;
        }
        let prev_float = i > 0 && matches!(toks[i - 1].tok, Tok::Float);
        let next_float = match toks.get(i + 1).map(|t| &t.tok) {
            Some(Tok::Float) => true,
            Some(Tok::Punct('-')) => matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Float)),
            _ => false,
        };
        if prev_float || next_float {
            let op = if matches!(toks[i].tok, Tok::EqEq) { "==" } else { "!=" };
            findings.push(Finding {
                file: scan.rel.to_string(),
                line: toks[i].line,
                code: Code::F001,
                message: format!(
                    "float `{op}` comparison against a literal; prefer an epsilon/total_cmp \
                     or justify exactness with lint:allow(F001, why)"
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking, baseline, reporting.

/// Recursively collects `.rs` files under the configured roots, sorted
/// for deterministic reporting. Skips `target`, VCS metadata and lint
/// fixture directories.
pub fn collect_files(root: &Path, config: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in &config.roots {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "target" | ".git" | "fixtures" | "results" | "node_modules") {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of linting a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding (suppressed included), sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that count against the baseline (unsuppressed).
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Active findings grouped by (file, code).
    pub fn counts(&self) -> BTreeMap<(String, Code), usize> {
        let mut counts: BTreeMap<(String, Code), usize> = BTreeMap::new();
        for finding in self.active() {
            *counts.entry((finding.file.clone(), finding.code)).or_insert(0) += 1;
        }
        counts
    }
}

/// Checks every collected file under `root` in one walk: token lints on
/// every file, flow analyses on every file outside `vendor/`. Vendored
/// code is frozen, and the call graph's name-based method resolution
/// would link workspace calls into vendored internals (rayon blocks and
/// sleeps by design).
pub fn lint_tree(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut flow_sources = Vec::new();
    for path in collect_files(root, config)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        report.findings.extend(lint_source(&rel, &source, config));
        report.files_scanned += 1;
        if !rel.starts_with("vendor/") {
            flow_sources.push((rel, source));
        }
    }
    report.findings.extend(analyze::analyze_sources(&flow_sources, config));
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code))
    });
    Ok(report)
}

/// The grandfathered findings: `(file, code) -> count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Baselined counts.
    pub counts: BTreeMap<(String, Code), usize>,
}

impl Baseline {
    /// Parses the `CODE count path` line format. Unknown codes and
    /// malformed lines are errors — a corrupt baseline must not silently
    /// weaken the gate.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (code, count, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(c), Some(n), Some(p)) => (c, n, p),
                _ => return Err(format!("baseline line {}: expected `CODE count path`", i + 1)),
            };
            let code = Code::parse(code)
                .ok_or_else(|| format!("baseline line {}: unknown code `{code}`", i + 1))?;
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", i + 1))?;
            if count == 0 {
                return Err(format!("baseline line {}: zero-count entry is stale", i + 1));
            }
            if counts.insert((path.to_string(), code), count).is_some() {
                return Err(format!("baseline line {}: duplicate entry", i + 1));
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders the canonical baseline file.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# demodq-lint baseline: grandfathered findings, `CODE count path` per line.\n\
             # Shrink-only: fix findings, then regenerate with `demodq-lint --write-baseline`.\n",
        );
        for ((path, code), count) in &self.counts {
            let _ = writeln!(out, "{} {count} {path}", code.name());
        }
        out
    }

    /// Builds a baseline from a report's active findings.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline { counts: report.counts() }
    }
}

/// The gate verdict of a report against a baseline.
#[derive(Debug, Default)]
pub struct Verdict {
    /// (file, code, actual, baselined) where actual > baselined.
    pub new: Vec<(String, Code, usize, usize)>,
    /// (file, code, actual, baselined) where baselined > actual.
    pub stale: Vec<(String, Code, usize, usize)>,
}

impl Verdict {
    /// True when the tree matches the baseline exactly.
    pub fn clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Compares a report against the baseline. Over-baseline counts are new
/// findings; under-baseline counts are stale entries (the baseline must
/// shrink with the fix).
pub fn compare(report: &Report, baseline: &Baseline) -> Verdict {
    let counts = report.counts();
    let mut verdict = Verdict::default();
    let mut keys: Vec<&(String, Code)> = counts.keys().chain(baseline.counts.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let actual = counts.get(key).copied().unwrap_or(0);
        let grandfathered = baseline.counts.get(key).copied().unwrap_or(0);
        if actual > grandfathered {
            verdict.new.push((key.0.clone(), key.1, actual, grandfathered));
        } else if actual < grandfathered {
            verdict.stale.push((key.0.clone(), key.1, actual, grandfathered));
        }
    }
    verdict
}

/// Minimal JSON string escaping for the machine-readable output.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/runner.rs"), FileClass::Library);
        assert_eq!(classify("vendor/rayon/src/lib.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(classify("crates/serve/src/main.rs"), FileClass::Binary);
        assert_eq!(classify("crates/bench/src/bin/loadgen.rs"), FileClass::Binary);
        assert_eq!(classify("tests/study_resume.rs"), FileClass::Test);
        assert_eq!(classify("crates/tabular/tests/proptests.rs"), FileClass::Test);
        assert_eq!(classify("examples/serve_quickstart.rs"), FileClass::Test);
    }

    #[test]
    fn baseline_roundtrip_and_validation() {
        let mut baseline = Baseline::default();
        baseline.counts.insert(("a/b.rs".to_string(), Code::P001), 3);
        baseline.counts.insert(("a/c.rs".to_string(), Code::F001), 1);
        let text = baseline.render();
        let parsed = Baseline::parse(&text).expect("roundtrip parses");
        assert_eq!(parsed, baseline);

        assert!(Baseline::parse("XYZ 1 a.rs").is_err());
        assert!(Baseline::parse("P001 zero a.rs").is_err());
        assert!(Baseline::parse("P001 0 a.rs").is_err());
        assert!(Baseline::parse("P001 1 a.rs\nP001 2 a.rs").is_err());
        assert!(Baseline::parse("# comment\n\n").expect("comments ok").counts.is_empty());
    }

    #[test]
    fn compare_detects_new_and_stale() {
        let mut report = Report::default();
        report.findings.push(Finding {
            file: "x.rs".to_string(),
            line: 1,
            code: Code::P001,
            message: String::new(),
            suppressed: false,
            reason: None,
        });
        let mut baseline = Baseline::default();
        baseline.counts.insert(("y.rs".to_string(), Code::F001), 2);
        let verdict = compare(&report, &baseline);
        assert_eq!(verdict.new.len(), 1);
        assert_eq!(verdict.stale.len(), 1);
        assert!(!verdict.clean());

        baseline.counts.clear();
        baseline.counts.insert(("x.rs".to_string(), Code::P001), 1);
        assert!(compare(&report, &baseline).clean());
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
