//! The flow analyses: parse every source, build the workspace call
//! graph, and run the five checks the token lints cannot express:
//!
//! | code | meaning |
//! |------|---------|
//! | T001 | determinism taint: a fn in a determinism-critical file transitively reaches a wall-clock/entropy source |
//! | L001 | lock-order cycle across `Mutex`/`RwLock` acquisition orders (one call level inlined) |
//! | E001 | blocking call (`thread::sleep`, `read_to_end`/`write_all`, lock held across `predict_batch`) reachable from an event-loop handler |
//! | K001 | allocation (`Vec::new`/`push`/`to_vec`/`vec!`/`format!`) inside the hot scoring kernels |
//! | U001 | `pub fn` in library code that no `fn main` reaches (binaries, examples, perfbench) through calls or value references |
//!
//! E001 and U001 share one forward-reachability pass,
//! `Graph::reach`. The graph over-approximates calls (a method call
//! links to every same-name method), so U001 under-reports: each finding
//! is a fn no program runs. Tests are not entries, so a fn that only
//! tests call is reported; `pub(crate)` and private fns are left to
//! rustc's `dead_code`, and trait-impl methods carry no `pub`.
//!
//! Findings use the same `// lint:allow(CODE, reason)` suppressions and
//! the same baseline as the token lints; [`crate::lint_tree`] runs both
//! in one walk. The path policy is [`Config`]'s: T001's sinks are the
//! D001 paths and its allowlist is D002's.

use crate::callgraph::{self, Graph, RawCall};
use crate::parser;
use crate::{Code, Config, FileClass, Finding};

/// Analyzes a set of in-memory sources (`(rel_path, source)` pairs) and
/// returns the findings sorted by (file, line, code); [`crate::lint_tree`]
/// feeds it every file outside `vendor/`.
pub fn analyze_sources(sources: &[(String, String)], config: &Config) -> Vec<Finding> {
    let mut files = Vec::with_capacity(sources.len());
    let mut lexes = Vec::with_capacity(sources.len());
    for (rel, src) in sources {
        let p = parser::parse_source(rel, src);
        files.push(p.file);
        lexes.push(p.lexed);
    }
    let graph = callgraph::build(&files);

    let lex_by_rel: std::collections::BTreeMap<&str, &crate::lexer::Lexed> =
        files.iter().zip(&lexes).map(|(f, l)| (f.rel.as_str(), l)).collect();
    let excused = |rel: &str, line: usize| -> bool {
        lex_by_rel
            .get(rel)
            .map(|l| crate::line_excused(l, line, &[Code::T001, Code::D002, Code::D003]))
            .unwrap_or(false)
    };

    let mut findings = Vec::new();
    crate::taint::run(
        &graph,
        &|rel| config.d001_applies(rel),
        &|rel| config.d002_allowed(rel),
        &excused,
        &mut findings,
    );
    crate::locks::run(&graph, &mut findings);
    run_e001(&graph, config, &mut findings);
    run_k001(&graph, config, &mut findings);
    run_u001(&graph, &mut findings);

    // Suppressions: same machinery as the token lints, driven by the lex
    // that the parse already produced.
    for (file, lexed) in files.iter().zip(&lexes) {
        let rel = file.rel.as_str();
        let mut slice: Vec<&mut Finding> =
            findings.iter_mut().filter(|f| f.file == rel).collect();
        if slice.is_empty() {
            continue;
        }
        crate::suppress_by_allows(lexed, &mut slice);
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code))
    });
    findings
}

/// E001: forward reachability from the event-loop handler fns; any
/// blocking call on a reachable path is reported with its entry chain.
fn run_e001(graph: &Graph, config: &Config, findings: &mut Vec<Finding>) {
    let entries: Vec<usize> = graph
        .fns_in_files(|rel| config.is_entry_file(rel))
        .into_iter()
        .filter(|&i| !graph.fns[i].in_test)
        .collect();
    let reach = graph.reach(&entries, false);

    let chain = |mut i: usize| -> String {
        let mut names = vec![graph.fns[i].display()];
        let mut guard = 0;
        while let Some(p) = reach.parent[i] {
            names.push(graph.fns[p].display());
            i = p;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        names.reverse();
        names.join(" -> ")
    };

    for (i, f) in graph.fns.iter().enumerate() {
        if !reach.reached[i] {
            continue;
        }
        let mut lock_lines: Vec<usize> = Vec::new();
        for call in &f.calls {
            if let Some((_, line)) = crate::locks::acquisition(call) {
                lock_lines.push(line);
            }
            let blocking = match call {
                RawCall::Path { path, .. } => {
                    let last = path.last().map(String::as_str);
                    let qual = path.len().checked_sub(2).map(|k| path[k].as_str());
                    if last == Some("sleep") && qual == Some("thread") {
                        Some("std::thread::sleep".to_string())
                    } else {
                        None
                    }
                }
                RawCall::Method { name, .. } => match name.as_str() {
                    "read_to_end" | "read_to_string" | "read_exact" | "write_all" => {
                        Some(format!(".{name}(..)"))
                    }
                    _ => None,
                },
                RawCall::Macro { .. } => None,
            };
            if let Some(what) = blocking {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: call.line(),
                    code: Code::E001,
                    message: format!(
                        "blocking call `{what}` on an event-loop path ({}); the epoll loop \
                         must never block on a foreign fd or sleep — queue the work or move \
                         it off-loop",
                        chain(i)
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
            // A lock acquired earlier in this fn and still (assumed)
            // held when scoring runs stalls every connection.
            let is_predict = match call {
                RawCall::Path { path, .. } => {
                    path.last().map(String::as_str) == Some("predict_batch")
                }
                RawCall::Method { name, .. } => name == "predict_batch",
                RawCall::Macro { .. } => false,
            };
            if is_predict {
                // Calls iterate in source order, so anything already in
                // `lock_lines` was acquired before this call — no line
                // comparison (which would miss one-line bodies).
                if let Some(&acq) = lock_lines.first() {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: call.line(),
                        code: Code::E001,
                        message: format!(
                            "`predict_batch` called with a lock acquired at line {acq} \
                             (assumed still held) on an event-loop path ({}); score outside \
                             the guard",
                            chain(i)
                        ),
                        suppressed: false,
                        reason: None,
                    });
                }
            }
        }
    }
}

/// K001: allocations inside the hot-kernel files must go through the
/// caller-provided scratch pool.
fn run_k001(graph: &Graph, config: &Config, findings: &mut Vec<Finding>) {
    for f in &graph.fns {
        if !config.is_kernel(&f.file) || f.in_test {
            continue;
        }
        for call in &f.calls {
            let what = match call {
                RawCall::Path { path, .. } => match path.last().map(String::as_str) {
                    Some("new") if path.len() >= 2 && (path[path.len() - 2] == "Vec" || path[path.len() - 2] == "String") => {
                        Some(format!("{}::new()", path[path.len() - 2]))
                    }
                    _ => None,
                },
                RawCall::Method { name, n_args, .. } => match name.as_str() {
                    "push" => Some(".push(..)".to_string()),
                    "to_vec" if *n_args == 0 => Some(".to_vec()".to_string()),
                    _ => None,
                },
                RawCall::Macro { name, .. } => match name.as_str() {
                    "vec" => Some("vec![..]".to_string()),
                    "format" => Some("format!(..)".to_string()),
                    _ => None,
                },
            };
            if let Some(what) = what {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: call.line(),
                    code: Code::K001,
                    message: format!(
                        "allocation `{what}` in hot kernel `{}`; route the buffer through \
                         the scratch pool (caller-reserved, reused across rows)",
                        f.display()
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
        }
    }
}

/// U001: every `pub fn` in library code that no non-test `fn main`
/// reaches through call edges and value references.
fn run_u001(graph: &Graph, findings: &mut Vec<Finding>) {
    let entries: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let f = &graph.fns[i];
            f.name == "main" && f.owner.is_none() && !f.in_test
        })
        .collect();
    let reach = graph.reach(&entries, true);
    for (i, f) in graph.fns.iter().enumerate() {
        if reach.reached[i]
            || !f.public
            || f.in_test
            || crate::classify(&f.file) != FileClass::Library
        {
            continue;
        }
        findings.push(Finding {
            file: f.file.clone(),
            line: f.line,
            code: Code::U001,
            message: format!(
                "public fn `{}` is reached from no entry (the `main` of a binary, an example \
                 or perfbench); delete it with the tests that exist only for it, or name the \
                 test that needs it in lint:allow(U001, ..)",
                f.display()
            ),
            suppressed: false,
            reason: None,
        });
    }
}
