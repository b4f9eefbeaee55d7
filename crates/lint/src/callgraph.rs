//! Workspace call-graph construction over the parsed ASTs.
//!
//! Resolution is **name-based and over-approximating** — there is no
//! type information. A path call `Qual::f(..)` links to every workspace
//! function named `f` whose impl type, enclosing module, or crate
//! matches `Qual`; a bare call `f(..)` prefers same-crate functions and
//! falls back to every workspace `f`; a method call `.m(..)` links to
//! every impl/trait method named `m` in the workspace. Paths that match
//! nothing (std and external crates) produce no edge — the analyses
//! pattern-match those call sites directly instead.
//!
//! A path used as a value (`.map(f)`, `Some(Type::f)`) resolves like a
//! path call into [`FnNode::refs`], except that a bare name resolves only
//! to free fns: a local named `bias` must not reach a `bias` method.
//! Integration tests, examples and perfbench are crates downstream of the
//! libraries, so library and binary code never resolves into them.

use crate::ast::{Expr, File};
use crate::FileClass;
use std::collections::BTreeMap;

/// A call observed in a function body, normalized for the analyses.
#[derive(Debug, Clone)]
pub enum RawCall {
    /// `path::to::f(args)`.
    Path {
        /// Path segments (`["SystemTime", "now"]`).
        path: Vec<String>,
        /// 1-based line.
        line: usize,
        /// Whether the argument span contains an identifier.
        args_have_ident: bool,
    },
    /// `recv.name(args)`.
    Method {
        /// Method name.
        name: String,
        /// Receiver `ident(.ident)*` chain; empty for computed receivers.
        recv: Vec<String>,
        /// 1-based line.
        line: usize,
        /// Top-level argument count.
        n_args: usize,
        /// Whether the argument span contains an identifier.
        args_have_ident: bool,
    },
    /// `name!(...)`.
    Macro {
        /// Macro name.
        name: String,
        /// 1-based line.
        line: usize,
    },
}

impl RawCall {
    /// The call's source line.
    pub fn line(&self) -> usize {
        match self {
            RawCall::Path { line, .. } | RawCall::Method { line, .. } | RawCall::Macro { line, .. } => {
                *line
            }
        }
    }
}

/// A resolved workspace call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`Graph::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the caller.
    pub line: usize,
    /// Index of the call in the caller's [`FnNode::calls`] — the
    /// source-order position (lines tie for one-liners, this doesn't).
    pub seq: usize,
}

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Crate name (from the file path).
    pub krate: String,
    /// Workspace-relative file.
    pub file: String,
    /// Module path: file-derived segments plus inline `mod`s.
    pub modules: Vec<String>,
    /// Impl/trait type name for methods.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `#[test]` / `#[cfg(test)]`-gated.
    pub in_test: bool,
    /// Declared with an unrestricted `pub`.
    pub public: bool,
    /// Every call in the body, in source order.
    pub calls: Vec<RawCall>,
    /// Resolved workspace edges.
    pub edges: Vec<Edge>,
    /// Workspace fns the body names as values, resolved and deduplicated.
    pub refs: Vec<usize>,
}

impl FnNode {

    /// Qualified display name (`Type::name` or `name`).
    pub fn display(&self) -> String {
        match &self.owner {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every function, in file/source order.
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Module path derived from a file's workspace-relative path:
/// `crates/core/src/a/b.rs` → `["a", "b"]`, `.../a/mod.rs` → `["a"]`,
/// `src/lib.rs` / `src/main.rs` → `[]`.
pub fn file_modules(rel: &str) -> Vec<String> {
    let after_src = match rel.find("/src/") {
        Some(i) => &rel[i + "/src/".len()..],
        // tests/, examples/, build.rs — not modules of the lib.
        None => return Vec::new(),
    };
    let mut mods: Vec<String> = after_src.split('/').map(String::from).collect();
    let Some(last) = mods.pop() else { return Vec::new() };
    match last.as_str() {
        "lib.rs" | "main.rs" | "mod.rs" => {}
        name => {
            let stem = name.strip_suffix(".rs").unwrap_or(name);
            mods.push(stem.to_string());
        }
    }
    // src/bin/foo.rs is its own root, not a `bin::foo` module.
    if mods.first().map(String::as_str) == Some("bin") {
        mods.remove(0);
    }
    mods
}

/// Builds the graph over a set of parsed files.
pub fn build(files: &[File]) -> Graph {
    let mut graph = Graph::default();
    // Value-reference paths per fn, resolved once every fn is known.
    let mut ref_paths: Vec<Vec<Vec<String>>> = Vec::new();
    for file in files {
        let base_mods = file_modules(&file.rel);
        for fr in file.functions() {
            let mut modules = base_mods.clone();
            modules.extend(fr.modules.iter().cloned());
            let mut calls = Vec::new();
            let mut paths = Vec::new();
            if let Some(body) = &fr.item.body {
                body.walk(&mut |e| match e {
                    Expr::Call(c) => calls.push(RawCall::Path {
                        path: c.path.clone(),
                        line: c.line,
                        args_have_ident: c.args_have_ident,
                    }),
                    Expr::MethodCall(m) => calls.push(RawCall::Method {
                        name: m.name.clone(),
                        recv: m.recv.clone(),
                        line: m.line,
                        n_args: m.n_args,
                        args_have_ident: m.args_have_ident,
                    }),
                    Expr::Macro(m) => calls.push(RawCall::Macro { name: m.name.clone(), line: m.line }),
                    Expr::Ref(r) => paths.push(r.path.clone()),
                    _ => {}
                });
            }
            ref_paths.push(paths);
            let idx = graph.fns.len();
            graph.by_name.entry(fr.item.name.clone()).or_default().push(idx);
            graph.fns.push(FnNode {
                krate: file.krate.clone(),
                file: file.rel.clone(),
                modules,
                owner: fr.owner.map(String::from),
                name: fr.item.name.clone(),
                line: fr.item.line,
                in_test: fr.in_test,
                public: fr.item.is_pub,
                calls,
                edges: Vec::new(),
                refs: Vec::new(),
            });
        }
    }
    resolve_edges(&mut graph, &ref_paths);
    graph
}

/// Crate-name match with the `demodq_` lib-name prefix normalized away
/// (`demodq_core::...` refers to the `crates/core` member) and `-`/`_`
/// treated as equal.
fn crate_matches(qualifier: &str, krate: &str) -> bool {
    let q = qualifier.strip_prefix("demodq_").unwrap_or(qualifier);
    q.replace('-', "_") == krate.replace('-', "_")
}

/// The workspace fns that `path`, called or (`is_ref`) named as a value
/// in `caller`, may resolve to.
fn resolve_path(graph: &Graph, caller: &FnNode, path: &[String], is_ref: bool) -> Vec<usize> {
    let Some(name) = path.last() else { return Vec::new() };
    let Some(cands) = graph.by_name.get(name) else { return Vec::new() };
    let qualifier = if path.len() >= 2 { Some(path[path.len() - 2].as_str()) } else { None };
    // A bare value path names a local or a free fn, never a method.
    let nameable = |i: usize| !is_ref || qualifier.is_some() || graph.fns[i].owner.is_none();
    match qualifier {
        // `Self::f()` — the caller's own impl type.
        Some("Self") => cands
            .iter()
            .copied()
            .filter(|&i| graph.fns[i].krate == caller.krate && graph.fns[i].owner == caller.owner)
            .collect(),
        // Path keywords point into the caller's crate.
        Some("crate") | Some("super") | Some("self") | None => {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| graph.fns[i].krate == caller.krate && nameable(i))
                .collect();
            if same.is_empty() && qualifier.is_none() {
                // A bare path with no same-crate target may be a
                // `use`-imported workspace fn.
                cands.iter().copied().filter(|&i| nameable(i)).collect()
            } else {
                same
            }
        }
        Some(q) => cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &graph.fns[i];
                f.owner.as_deref() == Some(q)
                    || f.modules.last().map(String::as_str) == Some(q)
                    || crate_matches(q, &f.krate)
            })
            .collect(),
    }
}

fn resolve_edges(graph: &mut Graph, ref_paths: &[Vec<Vec<String>>]) {
    let downstream: Vec<bool> =
        graph.fns.iter().map(|f| crate::classify(&f.file) == FileClass::Test).collect();
    // Test fns are reached only from tests, and downstream crates only
    // from downstream crates.
    let linkable = |caller: usize, callee: usize| {
        (!graph.fns[callee].in_test || graph.fns[caller].in_test)
            && (!downstream[callee] || downstream[caller])
    };
    let mut all_edges: Vec<Vec<Edge>> = Vec::with_capacity(graph.fns.len());
    let mut all_refs: Vec<Vec<usize>> = Vec::with_capacity(graph.fns.len());
    for (caller_idx, paths) in ref_paths.iter().enumerate() {
        let caller = &graph.fns[caller_idx];
        let mut edges: Vec<Edge> = Vec::new();
        for (seq, call) in caller.calls.iter().enumerate() {
            let matched = match call {
                RawCall::Path { path, .. } => resolve_path(graph, caller, path, false),
                // Methods only — a free fn cannot be `.name()`-called.
                RawCall::Method { name, .. } => graph
                    .by_name
                    .get(name)
                    .map(|cands| {
                        cands.iter().copied().filter(|&i| graph.fns[i].owner.is_some()).collect()
                    })
                    .unwrap_or_default(),
                RawCall::Macro { .. } => Vec::new(),
            };
            for i in matched {
                if linkable(caller_idx, i) {
                    edges.push(Edge { callee: i, line: call.line(), seq });
                }
            }
        }
        edges.sort_by_key(|e| (e.callee, e.line, e.seq));
        edges.dedup();
        all_edges.push(edges);

        let mut refs: Vec<usize> = paths
            .iter()
            .flat_map(|path| resolve_path(graph, caller, path, true))
            .filter(|&i| linkable(caller_idx, i))
            .collect();
        refs.sort_unstable();
        refs.dedup();
        all_refs.push(refs);
    }
    for ((node, edges), refs) in graph.fns.iter_mut().zip(all_edges).zip(all_refs) {
        node.edges = edges;
        node.refs = refs;
    }
}

impl Graph {
    /// Reverse adjacency: for each fn, the `(caller, call line)` pairs
    /// that target it.
    pub fn callers(&self) -> Vec<Vec<(usize, usize)>> {
        let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.fns.len()];
        for (caller, node) in self.fns.iter().enumerate() {
            for edge in &node.edges {
                rev[edge.callee].push((caller, edge.line));
            }
        }
        rev
    }

    /// Indices of fns defined in files matched by `pred`.
    pub fn fns_in_files(&self, pred: impl Fn(&str) -> bool) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| pred(&self.fns[i].file)).collect()
    }

    /// Forward reachability from `entries` through call edges, and
    /// through value references when `follow_refs` is set. Test fns are
    /// never entered.
    pub(crate) fn reach(&self, entries: &[usize], follow_refs: bool) -> Reach {
        let n = self.fns.len();
        let mut reach = Reach { reached: vec![false; n], parent: vec![None; n] };
        let mut queue: Vec<usize> = Vec::new();
        for &i in entries {
            if !reach.reached[i] {
                reach.reached[i] = true;
                queue.push(i);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            let node = &self.fns[cur];
            let refs = if follow_refs { node.refs.as_slice() } else { &[] };
            for callee in node.edges.iter().map(|e| e.callee).chain(refs.iter().copied()) {
                if reach.reached[callee] || self.fns[callee].in_test {
                    continue;
                }
                reach.reached[callee] = true;
                reach.parent[callee] = Some(cur);
                queue.push(callee);
            }
        }
        reach
    }
}

/// The result of [`Graph::reach`]: the BFS tree over the graph.
#[derive(Debug)]
pub(crate) struct Reach {
    /// `reached[i]`: fn `i` is an entry or reachable from one.
    pub reached: Vec<bool>,
    /// The fn that first reached `i`; `None` for entries and unreached fns.
    pub parent: Vec<Option<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let parsed: Vec<File> =
            files.iter().map(|(rel, src)| parser::parse_source(rel, src).file).collect();
        build(&parsed)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("fn {name}"))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        let (f, t) = (idx(g, from), idx(g, to));
        g.fns[f].edges.iter().any(|e| e.callee == t)
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_modules("crates/core/src/journal.rs"), vec!["journal"]);
        assert_eq!(file_modules("crates/core/src/lib.rs"), Vec::<String>::new());
        assert_eq!(file_modules("crates/core/src/repair/mod.rs"), vec!["repair"]);
        assert_eq!(file_modules("crates/serve/src/bin/loadgen.rs"), vec!["loadgen"]);
        assert_eq!(file_modules("tests/study_resume.rs"), Vec::<String>::new());
    }

    #[test]
    fn bare_and_qualified_calls_resolve() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); journal::append(1); demodq_b::far(); }\n\
                 fn helper() {}",
            ),
            ("crates/a/src/journal.rs", "pub fn append(x: u64) {}"),
            ("crates/b/src/lib.rs", "pub fn far() {}"),
        ]);
        assert!(has_edge(&g, "entry", "helper"));
        assert!(has_edge(&g, "entry", "append"), "module-qualified call resolves");
        assert!(has_edge(&g, "entry", "far"), "crate-qualified call resolves");
    }

    #[test]
    fn method_calls_over_approximate_and_self_resolves() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub struct R;\n\
             impl R {\n\
                 pub fn new() -> R { Self::setup(); R }\n\
                 fn setup() {}\n\
                 pub fn observe(&self) {}\n\
             }\n\
             pub fn driver(r: &R) { r.observe(); }",
        )]);
        assert!(has_edge(&g, "new", "setup"), "Self:: resolves in-impl");
        assert!(has_edge(&g, "driver", "observe"), "method call links to impl method");
    }

    #[test]
    fn value_references_resolve_and_bare_ones_only_to_free_fns() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub struct M;\n\
             impl M { pub fn bias(&self) {} pub fn weights(&self) {} }\n\
             pub fn record() {}\n\
             pub fn entry(bias: f64) { let _ = (bias, Some(record), [1].map(M::weights)); }",
        )]);
        let entry = idx(&g, "entry");
        let mut want = vec![idx(&g, "record"), idx(&g, "weights")];
        want.sort_unstable();
        // The parameter `bias` names no fn: bare paths skip methods.
        assert_eq!(g.fns[entry].refs, want);
        assert!(g.fns[entry].edges.is_empty(), "a value reference is not a call");
    }

    #[test]
    fn library_code_never_resolves_into_downstream_crates() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn run(s: &S) { s.finish(); }"),
            ("perfbench/src/trace.rs", "impl Span { pub fn finish(&self) { crate::now(); } }"),
            ("examples/demo.rs", "fn main() { a::run(&S); } impl Demo { fn finish(&self) {} }"),
        ]);
        assert!(g.fns[idx(&g, "run")].edges.is_empty(), "{:?}", g.fns[idx(&g, "run")].edges);
        assert!(has_edge(&g, "main", "run"), "downstream crates still call the libraries");
    }

    #[test]
    fn std_paths_and_test_fns_produce_no_edges() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { std::thread::sleep(d); helper_t(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 pub fn helper_t() { super::entry(); }\n\
             }",
        )]);
        let entry = idx(&g, "entry");
        // sleep matches no workspace fn; helper_t is test-gated.
        assert!(g.fns[entry].edges.is_empty(), "{:?}", g.fns[entry].edges);
        // But the test fn's own edge back into non-test code exists.
        assert!(has_edge(&g, "helper_t", "entry"));
    }
}
