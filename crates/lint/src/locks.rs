//! L001 — lock-order cycle detection.
//!
//! Every zero-argument `.lock()` / `.read()` / `.write()` method call
//! with a simple `ident(.ident)*` receiver chain is treated as a lock
//! acquisition; the lock's identity is `(crate, last non-self receiver
//! ident)` — `self.states.lock()` in crate `serve` is the lock
//! `serve::states`. (The zero-argument filter excludes `io::Read::read`
//! and `io::Write::write`, which always take a buffer; computed
//! receivers like `deques[i].lock()` have no chain and are skipped —
//! a documented soundness gap.)
//!
//! Per function we record the acquisition order. A guard is taken to be
//! held from its acquisition to the end of the innermost block (or
//! block-bodied closure) around the acquiring call, which is where a
//! `let`-bound guard drops; a temporary guard drops earlier, at the end
//! of its statement, so for it this over-approximates. So does an early
//! `drop(guard)`, which is invisible here. Two acquisitions in disjoint
//! blocks — one lock taken in a block and again after it — are
//! therefore no ordering. The one approximation the other way: a block
//! that returns its guard (`let g = { m.lock() };`) hands it to a scope
//! that outlives the block, and acquisitions after the block are not
//! seen under it. One call level is inlined: acquisitions inside a
//! direct callee called while a guard is held are appended as **edge
//! targets only** after that guard — never as sources, which would
//! fabricate an ordering between two sibling callees. A cycle in the
//! resulting lock-order graph (including a same-lock self-loop from a
//! double acquisition in one scope) is reported once per offending
//! edge-closing function.

use crate::callgraph::{Graph, RawCall};
use crate::{Code, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// A lock identity.
type LockId = (String, String);

/// One acquisition site in a function.
struct Acq {
    id: LockId,
    line: usize,
    /// Source-order index in the fn's call list — lines tie when a
    /// whole body sits on one line, call order never does.
    seq: usize,
    /// The guard is held over the calls before this index.
    held_until: usize,
}

/// The receiver-derived lock name, if this call is an acquisition.
pub(crate) fn acquisition(call: &RawCall) -> Option<(String, usize)> {
    let RawCall::Method { name, recv, line, n_args, .. } = call else { return None };
    if *n_args != 0 || !matches!(name.as_str(), "lock" | "read" | "write") {
        return None;
    }
    // Last receiver segment that isn't `self` names the lock field.
    let field = recv.iter().rev().find(|s| s.as_str() != "self")?;
    Some((field.clone(), *line))
}

/// Runs L001 over the graph.
pub fn run(graph: &Graph, findings: &mut Vec<Finding>) {
    // Per-fn own acquisitions, in source order.
    let own: Vec<Vec<Acq>> = graph
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return Vec::new();
            }
            f.calls
                .iter()
                .zip(&f.scope_ends)
                .enumerate()
                .filter_map(|(seq, (call, &held_until))| {
                    let (field, line) = acquisition(call)?;
                    Some(Acq { id: (f.krate.clone(), field), line, seq, held_until })
                })
                .collect()
        })
        .collect();

    // Lock-order edges: id_a -> id_b, annotated with the fn and line
    // that close the edge (the site of the second acquisition).
    let mut edges: BTreeMap<LockId, BTreeSet<LockId>> = BTreeMap::new();
    let mut edge_site: BTreeMap<(LockId, LockId), (usize, usize)> = BTreeMap::new();
    let mut add_edge = |a: &LockId, b: &LockId, f: usize, line: usize| {
        if edges.entry(a.clone()).or_default().insert(b.clone()) {
            edge_site.insert((a.clone(), b.clone()), (f, line));
        }
    };

    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        // Own-before-own while the first guard is held (includes
        // same-lock self-loops: a double acquisition of a non-reentrant
        // mutex in one scope).
        for (ai, a) in own[i].iter().enumerate() {
            for b in own[i].iter().skip(ai + 1).filter(|b| b.seq < a.held_until) {
                add_edge(&a.id, &b.id, i, b.line);
            }
        }
        // Own-before-callee: one level of inlining, targets only.
        for edge in &f.edges {
            if graph.fns[edge.callee].in_test {
                continue;
            }
            for a in &own[i] {
                if a.seq >= edge.seq || edge.seq >= a.held_until {
                    continue; // acquired after (or by) the call, or dropped before it
                }
                for b in &own[edge.callee] {
                    if a.id == b.id {
                        // Re-acquiring the same lock through a callee is
                        // a real deadlock shape, but self-loops are only
                        // trusted within one fn (the callee may be
                        // called elsewhere without the lock held).
                        continue;
                    }
                    add_edge(&a.id, &b.id, i, edge.line);
                }
            }
        }
    }

    // Find cycles: self-loops, then DFS for longer ones.
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, succs) in &edges {
        for b in succs {
            let closes_cycle = a == b || reaches(&edges, b, a);
            if !closes_cycle {
                continue;
            }
            let Some(&(f, line)) = edge_site.get(&(a.clone(), b.clone())) else { continue };
            if !reported.insert((f, line)) {
                continue;
            }
            let shape = if a == b {
                format!("`{}::{}` is acquired twice on one path", a.0, a.1)
            } else {
                format!(
                    "`{}::{}` is acquired before `{}::{}` here, but the reverse order also \
                     exists in the workspace",
                    a.0, a.1, b.0, b.1
                )
            };
            findings.push(Finding {
                file: graph.fns[f].file.clone(),
                line,
                code: Code::L001,
                message: format!(
                    "lock-order cycle: {shape} (in `{}`); pick one global acquisition order \
                     or narrow the guard scope",
                    graph.fns[f].display()
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// Is `to` reachable from `from` in the lock-order graph?
fn reaches(edges: &BTreeMap<LockId, BTreeSet<LockId>>, from: &LockId, to: &LockId) -> bool {
    let mut seen: BTreeSet<&LockId> = BTreeSet::new();
    let mut stack: Vec<&LockId> = vec![from];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if !seen.insert(cur) {
            continue;
        }
        if let Some(succs) = edges.get(cur) {
            stack.extend(succs.iter());
        }
    }
    false
}
