//! # demodq-rectify — fairness-guided post-training model rectification
//!
//! The study's repair families so far all operate on the **data** side:
//! clean the training frame, refit, measure the fairness consequence.
//! This crate adds the **model**-side counterpart — take a trained
//! tree-structured classifier and repair the model itself, leaving the
//! training data untouched — so the two repair philosophies can be
//! compared head-to-head inside one study grid (`repair_side ∈
//! {data, model, both}`).
//!
//! ## Mechanism
//!
//! A tree-structured classifier partitions a validation split into
//! *cells* — one per reachable leaf of the (first) tree. Forcing a
//! cell's prediction to 0 or 1 moves every validation row of that cell
//! in one closed-form way, so the exact fairness and accuracy
//! consequence of any *set* of leaf edits follows from per-leaf group
//! confusion counts ([`fairness::LeafAccounting`]) with no model
//! re-evaluation inside the search. The rectifier runs a deterministic
//! best-first branch-and-bound over per-cell actions
//! {keep, force 0, force 1} with an admissible bound (cheapest
//! completion ignoring the fairness constraint), returning the
//! **minimum-error** flip set whose validation disparity gap is `<= ε`
//! — exact at study scale, no SMT solver required. SAT/SMT-based leaf
//! repair exists in the literature; at the cell counts produced by the
//! paper's sample sizes, plain branch-and-bound with this bound proves
//! optimality in well under the default node budget.
//!
//! To keep edits fairness-targeted (and the search space small), only
//! the `MAX_CELLS` (12) leaves carrying the most privileged/disadvantaged
//! validation rows are editable; the rest are frozen at *keep*. The
//! search is exact over that editable set, and the returned
//! [`BoundProof`] records the evidence: nodes expanded, nodes pruned,
//! and the minimum bound among pruned nodes (never below the
//! incumbent's cost when `optimal` is true).
//!
//! ## Model families
//!
//! The study trains one tree family, the GBDT (the paper's "xgboost"),
//! and only it has leaves to edit. Cells are the leaves of the first
//! boosting round; forcing shifts that leaf's value past the worst-row
//! margin of `base_score + lr·Σ trees`, flipping the sign of the
//! decision function for the whole cell. Log-reg and kNN have no
//! editable structure, and [`rectify_classifier`] passes them through.
//!
//! Post-edit metrics are recomputed from the **mutated model's actual
//! predictions**, never from the search's algebra, so the report's
//! `constraint_met` is an honest end-to-end check that the score
//! margins did what the accounting predicted.

mod search;

use fairness::{
    group_confusions, per_leaf_accounting, FairnessMetric, GroupConfusions, Groups,
    LeafAccounting,
};
use mlcore::{accuracy, Classifier, GbdtClassifier};
use std::cmp::Reverse;
use tabular::DenseMatrix;

/// Margin added past the worst-row decision boundary when forcing a
/// cell, absorbing float rounding in the margin algebra.
const FORCE_MARGIN: f64 = 1e-6;

/// Editable-cell cap: only the leaves carrying the most grouped
/// validation rows enter the search.
const MAX_CELLS: usize = 12;

/// The fairness constraint one rectification restores, and its search
/// budget. The study's `StudyOptions::rectify` and the serving models
/// both use it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectifySpec {
    /// The constrained metric (absolute validation gap).
    pub metric: FairnessMetric,
    /// Maximum tolerated validation gap.
    pub epsilon: f64,
    /// Branch-and-bound node budget; exhaustion degrades to the best
    /// complete assignment seen and marks the proof non-optimal.
    pub max_nodes: usize,
}

impl Default for RectifySpec {
    fn default() -> Self {
        RectifySpec { metric: FairnessMetric::EqualOpportunity, epsilon: 0.05, max_nodes: 20_000 }
    }
}

/// One applied leaf edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEdit {
    /// Arena index of the edited leaf of the first boosting round.
    pub leaf: usize,
    /// The label the cell's validation rows are forced to.
    pub to_label: u8,
    /// The leaf's additive value before the edit.
    pub old_score: f64,
    /// The leaf's score after the edit.
    pub new_score: f64,
}

/// Evidence of the branch-and-bound run backing a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundProof {
    /// Search nodes popped and branched.
    pub nodes_expanded: usize,
    /// Nodes generated but never expanded; each carried an admissible
    /// lower bound.
    pub nodes_pruned: usize,
    /// Smallest bound among the pruned nodes — when `optimal` is true
    /// this is `>= incumbent_errors`, which is the optimality
    /// certificate.
    pub min_pruned_bound: Option<u64>,
    /// Validation errors of the returned assignment.
    pub incumbent_errors: u64,
    /// True when the search terminated by proof rather than budget.
    pub optimal: bool,
}

/// Everything a study (or a serving endpoint) needs to know about one
/// rectification: what was edited, what it cost, and the proof.
#[derive(Debug, Clone)]
pub struct RectificationReport {
    /// The constrained metric.
    pub metric: FairnessMetric,
    /// The gap tolerance.
    pub epsilon: f64,
    /// Editable cells the search ran over.
    pub n_cells: usize,
    /// Applied leaf edits, ascending by leaf.
    pub edits: Vec<LeafEdit>,
    /// Validation group confusions before editing.
    pub pre: GroupConfusions,
    /// Validation group confusions after editing, recomputed from the
    /// mutated model's predictions.
    pub post: GroupConfusions,
    /// Validation gap before editing (`None` when undefined).
    pub pre_gap: Option<f64>,
    /// Validation gap after editing.
    pub post_gap: Option<f64>,
    /// Validation accuracy before editing.
    pub pre_accuracy: f64,
    /// Validation accuracy after editing.
    pub post_accuracy: f64,
    /// Whether the post-edit validation gap satisfies `epsilon`
    /// (an undefined gap cannot violate the constraint).
    pub constraint_met: bool,
    /// The search evidence.
    pub bound: BoundProof,
}

/// An undefined disparity cannot violate a gap constraint (matching the
/// study's NaN semantics for undefined metrics).
fn gap_ok(gap: Option<f64>, epsilon: f64) -> bool {
    gap.is_none_or(|g| g <= epsilon + 1e-12)
}

/// Dense-cell view of a validation split: which leaf each row routes to.
struct CellModel {
    /// Leaf arena id per dense cell, ascending.
    leaves: Vec<usize>,
    /// Validation row indices per dense cell.
    rows: Vec<Vec<usize>>,
    /// Dense cell index per validation row.
    assignment: Vec<usize>,
}

fn build_cells(leaf_per_row: &[usize]) -> CellModel {
    let mut leaves = leaf_per_row.to_vec();
    leaves.sort_unstable();
    leaves.dedup();
    let index: std::collections::BTreeMap<usize, usize> =
        leaves.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let assignment: Vec<usize> = leaf_per_row.iter().map(|l| index[l]).collect();
    let mut rows = vec![Vec::new(); leaves.len()];
    for (r, &c) in assignment.iter().enumerate() {
        rows[c].push(r);
    }
    CellModel { leaves, rows, assignment }
}

/// The per-cell decisions of one search run, translated back to dense
/// cell ids.
struct Decision {
    /// `(dense cell, forced label)`, ascending by cell.
    flips: Vec<(usize, u8)>,
    bound: BoundProof,
    n_cells: usize,
}

/// Selects the editable cells, runs the search, and maps the chosen
/// actions back onto dense cell ids.
fn decide(accountings: &[LeafAccounting], opts: &RectifySpec) -> Decision {
    // Editable = the cells with the most grouped validation rows (only
    // those can move the gap); deterministic leverage order with cell id
    // as the tie-break. The rest are frozen at keep.
    let mut candidates: Vec<usize> = (0..accountings.len())
        .filter(|&c| {
            accountings[c].privileged.total() + accountings[c].disadvantaged.total() > 0
        })
        .collect();
    candidates.sort_by_key(|&c| {
        let a = &accountings[c];
        (Reverse(a.privileged.total() + a.disadvantaged.total()), c)
    });
    candidates.truncate(MAX_CELLS);

    let mut base = LeafAccounting::default();
    for (c, acc) in accountings.iter().enumerate() {
        if !candidates.contains(&c) {
            base.merge(acc);
        }
    }
    let editable: Vec<LeafAccounting> = candidates.iter().map(|&c| accountings[c]).collect();
    let outcome = search::search(&base, &editable, opts.metric, opts.epsilon, opts.max_nodes);

    let mut flips: Vec<(usize, u8)> = candidates
        .iter()
        .zip(&outcome.actions)
        .filter(|(_, &a)| a != search::KEEP)
        .map(|(&c, &a)| (c, a))
        .collect();
    flips.sort_unstable();
    Decision {
        flips,
        bound: BoundProof {
            nodes_expanded: outcome.nodes_expanded,
            nodes_pruned: outcome.nodes_pruned,
            min_pruned_bound: outcome.min_pruned_bound,
            incumbent_errors: outcome.errors,
            optimal: outcome.optimal,
        },
        n_cells: editable.len(),
    }
}

/// Rectifies a GBDT in place. Cells are the leaves of the first boosting
/// round; forcing shifts that leaf's additive value past the worst-row
/// margin of the decision function `base_score + lr·Σ trees`.
pub fn rectify_gbdt(
    model: &mut GbdtClassifier,
    x_val: &DenseMatrix,
    y_val: &[u8],
    groups: &Groups,
    opts: &RectifySpec,
) -> RectificationReport {
    let pre_pred = model.predict(x_val);
    let pre = group_confusions(y_val, &pre_pred, groups);
    let pre_gap = opts.metric.absolute_disparity(&pre);
    let pre_accuracy = accuracy(y_val, &pre_pred);
    let untouched = RectificationReport {
        metric: opts.metric,
        epsilon: opts.epsilon,
        n_cells: 0,
        edits: Vec::new(),
        pre,
        post: pre,
        pre_gap,
        post_gap: pre_gap,
        pre_accuracy,
        post_accuracy: pre_accuracy,
        constraint_met: gap_ok(pre_gap, opts.epsilon),
        bound: BoundProof { optimal: true, ..BoundProof::default() },
    };
    let lr = model.learning_rate();
    // Nothing to repair (the constraint already holds or the split is
    // empty), or a degenerate boost (no rounds survived, or no
    // shrinkage) with no leaf whose value moves the decision function.
    if y_val.is_empty() || untouched.constraint_met || model.trees().is_empty() || lr <= 0.0 {
        return untouched;
    }
    let base = model.base_score();
    let leaf_per_row: Vec<usize> =
        (0..x_val.n_rows()).map(|i| model.trees()[0].leaf_for_row(x_val.row(i))).collect();
    let cells = build_cells(&leaf_per_row);
    let accountings =
        per_leaf_accounting(&cells.assignment, cells.leaves.len(), y_val, &pre_pred, groups);
    let decision = decide(&accountings, opts);
    // Per-row additive mass of rounds 1.. — the first round's new leaf
    // value must push `base + lr·(v0 + rest)` across 0 for every row.
    let rest: Vec<f64> = (0..x_val.n_rows())
        .map(|i| {
            let row = x_val.row(i);
            (model.decision(row) - base) / lr - model.trees()[0].predict_row(row)
        })
        .collect();
    let mut edits = Vec::with_capacity(decision.flips.len());
    for &(cell, label) in &decision.flips {
        let leaf = cells.leaves[cell];
        let thresholds = cells.rows[cell].iter().map(|&r| -base / lr - rest[r]);
        let new = if label == 1 {
            thresholds.fold(f64::NEG_INFINITY, f64::max) + FORCE_MARGIN
        } else {
            thresholds.fold(f64::INFINITY, f64::min) - FORCE_MARGIN
        };
        let old = model.trees()[0].leaf_value(leaf).unwrap_or(0.0);
        if model.trees_mut()[0].set_leaf_value(leaf, new) {
            edits.push(LeafEdit { leaf, to_label: label, old_score: old, new_score: new });
        }
    }
    // Post-edit metrics come from the mutated model's actual
    // predictions — the honesty check on the search algebra.
    let post_pred = model.predict(x_val);
    let post = group_confusions(y_val, &post_pred, groups);
    let post_gap = opts.metric.absolute_disparity(&post);
    RectificationReport {
        n_cells: decision.n_cells,
        edits,
        post,
        post_gap,
        post_accuracy: accuracy(y_val, &post_pred),
        constraint_met: gap_ok(post_gap, opts.epsilon),
        bound: decision.bound,
        ..untouched
    }
}

/// Rectifies a classifier that exposes editable tree structure (the
/// GBDT). Returns `None` for families without one (log-reg, kNN) — the
/// study treats those as pass-through on the model side.
pub fn rectify_classifier(
    model: &mut dyn Classifier,
    x_val: &DenseMatrix,
    y_val: &[u8],
    groups: &Groups,
    opts: &RectifySpec,
) -> Option<RectificationReport> {
    let model = model.as_any_mut()?.downcast_mut::<GbdtClassifier>()?;
    Some(rectify_gbdt(model, x_val, y_val, groups, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic split where the model learns to under-select the
    /// disadvantaged group: feature 0 is the group attribute, feature 1
    /// is signal. Labels depend only on the signal, but the training
    /// labels for the disadvantaged group are flipped toward 0 so the
    /// model picks up the bias.
    fn biased_data(n: usize) -> (DenseMatrix, Vec<u8>, DenseMatrix, Vec<u8>, Groups) {
        let gen_row = |i: usize| -> (f64, f64) {
            let group = f64::from(i.is_multiple_of(2)); // 1.0 = privileged
            let signal = ((i * 37 + 11) % 100) as f64 / 100.0;
            (group, signal)
        };
        let label = |group: f64, signal: f64, train: bool| -> u8 {
            let base = u8::from(signal >= 0.5);
            // Training bias: disadvantaged positives are often erased.
            if train && group < 0.5 && base == 1 && signal < 0.8 {
                0
            } else {
                base
            }
        };
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for i in 0..n {
            let (g, s) = gen_row(i);
            xt.extend_from_slice(&[g, s]);
            yt.push(label(g, s, true));
        }
        let mut xv = Vec::new();
        let mut yv = Vec::new();
        let mut privileged = Vec::new();
        let mut disadvantaged = Vec::new();
        for i in 0..n {
            let (g, s) = gen_row(i * 3 + 1);
            xv.extend_from_slice(&[g, s]);
            yv.push(label(g, s, false));
            privileged.push(g >= 0.5);
            disadvantaged.push(g < 0.5);
        }
        (
            DenseMatrix::from_vec(n, 2, xt),
            yt,
            DenseMatrix::from_vec(n, 2, xv),
            yv,
            Groups { privileged, disadvantaged },
        )
    }

    fn opts(epsilon: f64) -> RectifySpec {
        RectifySpec { epsilon, ..RectifySpec::default() }
    }

    fn gbdt(x: &DenseMatrix, y: &[u8]) -> GbdtClassifier {
        GbdtClassifier::fit(x, y, 3, 20, 0.3, 1.0, 7)
    }

    fn assert_constraint(report: &RectificationReport, x: &DenseMatrix) {
        assert!(
            report.constraint_met,
            "post gap {:?} must satisfy eps {} (pre {:?})",
            report.post_gap, report.epsilon, report.pre_gap
        );
        assert!(x.n_rows() > 0);
    }

    #[test]
    fn gbdt_rectification_meets_epsilon_on_validation() {
        let (xt, yt, xv, yv, groups) = biased_data(160);
        let mut model = gbdt(&xt, &yt);
        let report = rectify_gbdt(&mut model, &xv, &yv, &groups, &opts(0.05));
        assert_constraint(&report, &xv);
        let post = group_confusions(&yv, &model.predict(&xv), &groups);
        assert_eq!(report.post, post, "report must reflect the mutated booster");
    }

    #[test]
    fn bound_proof_is_admissible() {
        let (xt, yt, xv, yv, groups) = biased_data(160);
        let mut model = gbdt(&xt, &yt);
        let report = rectify_gbdt(&mut model, &xv, &yv, &groups, &opts(0.0));
        if report.bound.optimal {
            if let Some(b) = report.bound.min_pruned_bound {
                assert!(
                    b >= report.bound.incumbent_errors,
                    "pruned bound {b} beats incumbent {}",
                    report.bound.incumbent_errors
                );
            }
        }
    }

    #[test]
    fn already_fair_model_is_untouched() {
        let (xt, yt, xv, yv, groups) = biased_data(120);
        let mut model = gbdt(&xt, &yt);
        // Epsilon 1.0 is always satisfied: no edits, identical pre/post.
        let report = rectify_gbdt(&mut model, &xv, &yv, &groups, &opts(1.0));
        assert!(report.edits.is_empty());
        assert_eq!(report.pre, report.post);
        assert!(report.constraint_met);
        assert_eq!(report.bound.nodes_expanded, 0);
    }

    #[test]
    fn rectify_classifier_dispatches_and_skips_non_trees() {
        let (xt, yt, xv, yv, groups) = biased_data(160);
        let o = opts(0.05);
        let mut tree: Box<dyn Classifier> = Box::new(gbdt(&xt, &yt));
        assert!(rectify_classifier(tree.as_mut(), &xv, &yv, &groups, &o).is_some());
        let mut logreg: Box<dyn Classifier> =
            Box::new(mlcore::LogRegClassifier::fit(&xt, &yt, 1.0, 200));
        assert!(rectify_classifier(logreg.as_mut(), &xv, &yv, &groups, &o).is_none());
    }

    #[test]
    fn rectification_is_deterministic() {
        let run = || {
            let (xt, yt, xv, yv, groups) = biased_data(160);
            let mut model = gbdt(&xt, &yt);
            let report = rectify_gbdt(&mut model, &xv, &yv, &groups, &opts(0.05));
            (report.edits, report.post_accuracy.to_bits(), report.bound.nodes_expanded)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_validation_split_is_a_noop() {
        let (xt, yt, _, _, _) = biased_data(60);
        let mut model = gbdt(&xt, &yt);
        let empty = DenseMatrix::from_vec(0, 2, Vec::new());
        let groups = Groups { privileged: Vec::new(), disadvantaged: Vec::new() };
        let report = rectify_gbdt(&mut model, &empty, &[], &groups, &opts(0.0));
        assert!(report.edits.is_empty());
        assert!(report.constraint_met, "empty split has nothing to violate");
    }
}
