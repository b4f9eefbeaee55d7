//! Regression trees over (gradient, hessian) targets — the weak learner of
//! the gradient-boosted classifier, using the second-order gain and leaf
//! weight formulas of the XGBoost paper. [`RegressionTree`] is the crate's
//! one tree arena and [`RegressionTree::fit_binned`] its one tree
//! trainer: prediction and leaf rectification walk the GBDT's trees
//! through it.
//!
//! [`RegressionTree::fit_binned`] finds splits over per-bin (gradient,
//! hessian) histograms of a shared [`BinnedMatrix`], accumulated in one
//! O(n) pass per node with sibling-histogram subtraction (the larger
//! child's histogram is the parent's minus the smaller child's, so each
//! row is scanned roughly once per level). The exact greedy splitter it
//! replaced is kept once, as the reference of `tests/hist_parity.rs`.

use crate::binned::BinnedMatrix;
use crate::kernels::{HistF32, HIST_QUAD};
use crate::scratch;

/// One node of a tree, stored in a flat arena: a split routes a row left
/// when its value is ≤ the threshold, a leaf holds the tree's output.
#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the left child (row value <= threshold).
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A depth-limited regression tree fit on per-row gradients and
/// hessians, in a flat node arena (root at index 0).
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// Split-finding hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularisation on leaf weights (XGBoost λ).
    pub reg_lambda: f64,
    /// Minimum hessian sum per child (XGBoost min_child_weight).
    pub min_child_weight: f64,
    /// Minimum gain to accept a split (XGBoost γ).
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 3, reg_lambda: 1.0, min_child_weight: 1.0, min_gain: 1e-6 }
    }
}

impl RegressionTree {
    /// Fits a tree with histogram split finding on the rows `rows` of a
    /// pre-binned matrix. `grad` and `hess` are indexed by *global* row
    /// id (`binned.n_rows()` long), so one binned matrix and one
    /// gradient buffer serve every subsample, fold and boosting round.
    pub fn fit_binned(
        binned: &BinnedMatrix,
        rows: &[usize],
        grad: &[f64],
        hess: &[f64],
        params: TreeParams,
    ) -> Self {
        Self::fit_binned_routed(binned, rows, grad, hess, params).0
    }

    /// [`RegressionTree::fit_binned`], also returning where the build put
    /// `rows`: grouped by the leaf each was partitioned into, plus whether
    /// raw-value routing ([`RegressionTree::predict_row`]) provably sends
    /// every one of them to that same leaf.
    pub(crate) fn fit_binned_routed(
        binned: &BinnedMatrix,
        rows: &[usize],
        grad: &[f64],
        hess: &[f64],
        params: TreeParams,
    ) -> (Self, LeafRows) {
        assert_eq!(binned.n_rows(), grad.len(), "gradient length mismatch");
        assert_eq!(binned.n_rows(), hess.len(), "hessian length mismatch");
        let mut builder = HistBuilder {
            binned,
            grad,
            hess,
            params,
            nodes: Vec::new(),
            right: scratch::take_usize(),
            leaves: scratch::take_pairs(),
            exact: true,
        };
        builder.right.resize(rows.len(), 0);
        let mut rows_buf = scratch::take_usize();
        rows_buf.extend_from_slice(rows);
        // Root totals are the only full-row scan: children inherit exact
        // f64 totals accumulated during their parent's partition pass.
        let g_sum: f64 = rows_buf.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = rows_buf.iter().map(|&i| hess[i]).sum();
        builder.build(rows_buf.as_mut_slice(), 0, None, (g_sum, h_sum));
        let HistBuilder { nodes, leaves, exact, .. } = builder;
        (RegressionTree { nodes }, LeafRows { rows: rows_buf, leaves, exact })
    }

    /// Prediction for a single encoded row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The leaf's value; `None` when `node` is not a leaf (or out of
    /// range).
    pub fn leaf_value(&self, node: usize) -> Option<f64> {
        match self.nodes.get(node) {
            Some(Node::Leaf { value }) => Some(*value),
            _ => None,
        }
    }

    /// Overwrites a leaf's value (leaf rectification). Returns `false` —
    /// without modifying anything — when `node` is not a leaf.
    pub fn set_leaf_value(&mut self, node: usize, value: f64) -> bool {
        match self.nodes.get_mut(node) {
            Some(Node::Leaf { value: v }) => {
                *v = value;
                true
            }
            _ => false,
        }
    }

    /// Arena index of the leaf `row` routes to (same traversal as
    /// [`RegressionTree::predict_row`]).
    pub fn leaf_for_row(&self, row: &[f64]) -> usize {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Where a histogram tree build put its training rows (see
/// [`RegressionTree::fit_binned_routed`]).
pub(crate) struct LeafRows {
    /// The rows, grouped by leaf in arena order.
    rows: scratch::UsizeScratch,
    /// Per leaf in arena order: its value and the end of its group in
    /// `rows`.
    leaves: scratch::PairsScratch,
    /// Whether every split certified that raw-value routing agrees with
    /// bin routing for the node's rows
    /// ([`BinnedMatrix::routes_like_bins`]): then each row's
    /// [`RegressionTree::predict_row`] is its group's leaf value.
    pub(crate) exact: bool,
}

impl LeafRows {
    /// `(leaf value, rows partitioned into that leaf)`, in arena order.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (f64, &[usize])> + '_ {
        let mut start = 0;
        self.leaves.iter().map(move |&(value, end)| {
            let group = &self.rows[start..end];
            start = end;
            (value, group)
        })
    }
}

/// The histogram tree builder: the shared inputs, the node arena, and a
/// partition buffer reused by every node.
struct HistBuilder<'a> {
    binned: &'a BinnedMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    params: TreeParams,
    nodes: Vec<Node>,
    /// Staging for the right side of each partition (sized for the root).
    right: scratch::UsizeScratch,
    /// Per leaf: (value, end of its row group), see [`LeafRows`].
    leaves: scratch::PairsScratch,
    /// Whether every split so far routes raw values like bins.
    exact: bool,
}

impl HistBuilder<'_> {
    /// Recursively builds the subtree for `rows` (reordered in place:
    /// stably partitioned, so each leaf's rows end up contiguous and the
    /// leaves' groups follow arena order); returns its arena index.
    /// `hist` is the node's precomputed histogram when the parent derived
    /// it by sibling subtraction; `totals` is the node's exact
    /// `(Σg, Σh)`, accumulated in stable row order by the parent's
    /// partition pass (bit-identical to a fresh scan of the node's rows),
    /// so leaf values never depend on the `f32` histogram statistics.
    fn build(
        &mut self,
        rows: &mut [usize],
        depth: usize,
        hist: Option<HistF32>,
        totals: (f64, f64),
    ) -> usize {
        let params = self.params;
        if depth >= params.max_depth || rows.len() < 2 {
            return self.leaf(rows.len(), totals);
        }
        let binned = self.binned;
        let hist =
            hist.unwrap_or_else(|| HistF32::accumulate(binned, rows, self.grad, self.hess));
        let Some((feature, bin)) = best_split(binned, &hist, totals, params) else {
            return self.leaf(rows.len(), totals);
        };
        // The count cells already know which bins the node occupies, so
        // the centred threshold needs no row scan.
        let quads = hist.feature_quads(binned, feature);
        let (threshold, right_bin) = split_threshold_from_counts(binned, feature, bin, quads);
        self.exact &= binned.routes_like_bins(feature, right_bin, threshold);
        let (split_at, left_tot, right_tot) =
            self.partition(rows, binned.feature_bins(feature), bin);
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        // Sibling subtraction: scan only the smaller child; the larger
        // child's histogram is parent − smaller. Skip the extra scan
        // entirely when the children will be leaves.
        let (left_hist, right_hist) = if depth + 1 < params.max_depth {
            let (left_rows, right_rows) = rows.split_at(split_at);
            let small_is_left = left_rows.len() <= right_rows.len();
            let small = if small_is_left { left_rows } else { right_rows };
            let small_hist = HistF32::accumulate(binned, small, self.grad, self.hess);
            let large_hist = hist.subtract(&small_hist);
            if small_is_left {
                (Some(small_hist), Some(large_hist))
            } else {
                (Some(large_hist), Some(small_hist))
            }
        } else {
            (None, None)
        };
        let (left_rows, right_rows) = rows.split_at_mut(split_at);
        let left = self.build(left_rows, depth + 1, left_hist, left_tot);
        let right = self.build(right_rows, depth + 1, right_hist, right_tot);
        self.nodes[idx] = Node::Split { feature, threshold, left, right };
        idx
    }

    /// Pushes a leaf for a node of `n_rows` rows with exact totals
    /// `(Σg, Σh)`; returns its arena index.
    fn leaf(&mut self, n_rows: usize, (g_sum, h_sum): (f64, f64)) -> usize {
        let reg_lambda = self.params.reg_lambda;
        let value = if h_sum + reg_lambda > 0.0 { -g_sum / (h_sum + reg_lambda) } else { 0.0 };
        let end = self.leaves.last().map_or(0, |&(_, end)| end) + n_rows;
        self.leaves.push((value, end));
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Stable partition of `rows` into "bin ≤ `bin` on `column`" first,
    /// fused with exact child-total accumulation: each side's `(Σg, Σh)`
    /// is summed in the same stable order a fresh scan of the partitioned
    /// side would use, so the totals are bit-identical to the per-child
    /// row scans they replace. Returns `(left size, left totals, right
    /// totals)`.
    ///
    /// Branch-free: every row is written to both the front of `rows` and
    /// the staging buffer, and only the matching cursor advances (the
    /// front cursor never passes the read position). Every row's
    /// statistics are added to both sides' sums, the side it does not go
    /// to receiving `-0.0` instead: `x + (-0.0) == x` bit for bit for
    /// every `x` (including `+0.0` and NaN), so the sums are those of the
    /// branching loop.
    fn partition(
        &mut self,
        rows: &mut [usize],
        column: &[u8],
        bin: usize,
    ) -> (usize, (f64, f64), (f64, f64)) {
        let (grad, hess) = (self.grad, self.hess);
        let right = &mut self.right[..rows.len()];
        let (mut write, mut right_len) = (0, 0);
        let (mut gl, mut hl) = (0.0f64, 0.0f64);
        let (mut gr, mut hr) = (0.0f64, 0.0f64);
        for read in 0..rows.len() {
            let row = rows[read];
            let goes_left = usize::from(column[row]) <= bin;
            rows[write] = row;
            right[right_len] = row;
            write += usize::from(goes_left);
            right_len += usize::from(!goes_left);
            let (g, h) = (grad[row], hess[row]);
            gl += or_neg_zero(g, goes_left);
            hl += or_neg_zero(h, goes_left);
            gr += or_neg_zero(g, !goes_left);
            hr += or_neg_zero(h, !goes_left);
        }
        rows[write..].copy_from_slice(&right[..right_len]);
        (write, (gl, hl), (gr, hr))
    }
}

/// `value` when `keep`, else `-0.0`: selected on the bits, because a
/// float `if` compiles to a branch, which the partition's unpredictable
/// routing would mispredict half the time.
#[inline]
fn or_neg_zero(value: f64, keep: bool) -> f64 {
    let mask = u64::from(keep).wrapping_neg();
    f64::from_bits(value.to_bits() & mask | (-0.0f64).to_bits() & !mask)
}

/// The best split of a node with exact totals `(Σg, Σh)` and histogram
/// `hist`, as `(feature, bin)` meaning "bin ≤ `bin` goes left"; `None`
/// when no candidate clears `min_gain` and `min_child_weight`.
///
/// Candidates are compared through the division-free form: with
/// `S = gl²(hr+λ) + gr²(hl+λ)` and `D = (hl+λ)(hr+λ)`, the gain is
/// `S/D − parent`, so `gain > min_gain ⟺ S > (min_gain+parent)·D` and
/// two candidates order by `S₁·D₂ > S₂·D₁` — no divide in the scan. Split
/// gains are `f64`, formed from the `f32` cell sums (the kernel policy:
/// statistics are `f32`, decisions are `f64`). The first candidate in scan
/// order wins ties.
///
/// Each feature's scan visits only the occupied bins below its last bin,
/// in ascending order, read off the count lanes as a bitmask: an empty
/// bin adds nothing to the running sums and partitions the rows exactly
/// as the occupied bin before it, so it could never win. (Its cells may
/// still hold the rounding residue of a sibling subtraction, so it must
/// be skipped, not added.) A two-bin (binary) feature has the single
/// candidate bin 0.
///
/// A candidate is kept through bit masks, not branches: whether one beats
/// the incumbent is data-dependent, and mispredicting it cost more than
/// the comparisons.
fn best_split(
    binned: &BinnedMatrix,
    hist: &HistF32,
    (g_sum, h_sum): (f64, f64),
    params: TreeParams,
) -> Option<(usize, usize)> {
    let parent_score = g_sum * g_sum / (h_sum + params.reg_lambda);
    let gain_floor = params.min_gain + parent_score;
    // The incumbent's (S, D) and `feature << 8 | bin` (bins fit a `u8`);
    // `found` is all ones once there is one.
    let (mut best_s, mut best_d, mut best_at, mut found) = (0.0f64, 0.0f64, 0usize, 0u64);
    for &feature in binned.split_features() {
        let quads = hist.feature_quads(binned, feature);
        let (mut gl, mut hl) = (0.0f64, 0.0f64);
        let mut candidate = |bin: usize, occupied: bool| {
            gl += f64::from(quads[HIST_QUAD * bin]);
            hl += f64::from(quads[HIST_QUAD * bin + 1]);
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            let dl = hl + params.reg_lambda;
            let dr = hr + params.reg_lambda;
            let s = gl * gl * dr + gr * gr * dl;
            let d = dl * dr;
            let light = (hl < params.min_child_weight) | (hr < params.min_child_weight);
            let better = occupied
                & !light
                & (s > gain_floor * d)
                & ((found == 0) | (s * best_d > best_s * d));
            let keep = u64::from(better).wrapping_neg();
            best_s = f64::from_bits(s.to_bits() & keep | best_s.to_bits() & !keep);
            best_d = f64::from_bits(d.to_bits() & keep | best_d.to_bits() & !keep);
            best_at = (feature << 8 | bin) & keep as usize | best_at & !keep as usize;
            found |= keep;
        };
        // Count lanes hold non-negative exact integers: `> 0.0` is the
        // occupancy test.
        let candidates = binned.n_bins(feature) - 1;
        if candidates == 1 {
            candidate(0, quads[2] > 0.0);
            continue;
        }
        let cells = &quads[..HIST_QUAD * candidates];
        for (chunk, cells) in cells.chunks(HIST_QUAD * 64).enumerate() {
            let mut occupied = 0u64;
            for (bin, cell) in cells.chunks_exact(HIST_QUAD).enumerate() {
                occupied |= u64::from(cell[2] > 0.0) << bin;
            }
            while occupied != 0 {
                candidate(64 * chunk + occupied.trailing_zeros() as usize, true);
                occupied &= occupied - 1;
            }
        }
    }
    (found != 0).then_some((best_at >> 8, best_at & 0xff))
}

/// The split threshold for "bin ≤ `bin` goes left" on `feature`, and the
/// lowest occupied bin right of the cut. The threshold is centred
/// between the node's values either side of the cut, the highest
/// nonempty bin ≤ `bin` and the lowest nonempty bin > `bin` (the bin
/// edge hugs the left values, so unseen rows between the two sides
/// would all route right). Occupancy comes from the node histogram, not
/// a row scan: `quads` is the feature's [`HistF32::feature_quads`]
/// slice, whose count cells are `f32` but hold exact integers (node
/// sizes sit far below 2^24, and sibling subtraction of exact integers
/// is itself exact), so this picks the same bins a scan over the node's
/// rows would.
fn split_threshold_from_counts(
    binned: &BinnedMatrix,
    feature: usize,
    bin: usize,
    quads: &[f32],
) -> (f64, Option<usize>) {
    let occupied = |b: usize| quads[HIST_QUAD * b + 2] > 0.0;
    let left_bin = (0..=bin).rev().find(|&b| occupied(b));
    let right_bin = (bin + 1..binned.n_bins(feature)).find(|&b| occupied(b));
    let threshold = match (left_bin, right_bin) {
        (Some(l), Some(r)) => binned.split_threshold(feature, l, r),
        // One side empty (degenerate split): fall back to the cut edge.
        _ => binned.threshold(feature, bin),
    };
    (threshold, right_bin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binned::DEFAULT_N_BINS;
    use tabular::DenseMatrix;

    /// Builds gradients/hessians equivalent to a squared-error fit of
    /// `target` from a zero prediction: g = -target, h = 1.
    fn sq_error_setup(targets: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (targets.iter().map(|t| -t).collect(), vec![1.0; targets.len()])
    }

    /// Fits a histogram tree on every row of `x`.
    fn fit_hist(x: &DenseMatrix, g: &[f64], h: &[f64], params: TreeParams) -> RegressionTree {
        let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        RegressionTree::fit_binned(&binned, &rows, g, h, params)
    }

    #[test]
    fn fits_step_function() {
        let x = DenseMatrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let targets = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let (g, h) = sq_error_setup(&targets);
        let tree = fit_hist(
            &x,
            &g,
            &h,
            TreeParams { max_depth: 2, reg_lambda: 0.0, min_child_weight: 0.5, min_gain: 1e-6 },
        );
        // Leaf values should approximate group means.
        assert!((tree.predict_row(&[1.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict_row(&[11.0]) - 5.0).abs() < 1e-9);
        assert!(tree.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count() >= 2);
    }

    #[test]
    fn depth_zero_returns_single_leaf_mean() {
        let x = DenseMatrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let (g, h) = sq_error_setup(&[1.0, 2.0, 3.0, 4.0]);
        let tree = fit_hist(
            &x,
            &g,
            &h,
            TreeParams { max_depth: 0, reg_lambda: 0.0, min_child_weight: 0.0, min_gain: 0.0 },
        );
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_row(&[0.0]) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn regularisation_shrinks_leaf_values() {
        let x = DenseMatrix::from_vec(2, 1, vec![0.0, 1.0]);
        let (g, h) = sq_error_setup(&[4.0, 4.0]);
        let params = |reg_lambda| TreeParams { max_depth: 0, reg_lambda, ..Default::default() };
        let weak = fit_hist(&x, &g, &h, params(0.0));
        let strong = fit_hist(&x, &g, &h, params(10.0));
        assert!(strong.predict_row(&[0.0]).abs() < weak.predict_row(&[0.0]).abs());
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let x = DenseMatrix::from_vec(4, 1, vec![7.0; 4]);
        let (g, h) = sq_error_setup(&[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(fit_hist(&x, &g, &h, TreeParams::default()).n_nodes(), 1);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x = DenseMatrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let (g, h) = sq_error_setup(&[0.0, 0.0, 9.0]);
        let tree = fit_hist(
            &x,
            &g,
            &h,
            TreeParams { max_depth: 3, reg_lambda: 0.0, min_child_weight: 2.0, min_gain: 0.0 },
        );
        // Any split would isolate <2 hessian weight on one side except 2|1...
        // left {0,1} has weight 2, right {2} has weight 1 < 2 -> blocked.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn multi_feature_selects_informative_one() {
        // Feature 0 is noise (constant), feature 1 separates the targets.
        let x = DenseMatrix::from_vec(4, 2, vec![5.0, 0.0, 5.0, 1.0, 5.0, 10.0, 5.0, 11.0]);
        let (g, h) = sq_error_setup(&[0.0, 0.0, 8.0, 8.0]);
        let tree = fit_hist(
            &x,
            &g,
            &h,
            TreeParams { max_depth: 1, reg_lambda: 0.0, min_child_weight: 0.5, min_gain: 1e-9 },
        );
        assert!((tree.predict_row(&[5.0, 0.5]) - 0.0).abs() < 1e-9);
        assert!((tree.predict_row(&[5.0, 10.5]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn binned_is_deterministic_across_runs() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64 * 0.1).collect();
        let targets: Vec<f64> = values.iter().map(|&v| (v * 0.7).sin()).collect();
        let x = DenseMatrix::from_vec(300, 1, values);
        let (g, h) = sq_error_setup(&targets);
        let binned = BinnedMatrix::from_matrix(&x, 32);
        let rows: Vec<usize> = (0..300).collect();
        let a = RegressionTree::fit_binned(&binned, &rows, &g, &h, TreeParams::default());
        let b = RegressionTree::fit_binned(&binned, &rows, &g, &h, TreeParams::default());
        assert_eq!(a.n_nodes(), b.n_nodes());
        for i in 0..300 {
            assert_eq!(a.predict_row(x.row(i)), b.predict_row(x.row(i)));
        }
    }

    /// The split scan as a plain loop: every bin of every feature in
    /// order, empty bins skipped, first strictly better candidate kept.
    fn best_split_reference(
        binned: &BinnedMatrix,
        hist: &HistF32,
        (g_sum, h_sum): (f64, f64),
        params: TreeParams,
    ) -> Option<(usize, usize)> {
        let gain_floor = params.min_gain + g_sum * g_sum / (h_sum + params.reg_lambda);
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for feature in 0..binned.n_cols() {
            let quads = hist.feature_quads(binned, feature);
            let (mut gl, mut hl) = (0.0f64, 0.0f64);
            for bin in 0..binned.n_bins(feature).saturating_sub(1) {
                if quads[HIST_QUAD * bin + 2] <= 0.0 {
                    continue;
                }
                gl += f64::from(quads[HIST_QUAD * bin]);
                hl += f64::from(quads[HIST_QUAD * bin + 1]);
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let (dl, dr) = (hl + params.reg_lambda, hr + params.reg_lambda);
                let (s, d) = (gl * gl * dr + gr * gr * dl, dl * dr);
                if s > gain_floor * d && best.is_none_or(|(bs, bd, _, _)| s * bd > bs * d) {
                    best = Some((s, d, feature, bin));
                }
            }
        }
        best.map(|(_, _, feature, bin)| (feature, bin))
    }

    #[test]
    fn best_split_matches_a_full_bin_scan() {
        // Continuous, binary and constant features; 256 bins put some
        // occupied bins past the first 64-bin mask word.
        let mut rng = tabular::Rng64::seed_from_u64(17);
        let n = 700;
        let mut data = Vec::with_capacity(n * 5);
        for i in 0..n {
            data.extend([
                rng.normal(),
                f64::from(u8::from(rng.bernoulli(0.3))),
                2.5,
                (i % 300) as f64,
                rng.normal().round(),
            ]);
        }
        let x = DenseMatrix::from_vec(n, 5, data);
        let grad: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let hess: Vec<f64> = (0..n).map(|_| 0.05 + rng.next_f64()).collect();
        for max_bins in [4, DEFAULT_N_BINS, 256] {
            let binned = BinnedMatrix::from_matrix(&x, max_bins);
            let parent: Vec<usize> = (0..n).filter(|i| i % 4 != 1).collect();
            let (small, large): (Vec<usize>, Vec<usize>) =
                parent.iter().partition(|&&i| x.get(i, 0) < -0.4);
            let parent_hist = HistF32::accumulate(&binned, &parent, &grad, &hess);
            let small_hist = HistF32::accumulate(&binned, &small, &grad, &hess);
            // The sibling-subtracted histogram, empty-bin residues and all.
            let nodes = [
                (&small, HistF32::accumulate(&binned, &small, &grad, &hess)),
                (&large, parent_hist.subtract(&small_hist)),
                (&parent, HistF32::accumulate(&binned, &parent, &grad, &hess)),
            ];
            for (rows, hist) in &nodes {
                let g: f64 = rows.iter().map(|&i| grad[i]).sum();
                let h: f64 = rows.iter().map(|&i| hess[i]).sum();
                for (min_child_weight, min_gain) in [(1.0, 1e-6), (0.0, 0.0), (5.0, 0.5)] {
                    let params =
                        TreeParams { max_depth: 3, reg_lambda: 1.0, min_child_weight, min_gain };
                    assert_eq!(
                        best_split(&binned, hist, (g, h), params),
                        best_split_reference(&binned, hist, (g, h), params),
                        "{max_bins} bins, {} rows, {params:?}",
                        rows.len()
                    );
                }
            }
        }
        // An empty bin is never a candidate, even when any split would
        // do: here the node's rows all sit in the binary feature's bin 1.
        let x = DenseMatrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 1.0]);
        let binned = BinnedMatrix::from_matrix(&x, 8);
        let (grad, hess) = (vec![1.0, -1.0, 2.0, 0.5], vec![1.0; 4]);
        let hist = HistF32::accumulate(&binned, &[1, 2, 3], &grad, &hess);
        let params = TreeParams {
            max_depth: 1,
            reg_lambda: 1.0,
            min_child_weight: 0.0,
            min_gain: f64::NEG_INFINITY,
        };
        assert_eq!(best_split(&binned, &hist, (1.5, 3.0), params), None);
    }

    #[test]
    fn partition_sums_match_a_branching_loop() {
        let mut rng = tabular::Rng64::seed_from_u64(3);
        let n = 200;
        let x = DenseMatrix::from_vec(n, 1, (0..n).map(|_| rng.normal()).collect());
        let binned = BinnedMatrix::from_matrix(&x, 16);
        // Signed zeros among the statistics, and one NaN late in the scan.
        let mut grad: Vec<f64> =
            (0..n).map(|i| [0.0, -0.0, rng.normal()][(i % 7).min(2)]).collect();
        grad[5] = f64::NAN;
        let hess: Vec<f64> =
            (0..n).map(|i| if i % 5 == 0 { -0.0 } else { rng.next_f64() }).collect();
        let mut rows: Vec<usize> = (0..n).rev().filter(|i| i % 3 != 0).collect();
        let column = binned.feature_bins(0);
        let goes_left = |i: usize| usize::from(column[i]) <= 7;
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let (mut want_l, mut want_r) = ((0.0f64, 0.0f64), (0.0f64, 0.0f64));
        for &i in &rows {
            if goes_left(i) {
                left.push(i);
                want_l = (want_l.0 + grad[i], want_l.1 + hess[i]);
            } else {
                right.push(i);
                want_r = (want_r.0 + grad[i], want_r.1 + hess[i]);
            }
        }
        let mut builder = HistBuilder {
            binned: &binned,
            grad: &grad,
            hess: &hess,
            params: TreeParams::default(),
            nodes: Vec::new(),
            right: scratch::take_usize(),
            leaves: scratch::take_pairs(),
            exact: true,
        };
        builder.right.resize(rows.len(), 0);
        let (at, got_l, got_r) = builder.partition(&mut rows, column, 7);
        assert_eq!(at, left.len());
        assert_eq!(rows, [left, right].concat());
        let bits = |(g, h): (f64, f64)| (g.to_bits(), h.to_bits());
        assert_eq!(bits(got_l), bits(want_l));
        assert_eq!(bits(got_r), bits(want_r));
    }
}
