//! Decision-tree and random-forest classifiers — the remainder of the
//! CleanML model zoo (the paper's study uses log-reg / knn / xgboost; the
//! underlying benchmark also evaluates decision trees and random forests,
//! so they are provided for extension studies).
//!
//! The tree maximises Gini-impurity reduction. [`DecisionTreeClassifier::fit`]
//! and [`RandomForestClassifier::fit`] find splits over per-bin (positive,
//! total) count histograms of a quantile-binned matrix — one O(n) pass per
//! node instead of a sort per feature per node — and the forest shares a
//! single [`BinnedMatrix`] across all bagged trees. Trees are stored in
//! the crate's one arena, [`RegressionTree`], whose leaf values here are
//! positive-class probabilities: prediction and leaf rectification go
//! through [`DecisionTreeClassifier::tree`] and
//! [`RandomForestClassifier::trees`] exactly as for the GBDT's trees.

use crate::binned::{BinnedMatrix, DEFAULT_N_BINS};
use crate::model::Classifier;
use crate::tree::{node_split_threshold, partition_rows, Node, RegressionTree};
use tabular::{DenseMatrix, Rng64};

/// Split-finding hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DTreeParams {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features examined per split: `None` = all, `Some(m)` = a random
    /// subset of `m` (used by the forest).
    pub max_features: Option<usize>,
}

impl Default for DTreeParams {
    fn default() -> Self {
        DTreeParams { max_depth: 6, min_samples_split: 2, max_features: None }
    }
}

/// A trained decision tree: leaf values are positive-class probabilities.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    tree: RegressionTree,
}

/// Gini impurity of a (pos, total) split side.
#[inline]
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// Per-bin (positive count, total count) accumulator. Integer counts make
/// sibling subtraction exact, so subtracted histograms are bit-identical
/// to freshly computed ones.
type ClassHist = Vec<(u32, u32)>;

impl DecisionTreeClassifier {
    /// Fits a tree with histogram split finding, binning `x` internally.
    /// `seed` drives the per-split feature subsampling when
    /// `max_features` is set.
    pub fn fit(x: &DenseMatrix, y: &[u8], params: DTreeParams, seed: u64) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        let mut rng = Rng64::seed_from_u64(seed);
        Self::fit_binned(&binned, &rows, y, params, &mut rng)
    }

    /// Fits a tree on the rows `rows` of a pre-binned matrix (shared
    /// across CV folds, the hyperparameter grid, and bagged trees).
    /// `y` is indexed by global row id. `rows` may repeat indices
    /// (bootstrap samples).
    pub fn fit_binned(
        binned: &BinnedMatrix,
        rows: &[usize],
        y: &[u8],
        params: DTreeParams,
        rng: &mut Rng64,
    ) -> Self {
        assert_eq!(binned.n_rows(), y.len(), "feature/label length mismatch");
        let mut nodes = Vec::new();
        let mut rows = rows.to_vec();
        Self::build_binned(&mut nodes, binned, y, &mut rows, 0, params, rng, None);
        DecisionTreeClassifier { tree: RegressionTree::from_nodes(nodes) }
    }

    /// The fitted tree; leaf values are positive-class probabilities.
    pub fn tree(&self) -> &RegressionTree {
        &self.tree
    }

    /// Mutable access to the tree (leaf rectification overwrites leaf
    /// probabilities).
    pub fn tree_mut(&mut self) -> &mut RegressionTree {
        &mut self.tree
    }

    /// Accumulates (positive, total) counts per bin for the features in
    /// `features` (full-layout histogram; unsampled features stay zero).
    fn compute_hist(
        binned: &BinnedMatrix,
        rows: &[usize],
        y: &[u8],
        features: &[usize],
    ) -> ClassHist {
        let mut hist: ClassHist = vec![(0, 0); binned.total_bins()];
        for &j in features {
            if binned.n_bins(j) == 1 {
                continue;
            }
            let column = binned.feature_bins(j);
            let slice = &mut hist[binned.offset(j)..binned.offset(j) + binned.n_bins(j)];
            for &i in rows {
                let slot = &mut slice[usize::from(column[i])];
                slot.0 += u32::from(y[i]);
                slot.1 += 1;
            }
        }
        hist
    }

    /// Recursively builds the subtree for `rows` into `nodes`; returns
    /// its arena index.
    #[allow(clippy::too_many_arguments)]
    fn build_binned(
        nodes: &mut Vec<Node>,
        binned: &BinnedMatrix,
        y: &[u8],
        rows: &mut [usize],
        depth: usize,
        params: DTreeParams,
        rng: &mut Rng64,
        hist: Option<ClassHist>,
    ) -> usize {
        let total = rows.len() as f64;
        let pos = rows.iter().filter(|&&i| y[i] == 1).count() as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: if total > 0.0 { pos / total } else { 0.5 } });
            nodes.len() - 1
        };
        if depth >= params.max_depth
            || rows.len() < params.min_samples_split
            // lint:allow(F001, exact-zero guard: pos is a sum of 0/1 labels, pure-node check)
            || pos == 0.0
            || pos == total
        {
            return make_leaf(nodes);
        }
        let parent_gini = gini(pos, total);
        let d = binned.n_cols();
        // Feature subset. With subsampling the parent's histogram covers
        // different features than the children need, so sibling
        // subtraction only applies to the all-features (single tree) case.
        let features: Vec<usize> = match params.max_features {
            None => (0..d).collect(),
            Some(m) => rng.sample_indices(d, m.min(d).max(1)),
        };
        let hist = match hist {
            Some(h) if params.max_features.is_none() => h,
            _ => Self::compute_hist(binned, rows, y, &features),
        };
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        for &feature in &features {
            let n_bins = binned.n_bins(feature);
            if n_bins < 2 {
                continue;
            }
            let slice = &hist[binned.offset(feature)..binned.offset(feature) + n_bins];
            let mut left_pos = 0u32;
            let mut left_n = 0u32;
            for (bin, &(p, n)) in slice[..n_bins - 1].iter().enumerate() {
                left_pos += p;
                left_n += n;
                if left_n == 0 || u64::from(left_n) == rows.len() as u64 {
                    continue;
                }
                let ln = f64::from(left_n);
                let rn = total - ln;
                let lp = f64::from(left_pos);
                let rp = pos - lp;
                let weighted = (ln * gini(lp, ln) + rn * gini(rp, rn)) / total;
                let gain = parent_gini - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feature, bin));
                }
            }
        }
        match best {
            None => make_leaf(nodes),
            Some((_, feature, bin)) => {
                let threshold = node_split_threshold(binned, feature, bin, rows);
                let column = binned.feature_bins(feature);
                let split_at = partition_rows(rows, |i| usize::from(column[i]) <= bin);
                let idx = nodes.len();
                nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                let (left_hist, right_hist) =
                    if params.max_features.is_none() && depth + 1 < params.max_depth {
                        let (left_rows, right_rows) = rows.split_at(split_at);
                        let (small, small_is_left) = if left_rows.len() <= right_rows.len() {
                            (left_rows, true)
                        } else {
                            (right_rows, false)
                        };
                        let small_hist = Self::compute_hist(binned, small, y, &features);
                        let large_hist = subtract_hist(hist, &small_hist);
                        if small_is_left {
                            (Some(small_hist), Some(large_hist))
                        } else {
                            (Some(large_hist), Some(small_hist))
                        }
                    } else {
                        (None, None)
                    };
                let (left_rows, right_rows) = rows.split_at_mut(split_at);
                let left = Self::build_binned(
                    nodes, binned, y, left_rows, depth + 1, params, rng, left_hist,
                );
                let right = Self::build_binned(
                    nodes, binned, y, right_rows, depth + 1, params, rng, right_hist,
                );
                nodes[idx] = Node::Split { feature, threshold, left, right };
                idx
            }
        }
    }
}

impl Classifier for DecisionTreeClassifier {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows()).map(|i| self.tree.predict_row(x.row(i))).collect()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Parent histogram minus the smaller child's, element-wise (exact in
/// integer counts).
fn subtract_hist(mut parent: ClassHist, small: &ClassHist) -> ClassHist {
    for (p, s) in parent.iter_mut().zip(small) {
        p.0 -= s.0;
        p.1 -= s.1;
    }
    parent
}

/// A bagged random forest of probability trees.
pub struct RandomForestClassifier {
    trees: Vec<RegressionTree>,
}

impl RandomForestClassifier {
    /// Fits `n_trees` trees on bootstrap samples with sqrt-feature
    /// subsets, binning `x` once and sharing the binned matrix across
    /// every tree.
    pub fn fit(x: &DenseMatrix, y: &[u8], n_trees: usize, max_depth: usize, seed: u64) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        let mut rng = Rng64::seed_from_u64(seed);
        Self::fit_binned(&binned, &rows, y, n_trees, max_depth, &mut rng)
    }

    /// Fits on the rows `rows` of a pre-binned matrix; bootstrap samples
    /// are drawn from `rows`. `y` is indexed by global row id.
    pub fn fit_binned(
        binned: &BinnedMatrix,
        rows: &[usize],
        y: &[u8],
        n_trees: usize,
        max_depth: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(n_trees > 0, "need at least one tree");
        let n = rows.len();
        let m = ((binned.n_cols() as f64).sqrt().ceil() as usize).max(1);
        let params = DTreeParams { max_depth, min_samples_split: 2, max_features: Some(m) };
        let trees = (0..n_trees)
            .map(|_| {
                if n == 0 {
                    RegressionTree::from_nodes(vec![Node::Leaf { value: 0.5 }])
                } else {
                    let sample: Vec<usize> = (0..n).map(|_| rows[rng.below(n)]).collect();
                    DecisionTreeClassifier::fit_binned(binned, &sample, y, params, rng).tree
                }
            })
            .collect();
        RandomForestClassifier { trees }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The bagged component trees, in fitting order; leaf values are
    /// positive-class probabilities.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Mutable access to the component trees (leaf rectification edits
    /// the first tree's leaf probabilities to steer the ensemble mean).
    pub fn trees_mut(&mut self) -> &mut [RegressionTree] {
        &mut self.trees
    }
}

impl Classifier for RandomForestClassifier {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|i| {
                let row = x.row(i);
                self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
                    / self.trees.len() as f64
            })
            .collect()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize) -> (DenseMatrix, Vec<u8>) {
        let mut rng = Rng64::seed_from_u64(1);
        let mut data = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = f64::from(rng.bernoulli(0.5));
            let b = f64::from(rng.bernoulli(0.5));
            data.push(a + rng.normal() * 0.05);
            data.push(b + rng.normal() * 0.05);
            y.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (DenseMatrix::from_vec(n, 2, data), y)
    }

    #[test]
    fn tree_learns_xor() {
        let (x, y) = xor_data(200);
        let tree = DecisionTreeClassifier::fit(&x, &y, DTreeParams::default(), 3);
        let preds = tree.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 195, "correct={correct}/200");
    }

    #[test]
    fn pure_node_stops_early() {
        let x = DenseMatrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let tree = DecisionTreeClassifier::fit(&x, &[1, 1, 1, 1], DTreeParams::default(), 0);
        assert_eq!(tree.tree().n_nodes(), 1);
        assert_eq!(tree.tree().predict_row(&[2.0]), 1.0);
    }

    #[test]
    fn depth_limit_respected() {
        let (x, y) = xor_data(100);
        let stump = DecisionTreeClassifier::fit(
            &x,
            &y,
            DTreeParams { max_depth: 1, ..Default::default() },
            0,
        );
        // Depth 1 => at most 3 nodes (root + 2 leaves).
        assert!(stump.tree().n_nodes() <= 3);
    }

    #[test]
    fn probabilities_are_leaf_fractions() {
        let (x, y) = xor_data(100);
        let tree = DecisionTreeClassifier::fit(&x, &y, DTreeParams::default(), 0);
        for p in tree.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn binned_tree_is_deterministic_across_runs() {
        let (x, y) = xor_data(150);
        let a = DecisionTreeClassifier::fit(&x, &y, DTreeParams::default(), 9);
        let b = DecisionTreeClassifier::fit(&x, &y, DTreeParams::default(), 9);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        assert_eq!(a.tree().n_nodes(), b.tree().n_nodes());
    }

    #[test]
    fn forest_learns_xor_and_is_deterministic() {
        let (x, y) = xor_data(200);
        let forest = RandomForestClassifier::fit(&x, &y, 25, 6, 7);
        assert_eq!(forest.n_trees(), 25);
        let preds = forest.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 190, "correct={correct}/200");
        let again = RandomForestClassifier::fit(&x, &y, 25, 6, 7);
        assert_eq!(forest.predict_proba(&x), again.predict_proba(&x));
    }

    #[test]
    fn forest_differs_across_seeds() {
        let (x, y) = xor_data(100);
        let a = RandomForestClassifier::fit(&x, &y, 5, 4, 1).predict_proba(&x);
        let b = RandomForestClassifier::fit(&x, &y, 5, 4, 2).predict_proba(&x);
        assert!(a.iter().zip(&b).any(|(p, q)| (p - q).abs() > 1e-12));
    }

    #[test]
    fn empty_training_set_predicts_half() {
        let x = DenseMatrix::zeros(0, 2);
        let forest = RandomForestClassifier::fit(&x, &[], 3, 4, 0);
        assert_eq!(forest.predict_proba(&DenseMatrix::zeros(2, 2)), vec![0.5, 0.5]);
    }
}
