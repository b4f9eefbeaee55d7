//! Gradient-boosted decision trees with logistic loss — the study's
//! "xgboost" model, implemented with the second-order (Newton) boosting
//! formulation and stochastic row subsampling.
//!
//! The feature matrix is quantile-binned **once** per training matrix
//! ([`BinnedMatrix`]) and shared across all boosting rounds; each weak
//! learner finds splits over per-bin (gradient, hessian) histograms
//! instead of re-sorting every feature at every node. Callers that train
//! many models on the same matrix (cross-validation, the hyperparameter
//! grid) can bin once themselves and use [`GbdtClassifier::fit_binned`].
//! The exact greedy splitter the histograms replaced is the reference of
//! `tests/hist_parity.rs`.

use crate::binned::{BinnedMatrix, DEFAULT_N_BINS};
use crate::linalg::sigmoid;
use crate::model::Classifier;
use crate::scratch;
use crate::tree::{RegressionTree, TreeParams};
use tabular::{DenseMatrix, Rng64};

/// A trained gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct GbdtClassifier {
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    base_score: f64,
}

impl GbdtClassifier {
    /// Fits `n_rounds` depth-limited trees with shrinkage `learning_rate`
    /// and leaf-weight regularisation `reg_lambda`, binning `x` once and
    /// finding splits over histograms.
    ///
    /// `seed` drives the 80% row subsampling per round (set by the
    /// experimentation framework per model instance, mirroring the paper's
    /// "five model instances with different random seeds").
    pub fn fit(
        x: &DenseMatrix,
        y: &[u8],
        max_depth: usize,
        n_rounds: usize,
        learning_rate: f64,
        reg_lambda: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        Self::fit_binned(&binned, x, &rows, y, max_depth, n_rounds, learning_rate, reg_lambda, seed)
    }

    /// Fits on the rows `rows` of a pre-binned matrix. `x` and `y` are
    /// the full (global-indexed) matrix and labels backing `binned`;
    /// boosting runs on the `rows` subset only. The binned matrix can be
    /// shared across every fold of a cross-validation and every
    /// configuration of a hyperparameter grid.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_binned(
        binned: &BinnedMatrix,
        x: &DenseMatrix,
        rows: &[usize],
        y: &[u8],
        max_depth: usize,
        n_rounds: usize,
        learning_rate: f64,
        reg_lambda: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(binned.n_rows(), x.n_rows(), "binned/raw row mismatch");
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        let n = rows.len();
        if n == 0 {
            return GbdtClassifier { trees: Vec::new(), learning_rate, base_score: 0.0 };
        }
        // Log-odds of the base rate as the initial score.
        let pos = rows.iter().filter(|&&i| y[i] == 1).count() as f64;
        let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (rate / (1.0 - rate)).ln();
        // Global-indexed buffers: only the entries named by `rows` are
        // read, so one allocation serves any subset. Pulled from the
        // per-thread scratch pool — one persistent pool worker runs many
        // fits back to back and reuses the same allocations.
        let n_global = x.n_rows();
        let mut scores = scratch::take_f64();
        scores.resize(n_global, base_score);
        let mut grad = scratch::take_f64();
        grad.resize(n_global, 0.0);
        let mut hess = scratch::take_f64();
        hess.resize(n_global, 0.0);
        let params = TreeParams { max_depth, reg_lambda, min_child_weight: 1.0, min_gain: 1e-6 };
        let mut trees = Vec::with_capacity(n_rounds);
        let mut rng = Rng64::seed_from_u64(seed);
        let subsample = ((n as f64) * 0.8).ceil() as usize;
        let mut sample = scratch::take_usize();
        let mut unsampled = scratch::take_usize();
        for _ in 0..n_rounds {
            // Stochastic row subsample (without replacement), drawn into a
            // pooled buffer as ascending positions into `rows`; the rest
            // go to `unsampled`, then both become global row ids.
            rng.sample_indices_into(n, subsample.min(n), &mut sample);
            unsampled.clear();
            let mut drawn = sample.iter().peekable();
            for (k, &row) in rows.iter().enumerate() {
                if drawn.next_if_eq(&&k).is_none() {
                    unsampled.push(row);
                }
            }
            sample.iter_mut().for_each(|k| *k = rows[*k]);
            // Gradients/hessians are per-row functions of the current
            // score, so only the rows this round's tree will read need a
            // refresh — the unsampled 20% would go unread.
            crate::kernels::logistic_grad_hess(&sample, &scores, y, &mut grad, &mut hess);
            let (tree, routed) =
                RegressionTree::fit_binned_routed(binned, &sample, &grad, &hess, params);
            if tree.n_nodes() == 1 && tree.predict_row(&[]).abs() < 1e-12 {
                // Degenerate round (no usable split, near-zero leaf); the
                // remaining rounds would be identical — stop early.
                break;
            }
            // Every row gains `learning_rate` times its leaf's value. When
            // the build certified that raw routing agrees with the bins,
            // a sampled row's leaf is the one the build partitioned it
            // into; only the unsampled rows walk the tree.
            if routed.exact {
                for (value, group) in routed.leaves() {
                    let step = learning_rate * value;
                    group.iter().for_each(|&i| scores[i] += step);
                }
                for &i in unsampled.iter() {
                    scores[i] += learning_rate * tree.predict_row(x.row(i));
                }
            } else {
                for &i in rows {
                    scores[i] += learning_rate * tree.predict_row(x.row(i));
                }
            }
            trees.push(tree);
        }
        GbdtClassifier { trees, learning_rate, base_score }
    }

    /// Number of fitted boosting rounds.
    // lint:allow(U001, gbdt_rounds_match_a_tree_walk_reference counts the boosting rounds with it)
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Raw (log-odds) score for one row.
    pub fn decision(&self, row: &[f64]) -> f64 {
        self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// The boosted weak learners, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Mutable access to the weak learners (leaf rectification shifts
    /// first-round leaf values to move the ensemble decision score).
    pub fn trees_mut(&mut self) -> &mut [RegressionTree] {
        &mut self.trees
    }

    /// The shrinkage applied to every tree's contribution.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// The constant initial log-odds score.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }
}

impl Classifier for GbdtClassifier {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows()).map(|i| sigmoid(self.decision(x.row(i)))).collect()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (DenseMatrix, Vec<u8>) {
        // XOR is not linearly separable; trees should crack it.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            // Small jitter to avoid exact duplicates at every point.
            data.push(a + (i as f64) * 1e-4);
            data.push(b - (i as f64) * 1e-4);
            y.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (DenseMatrix::from_vec(40, 2, data), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let model = GbdtClassifier::fit(&x, &y, 3, 40, 0.3, 1.0, 7);
        let preds = model.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 38, "correct={correct}/40");
    }

    #[test]
    fn base_score_matches_base_rate_without_signal() {
        let x = DenseMatrix::zeros(50, 1);
        let y: Vec<u8> = (0..50).map(|i| u8::from(i < 10)).collect();
        let model = GbdtClassifier::fit(&x, &y, 3, 20, 0.3, 1.0, 1);
        let p = model.predict_proba(&DenseMatrix::zeros(1, 1))[0];
        assert!((p - 0.2).abs() < 0.05, "p={p}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let a = GbdtClassifier::fit(&x, &y, 3, 10, 0.3, 1.0, 42);
        let b = GbdtClassifier::fit(&x, &y, 3, 10, 0.3, 1.0, 42);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_may_differ() {
        let (x, y) = xor_data();
        let a = GbdtClassifier::fit(&x, &y, 3, 10, 0.3, 1.0, 1);
        let b = GbdtClassifier::fit(&x, &y, 3, 10, 0.3, 1.0, 2);
        // Subsampling differs, so raw scores should not be identical.
        let pa = a.predict_proba(&x);
        let pb = b.predict_proba(&x);
        assert!(pa.iter().zip(&pb).any(|(x, y)| (x - y).abs() > 1e-12));
    }

    #[test]
    fn empty_training_set_predicts_half() {
        let x = DenseMatrix::zeros(0, 2);
        let model = GbdtClassifier::fit(&x, &[], 3, 10, 0.3, 1.0, 0);
        let p = model.predict_proba(&DenseMatrix::zeros(3, 2));
        assert_eq!(p, vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn pure_class_training_is_confident() {
        let x = DenseMatrix::from_vec(10, 1, (0..10).map(|i| i as f64).collect());
        let y = vec![1u8; 10];
        let model = GbdtClassifier::fit(&x, &y, 2, 10, 0.3, 1.0, 0);
        let p = model.predict_proba(&x);
        assert!(p.iter().all(|&pi| pi > 0.95));
    }

    #[test]
    fn early_stop_on_degenerate_rounds() {
        // Constant features: the first tree is a stub, so boosting stops.
        let x = DenseMatrix::zeros(20, 2);
        let y: Vec<u8> = (0..20).map(|i| u8::from(i % 2 == 0)).collect();
        let model = GbdtClassifier::fit(&x, &y, 3, 50, 0.3, 1.0, 0);
        assert!(model.n_trees() < 50);
    }

    #[test]
    fn row_subset_trains_on_that_subset_only() {
        // Rows 20..40 carry an inverted signal; training on 0..20 only
        // must follow the 0..20 signal.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = (i % 20) as f64;
            data.push(v + (i as f64) * 1e-3);
            y.push(if i < 20 { u8::from(v >= 10.0) } else { u8::from(v < 10.0) });
        }
        let x = DenseMatrix::from_vec(40, 1, data);
        let binned = BinnedMatrix::from_matrix(&x, 64);
        let rows: Vec<usize> = (0..20).collect();
        let model = GbdtClassifier::fit_binned(&binned, &x, &rows, &y, 3, 30, 0.3, 1.0, 5);
        let probe = DenseMatrix::from_vec(2, 1, vec![2.0, 17.0]);
        assert_eq!(model.predict(&probe), vec![0, 1]);
    }
}
