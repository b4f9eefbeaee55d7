//! Cross-validated hyperparameter tuning.
//!
//! Reproduces the study's training procedure (Section V): each model family
//! has one tuned hyperparameter, selected by 5-fold cross-validation on the
//! training set; the winning configuration is refit on the full training
//! set. The search-order seed varies between the "five model instances"
//! the paper evaluates per split, which is how model-seed variance enters
//! the score samples.
//!
//! Work that does not depend on the tuned hyperparameter is done once per
//! fold and shared across the grid:
//!
//! * k-NN scores every `k` from one distance pass ([`knn::knn_grid_scores`]);
//! * the GBDT bins the training matrix once, and every depth reads one row
//!   subsample schedule per fold size ([`gbdt`](crate::gbdt));
//! * every `C` of the logistic regression starts IRLS from one copy of the
//!   fold's w = 0 system ([`logreg`](crate::logreg)).
//!
//! Each shared value holds the bits the unshared fit computes for itself
//! (`ModelSpec::fit_binned` and `ModelSpec::fit` are that path), so the
//! winner, the refit model and every score are unchanged;
//! `tests/tune_parity.rs` checks it bit for bit.

use crate::binned::{BinnedMatrix, DEFAULT_N_BINS};
use crate::gbdt::{GbdtClassifier, Subsamples};
use crate::knn;
use crate::logreg::{IrlsStart, LogRegClassifier};
use crate::metrics::accuracy;
use crate::model::{Classifier, ModelKind, ModelSpec};
use tabular::{split::kfold, DenseMatrix, Rng64};

/// A tuned-and-refit model plus the bookkeeping the result records need.
pub struct TunedModel {
    /// The refit classifier.
    pub model: Box<dyn Classifier>,
    /// The winning hyperparameter configuration.
    pub best_spec: ModelSpec,
    /// Mean validation accuracy of the winning configuration.
    pub val_accuracy: f64,
    /// Training accuracy of the refit model.
    pub train_accuracy: f64,
}

/// The `(train, validation)` row ids of each fold.
type Folds = [(Vec<usize>, Vec<usize>)];

/// Tunes `kind`'s single hyperparameter by `n_folds`-fold cross-validation
/// on `(x, y)`, refits the best configuration on the full data.
///
/// `seed` controls the fold assignment, the order in which equal-scoring
/// candidates are preferred, and the stochastic parts of model fitting.
///
/// Panics when `x` is empty or smaller than the number of folds.
pub fn tune_and_fit(
    kind: ModelKind,
    x: &DenseMatrix,
    y: &[u8],
    n_folds: usize,
    seed: u64,
) -> TunedModel {
    assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
    assert!(x.n_rows() >= n_folds, "need at least {n_folds} rows");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut grid = kind.default_grid();
    // Shuffle the search order: with ties in validation accuracy, different
    // seeds pick different (equally good) configurations — the paper's
    // "different random seeds for the hyperparameter search".
    rng.shuffle(&mut grid);
    // lint:allow(P001, the asserts above guarantee rows >= n_folds, kfold's only error case)
    let folds = kfold(x.n_rows(), n_folds, rng.next_u64()).expect("valid fold arguments");
    let fit_seed = rng.next_u64();

    // k-NN scores the whole grid, cross-validation and training accuracy
    // alike, from one distance pass over all row pairs
    // ([`knn::knn_grid_scores`]); its per-(spec, fold) accuracies and
    // training accuracies equal those of fitting each configuration
    // separately, so the winner and the refit model cannot change.
    if kind == ModelKind::Knn {
        let ks: Vec<usize> = grid
            .iter()
            .map(|spec| match spec {
                ModelSpec::Knn { k } => *k,
                _ => unreachable!("knn grid contains only knn specs"),
            })
            .collect();
        let scores = knn::knn_grid_scores(x, y, &folds, &ks);
        let (best, val_accuracy) = select_best(&scores.fold_accuracy, folds.len());
        return TunedModel {
            model: grid[best].fit(x, y, fit_seed),
            best_spec: grid[best],
            val_accuracy,
            train_accuracy: scores.train_accuracy[best],
        };
    }

    // The GBDT trains on quantile bins: bin the full training
    // matrix once and share it across every fold and every grid
    // configuration. (Bin edges come from the full matrix, LightGBM-style
    // dataset-level binning.)
    let binned = kind
        .is_tree_based()
        .then(|| BinnedMatrix::from_matrix(x, DEFAULT_N_BINS));
    let fold_scores = match &binned {
        Some(b) => gbdt_fold_scores(&grid, b, x, y, &folds, fit_seed),
        None => logreg_fold_scores(&grid, x, y, &folds),
    };

    let (best, val_accuracy) = select_best(&fold_scores, folds.len());
    let best_spec = grid[best];
    let model = match &binned {
        Some(b) => {
            let all_rows: Vec<usize> = (0..x.n_rows()).collect();
            best_spec.fit_binned(b, x, &all_rows, y, fit_seed)
        }
        None => best_spec.fit(x, y, fit_seed),
    };
    let train_accuracy = accuracy(y, &model.predict(x));
    TunedModel { model, best_spec, val_accuracy, train_accuracy }
}

/// The validation rows and labels of each fold.
fn validation_sets(x: &DenseMatrix, y: &[u8], folds: &Folds) -> Vec<(DenseMatrix, Vec<u8>)> {
    folds.iter().map(|(_, val_idx)| (x.take_rows(val_idx), pick(y, val_idx))).collect()
}

/// The labels of `rows`.
fn pick(y: &[u8], rows: &[usize]) -> Vec<u8> {
    rows.iter().map(|&i| y[i]).collect()
}

/// Grid-major validation accuracies of the GBDT grid, each fit trained on
/// the shared bins by fold row ids. Every depth boosts with `fit_seed`,
/// so the folds of one size read one [`Subsamples`] schedule across the
/// whole grid (`kfold` makes at most two sizes).
fn gbdt_fold_scores(
    grid: &[ModelSpec],
    binned: &BinnedMatrix,
    x: &DenseMatrix,
    y: &[u8],
    folds: &Folds,
    fit_seed: u64,
) -> Vec<f64> {
    let validation = validation_sets(x, y, folds);
    let mut schedules: Vec<Subsamples> = Vec::new();
    let mut scores = Vec::with_capacity(grid.len() * folds.len());
    for spec in grid {
        let ModelSpec::Gbdt { max_depth, n_rounds, learning_rate, reg_lambda } = *spec else {
            unreachable!("xgboost grid contains only gbdt specs")
        };
        for ((train_idx, _), (x_val, y_val)) in folds.iter().zip(&validation) {
            let n = train_idx.len();
            let s = schedules.iter().position(|s| s.n_rows() == n).unwrap_or_else(|| {
                schedules.push(Subsamples::new(n, fit_seed));
                schedules.len() - 1
            });
            let model = GbdtClassifier::fit_subsampled(
                binned,
                x,
                train_idx,
                y,
                max_depth,
                n_rounds,
                learning_rate,
                reg_lambda,
                &mut schedules[s],
            );
            scores.push(accuracy(y_val, &model.predict(x_val)));
        }
    }
    scores
}

/// Grid-major validation accuracies of the log-reg grid. Each fold's
/// training rows are materialised, and their w = 0 IRLS system
/// accumulated, once for every `C`.
fn logreg_fold_scores(grid: &[ModelSpec], x: &DenseMatrix, y: &[u8], folds: &Folds) -> Vec<f64> {
    let validation = validation_sets(x, y, folds);
    let training: Vec<_> = folds
        .iter()
        .map(|(train_idx, _)| {
            let (x_train, y_train) = (x.take_rows(train_idx), pick(y, train_idx));
            let start = IrlsStart::new(&x_train, &y_train);
            (x_train, y_train, start)
        })
        .collect();
    let mut scores = Vec::with_capacity(grid.len() * folds.len());
    for spec in grid {
        let ModelSpec::LogReg { c, max_iter } = *spec else {
            unreachable!("log-reg grid contains only log-reg specs")
        };
        for ((x_train, y_train, start), (x_val, y_val)) in training.iter().zip(&validation) {
            let model = LogRegClassifier::fit_from(x_train, y_train, c, max_iter, start);
            scores.push(accuracy(y_val, &model.predict(x_val)));
        }
    }
    scores
}

/// The winning grid entry of grid-major per-(spec, fold) scores and its
/// mean score: fold scores are summed in fold order, and only a strict
/// improvement replaces the incumbent, so ties keep the first
/// (seed-shuffled) winner.
fn select_best(fold_scores: &[f64], n_folds: usize) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (spec, scores) in fold_scores.chunks(n_folds).enumerate() {
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        if best.is_none_or(|(_, b)| mean > b) {
            best = Some((spec, mean));
        }
    }
    // lint:allow(P001, default_grid() is statically non-empty for every model kind)
    best.expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_linear_data(n: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x0 = rng.normal();
            let x1 = rng.normal();
            data.push(x0);
            data.push(x1);
            let score = 2.0 * x0 - x1 + 0.5 * rng.normal();
            y.push(u8::from(score > 0.0));
        }
        (DenseMatrix::from_vec(n, 2, data), y)
    }

    #[test]
    fn tunes_each_model_family() {
        let (x, y) = noisy_linear_data(120, 3);
        for kind in ModelKind::all() {
            let tuned = tune_and_fit(kind, &x, &y, 5, 42);
            assert!(
                tuned.val_accuracy > 0.75,
                "{kind}: val_acc={}",
                tuned.val_accuracy
            );
            assert!(tuned.train_accuracy > 0.75);
            assert_eq!(tuned.best_spec.kind(), kind);
            // The refit model predicts on new data without panicking.
            let (x2, _) = noisy_linear_data(20, 4);
            assert_eq!(tuned.model.predict(&x2).len(), 20);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_linear_data(80, 5);
        let a = tune_and_fit(ModelKind::LogReg, &x, &y, 5, 9);
        let b = tune_and_fit(ModelKind::LogReg, &x, &y, 5, 9);
        assert_eq!(a.best_spec, b.best_spec);
        assert_eq!(a.val_accuracy, b.val_accuracy);
        assert_eq!(a.model.predict_proba(&x), b.model.predict_proba(&x));
    }

    #[test]
    fn different_seeds_can_change_choice_but_not_break() {
        let (x, y) = noisy_linear_data(60, 6);
        for seed in 0..5 {
            let tuned = tune_and_fit(ModelKind::Knn, &x, &y, 5, seed);
            assert!(tuned.val_accuracy > 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_rows_panics() {
        let x = DenseMatrix::zeros(3, 1);
        tune_and_fit(ModelKind::LogReg, &x, &[0, 1, 0], 5, 0);
    }
}
