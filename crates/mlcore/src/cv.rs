//! Cross-validated hyperparameter tuning.
//!
//! Reproduces the study's training procedure (Section V): each model family
//! has one tuned hyperparameter, selected by 5-fold cross-validation on the
//! training set; the winning configuration is refit on the full training
//! set. The search-order seed varies between the "five model instances"
//! the paper evaluates per split, which is how model-seed variance enters
//! the score samples.
//!
//! One search serves two selection rules: [`tune_and_fit_by`] predicts
//! every (configuration, fold)'s validation rows once ([`CvPredictions`])
//! and refits the configuration a rule picks. [`tune_and_fit`] uses the
//! accuracy rule; `demodq::fair_tuning` adds a fairness-constrained one.
//!
//! Work that does not depend on the tuned hyperparameter is done once per
//! fold and shared across the grid:
//!
//! * k-NN predicts every `k` from one distance pass ([`knn::knn_grid_scores`]);
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

/// Grid-major 0/1 predictions on each fold's validation rows.
type Preds = Vec<Vec<u8>>;

/// What a selection rule chooses from: every configuration's
/// cross-validated predictions. Only [`tune_and_fit_by`] builds one, so
/// its fields always agree in length.
#[non_exhaustive]
pub struct CvPredictions {
    /// The hyperparameter grid in its seed-shuffled search order.
    pub grid: Vec<ModelSpec>,
    /// The `(train, validation)` row ids of each fold, ascending.
    pub folds: Vec<(Vec<usize>, Vec<usize>)>,
    /// 0/1 predictions on each fold's validation rows, in row order,
    /// grid-major: `predictions[s * folds.len() + f]`.
    pub predictions: Vec<Vec<u8>>,
    /// The accuracy of each entry of `predictions`.
    pub accuracy: Vec<f64>,
}

impl CvPredictions {
    /// Mean validation accuracy of grid entry `s`, its fold accuracies
    /// summed in fold order.
    pub fn mean_accuracy(&self, s: usize) -> f64 {
        let n_folds = self.folds.len();
        self.accuracy[s * n_folds..(s + 1) * n_folds].iter().sum::<f64>() / n_folds as f64
    }

    /// The grid entry of `candidates` with the highest mean validation
    /// accuracy (`None` when there is none). Only a strict improvement
    /// replaces the incumbent, so ties keep the first candidate.
    pub fn most_accurate(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for s in candidates {
            let mean = self.mean_accuracy(s);
            if best.is_none_or(|(_, b)| mean > b) {
                best = Some((s, mean));
            }
        }
        best.map(|(s, _)| s)
    }
}

/// Tunes `kind`'s single hyperparameter by `n_folds`-fold cross-validation
/// on `(x, y)` and refits the most accurate configuration on the full data.
///
/// `seed` controls the fold assignment, the order in which equal-scoring
/// candidates are preferred, and the stochastic parts of model fitting.
///
/// Panics when `n_folds < 2` or `x` has fewer rows than folds.
pub fn tune_and_fit(
    kind: ModelKind,
    x: &DenseMatrix,
    y: &[u8],
    n_folds: usize,
    seed: u64,
) -> TunedModel {
    tune_and_fit_by(kind, x, y, n_folds, seed, |cv| {
        // lint:allow(P001, default_grid() is statically non-empty for every model kind)
        cv.most_accurate(0..cv.grid.len()).expect("non-empty grid")
    })
}

/// [`tune_and_fit`]'s search with the selection rule `select`, which
/// returns the grid index to refit on the full data; the result reports
/// that entry's mean validation accuracy.
///
/// Panics when `n_folds < 2`, `x` has fewer rows than folds, or `select`
/// returns an index outside the grid.
pub fn tune_and_fit_by(
    kind: ModelKind,
    x: &DenseMatrix,
    y: &[u8],
    n_folds: usize,
    seed: u64,
    select: impl FnOnce(&CvPredictions) -> usize,
) -> TunedModel {
    assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
    assert!(n_folds >= 2, "need at least 2 folds, got {n_folds}");
    assert!(x.n_rows() >= n_folds, "need at least {n_folds} rows");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut grid = kind.default_grid();
    // Shuffle the search order: with ties in validation accuracy, different
    // seeds pick different (equally good) configurations — the paper's
    // "different random seeds for the hyperparameter search".
    rng.shuffle(&mut grid);
    // lint:allow(P001, the asserts above guarantee kfold's preconditions, k >= 2 and rows >= k)
    let folds = kfold(x.n_rows(), n_folds, rng.next_u64()).expect("valid fold arguments");
    let fit_seed = rng.next_u64();

    // The GBDT trains on quantile bins: bin the full training matrix once
    // and share it across every fold and every grid configuration
    // (LightGBM-style dataset-level binning).
    let binned = kind.is_tree_based().then(|| BinnedMatrix::from_matrix(x, DEFAULT_N_BINS));
    // k-NN predicts the whole grid, cross-validation and training
    // accuracy alike, from one distance pass over all row pairs.
    let (predictions, knn_train_accuracy) = match (kind, &binned) {
        (ModelKind::Knn, _) => {
            let ks: Vec<usize> = grid
                .iter()
                .map(|spec| match spec {
                    ModelSpec::Knn { k } => *k,
                    _ => unreachable!("knn grid contains only knn specs"),
                })
                .collect();
            let scores = knn::knn_grid_scores(x, y, &folds, &ks);
            (scores.fold_predictions, Some(scores.train_accuracy))
        }
        (_, Some(b)) => (gbdt_fold_predictions(&grid, b, x, y, &folds, fit_seed), None),
        (_, None) => (logreg_fold_predictions(&grid, x, y, &folds), None),
    };
    let labels: Vec<Vec<u8>> = folds.iter().map(|(_, val_idx)| pick(y, val_idx)).collect();
    let scored = predictions.iter().zip(labels.iter().cycle());
    let fold_accuracy = scored.map(|(preds, y_val)| accuracy(y_val, preds)).collect();
    let cv = CvPredictions { grid, folds, predictions, accuracy: fold_accuracy };

    let best = select(&cv);
    let (best_spec, val_accuracy) = (cv.grid[best], cv.mean_accuracy(best));
    let model = match &binned {
        Some(b) => {
            let all_rows: Vec<usize> = (0..x.n_rows()).collect();
            best_spec.fit_binned(b, x, &all_rows, y, fit_seed)
        }
        None => best_spec.fit(x, y, fit_seed),
    };
    let train_accuracy = match knn_train_accuracy {
        Some(train_accuracy) => train_accuracy[best],
        None => accuracy(y, &model.predict(x)),
    };
    TunedModel { model, best_spec, val_accuracy, train_accuracy }
}

/// The labels of `rows`.
fn pick(y: &[u8], rows: &[usize]) -> Vec<u8> {
    rows.iter().map(|&i| y[i]).collect()
}

/// Grid-major validation predictions of the GBDT grid, each fit trained
/// on the shared bins by fold row ids. Every depth boosts with
/// `fit_seed`, so the folds of one size read one [`Subsamples`] schedule
/// across the whole grid (`kfold` makes at most two sizes).
fn gbdt_fold_predictions(
    grid: &[ModelSpec],
    binned: &BinnedMatrix,
    x: &DenseMatrix,
    y: &[u8],
    folds: &Folds,
    fit_seed: u64,
) -> Preds {
    let validation: Vec<_> = folds.iter().map(|(_, val_idx)| x.take_rows(val_idx)).collect();
    let mut schedules: Vec<Subsamples> = Vec::new();
    let mut predictions = Vec::with_capacity(grid.len() * folds.len());
    for spec in grid {
        let ModelSpec::Gbdt { max_depth, n_rounds, learning_rate, reg_lambda } = *spec else {
            unreachable!("xgboost grid contains only gbdt specs")
        };
        for ((train_idx, _), x_val) in folds.iter().zip(&validation) {
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
            predictions.push(model.predict(x_val));
        }
    }
    predictions
}

/// Grid-major validation predictions of the log-reg grid. Each fold's
/// training rows are materialised, and their w = 0 IRLS system
/// accumulated, once for every `C`.
fn logreg_fold_predictions(grid: &[ModelSpec], x: &DenseMatrix, y: &[u8], folds: &Folds) -> Preds {
    let validation: Vec<_> = folds.iter().map(|(_, val_idx)| x.take_rows(val_idx)).collect();
    let training: Vec<_> = folds
        .iter()
        .map(|(train_idx, _)| {
            let (x_train, y_train) = (x.take_rows(train_idx), pick(y, train_idx));
            let start = IrlsStart::new(&x_train, &y_train);
            (x_train, y_train, start)
        })
        .collect();
    let mut predictions = Vec::with_capacity(grid.len() * folds.len());
    for spec in grid {
        let ModelSpec::LogReg { c, max_iter } = *spec else {
            unreachable!("log-reg grid contains only log-reg specs")
        };
        for ((x_train, y_train, start), x_val) in training.iter().zip(&validation) {
            let model = LogRegClassifier::fit_from(x_train, y_train, c, max_iter, start);
            predictions.push(model.predict(x_val));
        }
    }
    predictions
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

    #[test]
    #[should_panic(expected = "need at least 2 folds")]
    fn one_fold_panics() {
        let x = DenseMatrix::zeros(3, 1);
        tune_and_fit(ModelKind::LogReg, &x, &[0, 1, 0], 1, 0);
    }
}
