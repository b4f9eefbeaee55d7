//! Cross-validated hyperparameter tuning.
//!
//! Reproduces the study's training procedure (Section V): each model family
//! has one tuned hyperparameter, selected by 5-fold cross-validation on the
//! training set; the winning configuration is refit on the full training
//! set. The search-order seed varies between the "five model instances"
//! the paper evaluates per split, which is how model-seed variance enters
//! the score samples.

use crate::binned::{BinnedMatrix, DEFAULT_N_BINS};
use crate::knn;
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
    // Materialise each fold once, outside the grid loop. Tree folds only
    // need the validation side densified; the row indices address the
    // shared binned matrix directly.
    let fold_data: Vec<_> = folds
        .iter()
        .map(|(train_idx, val_idx)| {
            let x_val = x.take_rows(val_idx);
            let y_val: Vec<u8> = val_idx.iter().map(|&i| y[i]).collect();
            let dense_train = binned.is_none().then(|| {
                let x_train = x.take_rows(train_idx);
                let y_train: Vec<u8> = train_idx.iter().map(|&i| y[i]).collect();
                (x_train, y_train)
            });
            (train_idx, x_val, y_val, dense_train)
        })
        .collect();

    // One validation accuracy per (configuration, fold), grid-major; the
    // per-spec reduction below sums fold scores in fold order.
    let n_folds_actual = fold_data.len();
    let mut fold_scores = Vec::with_capacity(grid.len() * n_folds_actual);
    for spec in &grid {
        for (train_idx, x_val, y_val, dense_train) in &fold_data {
            let model = match (&binned, dense_train) {
                (Some(b), _) => spec.fit_binned(b, x, train_idx, y, fit_seed),
                (None, Some((x_train, y_train))) => spec.fit(x_train, y_train, fit_seed),
                (None, None) => unreachable!("dense folds exist whenever binning is off"),
            };
            fold_scores.push(accuracy(y_val, &model.predict(x_val)));
        }
    }

    let (best, val_accuracy) = select_best(&fold_scores, n_folds_actual);
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
