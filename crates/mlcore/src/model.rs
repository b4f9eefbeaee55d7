//! The common classifier interface and the declarative model specification
//! the experimentation framework tunes over.

use crate::binned::BinnedMatrix;
use crate::gbdt::GbdtClassifier;
use crate::knn::KnnClassifier;
use crate::logreg::LogRegClassifier;
use tabular::DenseMatrix;

/// A trained binary classifier.
pub trait Classifier: Send + Sync {
    /// Probability of the positive class for every row of `x`.
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64>;

    /// Hard 0/1 predictions at the 0.5 threshold.
    fn predict(&self, x: &DenseMatrix) -> Vec<u8> {
        self.predict_proba(x).iter().map(|&p| u8::from(p >= 0.5)).collect()
    }

    /// Hard predictions and probabilities from a single scoring pass.
    ///
    /// The batched serving path needs both; scoring once and thresholding
    /// the same probabilities guarantees the pair is always consistent
    /// (and bit-identical to calling [`Classifier::predict_proba`] and
    /// [`Classifier::predict`] separately) while halving the work for
    /// every model family.
    fn predict_with_proba(&self, x: &DenseMatrix) -> (Vec<u8>, Vec<f64>) {
        let proba = self.predict_proba(x);
        let labels = proba.iter().map(|&p| u8::from(p >= 0.5)).collect();
        (labels, proba)
    }

    /// Mutable access to the concrete model for post-training edits
    /// (leaf rectification). `None` for families without editable
    /// structure; the GBDT overrides this with `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// The three model families of the study (paper Section V). CleanML's
/// wider zoo also trains a decision tree and a random forest; the paper
/// leaves them out, and so does this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression with a tuned inverse regularisation strength `C`.
    LogReg,
    /// k-nearest neighbours with a tuned number of neighbours.
    Knn,
    /// Gradient-boosted decision trees with a tuned maximum depth
    /// (the study's "xgboost").
    Gbdt,
}

impl ModelKind {
    /// The paper's three model families, in the order the paper lists
    /// them. Tables II-XIV are computed over exactly these.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::LogReg, ModelKind::Knn, ModelKind::Gbdt]
    }

    /// The paper's short name for the model.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LogReg => "log-reg",
            ModelKind::Knn => "knn",
            ModelKind::Gbdt => "xgboost",
        }
    }

    /// Parses a model name: exactly one of the three [`ModelKind::name`]
    /// spellings.
    pub fn parse(name: &str) -> Option<ModelKind> {
        ModelKind::all().into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the family trains on quantile-binned features: the GBDT
    /// shares one [`BinnedMatrix`] across CV folds and grid
    /// configurations; the others consume dense matrices directly.
    pub fn is_tree_based(&self) -> bool {
        matches!(self, ModelKind::Gbdt)
    }

    /// The hyperparameter grid searched during 5-fold cross-validation.
    /// One tuned hyperparameter per family, matching the paper's setup.
    pub fn default_grid(&self) -> Vec<ModelSpec> {
        match self {
            ModelKind::LogReg => [0.01, 0.1, 1.0, 10.0]
                .iter()
                .map(|&c| ModelSpec::LogReg { c, max_iter: 50 })
                .collect(),
            ModelKind::Knn => [3, 5, 11, 21]
                .iter()
                .map(|&k| ModelSpec::Knn { k })
                .collect(),
            ModelKind::Gbdt => [2, 3, 4]
                .iter()
                .map(|&max_depth| ModelSpec::Gbdt {
                    max_depth,
                    n_rounds: 50,
                    learning_rate: 0.3,
                    reg_lambda: 1.0,
                })
                .collect(),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fully specified (hyperparameters fixed) model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// Logistic regression.
    LogReg {
        /// Inverse regularisation strength (scikit-learn's `C`).
        c: f64,
        /// Maximum IRLS iterations.
        max_iter: usize,
    },
    /// k-nearest neighbours.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Gradient-boosted trees.
    Gbdt {
        /// Maximum tree depth (the tuned hyperparameter).
        max_depth: usize,
        /// Number of boosting rounds.
        n_rounds: usize,
        /// Shrinkage.
        learning_rate: f64,
        /// L2 regularisation on leaf weights.
        reg_lambda: f64,
    },
}

impl ModelSpec {
    /// The family this spec belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::LogReg { .. } => ModelKind::LogReg,
            ModelSpec::Knn { .. } => ModelKind::Knn,
            ModelSpec::Gbdt { .. } => ModelKind::Gbdt,
        }
    }

    /// A compact human-readable description of the tuned parameter, used in
    /// the JSON result records (mirrors CleanML's `best_params`).
    pub fn params_string(&self) -> String {
        match self {
            ModelSpec::LogReg { c, .. } => format!("C={c}"),
            ModelSpec::Knn { k } => format!("n_neighbors={k}"),
            ModelSpec::Gbdt { max_depth, .. } => format!("max_depth={max_depth}"),
        }
    }

    /// Trains the specified model.
    ///
    /// `seed` drives any stochastic component (GBDT feature/row subsampling
    /// uses it; LogReg and k-NN are deterministic and ignore it).
    pub fn fit(&self, x: &DenseMatrix, y: &[u8], seed: u64) -> Box<dyn Classifier> {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        match *self {
            ModelSpec::LogReg { c, max_iter } => {
                Box::new(LogRegClassifier::fit(x, y, c, max_iter))
            }
            ModelSpec::Knn { k } => Box::new(KnnClassifier::fit(x, y, k)),
            ModelSpec::Gbdt { max_depth, n_rounds, learning_rate, reg_lambda } => {
                Box::new(GbdtClassifier::fit(
                    x,
                    y,
                    max_depth,
                    n_rounds,
                    learning_rate,
                    reg_lambda,
                    seed,
                ))
            }
        }
    }

    /// Trains the specified model on the rows `rows` of a pre-binned
    /// matrix (`x` and `y` are the full matrix/labels backing `binned`).
    ///
    /// The GBDT trains directly on the shared bins — for the full row
    /// set this produces the same model as [`ModelSpec::fit`]. The
    /// other families have no binned path and fall back to
    /// materialising the row subset.
    pub fn fit_binned(
        &self,
        binned: &BinnedMatrix,
        x: &DenseMatrix,
        rows: &[usize],
        y: &[u8],
        seed: u64,
    ) -> Box<dyn Classifier> {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        match *self {
            ModelSpec::Gbdt { max_depth, n_rounds, learning_rate, reg_lambda } => {
                Box::new(GbdtClassifier::fit_binned(
                    binned,
                    x,
                    rows,
                    y,
                    max_depth,
                    n_rounds,
                    learning_rate,
                    reg_lambda,
                    seed,
                ))
            }
            ModelSpec::LogReg { .. } | ModelSpec::Knn { .. } => {
                let sub_x = x.take_rows(rows);
                let sub_y: Vec<u8> = rows.iter().map(|&i| y[i]).collect();
                self.fit(&sub_x, &sub_y, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::parse("nope"), None);
        assert_eq!(ModelKind::parse("gbdt"), None, "only the name() spellings parse");
    }

    #[test]
    fn grids_are_nonempty_and_consistent() {
        for kind in ModelKind::all() {
            let grid = kind.default_grid();
            assert!(!grid.is_empty());
            assert!(grid.iter().all(|s| s.kind() == kind));
        }
    }

    #[test]
    fn params_strings_mention_tuned_param() {
        assert!(ModelSpec::LogReg { c: 0.5, max_iter: 10 }.params_string().contains("C="));
        assert!(ModelSpec::Knn { k: 7 }.params_string().contains("n_neighbors=7"));
        let g = ModelSpec::Gbdt { max_depth: 3, n_rounds: 10, learning_rate: 0.3, reg_lambda: 1.0 };
        assert!(g.params_string().contains("max_depth=3"));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ModelKind::Gbdt.to_string(), "xgboost");
        assert_eq!(ModelKind::LogReg.to_string(), "log-reg");
    }

    #[test]
    fn fit_binned_on_all_rows_matches_fit() {
        use crate::binned::{BinnedMatrix, DEFAULT_N_BINS};
        use tabular::DenseMatrix;
        let x = DenseMatrix::from_vec(30, 1, (0..30).map(f64::from).collect());
        let y: Vec<u8> = (0..30).map(|i| u8::from(i >= 15)).collect();
        let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..30).collect();
        let spec = ModelKind::Gbdt.default_grid()[0];
        let dense = spec.fit(&x, &y, 9);
        let shared = spec.fit_binned(&binned, &x, &rows, &y, 9);
        assert_eq!(dense.predict_proba(&x), shared.predict_proba(&x));
    }
}
