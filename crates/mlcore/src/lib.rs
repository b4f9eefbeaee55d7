//! # mlcore — machine-learning substrate
//!
//! From-scratch implementations of the three model families the study
//! trains (Section V): **logistic regression** (L2-regularised, IRLS),
//! **k-nearest neighbours** (brute force), and **gradient-boosted decision
//! trees** (second-order boosting with logistic loss, the XGBoost
//! formulation) — plus k-fold cross-validated grid search over each
//! family's tuned hyperparameter (regularisation strength `C`, number of
//! neighbours `k`, and maximum tree depth, respectively), and the
//! classification metrics the benchmark reports.
//!
//! All models consume the dense matrices produced by
//! [`tabular::FeatureEncoder`] and expose a common [`Classifier`] object
//! interface so the experimentation framework can treat them uniformly.
//!
//! Everything here runs on the calling thread. Parallelism belongs to the
//! callers: the study runner spreads independent evaluation units over
//! its pool, and the server trains each registry model on its own thread.

pub mod binned;
pub mod cv;
pub mod dtree;
pub mod gbdt;
pub mod kernels;
pub mod knn;
pub mod linalg;
pub mod logreg;
pub mod metrics;
pub mod model;
pub mod scratch;
pub mod tree;

pub use binned::{BinnedMatrix, DEFAULT_N_BINS};
pub use cv::{tune_and_fit, TunedModel};
pub use dtree::{DecisionTreeClassifier, RandomForestClassifier};
pub use gbdt::GbdtClassifier;
pub use knn::KnnClassifier;
pub use logreg::LogRegClassifier;
pub use metrics::{accuracy, f1_score, ConfusionMatrix};
pub use model::{Classifier, ModelKind, ModelSpec};
pub use tree::{RegressionTree, TreeParams};
