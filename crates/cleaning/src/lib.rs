//! # cleaning — error detection and automated repair
//!
//! Implements the study's five error-detection strategies (paper §II):
//!
//! * **missing values** — NULL/NaN detection;
//! * **outliers-sd** — univariate, > n standard deviations from the column
//!   mean (n = 3);
//! * **outliers-iqr** — univariate, outside `[p25 − k·iqr, p75 + k·iqr]`
//!   (k = 1.5);
//! * **outliers-if** — multivariate isolation forest over whole tuples
//!   (contamination = 0.01), implemented from the Liu et al. algorithm;
//! * **mislabels** — confident-learning (cleanlab) reimplementation with a
//!   logistic-regression base model: out-of-fold predicted probabilities,
//!   per-class confidence thresholds, confident-joint estimation, and
//!   prune-by-noise-rate ranking.
//!
//! and the standard automated repairs (paper §II): missing-value imputation
//! (mean / median / mode for numeric columns × mode / "dummy" for
//! categorical columns), outlier-cell replacement (mean / median / mode),
//! and label flipping for predicted mislabels.
//!
//! Every detector follows a *fit on train, detect anywhere* protocol so the
//! experimentation pipeline can apply training-set thresholds to the test
//! set without leakage.

pub mod detect;
pub mod repair;
pub mod report;
pub mod valuation;

pub use detect::isolation_forest::IsolationForest;
pub use detect::mislabels::MislabelDetector;
pub use detect::{DetectorKind, FittedDetector};
pub use repair::{CatImpute, LabelRepair, MissingRepair, NumImpute, OutlierRepair};
pub use report::{CellFlags, DetectionReport};
