//! The error-detection strategies and their unified fit/detect interface.

pub mod isolation_forest;
pub mod mislabels;
pub mod missing;
pub mod outliers;

use crate::report::DetectionReport;
use tabular::{DataFrame, Result};

/// The detection strategies of the study, with the paper's parameters as
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// NULL/NaN detection.
    MissingValues,
    /// Univariate: value further than `n_std` standard deviations from the
    /// column mean (paper: n = 3).
    OutliersSd {
        /// Distance threshold in standard deviations.
        n_std: f64,
    },
    /// Univariate: value outside `[p25 − k·iqr, p75 + k·iqr]`
    /// (paper: k = 1.5).
    OutliersIqr {
        /// IQR multiplier.
        k: f64,
    },
    /// Multivariate: isolation forest over whole tuples
    /// (paper: contamination = 0.01).
    OutliersIf {
        /// Expected fraction of outliers.
        contamination: f64,
        /// Number of isolation trees.
        n_trees: usize,
    },
    /// Confident-learning mislabel prediction with a logistic-regression
    /// base classifier (the paper's cleanlab setup).
    Mislabels,
}

impl DetectorKind {
    /// The three outlier detectors with paper defaults.
    pub fn outlier_detectors() -> [DetectorKind; 3] {
        [
            DetectorKind::OutliersSd { n_std: 3.0 },
            DetectorKind::OutliersIqr { k: 1.5 },
            DetectorKind::OutliersIf { contamination: 0.01, n_trees: 100 },
        ]
    }

    /// All five detectors with paper defaults, in the order of Figure 1.
    pub fn all() -> [DetectorKind; 5] {
        [
            DetectorKind::MissingValues,
            DetectorKind::OutliersSd { n_std: 3.0 },
            DetectorKind::OutliersIqr { k: 1.5 },
            DetectorKind::OutliersIf { contamination: 0.01, n_trees: 100 },
            DetectorKind::Mislabels,
        ]
    }

    /// The paper's name for the detector.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::MissingValues => "missing_values",
            DetectorKind::OutliersSd { .. } => "outliers-sd",
            DetectorKind::OutliersIqr { .. } => "outliers-iqr",
            DetectorKind::OutliersIf { .. } => "outliers-if",
            DetectorKind::Mislabels => "mislabels",
        }
    }

    /// Fits the detector's training-set state (column statistics, the
    /// isolation forest, or the label model). `seed` drives the stochastic
    /// detectors (isolation forest subsampling, label-model fold split).
    pub fn fit(&self, train: &DataFrame, seed: u64) -> Result<FittedDetector> {
        match *self {
            DetectorKind::MissingValues => Ok(FittedDetector::Missing),
            DetectorKind::OutliersSd { n_std } => Ok(FittedDetector::OutlierBounds(
                outliers::OutlierBounds::fit_sd(train, n_std)?,
            )),
            DetectorKind::OutliersIqr { k } => Ok(FittedDetector::OutlierBounds(
                outliers::OutlierBounds::fit_iqr(train, k)?,
            )),
            DetectorKind::OutliersIf { contamination, n_trees } => {
                Ok(FittedDetector::IsolationForest(Box::new(
                    isolation_forest::IsolationForest::fit_frame(
                        train,
                        n_trees,
                        256,
                        contamination,
                        seed,
                    )?,
                )))
            }
            DetectorKind::Mislabels => Ok(FittedDetector::Mislabels(Box::new(
                mislabels::MislabelDetector::fit(train, seed)?,
            ))),
        }
    }
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fitted detector, ready to flag rows/cells of any frame that shares the
/// training frame's schema.
pub enum FittedDetector {
    /// Missing-value detection needs no fitted state.
    Missing,
    /// Univariate outlier bounds per numeric feature column.
    OutlierBounds(outliers::OutlierBounds),
    /// The fitted isolation forest.
    IsolationForest(Box<isolation_forest::IsolationForest>),
    /// The fitted confident-learning label model.
    Mislabels(Box<mislabels::MislabelDetector>),
}

impl FittedDetector {
    /// Flags erroneous rows/cells of `frame`.
    ///
    /// Note: the mislabel detector is only meaningful on the frame it was
    /// fitted on (its flags refer to the training labels); the pipeline
    /// never flips test labels.
    pub fn detect(&self, frame: &DataFrame) -> Result<DetectionReport> {
        match self {
            FittedDetector::Missing => Ok(missing::detect(frame)),
            FittedDetector::OutlierBounds(bounds) => bounds.detect(frame),
            FittedDetector::IsolationForest(forest) => forest.detect(frame),
            FittedDetector::Mislabels(model) => model.detect(frame),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = DetectorKind::all().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["missing_values", "outliers-sd", "outliers-iqr", "outliers-if", "mislabels"]
        );
    }

    #[test]
    fn outlier_detectors_subset() {
        for d in DetectorKind::outlier_detectors() {
            assert!(d.name().starts_with("outliers-"));
        }
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(DetectorKind::Mislabels.to_string(), "mislabels");
    }
}
