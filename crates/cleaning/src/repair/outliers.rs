//! Outlier-cell repair: replace flagged cells of numeric columns with the
//! mean, median or mode of the column — computed on the *unflagged*
//! training values, so the replacement statistic is not itself polluted by
//! the outliers being repaired.

use crate::repair::impute::NumImpute;
use crate::report::DetectionReport;
use tabular::{ColumnStats, DataFrame, Result, TabularError};

/// An outlier repair configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutlierRepair {
    /// Replacement statistic.
    pub strategy: NumImpute,
}

impl OutlierRepair {
    /// All three replacement strategies the study sweeps.
    pub fn all() -> [OutlierRepair; 3] {
        [
            OutlierRepair { strategy: NumImpute::Mean },
            OutlierRepair { strategy: NumImpute::Median },
            OutlierRepair { strategy: NumImpute::Mode },
        ]
    }

    /// CleanML-style name, e.g. `impute_mean`.
    pub fn name(&self) -> String {
        format!("impute_{}", self.strategy.name())
    }

    /// Fits replacement values per flagged column from the unflagged
    /// training values.
    pub fn fit(&self, train: &DataFrame, train_report: &DetectionReport) -> Result<FittedOutlierRepair> {
        let mut replacements = Vec::new();
        for (column, flags) in train_report.cell_flags.iter() {
            let data = train.numeric(column)?;
            if data.len() != flags.len() {
                return Err(TabularError::LengthMismatch {
                    expected: data.len(),
                    actual: flags.len(),
                });
            }
            let keep: Vec<f64> = data
                .iter()
                .zip(flags)
                .filter(|&(_, &f)| !f)
                .map(|(&x, _)| x)
                .collect();
            let value = match self.strategy {
                NumImpute::Mean => ColumnStats::compute(&keep).map(|s| s.mean),
                NumImpute::Median => ColumnStats::compute(&keep).map(|s| s.median),
                NumImpute::Mode => ColumnStats::mode(&keep),
            }
            // All values flagged: fall back to the full-column statistic.
            .or_else(|| match self.strategy {
                NumImpute::Mean => ColumnStats::compute(data).map(|s| s.mean),
                NumImpute::Median => ColumnStats::compute(data).map(|s| s.median),
                NumImpute::Mode => ColumnStats::mode(data),
            })
            .unwrap_or(0.0);
            replacements.push((column.to_string(), value));
        }
        Ok(FittedOutlierRepair { replacements })
    }
}

/// Fitted outlier replacements, applicable to any frame plus a matching
/// detection report.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedOutlierRepair {
    replacements: Vec<(String, f64)>,
}

impl FittedOutlierRepair {
    /// Returns a copy of `frame` with every cell flagged by `report`
    /// replaced by the fitted statistic. Columns the repair was not fitted
    /// for (no outliers in the training data) are left untouched.
    pub fn apply(&self, frame: &DataFrame, report: &DetectionReport) -> Result<DataFrame> {
        let mut out = frame.clone();
        for (column, value) in &self.replacements {
            let Some(flags) = report.cell_flags.column(column) else {
                continue;
            };
            let data = out.column_mut(column)?.as_numeric_mut()?;
            if data.len() != flags.len() {
                return Err(TabularError::LengthMismatch {
                    expected: data.len(),
                    actual: flags.len(),
                });
            }
            for (slot, &f) in data.iter_mut().zip(flags) {
                if f {
                    *slot = *value;
                }
            }
        }
        Ok(out)
    }

    /// The fitted replacement for a column, if any.
    // lint:allow(U001, outlier_repair_leaves_no_flagged_value_outside_bounds reads it)
    pub fn replacement(&self, column: &str) -> Option<f64> {
        self.replacements.iter().find(|(c, _)| c == column).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::outliers::OutlierBounds;
    use tabular::ColumnRole;

    fn frame_with_outlier() -> DataFrame {
        let mut xs: Vec<f64> = (0..20).map(|i| i as f64 / 10.0).collect();
        xs.push(1_000.0);
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, xs)
            .numeric("label", ColumnRole::Label, vec![0.0; 21])
            .build()
            .unwrap()
    }

    #[test]
    fn replaces_flagged_cells_with_clean_statistic() {
        let df = frame_with_outlier();
        let report = OutlierBounds::fit_iqr(&df, 1.5).unwrap().detect(&df).unwrap();
        assert!(report.row_flags[20]);
        let repair = OutlierRepair { strategy: NumImpute::Mean };
        let fitted = repair.fit(&df, &report).unwrap();
        // Mean of the 20 clean values 0.0..1.9 = 0.95 (not polluted by 1000).
        assert!((fitted.replacement("x").unwrap() - 0.95).abs() < 1e-12);
        let repaired = fitted.apply(&df, &report).unwrap();
        assert!((repaired.numeric("x").unwrap()[20] - 0.95).abs() < 1e-12);
        // Unflagged cells untouched.
        assert_eq!(repaired.numeric("x").unwrap()[0], 0.0);
    }

    #[test]
    fn median_and_mode_strategies() {
        let df = frame_with_outlier();
        let report = OutlierBounds::fit_iqr(&df, 1.5).unwrap().detect(&df).unwrap();
        let med = OutlierRepair { strategy: NumImpute::Median }.fit(&df, &report).unwrap();
        assert!((med.replacement("x").unwrap() - 0.95).abs() < 1e-12);
        let mode = OutlierRepair { strategy: NumImpute::Mode }.fit(&df, &report).unwrap();
        assert_eq!(mode.replacement("x").unwrap(), 0.0); // all unique -> smallest
    }

    #[test]
    fn names_and_all() {
        assert_eq!(OutlierRepair { strategy: NumImpute::Mean }.name(), "impute_mean");
        assert_eq!(OutlierRepair::all().len(), 3);
    }

    #[test]
    fn train_fitted_values_apply_to_test() {
        let train = frame_with_outlier();
        let bounds = OutlierBounds::fit_iqr(&train, 1.5).unwrap();
        let train_report = bounds.detect(&train).unwrap();
        let fitted = OutlierRepair { strategy: NumImpute::Mean }.fit(&train, &train_report).unwrap();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![0.5, 999.0])
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0])
            .build()
            .unwrap();
        let test_report = bounds.detect(&test).unwrap();
        let repaired = fitted.apply(&test, &test_report).unwrap();
        assert_eq!(repaired.numeric("x").unwrap()[0], 0.5);
        assert!((repaired.numeric("x").unwrap()[1] - 0.95).abs() < 1e-12);
    }

    #[test]
    fn no_flags_is_identity() {
        let df = frame_with_outlier();
        let clean_report = crate::report::DetectionReport {
            detector: "outliers-sd".to_string(),
            row_flags: vec![false; 21],
            cell_flags: crate::report::CellFlags::new(21),
        };
        let fitted = OutlierRepair { strategy: NumImpute::Mean }.fit(&df, &clean_report).unwrap();
        let repaired = fitted.apply(&df, &clean_report).unwrap();
        assert_eq!(repaired, df);
    }
}
