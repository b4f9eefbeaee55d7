//! Univariate outlier detection: the standard-deviation rule and the
//! interquartile-range rule, fitted on the training frame and applied to
//! any frame with the same schema.

use crate::report::{CellFlags, DetectionReport};
use tabular::{ColumnKind, ColumnRole, ColumnStats, DataFrame, Result, TabularError};

/// Per-column `[lower, upper]` intervals outside of which a value is an
/// outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierBounds {
    detector: &'static str,
    /// `(column, lower, upper)` triples for numeric feature columns.
    bounds: Vec<(String, f64, f64)>,
}

impl OutlierBounds {
    /// Fits the standard-deviation rule: a value is an outlier if it lies
    /// more than `n_std` standard deviations from the column mean.
    pub fn fit_sd(train: &DataFrame, n_std: f64) -> Result<OutlierBounds> {
        if n_std <= 0.0 {
            return Err(TabularError::InvalidArgument(format!(
                "n_std must be positive, got {n_std}"
            )));
        }
        let mut bounds = Vec::new();
        for field in Self::numeric_feature_fields(train) {
            let data = train.numeric(&field)?;
            if let Some(stats) = ColumnStats::compute(data) {
                bounds.push((
                    field,
                    stats.mean - n_std * stats.std_dev,
                    stats.mean + n_std * stats.std_dev,
                ));
            }
        }
        Ok(OutlierBounds { detector: "outliers-sd", bounds })
    }

    /// Fits the interquartile rule: a value is an outlier if it lies
    /// outside `[p25 − k·iqr, p75 + k·iqr]`.
    pub fn fit_iqr(train: &DataFrame, k: f64) -> Result<OutlierBounds> {
        if k <= 0.0 {
            return Err(TabularError::InvalidArgument(format!("k must be positive, got {k}")));
        }
        let mut bounds = Vec::new();
        for field in Self::numeric_feature_fields(train) {
            let data = train.numeric(&field)?;
            if let Some(stats) = ColumnStats::compute(data) {
                let iqr = stats.iqr();
                bounds.push((field, stats.p25 - k * iqr, stats.p75 + k * iqr));
            }
        }
        Ok(OutlierBounds { detector: "outliers-iqr", bounds })
    }

    /// Names of numeric feature columns (outlier cleaning never touches the
    /// label or the sensitive attributes).
    fn numeric_feature_fields(frame: &DataFrame) -> Vec<String> {
        frame
            .schema()
            .fields()
            .iter()
            .filter(|f| f.role == ColumnRole::Feature && f.kind == ColumnKind::Numeric)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Flags cells outside the fitted intervals. Missing values are never
    /// outliers.
    pub fn detect(&self, frame: &DataFrame) -> Result<DetectionReport> {
        let n = frame.n_rows();
        let mut cell_flags = CellFlags::new(n);
        for (column, lower, upper) in &self.bounds {
            let data = frame.numeric(column)?;
            let flags: Vec<bool> = data
                .iter()
                .map(|&x| !x.is_nan() && (x < *lower || x > *upper))
                .collect();
            if flags.iter().any(|&b| b) {
                cell_flags.insert_column(column.clone(), flags);
            }
        }
        Ok(DetectionReport {
            detector: self.detector.to_string(),
            row_flags: cell_flags.any_per_row(),
            cell_flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::ColumnRole;

    fn frame_with_outlier() -> DataFrame {
        // 20 values near 0 and one extreme value.
        let mut xs: Vec<f64> = (0..20).map(|i| (i as f64 - 10.0) / 10.0).collect();
        xs.push(100.0);
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, xs)
            .numeric("label", ColumnRole::Label, vec![0.0; 21])
            .build()
            .unwrap()
    }

    #[test]
    fn sd_rule_flags_extreme_value() {
        let df = frame_with_outlier();
        let bounds = OutlierBounds::fit_sd(&df, 3.0).unwrap();
        let report = bounds.detect(&df).unwrap();
        assert_eq!(report.detector, "outliers-sd");
        assert_eq!(report.flagged_rows(), 1);
        assert!(report.row_flags[20]);
    }

    #[test]
    fn iqr_rule_flags_extreme_value() {
        let df = frame_with_outlier();
        let bounds = OutlierBounds::fit_iqr(&df, 1.5).unwrap();
        let report = bounds.detect(&df).unwrap();
        assert_eq!(report.detector, "outliers-iqr");
        assert!(report.row_flags[20]);
        // IQR is typically more aggressive than 3-sigma.
        let sd = OutlierBounds::fit_sd(&df, 3.0).unwrap().detect(&df).unwrap();
        assert!(report.flagged_rows() >= sd.flagged_rows());
    }

    #[test]
    fn label_and_sensitive_columns_untouched() {
        let df = DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, vec![1.0, 2.0, 1000.0])
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, 3.0])
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 1.0])
            .build()
            .unwrap();
        let bounds = OutlierBounds::fit_sd(&df, 3.0).unwrap();
        assert_eq!(bounds.bounds.len(), 1);
        assert_eq!(bounds.bounds[0].0, "x");
    }

    #[test]
    fn train_thresholds_apply_to_test() {
        let train = frame_with_outlier();
        let bounds = OutlierBounds::fit_iqr(&train, 1.5).unwrap();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![0.0, 50.0])
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0])
            .build()
            .unwrap();
        let report = bounds.detect(&test).unwrap();
        assert_eq!(report.row_flags, vec![false, true]);
    }

    #[test]
    fn missing_values_are_not_outliers() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, 3.0, f64::NAN])
            .build()
            .unwrap();
        let bounds = OutlierBounds::fit_sd(&df, 3.0).unwrap();
        let report = bounds.detect(&df).unwrap();
        assert!(!report.row_flags[3]);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let df = frame_with_outlier();
        assert!(OutlierBounds::fit_sd(&df, 0.0).is_err());
        assert!(OutlierBounds::fit_iqr(&df, -1.0).is_err());
    }

    #[test]
    fn no_outliers_in_uniform_data() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, (0..100).map(|i| i as f64).collect())
            .build()
            .unwrap();
        let report = OutlierBounds::fit_iqr(&df, 1.5).unwrap().detect(&df).unwrap();
        assert_eq!(report.flagged_rows(), 0);
    }
}
