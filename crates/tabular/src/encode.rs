//! Feature encoding: turns the feature columns of a [`DataFrame`] into a
//! dense matrix for the `mlcore` models.
//!
//! Numeric features are z-standardised (fit on the training frame);
//! categorical features are one-hot encoded over the categories seen at fit
//! time. Missing values are handled defensively — numeric missing maps to
//! the fitted mean (i.e. 0 after standardisation), categorical missing maps
//! to the all-zeros row — and an optional *missing indicator* column is
//! appended per source column. The indicator is what lets a model "learn
//! extra parameters" for missingness, the mechanism the paper credits for
//! dummy imputation's fairness wins (§VI).
//!
//! The encoder reads frames only: rows pooled in a
//! [`BlockStore`](crate::BlockStore) are gathered into a frame with
//! [`BlockStore::take`](crate::BlockStore::take) before they are encoded.

use crate::error::TabularError;
use crate::frame::DataFrame;
use crate::matrix::DenseMatrix;
use crate::schema::{ColumnKind, ColumnRole};
use crate::stats::ColumnStats;
use crate::Result;

/// What a transform saw that the fit did not: categories absent from the
/// training data encode as all-zero one-hot rows, which silently shifts
/// the feature distribution — so every encode path tallies them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransformReport {
    /// `(source column, unseen cells)` for columns with at least one
    /// unseen category.
    pub unseen_by_column: Vec<(String, u64)>,
    /// Total cells holding an unseen category.
    pub unseen_cells: u64,
    /// Rows with at least one unseen categorical value.
    pub unseen_category_rows: u64,
}

impl TransformReport {
    fn record(&mut self, column: &str) {
        self.unseen_cells += 1;
        match self.unseen_by_column.iter_mut().find(|(name, _)| name == column) {
            Some((_, count)) => *count += 1,
            None => self.unseen_by_column.push((column.to_string(), 1)),
        }
    }
}

/// One source cell as [`FeatureEncoder::encode_row`] consumes it. A
/// categorical value arrives resolved against the column's fitted
/// categories ([`FeatureEncoder::categories`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowCell {
    /// A missing value.
    Missing,
    /// A numeric value (`NaN` reads as missing).
    Num(f64),
    /// Position of a categorical value in the column's fitted categories.
    Category(usize),
    /// A categorical value the fit never saw.
    Unseen,
}

/// Per-column fitted state.
#[derive(Debug, Clone)]
enum FittedColumn {
    Numeric {
        name: String,
        mean: f64,
        std_dev: f64,
    },
    Categorical {
        name: String,
        /// Categories seen at fit time; unseen categories at transform time
        /// encode as all-zeros (like scikit-learn's `handle_unknown=ignore`).
        categories: Vec<String>,
    },
}

impl FittedColumn {
    /// Output columns of the one-hot or standardised block.
    fn width(&self) -> usize {
        match self {
            FittedColumn::Numeric { .. } => 1,
            FittedColumn::Categorical { categories, .. } => categories.len(),
        }
    }

    /// Writes one cell of this column into `row`, a zeroed output row
    /// whose block for the column starts at `j`: the standardised value
    /// or the one-hot bit, or else the missing indicator. Returns true
    /// for an unseen category, which encodes as all zeros. Both encode
    /// paths run every cell through here.
    #[inline]
    fn encode_cell(&self, j: usize, indicator: Option<usize>, cell: RowCell, row: &mut [f64]) -> bool {
        match (self, cell) {
            (FittedColumn::Numeric { mean, std_dev, .. }, RowCell::Num(x)) if !x.is_nan() => {
                row[j] = (x - mean) / std_dev;
            }
            (FittedColumn::Categorical { categories, .. }, RowCell::Category(k))
                if k < categories.len() =>
            {
                row[j + k] = 1.0;
            }
            (FittedColumn::Categorical { .. }, RowCell::Category(_) | RowCell::Unseen) => {
                return true;
            }
            // Missing: the mean (0 after standardisation) or an all-zero
            // one-hot block, flagged by the indicator.
            _ => {
                if let Some(at) = indicator {
                    row[at] = 1.0;
                }
            }
        }
        false
    }
}

/// Fitted feature encoder.
///
/// Fit on the training frame, then applied unchanged to the test frame —
/// never re-fit on test data (that would leak).
#[derive(Debug, Clone)]
pub struct FeatureEncoder {
    columns: Vec<FittedColumn>,
    with_missing_indicators: bool,
    out_cols: usize,
}

impl FeatureEncoder {
    /// Fits an encoder on the `Feature`-role columns of `frame`.
    ///
    /// `with_missing_indicators` appends one 0/1 indicator column per source
    /// column, set when the source value is missing.
    pub fn fit(frame: &DataFrame, with_missing_indicators: bool) -> Result<Self> {
        let mut columns = Vec::new();
        let mut out_cols = 0usize;
        for field in frame.schema().fields() {
            if field.role != ColumnRole::Feature {
                continue;
            }
            match field.kind {
                ColumnKind::Numeric => {
                    let data = frame.numeric(&field.name)?;
                    let stats = ColumnStats::compute(data);
                    let (mean, std_dev) = match stats {
                        Some(s) => (s.mean, if s.std_dev > 1e-12 { s.std_dev } else { 1.0 }),
                        None => (0.0, 1.0),
                    };
                    columns.push(FittedColumn::Numeric { name: field.name.clone(), mean, std_dev });
                    out_cols += 1;
                }
                ColumnKind::Categorical => {
                    let cat = frame.categorical(&field.name)?;
                    // Only categories actually present in the training data.
                    let mut used = vec![false; cat.categories().len()];
                    for code in cat.codes().iter().flatten() {
                        used[*code as usize] = true;
                    }
                    let categories: Vec<String> = cat
                        .categories()
                        .iter()
                        .zip(&used)
                        .filter(|&(_, &u)| u)
                        .map(|(c, _)| c.clone())
                        .collect();
                    out_cols += categories.len();
                    columns.push(FittedColumn::Categorical { name: field.name.clone(), categories });
                }
            }
        }
        if with_missing_indicators {
            out_cols += columns.len();
        }
        if columns.is_empty() {
            return Err(TabularError::InvalidArgument(
                "frame has no feature columns to encode".to_string(),
            ));
        }
        Ok(FeatureEncoder { columns, with_missing_indicators, out_cols })
    }

    /// Number of output matrix columns.
    pub fn n_output_cols(&self) -> usize {
        self.out_cols
    }

    /// Names of the source feature columns, in encoding order.
    ///
    /// [`FeatureEncoder::transform`] reads only these columns, so a
    /// serving-time frame needs neither label nor sensitive columns: build
    /// a frame holding just these (missing values allowed) and encode
    /// unlabeled rows directly with the training-time encoder.
    pub fn feature_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .map(|c| match c {
                FittedColumn::Numeric { name, .. } => name.as_str(),
                FittedColumn::Categorical { name, .. } => name.as_str(),
            })
            .collect()
    }

    /// Fitted categories of source column `col` (in
    /// [`FeatureEncoder::feature_columns`] order), or `None` for a numeric
    /// column. A category's position here is its one-hot slot.
    pub fn categories(&self, col: usize) -> Option<&[String]> {
        match self.columns.get(col)? {
            FittedColumn::Numeric { .. } => None,
            FittedColumn::Categorical { categories, .. } => Some(categories),
        }
    }

    /// Encodes one row: `cell(c)` is the value of source column `c` (in
    /// [`FeatureEncoder::feature_columns`] order). Writes all
    /// [`FeatureEncoder::n_output_cols`] values of `out` and returns true
    /// when the row holds an unseen category. A cell of the other kind
    /// than its column reads as missing.
    ///
    /// The per-cell arithmetic is [`FeatureEncoder::transform_with_report`]'s,
    /// so the row is bit-identical to the one it produces for the same
    /// values.
    pub fn encode_row(&self, mut cell: impl FnMut(usize) -> RowCell, out: &mut [f64]) -> bool {
        out.fill(0.0);
        let mut unseen = false;
        let mut j = 0usize;
        for (col, fitted) in self.columns.iter().enumerate() {
            unseen |= fitted.encode_cell(j, self.indicator(col), cell(col), out);
            j += fitted.width();
        }
        unseen
    }

    /// Output column of source column `col`'s missing indicator, if the
    /// encoder has indicators.
    fn indicator(&self, col: usize) -> Option<usize> {
        self.with_missing_indicators.then(|| self.out_cols - self.columns.len() + col)
    }

    /// Encodes a frame into a dense matrix.
    ///
    /// The frame must contain every column seen at fit time (extra columns
    /// are ignored). The frame may be unlabeled: label and sensitive
    /// columns are never read.
    pub fn transform(&self, frame: &DataFrame) -> Result<DenseMatrix> {
        self.transform_with_report(frame).map(|(m, _)| m)
    }

    /// [`FeatureEncoder::transform`] plus a [`TransformReport`] tallying
    /// the categories this frame holds that the fit never saw (they still
    /// encode as all-zeros, like scikit-learn's `handle_unknown=ignore`,
    /// but callers can now surface the count instead of silently shifting
    /// the encoded distribution).
    pub fn transform_with_report(
        &self,
        frame: &DataFrame,
    ) -> Result<(DenseMatrix, TransformReport)> {
        let n = frame.n_rows();
        let mut out = DenseMatrix::zeros(n, self.out_cols);
        let mut report = TransformReport::default();
        let mut row_has_unseen = vec![false; n];
        let mut j = 0usize;
        for (col_idx, fitted) in self.columns.iter().enumerate() {
            let indicator = self.indicator(col_idx);
            match fitted {
                FittedColumn::Numeric { name, .. } => {
                    let data = frame.numeric(name)?;
                    if data.len() != n {
                        return Err(TabularError::LengthMismatch { expected: n, actual: data.len() });
                    }
                    for (i, &x) in data.iter().enumerate() {
                        fitted.encode_cell(j, indicator, RowCell::Num(x), out.row_mut(i));
                    }
                }
                FittedColumn::Categorical { name, categories } => {
                    let cat = frame.categorical(name)?;
                    if cat.len() != n {
                        return Err(TabularError::LengthMismatch { expected: n, actual: cat.len() });
                    }
                    for (i, unseen) in row_has_unseen.iter_mut().enumerate() {
                        let cell = match cat.label(i) {
                            Some(label) => categories
                                .iter()
                                .position(|c| c == label)
                                .map_or(RowCell::Unseen, RowCell::Category),
                            None => RowCell::Missing,
                        };
                        if fitted.encode_cell(j, indicator, cell, out.row_mut(i)) {
                            report.record(name);
                            *unseen = true;
                        }
                    }
                }
            }
            j += fitted.width();
        }
        report.unseen_category_rows = row_has_unseen.iter().filter(|&&b| b).count() as u64;
        Ok((out, report))
    }

    /// Fit and transform in one step (training-set convenience).
    pub fn fit_transform(
        frame: &DataFrame,
        with_missing_indicators: bool,
    ) -> Result<(FeatureEncoder, DenseMatrix)> {
        let enc = FeatureEncoder::fit(frame, with_missing_indicators)?;
        let m = enc.transform(frame)?;
        Ok((enc, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Cell;
    use crate::schema::ColumnRole;

    fn train_frame() -> DataFrame {
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, 3.0, 4.0])
            .categorical(
                "c",
                ColumnRole::Feature,
                &[Some("a"), Some("b"), Some("a"), Some("b")],
            )
            .numeric("y", ColumnRole::Label, vec![0.0, 1.0, 0.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn standardises_numeric_features() {
        let df = train_frame();
        let (enc, m) = FeatureEncoder::fit_transform(&df, false).unwrap();
        assert_eq!(enc.n_output_cols(), 3); // x + one-hot(a, b)
        // Column 0 is standardised x: mean 0, unit-ish scale.
        let mean: f64 = (0..4).map(|i| m.get(i, 0)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        // Label column must not be encoded.
        assert_eq!(m.n_cols(), 3);
    }

    #[test]
    fn one_hot_encoding() {
        let df = train_frame();
        let (_, m) = FeatureEncoder::fit_transform(&df, false).unwrap();
        // Row 0 has category "a" -> [.., 1, 0]; row 1 "b" -> [.., 0, 1].
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(1, 2), 1.0);
    }

    #[test]
    fn missing_indicators_fire_on_missing() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, f64::NAN])
            .categorical("c", ColumnRole::Feature, &[Some("a"), None])
            .build()
            .unwrap();
        let (enc, m) = FeatureEncoder::fit_transform(&df, true).unwrap();
        // x + onehot(a) + 2 indicators.
        assert_eq!(enc.n_output_cols(), 4);
        assert_eq!(m.get(0, 2), 0.0); // indicator for x, row 0
        assert_eq!(m.get(1, 2), 1.0); // x missing in row 1
        assert_eq!(m.get(1, 3), 1.0); // c missing in row 1
        // Missing numeric encodes as the mean -> standardised 0.
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn unseen_category_encodes_as_zeros() {
        let train = train_frame();
        let enc = FeatureEncoder::fit(&train, false).unwrap();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![2.5])
            .categorical("c", ColumnRole::Feature, &[Some("zzz")])
            .numeric("y", ColumnRole::Label, vec![0.0])
            .build()
            .unwrap();
        let m = enc.transform(&test).unwrap();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn transforms_unlabeled_serving_rows() {
        let enc = FeatureEncoder::fit(&train_frame(), false).unwrap();
        assert_eq!(enc.feature_columns(), vec!["x", "c"]);
        // A serving-time frame: feature columns only, no label, one value
        // missing.
        let unlabeled = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![2.0, f64::NAN])
            .categorical("c", ColumnRole::Feature, &[Some("b"), Some("a")])
            .build()
            .unwrap();
        let m = enc.transform(&unlabeled).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), enc.n_output_cols());
        assert_eq!(m.get(0, 2), 1.0); // "b" one-hot
        assert_eq!(m.get(1, 1), 1.0); // "a" one-hot
        assert_eq!(m.get(1, 0), 0.0); // missing x -> mean -> standardised 0
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![5.0, 5.0, 5.0])
            .build()
            .unwrap();
        let (_, m) = FeatureEncoder::fit_transform(&df, false).unwrap();
        for i in 0..3 {
            assert_eq!(m.get(i, 0), 0.0);
            assert!(m.get(i, 0).is_finite());
        }
    }

    #[test]
    fn no_feature_columns_is_an_error() {
        let df = DataFrame::builder()
            .numeric("y", ColumnRole::Label, vec![0.0])
            .build()
            .unwrap();
        assert!(FeatureEncoder::fit(&df, false).is_err());
    }

    #[test]
    fn transform_checks_row_count_consistency() {
        let train = train_frame();
        let enc = FeatureEncoder::fit(&train, false).unwrap();
        let m = enc.transform(&train).unwrap();
        assert_eq!(m.n_rows(), 4);
    }

    #[test]
    fn categories_unused_at_fit_are_dropped() {
        // Dictionary contains "c" but no row uses it after take().
        let df = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("a"), Some("b"), Some("c")])
            .build()
            .unwrap();
        let sub = df.take(&[0, 1]).unwrap();
        let enc = FeatureEncoder::fit(&sub, false).unwrap();
        assert_eq!(enc.n_output_cols(), 2);
    }

    #[test]
    fn transform_report_counts_unseen_categories() {
        let enc = FeatureEncoder::fit(&train_frame(), false).unwrap();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, 3.0])
            .categorical("c", ColumnRole::Feature, &[Some("zzz"), Some("a"), Some("qq")])
            .numeric("y", ColumnRole::Label, vec![0.0, 0.0, 1.0])
            .build()
            .unwrap();
        let (_, report) = enc.transform_with_report(&test).unwrap();
        assert_eq!(report.unseen_cells, 2);
        assert_eq!(report.unseen_category_rows, 2);
        assert_eq!(report.unseen_by_column, vec![("c".to_string(), 2)]);
        // A frame with only known categories reports zero.
        let (_, clean) = enc.transform_with_report(&train_frame()).unwrap();
        assert_eq!(clean, TransformReport::default());
    }

    #[test]
    fn encode_row_matches_transform_bit_for_bit() {
        let train = train_frame();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![2.5, f64::NAN, -7.0, 0.1])
            .categorical("c", ColumnRole::Feature, &[Some("b"), Some("zzz"), None, Some("a")])
            .build()
            .unwrap();
        for &ind in &[false, true] {
            let enc = FeatureEncoder::fit(&train, ind).unwrap();
            let (m, report) = enc.transform_with_report(&test).unwrap();
            assert_eq!(enc.categories(0), None);
            let cats = enc.categories(1).unwrap();
            let mut unseen_rows = 0;
            // Start from garbage: encode_row writes every output value.
            let mut row = vec![f64::NAN; enc.n_output_cols()];
            for i in 0..test.n_rows() {
                let unseen = enc.encode_row(
                    |c| match (c, test.column_at(c).cell(i)) {
                        (_, Cell::Missing) => RowCell::Missing,
                        (_, Cell::Num(x)) => RowCell::Num(x),
                        (_, Cell::Str(s)) => cats
                            .iter()
                            .position(|l| l == s)
                            .map_or(RowCell::Unseen, RowCell::Category),
                    },
                    &mut row,
                );
                unseen_rows += u64::from(unseen);
                let want: Vec<u64> = m.row(i).iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {i}, indicators {ind}");
            }
            assert_eq!(unseen_rows, report.unseen_category_rows);
        }
    }
}
