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

use crate::block::{BlockStore, BlockView};
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

    /// Fits an encoder on the `Feature`-role columns of a [`BlockStore`],
    /// streaming block-at-a-time (scratch is one numeric column).
    ///
    /// For a store built from a frame this is bit-identical to fitting on
    /// that frame.
    pub fn fit_store(store: &BlockStore, with_missing_indicators: bool) -> Result<Self> {
        let mut columns = Vec::new();
        let mut out_cols = 0usize;
        let mut buf: Vec<f64> = Vec::new();
        for (c, field) in store.schema().fields().iter().enumerate() {
            if field.role != ColumnRole::Feature {
                continue;
            }
            match field.kind {
                ColumnKind::Numeric => {
                    store.gather_numeric(c, &mut buf)?;
                    let stats = ColumnStats::compute(&buf);
                    let (mean, std_dev) = match stats {
                        Some(s) => (s.mean, if s.std_dev > 1e-12 { s.std_dev } else { 1.0 }),
                        None => (0.0, 1.0),
                    };
                    columns.push(FittedColumn::Numeric { name: field.name.clone(), mean, std_dev });
                    out_cols += 1;
                }
                ColumnKind::Categorical => {
                    // Only categories actually present in the data.
                    let dict = store.dictionary(c);
                    let mut used = vec![false; dict.len()];
                    for view in store.views() {
                        for i in 0..view.n_rows() {
                            if let Some(code) = view.code(c, i) {
                                used[code as usize] = true;
                            }
                        }
                    }
                    let categories: Vec<String> = dict
                        .iter()
                        .zip(&used)
                        .filter(|&(_, &u)| u)
                        .map(|(l, _)| l.clone())
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
                "store has no feature columns to encode".to_string(),
            ));
        }
        Ok(FeatureEncoder { columns, with_missing_indicators, out_cols })
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

/// One output column of a [`StoreEncoder`]'s encoding plan.
enum OutputCol {
    /// Standardised numeric source column.
    Numeric { col: usize, mean: f64, std_dev: f64 },
    /// One one-hot slot: fires when the store code maps to this category.
    OneHot { col: usize, hot: Vec<bool> },
    /// Missing indicator of a source column.
    Indicator { col: usize },
}

/// Evaluates a fitted encoder's output columns directly over a
/// [`BlockStore`], one column at a time — the bridge that lets binned
/// training consume block storage without an intermediate dense matrix.
///
/// For every output column `j`, [`StoreEncoder::fill_column`] produces
/// exactly the values `FeatureEncoder::transform` would place in matrix
/// column `j` for the materialised frame.
pub struct StoreEncoder<'a> {
    store: &'a BlockStore,
    plan: Vec<OutputCol>,
    report: TransformReport,
}

impl<'a> StoreEncoder<'a> {
    /// Plans the encoding of `store` through `enc` and tallies unseen
    /// categories in one streaming pass.
    pub fn new(enc: &FeatureEncoder, store: &'a BlockStore) -> Result<StoreEncoder<'a>> {
        let mut plan = Vec::with_capacity(enc.out_cols);
        let mut source_cols = Vec::with_capacity(enc.columns.len());
        for fitted in &enc.columns {
            match fitted {
                FittedColumn::Numeric { name, mean, std_dev } => {
                    let col = store.schema().index_of(name)?;
                    if store.schema().fields()[col].kind != ColumnKind::Numeric {
                        return Err(TabularError::KindMismatch {
                            column: name.clone(),
                            expected: "numeric",
                        });
                    }
                    plan.push(OutputCol::Numeric { col, mean: *mean, std_dev: *std_dev });
                    source_cols.push((col, None));
                }
                FittedColumn::Categorical { name, categories } => {
                    let col = store.schema().index_of(name)?;
                    if store.schema().fields()[col].kind != ColumnKind::Categorical {
                        return Err(TabularError::KindMismatch {
                            column: name.clone(),
                            expected: "categorical",
                        });
                    }
                    let dict = store.dictionary(col);
                    for category in categories {
                        let hot = dict.iter().map(|l| l == category).collect();
                        plan.push(OutputCol::OneHot { col, hot });
                    }
                    // Store codes whose label the fit never saw.
                    let seen: Vec<bool> =
                        dict.iter().map(|l| categories.iter().any(|c| c == l)).collect();
                    source_cols.push((col, Some((name.clone(), seen))));
                }
            }
        }
        if enc.with_missing_indicators {
            for (col, _) in &source_cols {
                plan.push(OutputCol::Indicator { col: *col });
            }
        }

        // Unseen-category tally: one pass over the categorical columns.
        let mut report = TransformReport::default();
        let mut row_has_unseen: Vec<bool> = Vec::new();
        for view in store.views() {
            row_has_unseen.clear();
            row_has_unseen.resize(view.n_rows(), false);
            for (col, cat_info) in &source_cols {
                let Some((name, seen)) = cat_info else { continue };
                for (i, flag) in row_has_unseen.iter_mut().enumerate() {
                    if let Some(code) = view.code(*col, i) {
                        if !seen[code as usize] {
                            report.record(name);
                            *flag = true;
                        }
                    }
                }
            }
            report.unseen_category_rows +=
                row_has_unseen.iter().filter(|&&b| b).count() as u64;
        }
        Ok(StoreEncoder { store, plan, report })
    }

    /// Rows of the underlying store.
    pub fn n_rows(&self) -> usize {
        self.store.n_rows()
    }

    /// Output columns of the encoding.
    pub fn n_cols(&self) -> usize {
        self.plan.len()
    }

    /// The unseen-category tally gathered at construction.
    pub fn report(&self) -> &TransformReport {
        &self.report
    }

    /// Fills `out` with encoded output column `j` across all blocks.
    ///
    /// Panics when `out.len() != n_rows()` or `j >= n_cols()`.
    pub fn fill_column(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.store.n_rows(), "output buffer length");
        match &self.plan[j] {
            OutputCol::Numeric { col, mean, std_dev } => {
                for view in self.store.views() {
                    Self::fill_numeric(&view, *col, *mean, *std_dev, out);
                }
            }
            OutputCol::OneHot { col, hot } => {
                for view in self.store.views() {
                    let slice = &mut out[view.start_row()..view.start_row() + view.n_rows()];
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = match view.code(*col, i) {
                            Some(code) if hot[code as usize] => 1.0,
                            _ => 0.0,
                        };
                    }
                }
            }
            OutputCol::Indicator { col } => {
                for view in self.store.views() {
                    let slice = &mut out[view.start_row()..view.start_row() + view.n_rows()];
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = if view.is_valid(*col, i) { 0.0 } else { 1.0 };
                    }
                }
            }
        }
    }

    fn fill_numeric(view: &BlockView<'_>, col: usize, mean: f64, std_dev: f64, out: &mut [f64]) {
        let slice = &mut out[view.start_row()..view.start_row() + view.n_rows()];
        for (i, slot) in slice.iter_mut().enumerate() {
            let x = view.numeric(col, i);
            *slot = if x.is_nan() { 0.0 } else { (x - mean) / std_dev };
        }
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

    #[test]
    fn fit_store_matches_fit_frame() {
        let df = train_frame();
        let store = BlockStore::from_frame(&df).unwrap();
        for &ind in &[false, true] {
            let from_frame = FeatureEncoder::fit(&df, ind).unwrap();
            let from_store = FeatureEncoder::fit_store(&store, ind).unwrap();
            assert_eq!(from_frame.n_output_cols(), from_store.n_output_cols());
            let a = from_frame.transform(&df).unwrap();
            let b = from_store.transform(&df).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn store_encoder_columns_match_transform() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, f64::NAN, 3.0, 4.5])
            .categorical("c", ColumnRole::Feature, &[Some("a"), Some("b"), None, Some("a")])
            .numeric("y", ColumnRole::Label, vec![0.0, 1.0, 0.0, 1.0])
            .build()
            .unwrap();
        let store = BlockStore::from_frame(&df).unwrap();
        for &ind in &[false, true] {
            let enc = FeatureEncoder::fit(&df, ind).unwrap();
            let m = enc.transform(&df).unwrap();
            let se = StoreEncoder::new(&enc, &store).unwrap();
            assert_eq!(se.n_cols(), enc.n_output_cols());
            let mut buf = vec![0.0; se.n_rows()];
            for j in 0..se.n_cols() {
                se.fill_column(j, &mut buf);
                for (i, &v) in buf.iter().enumerate() {
                    assert_eq!(v.to_bits(), m.get(i, j).to_bits(), "col {j} row {i}");
                }
            }
            assert_eq!(se.report(), &TransformReport::default());
        }
    }

    #[test]
    fn store_encoder_tallies_unseen() {
        // Fit on a subset so the store holds categories the fit never saw.
        let df = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("a"), Some("b"), Some("b")])
            .build()
            .unwrap();
        let enc = FeatureEncoder::fit(&df.take(&[0]).unwrap(), false).unwrap();
        let store = BlockStore::from_frame(&df).unwrap();
        let se = StoreEncoder::new(&enc, &store).unwrap();
        assert_eq!(se.report().unseen_cells, 2);
        assert_eq!(se.report().unseen_category_rows, 2);
    }
}
