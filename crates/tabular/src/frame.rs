//! The [`DataFrame`]: an ordered collection of equal-length columns with a
//! typed schema. The unit of data the whole study operates on.

use crate::column::{CatColumn, Cell, Column};
use crate::error::TabularError;
use crate::schema::{ColumnKind, ColumnRole, FieldMeta, Schema};
use crate::Result;

/// A typed, column-oriented table.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl DataFrame {
    /// Builds a frame from a schema and matching columns.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TabularError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(TabularError::LengthMismatch { expected: rows, actual: col.len() });
            }
            let ok = matches!(
                (field.kind, col),
                (ColumnKind::Numeric, Column::Numeric(_))
                    | (ColumnKind::Categorical, Column::Categorical(_))
            );
            if !ok {
                return Err(TabularError::KindMismatch {
                    column: field.name.clone(),
                    expected: match field.kind {
                        ColumnKind::Numeric => "numeric",
                        ColumnKind::Categorical => "categorical",
                    },
                });
            }
        }
        Ok(DataFrame { schema, columns, rows })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (e.g. to re-role columns).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Mutable column by name.
    ///
    /// Note: mutating through this handle cannot change the column length;
    /// callers must preserve it (enforced by a debug assertion on next use).
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&mut self.columns[idx])
    }

    /// Column by position.
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Borrowed cell at (row, column-name).
    pub fn cell(&self, row: usize, name: &str) -> Result<Cell<'_>> {
        if row >= self.rows {
            return Err(TabularError::RowOutOfBounds { index: row, rows: self.rows });
        }
        Ok(self.column(name)?.cell(row))
    }

    /// Numeric column data by name.
    pub fn numeric(&self, name: &str) -> Result<&[f64]> {
        self.column(name)?.as_numeric().map_err(|_| TabularError::KindMismatch {
            column: name.to_string(),
            expected: "numeric",
        })
    }

    /// Categorical column data by name.
    pub fn categorical(&self, name: &str) -> Result<&CatColumn> {
        self.column(name)?.as_categorical().map_err(|_| TabularError::KindMismatch {
            column: name.to_string(),
            expected: "categorical",
        })
    }

    /// The label column as a 0/1 vector.
    ///
    /// Labels are stored numerically; any nonzero value maps to 1.
    pub fn labels(&self) -> Result<Vec<u8>> {
        let field = self
            .schema
            .label()
            .ok_or_else(|| TabularError::UnknownColumn("<label>".to_string()))?;
        let data = self.numeric(&field.name)?;
        // lint:allow(F001, labels are stored as exact 0.0/1.0; nonzero test is the contract)
        Ok(data.iter().map(|&x| if x != 0.0 { 1 } else { 0 }).collect())
    }

    /// Overwrites the label column from a 0/1 vector.
    pub fn set_labels(&mut self, labels: &[u8]) -> Result<()> {
        if labels.len() != self.rows {
            return Err(TabularError::LengthMismatch { expected: self.rows, actual: labels.len() });
        }
        let name = self
            .schema
            .label()
            .ok_or_else(|| TabularError::UnknownColumn("<label>".to_string()))?
            .name
            .clone();
        let col = self.column_mut(&name)?.as_numeric_mut()?;
        for (slot, &l) in col.iter_mut().zip(labels) {
            *slot = f64::from(l);
        }
        Ok(())
    }

    /// New frame with only the given rows, in the given order.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        for &i in indices {
            if i >= self.rows {
                return Err(TabularError::RowOutOfBounds { index: i, rows: self.rows });
            }
        }
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        DataFrame::new(self.schema.clone(), columns)
    }

    /// New frame with only the rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.rows {
            return Err(TabularError::LengthMismatch { expected: self.rows, actual: mask.len() });
        }
        let indices: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i).collect();
        self.take(&indices)
    }

    /// Per-row mask: true where the row has at least one missing value in
    /// any non-dropped column.
    pub fn incomplete_rows(&self) -> Vec<bool> {
        let mut mask = vec![false; self.rows];
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            if field.role == ColumnRole::Dropped {
                continue;
            }
            for (i, slot) in mask.iter_mut().enumerate() {
                if !*slot && col.is_missing(i) {
                    *slot = true;
                }
            }
        }
        mask
    }

    /// New frame without rows that contain missing values.
    pub fn drop_incomplete_rows(&self) -> Result<DataFrame> {
        let incomplete = self.incomplete_rows();
        let keep: Vec<bool> = incomplete.iter().map(|&b| !b).collect();
        self.filter(&keep)
    }

    /// Total number of missing cells across all columns.
    pub fn missing_cells(&self) -> usize {
        self.columns.iter().map(Column::missing_count).sum()
    }

    /// Vertically concatenates two frames with identical schemas.
    // lint:allow(U001, block.rs tests and block_store_round_trips_appended_chunks compare with it)
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.schema != other.schema {
            return Err(TabularError::Parse("schema mismatch in concat".to_string()));
        }
        let columns = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| match (a, b) {
                (Column::Numeric(x), Column::Numeric(y)) => {
                    let mut v = x.clone();
                    v.extend_from_slice(y);
                    Ok(Column::Numeric(v))
                }
                (Column::Categorical(x), Column::Categorical(y)) => {
                    if x.categories() != y.categories() {
                        // Re-intern through labels so dictionaries merge.
                        let mut merged = x.clone();
                        for i in 0..y.len() {
                            match y.label(i) {
                                Some(l) => merged.push_label(l),
                                None => merged.push_missing(),
                            }
                        }
                        Ok(Column::Categorical(merged))
                    } else {
                        let mut codes = x.codes().to_vec();
                        codes.extend_from_slice(y.codes());
                        CatColumn::from_codes(codes, x.categories().to_vec())
                            .map(Column::Categorical)
                    }
                }
                _ => Err(TabularError::Parse("column kind mismatch in concat".to_string())),
            })
            .collect::<Result<Vec<_>>>()?;
        DataFrame::new(self.schema.clone(), columns)
    }

    /// Compact builder for tests and examples.
    pub fn builder() -> FrameBuilder {
        FrameBuilder::default()
    }
}

/// Incremental builder: add columns one at a time, then [`FrameBuilder::build`].
#[derive(Default)]
pub struct FrameBuilder {
    fields: Vec<FieldMeta>,
    columns: Vec<Column>,
}

impl FrameBuilder {
    /// Adds a numeric column.
    pub fn numeric(
        mut self,
        name: impl Into<String>,
        role: ColumnRole,
        data: Vec<f64>,
    ) -> Self {
        self.fields.push(FieldMeta::new(name, ColumnKind::Numeric, role));
        self.columns.push(Column::Numeric(data));
        self
    }

    /// Adds a categorical column from string labels.
    pub fn categorical<S: AsRef<str>>(
        mut self,
        name: impl Into<String>,
        role: ColumnRole,
        labels: &[Option<S>],
    ) -> Self {
        self.fields.push(FieldMeta::new(name, ColumnKind::Categorical, role));
        self.columns.push(Column::Categorical(CatColumn::from_labels(labels)));
        self
    }

    /// Finalises the frame.
    pub fn build(self) -> Result<DataFrame> {
        DataFrame::new(Schema::new(self.fields)?, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_frame() -> DataFrame {
        DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, vec![25.0, 40.0, 31.0, 19.0])
            .numeric("income", ColumnRole::Feature, vec![30_000.0, f64::NAN, 52_000.0, 12_000.0])
            .categorical(
                "job",
                ColumnRole::Feature,
                &[Some("clerk"), Some("engineer"), None, Some("clerk")],
            )
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 1.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = demo_frame();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 4);
        assert_eq!(df.missing_cells(), 2);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let res = DataFrame::builder()
            .numeric("a", ColumnRole::Feature, vec![1.0, 2.0])
            .numeric("b", ColumnRole::Feature, vec![1.0])
            .build();
        assert!(res.is_err());
    }

    #[test]
    fn labels_round_trip() {
        let mut df = demo_frame();
        assert_eq!(df.labels().unwrap(), vec![0, 1, 1, 0]);
        df.set_labels(&[1, 1, 0, 0]).unwrap();
        assert_eq!(df.labels().unwrap(), vec![1, 1, 0, 0]);
        assert!(df.set_labels(&[1]).is_err());
    }

    #[test]
    fn take_and_filter() {
        let df = demo_frame();
        let sub = df.take(&[3, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.numeric("age").unwrap(), &[19.0, 25.0]);
        let filtered = df.filter(&[true, false, true, false]).unwrap();
        assert_eq!(filtered.numeric("age").unwrap(), &[25.0, 31.0]);
        assert!(df.take(&[9]).is_err());
        assert!(df.filter(&[true]).is_err());
    }

    #[test]
    fn incomplete_rows_and_dropping() {
        let df = demo_frame();
        assert_eq!(df.incomplete_rows(), vec![false, true, true, false]);
        let clean = df.drop_incomplete_rows().unwrap();
        assert_eq!(clean.n_rows(), 2);
        assert_eq!(clean.missing_cells(), 0);
    }

    #[test]
    fn concat_identical_schema() {
        let df = demo_frame();
        let both = df.concat(&df).unwrap();
        assert_eq!(both.n_rows(), 8);
        assert_eq!(both.numeric("age").unwrap()[4], 25.0);
    }

    #[test]
    fn concat_merges_dictionaries() {
        let a = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("x")])
            .build()
            .unwrap();
        let b = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("y")])
            .build()
            .unwrap();
        let both = a.concat(&b).unwrap();
        let col = both.categorical("c").unwrap();
        assert_eq!(col.label(0), Some("x"));
        assert_eq!(col.label(1), Some("y"));
    }

    #[test]
    fn cell_access() {
        let df = demo_frame();
        assert_eq!(df.cell(0, "job").unwrap(), Cell::Str("clerk"));
        assert_eq!(df.cell(2, "job").unwrap(), Cell::Missing);
        assert!(df.cell(99, "job").is_err());
        assert!(df.cell(0, "nope").is_err());
    }

    #[test]
    fn kind_mismatch_reports_column_name() {
        let df = demo_frame();
        match df.numeric("job") {
            Err(TabularError::KindMismatch { column, .. }) => assert_eq!(column, "job"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
