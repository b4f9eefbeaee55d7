//! Column storage: numeric (NaN = missing) and dictionary-encoded
//! categorical (`None` = missing) columns, plus a borrowed cell view.

use crate::error::TabularError;
use crate::Result;

/// A dictionary-encoded categorical column.
///
/// `codes[i]` indexes into `categories`; `None` marks a missing value.
/// The dictionary is append-only so codes remain stable under edits.
#[derive(Debug, Clone, PartialEq)]
pub struct CatColumn {
    codes: Vec<Option<u32>>,
    categories: Vec<String>,
}

impl CatColumn {
    /// Creates an empty column with a fixed set of categories.
    pub fn with_categories(categories: Vec<String>) -> Self {
        CatColumn { codes: Vec::new(), categories }
    }

    /// Builds a column from string labels (missing = `None`), creating the
    /// dictionary on the fly in first-seen order.
    pub fn from_labels<S: AsRef<str>>(labels: &[Option<S>]) -> Self {
        let mut col = CatColumn::with_categories(Vec::new());
        for l in labels {
            match l {
                Some(s) => col.push_label(s.as_ref()),
                None => col.push_missing(),
            }
        }
        col
    }

    /// Builds a column directly from codes and a dictionary, validating
    /// that every code is in range.
    pub fn from_codes(codes: Vec<Option<u32>>, categories: Vec<String>) -> Result<Self> {
        for code in codes.iter().flatten() {
            if *code as usize >= categories.len() {
                return Err(TabularError::BadCategoryCode {
                    column: String::new(),
                    code: *code,
                });
            }
        }
        Ok(CatColumn { codes, categories })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary of category labels.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Raw codes.
    pub fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }

    /// Code at row `i`.
    pub fn code(&self, i: usize) -> Option<u32> {
        self.codes[i]
    }

    /// Label at row `i` (`None` if missing).
    pub fn label(&self, i: usize) -> Option<&str> {
        self.codes[i].map(|c| self.categories[c as usize].as_str())
    }

    /// Appends a label, extending the dictionary if necessary.
    pub fn push_label(&mut self, label: &str) {
        let code = match self.categories.iter().position(|c| c == label) {
            Some(idx) => idx as u32,
            None => {
                self.categories.push(label.to_string());
                (self.categories.len() - 1) as u32
            }
        };
        self.codes.push(Some(code));
    }

    /// Appends a missing value.
    pub fn push_missing(&mut self) {
        self.codes.push(None);
    }

    /// Overwrites the code at row `i`.
    pub fn set_code(&mut self, i: usize, code: Option<u32>) {
        debug_assert!(code.is_none_or(|c| (c as usize) < self.categories.len()));
        self.codes[i] = code;
    }

    /// Interns a label, returning its code (extends the dictionary).
    pub fn intern(&mut self, label: &str) -> u32 {
        match self.categories.iter().position(|c| c == label) {
            Some(idx) => idx as u32,
            None => {
                self.categories.push(label.to_string());
                (self.categories.len() - 1) as u32
            }
        }
    }

    /// Number of missing entries.
    pub fn missing_count(&self) -> usize {
        self.codes.iter().filter(|c| c.is_none()).count()
    }

    /// Most frequent code (ties broken by smaller code), ignoring missing.
    pub fn mode_code(&self) -> Option<u32> {
        if self.categories.is_empty() {
            return None;
        }
        let mut counts = vec![0usize; self.categories.len()];
        for code in self.codes.iter().flatten() {
            counts[*code as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
    }

    /// New column with only the given rows (codes share the dictionary).
    pub fn take(&self, indices: &[usize]) -> CatColumn {
        CatColumn {
            codes: indices.iter().map(|&i| self.codes[i]).collect(),
            categories: self.categories.clone(),
        }
    }
}

/// A column of a [`crate::DataFrame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric storage; `NaN` encodes missing.
    Numeric(Vec<f64>),
    /// Dictionary-encoded categorical storage.
    Categorical(CatColumn),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(c) => c.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the value at row `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            Column::Numeric(v) => v[i].is_nan(),
            Column::Categorical(c) => c.code(i).is_none(),
        }
    }

    /// Number of missing entries.
    pub fn missing_count(&self) -> usize {
        match self {
            Column::Numeric(v) => v.iter().filter(|x| x.is_nan()).count(),
            Column::Categorical(c) => c.missing_count(),
        }
    }

    /// Borrowed cell view at row `i`.
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            Column::Numeric(v) => {
                if v[i].is_nan() {
                    Cell::Missing
                } else {
                    Cell::Num(v[i])
                }
            }
            Column::Categorical(c) => match c.label(i) {
                Some(l) => Cell::Str(l),
                None => Cell::Missing,
            },
        }
    }

    /// The numeric data, or a kind-mismatch error.
    pub fn as_numeric(&self) -> Result<&[f64]> {
        match self {
            Column::Numeric(v) => Ok(v),
            Column::Categorical(_) => Err(TabularError::KindMismatch {
                column: String::new(),
                expected: "numeric",
            }),
        }
    }

    /// Mutable numeric data, or a kind-mismatch error.
    pub fn as_numeric_mut(&mut self) -> Result<&mut Vec<f64>> {
        match self {
            Column::Numeric(v) => Ok(v),
            Column::Categorical(_) => Err(TabularError::KindMismatch {
                column: String::new(),
                expected: "numeric",
            }),
        }
    }

    /// The categorical data, or a kind-mismatch error.
    pub fn as_categorical(&self) -> Result<&CatColumn> {
        match self {
            Column::Categorical(c) => Ok(c),
            Column::Numeric(_) => Err(TabularError::KindMismatch {
                column: String::new(),
                expected: "categorical",
            }),
        }
    }

    /// Mutable categorical data, or a kind-mismatch error.
    pub fn as_categorical_mut(&mut self) -> Result<&mut CatColumn> {
        match self {
            Column::Categorical(c) => Ok(c),
            Column::Numeric(_) => Err(TabularError::KindMismatch {
                column: String::new(),
                expected: "categorical",
            }),
        }
    }

    /// New column with only the given rows.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(indices.iter().map(|&i| v[i]).collect()),
            Column::Categorical(c) => Column::Categorical(c.take(indices)),
        }
    }
}

/// A borrowed view of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// A present numeric value.
    Num(f64),
    /// A present categorical label.
    Str(&'a str),
    /// A missing value of either kind.
    Missing,
}

impl std::fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Num(x) => write!(f, "{x}"),
            Cell::Str(s) => write!(f, "{s}"),
            Cell::Missing => write!(f, ""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_column_from_labels() {
        let col = CatColumn::from_labels(&[Some("a"), Some("b"), None, Some("a")]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.categories(), &["a".to_string(), "b".to_string()]);
        assert_eq!(col.code(0), Some(0));
        assert_eq!(col.code(3), Some(0));
        assert_eq!(col.code(2), None);
        assert_eq!(col.label(1), Some("b"));
        assert_eq!(col.missing_count(), 1);
    }

    #[test]
    fn mode_ignores_missing_and_breaks_ties_low() {
        let col = CatColumn::from_labels(&[Some("x"), Some("y"), None, Some("y"), Some("x")]);
        // Tie between x (code 0) and y (code 1) -> lower code wins.
        assert_eq!(col.mode_code(), Some(0));
        let empty = CatColumn::from_labels::<&str>(&[None, None]);
        assert_eq!(empty.mode_code(), None);
    }

    #[test]
    fn from_codes_validates() {
        let bad = CatColumn::from_codes(vec![Some(2)], vec!["a".into()]);
        assert!(bad.is_err());
        let good = CatColumn::from_codes(vec![Some(0), None], vec!["a".into()]).unwrap();
        assert_eq!(good.len(), 2);
    }

    #[test]
    fn numeric_missing_is_nan() {
        let col = Column::Numeric(vec![1.0, f64::NAN, 3.0]);
        assert!(!col.is_missing(0));
        assert!(col.is_missing(1));
        assert_eq!(col.missing_count(), 1);
        assert_eq!(col.cell(0), Cell::Num(1.0));
        assert_eq!(col.cell(1), Cell::Missing);
    }

    #[test]
    fn take_preserves_dictionary() {
        let col = Column::Categorical(CatColumn::from_labels(&[Some("a"), Some("b"), Some("c")]));
        let taken = col.take(&[2, 0]);
        let cat = taken.as_categorical().unwrap();
        assert_eq!(cat.label(0), Some("c"));
        assert_eq!(cat.label(1), Some("a"));
        assert_eq!(cat.categories().len(), 3);
    }

    #[test]
    fn kind_mismatch_errors() {
        let num = Column::Numeric(vec![1.0]);
        assert!(num.as_categorical().is_err());
        let cat = Column::Categorical(CatColumn::from_labels(&[Some("a")]));
        assert!(cat.as_numeric().is_err());
    }

    #[test]
    fn intern_reuses_codes() {
        let mut col = CatColumn::with_categories(vec!["a".into()]);
        assert_eq!(col.intern("a"), 0);
        assert_eq!(col.intern("b"), 1);
        assert_eq!(col.intern("a"), 0);
        assert_eq!(col.categories().len(), 2);
    }

    #[test]
    fn cell_display() {
        assert_eq!(Cell::Num(2.5).to_string(), "2.5");
        assert_eq!(Cell::Str("hi").to_string(), "hi");
        assert_eq!(Cell::Missing.to_string(), "");
    }
}
