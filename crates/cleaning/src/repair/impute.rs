//! Missing-value imputation.
//!
//! The study's imputation variants: numeric columns take the column
//! **mean**, **median** or **mode**; categorical columns take the **mode**
//! or a constant **"dummy"** indicator value. Imputation values are fitted
//! on the training frame and applied unchanged to the test frame — the
//! CleanML naming convention `impute_<num>_<cat>` (e.g. `impute_mean_dummy`)
//! is reproduced by [`MissingRepair::name`].

use tabular::{ColumnKind, ColumnRole, ColumnStats, DataFrame, Result, TabularError};

/// The label used for dummy-imputed categorical cells.
pub const DUMMY_CATEGORY: &str = "missing_dummy";

/// Imputation statistic for numeric columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumImpute {
    /// Column mean.
    Mean,
    /// Column median.
    Median,
    /// Column mode.
    Mode,
}

impl NumImpute {
    /// All numeric strategies.
    pub fn all() -> [NumImpute; 3] {
        [NumImpute::Mean, NumImpute::Median, NumImpute::Mode]
    }

    /// Short name.
    pub fn name(&self) -> &'static str {
        match self {
            NumImpute::Mean => "mean",
            NumImpute::Median => "median",
            NumImpute::Mode => "mode",
        }
    }
}

/// Imputation strategy for categorical columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CatImpute {
    /// Column mode (most frequent category).
    Mode,
    /// A constant "dummy" indicator category, letting the model learn
    /// parameters for missingness.
    Dummy,
}

impl CatImpute {
    /// All categorical strategies.
    pub fn all() -> [CatImpute; 2] {
        [CatImpute::Mode, CatImpute::Dummy]
    }

    /// Short name.
    pub fn name(&self) -> &'static str {
        match self {
            CatImpute::Mode => "mode",
            CatImpute::Dummy => "dummy",
        }
    }
}

/// A missing-value repair configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MissingRepair {
    /// Strategy for numeric columns.
    pub num: NumImpute,
    /// Strategy for categorical columns.
    pub cat: CatImpute,
}

impl MissingRepair {
    /// All six `num × cat` combinations the study sweeps.
    pub fn all() -> Vec<MissingRepair> {
        let mut out = Vec::with_capacity(6);
        for num in NumImpute::all() {
            for cat in CatImpute::all() {
                out.push(MissingRepair { num, cat });
            }
        }
        out
    }

    /// CleanML-style name, e.g. `impute_mean_dummy`.
    pub fn name(&self) -> String {
        format!("impute_{}_{}", self.num.name(), self.cat.name())
    }

    /// Fits per-column imputation values on `train`.
    ///
    /// Columns that are entirely missing in the training data fall back to
    /// 0.0 (numeric) / the dummy label (categorical).
    pub fn fit(&self, train: &DataFrame) -> Result<FittedImputer> {
        let mut numeric = Vec::new();
        let mut categorical = Vec::new();
        for field in train.schema().fields() {
            if field.role == ColumnRole::Dropped {
                continue;
            }
            match field.kind {
                ColumnKind::Numeric => {
                    let data = train.numeric(&field.name)?;
                    let value = match self.num {
                        NumImpute::Mean => ColumnStats::compute(data).map(|s| s.mean),
                        NumImpute::Median => ColumnStats::compute(data).map(|s| s.median),
                        NumImpute::Mode => ColumnStats::mode(data),
                    };
                    numeric.push((field.name.clone(), value.unwrap_or(0.0)));
                }
                ColumnKind::Categorical => {
                    let value = match self.cat {
                        CatImpute::Mode => {
                            let col = train.categorical(&field.name)?;
                            col.mode_code()
                                .map(|c| col.categories()[c as usize].clone())
                                .unwrap_or_else(|| DUMMY_CATEGORY.to_string())
                        }
                        CatImpute::Dummy => DUMMY_CATEGORY.to_string(),
                    };
                    categorical.push((field.name.clone(), value));
                }
            }
        }
        Ok(FittedImputer { numeric, categorical })
    }

}

/// Fitted per-column imputation values, applicable to any schema-compatible
/// frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedImputer {
    numeric: Vec<(String, f64)>,
    categorical: Vec<(String, String)>,
}

impl FittedImputer {
    /// Returns a copy of `frame` with every missing cell filled.
    pub fn apply(&self, frame: &DataFrame) -> Result<DataFrame> {
        let mut out = frame.clone();
        for (name, value) in &self.numeric {
            let col = out.column_mut(name)?;
            let data = col.as_numeric().map_err(|_| TabularError::KindMismatch {
                column: name.clone(),
                expected: "numeric",
            })?;
            if data.iter().any(|x| x.is_nan()) {
                let data = col.as_numeric_mut()?;
                for slot in data.iter_mut() {
                    if slot.is_nan() {
                        *slot = *value;
                    }
                }
            }
        }
        for (name, label) in &self.categorical {
            let col = out.column_mut(name)?;
            let cat = col.as_categorical_mut().map_err(|_| TabularError::KindMismatch {
                column: name.clone(),
                expected: "categorical",
            })?;
            if cat.missing_count() > 0 {
                let code = cat.intern(label);
                for i in 0..cat.len() {
                    if cat.code(i).is_none() {
                        cat.set_code(i, Some(code));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fitted value for a numeric column, if any.
    fn numeric_value(imp: &FittedImputer, column: &str) -> Option<f64> {
        imp.numeric.iter().find(|(n, _)| n == column).map(|(_, v)| *v)
    }
    use tabular::ColumnRole;

    fn frame() -> DataFrame {
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, f64::NAN, 3.0, 100.0])
            .categorical(
                "c",
                ColumnRole::Feature,
                &[Some("a"), Some("a"), None, Some("b")],
            )
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 1.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn names_follow_cleanml_convention() {
        let r = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy };
        assert_eq!(r.name(), "impute_mean_dummy");
        assert_eq!(MissingRepair::all().len(), 6);
        let names: Vec<String> = MissingRepair::all().iter().map(|r| r.name()).collect();
        assert!(names.contains(&"impute_median_mode".to_string()));
    }

    #[test]
    fn mean_imputation_fills_with_mean() {
        let df = frame();
        let imp = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Mode }.fit(&df).unwrap();
        // Mean of present values (1, 3, 100).
        assert!((numeric_value(&imp, "x").unwrap() - 104.0 / 3.0).abs() < 1e-12);
        let repaired = imp.apply(&df).unwrap();
        assert_eq!(repaired.missing_cells(), 0);
        assert!((repaired.numeric("x").unwrap()[1] - 104.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_mode_imputation() {
        let df = frame();
        let med = MissingRepair { num: NumImpute::Median, cat: CatImpute::Mode }.fit(&df).unwrap();
        assert_eq!(numeric_value(&med, "x"), Some(3.0));
        let mode = MissingRepair { num: NumImpute::Mode, cat: CatImpute::Mode }.fit(&df).unwrap();
        assert_eq!(numeric_value(&mode, "x"), Some(1.0)); // all unique -> smallest
    }

    #[test]
    fn categorical_mode_fills_most_frequent() {
        let df = frame();
        let imp = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Mode }.fit(&df).unwrap();
        let fitted = imp.categorical.iter().find(|(n, _)| n == "c").map(|(_, v)| v.as_str());
        assert_eq!(fitted, Some("a"));
        let repaired = imp.apply(&df).unwrap();
        assert_eq!(repaired.categorical("c").unwrap().label(2), Some("a"));
    }

    #[test]
    fn dummy_creates_indicator_category() {
        let df = frame();
        let imp = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy }.fit(&df).unwrap();
        let repaired = imp.apply(&df).unwrap();
        assert_eq!(repaired.categorical("c").unwrap().label(2), Some(DUMMY_CATEGORY));
        // Original categories retained.
        assert_eq!(repaired.categorical("c").unwrap().label(0), Some("a"));
    }

    #[test]
    fn imputation_is_idempotent() {
        let df = frame();
        let imp = MissingRepair { num: NumImpute::Median, cat: CatImpute::Dummy }.fit(&df).unwrap();
        let once = imp.apply(&df).unwrap();
        let twice = imp.apply(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn fit_on_train_apply_to_test_without_refit() {
        let train = frame();
        let imp = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Mode }.fit(&train).unwrap();
        let test = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![f64::NAN])
            .categorical("c", ColumnRole::Feature, &[None::<&str>])
            .numeric("label", ColumnRole::Label, vec![1.0])
            .build()
            .unwrap();
        let repaired = imp.apply(&test).unwrap();
        // Test gets TRAIN's mean, not its own (undefined) mean.
        assert!((repaired.numeric("x").unwrap()[0] - 104.0 / 3.0).abs() < 1e-12);
        assert_eq!(repaired.categorical("c").unwrap().label(0), Some("a"));
    }

    #[test]
    fn all_missing_column_falls_back() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![f64::NAN, f64::NAN])
            .build()
            .unwrap();
        let imp = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Mode }.fit(&df).unwrap();
        assert_eq!(numeric_value(&imp, "x"), Some(0.0));
        let repaired = imp.apply(&df).unwrap();
        assert_eq!(repaired.missing_cells(), 0);
    }
}
