//! Group predicates and group membership masks.

use tabular::{Cell, DataFrame, TabularError};

/// Comparison operator of a group predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality (categorical or numeric).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly greater (numeric only).
    Gt,
    /// Greater or equal (numeric only).
    Ge,
    /// Strictly less (numeric only).
    Lt,
    /// Less or equal (numeric only).
    Le,
}

impl CmpOp {
    fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        }
    }
}

/// The right-hand side of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateValue {
    /// Numeric comparison value.
    Num(f64),
    /// Categorical comparison label.
    Cat(String),
}

/// A membership predicate on one sensitive attribute, e.g.
/// `("age", Gt, 25)` or `("sex", Eq, "male")` — the Rust form of the
/// `privileged_groups` entries in the paper's Listing 1.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPredicate {
    /// Sensitive attribute name.
    pub attribute: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison value.
    pub value: PredicateValue,
}

impl GroupPredicate {
    /// Numeric predicate constructor.
    pub fn num(attribute: impl Into<String>, op: CmpOp, value: f64) -> Self {
        GroupPredicate { attribute: attribute.into(), op, value: PredicateValue::Num(value) }
    }

    /// Categorical predicate constructor.
    pub fn cat(attribute: impl Into<String>, op: CmpOp, value: impl Into<String>) -> Self {
        GroupPredicate {
            attribute: attribute.into(),
            op,
            value: PredicateValue::Cat(value.into()),
        }
    }

    /// Whether one cell satisfies the predicate. A missing cell never
    /// does; a cell of the other kind is a kind mismatch, and an ordering
    /// operator is rejected on a categorical value.
    pub fn matches(&self, cell: Cell<'_>) -> Result<bool, TabularError> {
        Ok(match (&self.value, cell) {
            (PredicateValue::Num(v), Cell::Num(x)) => match self.op {
                CmpOp::Eq => x == *v,
                CmpOp::Ne => x != *v,
                CmpOp::Gt => x > *v,
                CmpOp::Ge => x >= *v,
                CmpOp::Lt => x < *v,
                CmpOp::Le => x <= *v,
            },
            (PredicateValue::Cat(v), Cell::Str(s)) => match self.op {
                CmpOp::Eq => s == v,
                CmpOp::Ne => s != v,
                _ => {
                    return Err(TabularError::InvalidArgument(format!(
                        "operator {} not supported for categorical attribute '{}'",
                        self.op.symbol(),
                        self.attribute
                    )))
                }
            },
            (_, Cell::Missing) => false,
            _ => {
                return Err(TabularError::KindMismatch {
                    column: self.attribute.clone(),
                    expected: match self.value {
                        PredicateValue::Num(_) => "numeric",
                        PredicateValue::Cat(_) => "categorical",
                    },
                })
            }
        })
    }

    /// Evaluates the predicate for every row with
    /// [`GroupPredicate::matches`].
    ///
    /// Rows with a missing sensitive attribute evaluate to `false`
    /// (they fall into the disadvantaged side of a single-attribute
    /// partition, consistent with "privileged group and all other tuples").
    pub fn evaluate(&self, frame: &DataFrame) -> Result<Vec<bool>, TabularError> {
        if frame.n_rows() == 0 {
            return Ok(Vec::new());
        }
        let column = frame.column(&self.attribute)?;
        (0..frame.n_rows()).map(|i| self.matches(column.cell(i))).collect()
    }
}

impl std::fmt::Display for GroupPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.value {
            PredicateValue::Num(v) => write!(f, "{} {} {}", self.attribute, self.op.symbol(), v),
            PredicateValue::Cat(v) => write!(f, "{} {} '{}'", self.attribute, self.op.symbol(), v),
        }
    }
}

/// How groups are derived from predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupSpec {
    /// One predicate; privileged = predicate true, disadvantaged = rest.
    /// Partitions the data.
    SingleAttribute(GroupPredicate),
    /// Conjunction of predicates; privileged = all true, disadvantaged =
    /// all false, mixed tuples excluded. Does *not* partition the data.
    Intersectional(Vec<GroupPredicate>),
}

impl GroupSpec {
    /// Short label used in result keys, e.g. `sex` or `sex*age`.
    pub fn label(&self) -> String {
        match self {
            GroupSpec::SingleAttribute(p) => p.attribute.clone(),
            GroupSpec::Intersectional(ps) => ps
                .iter()
                .map(|p| p.attribute.as_str())
                .collect::<Vec<_>>()
                .join("*"),
        }
    }

    /// True when the spec is intersectional.
    pub fn is_intersectional(&self) -> bool {
        matches!(self, GroupSpec::Intersectional(_))
    }

    /// Computes privileged/disadvantaged membership masks.
    pub fn evaluate(&self, frame: &DataFrame) -> Result<Groups, TabularError> {
        match self {
            GroupSpec::SingleAttribute(pred) => {
                let privileged = pred.evaluate(frame)?;
                let disadvantaged = privileged.iter().map(|&b| !b).collect();
                Ok(Groups { privileged, disadvantaged })
            }
            GroupSpec::Intersectional(preds) => {
                if preds.is_empty() {
                    return Err(TabularError::InvalidArgument(
                        "intersectional spec needs at least one predicate".to_string(),
                    ));
                }
                let masks: Vec<Vec<bool>> = preds
                    .iter()
                    .map(|p| p.evaluate(frame))
                    .collect::<Result<_, _>>()?;
                let n = frame.n_rows();
                let mut privileged = vec![true; n];
                let mut disadvantaged = vec![true; n];
                for mask in &masks {
                    for i in 0..n {
                        privileged[i] &= mask[i];
                        disadvantaged[i] &= !mask[i];
                    }
                }
                Ok(Groups { privileged, disadvantaged })
            }
        }
    }
}

/// Privileged/disadvantaged membership masks over a frame's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Groups {
    /// True for rows in the (intersectionally) privileged group.
    pub privileged: Vec<bool>,
    /// True for rows in the (intersectionally) disadvantaged group.
    pub disadvantaged: Vec<bool>,
}

impl Groups {
    /// Number of privileged rows.
    // lint:allow(U001, the group tests of fairness and datasets and their proptests count with it)
    pub fn n_privileged(&self) -> usize {
        self.privileged.iter().filter(|&&b| b).count()
    }

    /// Number of disadvantaged rows.
    // lint:allow(U001, the group tests of fairness and datasets and their proptests count with it)
    pub fn n_disadvantaged(&self) -> usize {
        self.disadvantaged.iter().filter(|&&b| b).count()
    }

    /// Number of rows excluded from both groups (always 0 for
    /// single-attribute specs).
    // lint:allow(U001, the group tests of fairness and datasets and their proptests count with it)
    pub fn n_excluded(&self) -> usize {
        self.privileged
            .iter()
            .zip(&self.disadvantaged)
            .filter(|(&p, &d)| !p && !d)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::ColumnRole;

    fn demo_frame() -> DataFrame {
        DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, vec![30.0, 20.0, 50.0, f64::NAN])
            .categorical(
                "sex",
                ColumnRole::Sensitive,
                &[Some("male"), Some("female"), Some("male"), Some("female")],
            )
            .numeric("y", ColumnRole::Label, vec![1.0, 0.0, 1.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_predicate_ops() {
        let df = demo_frame();
        let gt = GroupPredicate::num("age", CmpOp::Gt, 25.0).evaluate(&df).unwrap();
        assert_eq!(gt, vec![true, false, true, false]); // NaN -> false
        let le = GroupPredicate::num("age", CmpOp::Le, 30.0).evaluate(&df).unwrap();
        assert_eq!(le, vec![true, true, false, false]);
        let eq = GroupPredicate::num("age", CmpOp::Eq, 20.0).evaluate(&df).unwrap();
        assert_eq!(eq, vec![false, true, false, false]);
        let ne = GroupPredicate::num("age", CmpOp::Ne, 20.0).evaluate(&df).unwrap();
        assert_eq!(ne, vec![true, false, true, false]); // NaN -> false even for Ne
    }

    #[test]
    fn categorical_predicate() {
        let df = demo_frame();
        let eq = GroupPredicate::cat("sex", CmpOp::Eq, "male").evaluate(&df).unwrap();
        assert_eq!(eq, vec![true, false, true, false]);
        let ne = GroupPredicate::cat("sex", CmpOp::Ne, "male").evaluate(&df).unwrap();
        assert_eq!(ne, vec![false, true, false, true]);
        // Ordering on categorical is rejected.
        assert!(GroupPredicate::cat("sex", CmpOp::Gt, "male").evaluate(&df).is_err());
    }

    #[test]
    fn kind_mismatch_rejected() {
        let df = demo_frame();
        assert!(GroupPredicate::num("sex", CmpOp::Eq, 1.0).evaluate(&df).is_err());
        assert!(GroupPredicate::cat("age", CmpOp::Eq, "30").evaluate(&df).is_err());
        assert!(GroupPredicate::num("nope", CmpOp::Eq, 1.0).evaluate(&df).is_err());
    }

    #[test]
    fn per_cell_match_agrees_with_evaluate() {
        let df = demo_frame();
        let age = GroupPredicate::num("age", CmpOp::Gt, 25.0);
        assert_eq!(age.matches(Cell::Num(30.0)), Ok(true));
        assert_eq!(age.matches(Cell::Missing), Ok(false));
        assert!(age.matches(Cell::Str("30")).is_err());
        let sex = GroupPredicate::cat("sex", CmpOp::Ne, "male");
        assert_eq!(sex.matches(Cell::Str("female")), Ok(true));
        assert_eq!(sex.matches(Cell::Missing), Ok(false));
        let column = df.column("sex").unwrap();
        let cells: Vec<bool> = (0..4).map(|i| sex.matches(column.cell(i)).unwrap()).collect();
        assert_eq!(cells, sex.evaluate(&df).unwrap());
        // An empty frame evaluates to an empty mask, whatever the attribute.
        let empty = df.take(&[]).unwrap();
        assert_eq!(GroupPredicate::num("nope", CmpOp::Eq, 1.0).evaluate(&empty).unwrap(), vec![]);
    }

    #[test]
    fn single_attribute_partitions() {
        let df = demo_frame();
        let spec = GroupSpec::SingleAttribute(GroupPredicate::cat("sex", CmpOp::Eq, "male"));
        let groups = spec.evaluate(&df).unwrap();
        assert_eq!(groups.n_privileged(), 2);
        assert_eq!(groups.n_disadvantaged(), 2);
        assert_eq!(groups.n_excluded(), 0);
        assert!(!spec.is_intersectional());
        assert_eq!(spec.label(), "sex");
    }

    #[test]
    fn intersectional_excludes_mixed() {
        let df = demo_frame();
        let spec = GroupSpec::Intersectional(vec![
            GroupPredicate::cat("sex", CmpOp::Eq, "male"),
            GroupPredicate::num("age", CmpOp::Gt, 25.0),
        ]);
        let groups = spec.evaluate(&df).unwrap();
        // Row 0: male, 30 -> privileged. Row 1: female, 20 -> disadvantaged.
        // Row 2: male, 50 -> privileged. Row 3: female, NaN -> both preds
        // false -> disadvantaged.
        assert_eq!(groups.privileged, vec![true, false, true, false]);
        assert_eq!(groups.disadvantaged, vec![false, true, false, true]);
        assert_eq!(spec.label(), "sex*age");
        assert!(spec.is_intersectional());
    }

    #[test]
    fn intersectional_mixed_tuple_excluded() {
        let df = DataFrame::builder()
            .categorical("sex", ColumnRole::Sensitive, &[Some("male")])
            .numeric("age", ColumnRole::Sensitive, vec![20.0])
            .build()
            .unwrap();
        let spec = GroupSpec::Intersectional(vec![
            GroupPredicate::cat("sex", CmpOp::Eq, "male"),
            GroupPredicate::num("age", CmpOp::Gt, 25.0),
        ]);
        let groups = spec.evaluate(&df).unwrap();
        // Male (privileged axis 1) but young (disadvantaged axis 2): excluded.
        assert_eq!(groups.n_privileged(), 0);
        assert_eq!(groups.n_disadvantaged(), 0);
        assert_eq!(groups.n_excluded(), 1);
    }

    #[test]
    fn empty_intersectional_rejected() {
        let df = demo_frame();
        assert!(GroupSpec::Intersectional(vec![]).evaluate(&df).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(GroupPredicate::num("age", CmpOp::Gt, 25.0).to_string(), "age > 25");
        assert_eq!(
            GroupPredicate::cat("sex", CmpOp::Eq, "male").to_string(),
            "sex == 'male'"
        );
    }
}
