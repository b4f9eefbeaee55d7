//! Declarative dataset definitions — the Rust form of the paper's
//! Listing 1 (`data_dir`, `error_types`, `drop_variables`, `label`,
//! `privileged_groups`).

use fairness::{GroupPredicate, GroupSpec};

/// The error types the study cleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorType {
    /// NULL/NaN values.
    MissingValues,
    /// Numeric outliers.
    Outliers,
    /// Predicted label errors.
    Mislabels,
}

impl ErrorType {
    /// All error types, in the paper's order.
    pub fn all() -> [ErrorType; 3] {
        [ErrorType::MissingValues, ErrorType::Outliers, ErrorType::Mislabels]
    }

    /// The paper's name for the error type.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorType::MissingValues => "missing_values",
            ErrorType::Outliers => "outliers",
            ErrorType::Mislabels => "mislabels",
        }
    }
}

impl std::fmt::Display for ErrorType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sensitive attribute and its privileged-group predicate.
#[derive(Debug, Clone)]
pub struct SensitiveAttribute {
    /// Attribute name (must exist in the generated frame with role
    /// `Sensitive`).
    pub name: &'static str,
    /// Membership predicate of the privileged group.
    pub privileged: GroupPredicate,
    /// Human-readable description of the privileged group.
    pub privileged_description: &'static str,
}

impl SensitiveAttribute {
    /// The single-attribute group spec for this attribute.
    pub fn single_attribute_spec(&self) -> GroupSpec {
        GroupSpec::SingleAttribute(self.privileged.clone())
    }
}

/// A complete declarative dataset definition.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (paper Table I).
    pub name: &'static str,
    /// Source domain: census / finance / healthcare.
    pub source: &'static str,
    /// Number of tuples in the original dataset (paper Table I).
    pub full_size: usize,
    /// Label column name.
    pub label: &'static str,
    /// Error types the study cleans on this dataset.
    pub error_types: Vec<ErrorType>,
    /// Columns present in the data but hidden from the classifier and the
    /// group definitions (the paper's `drop_variables` beyond sensitive
    /// attributes, e.g. german's `foreign_worker`).
    pub drop_variables: Vec<&'static str>,
    /// Sensitive attributes with privileged-group predicates.
    pub sensitive_attributes: Vec<SensitiveAttribute>,
    /// Whether the paper's intersectional analysis covers this dataset
    /// (credit has only one demographic attribute and is excluded).
    pub has_intersectional: bool,
}

impl DatasetSpec {
    /// All single-attribute group specs of the dataset.
    pub fn single_attribute_specs(&self) -> Vec<GroupSpec> {
        self.sensitive_attributes
            .iter()
            .map(SensitiveAttribute::single_attribute_spec)
            .collect()
    }

    /// The intersectional group spec (conjunction of the first two
    /// sensitive attributes), when the dataset supports one.
    pub fn intersectional_spec(&self) -> Option<GroupSpec> {
        if !self.has_intersectional || self.sensitive_attributes.len() < 2 {
            return None;
        }
        Some(GroupSpec::Intersectional(vec![
            self.sensitive_attributes[0].privileged.clone(),
            self.sensitive_attributes[1].privileged.clone(),
        ]))
    }

    /// True when the spec cleans the given error type.
    pub fn has_error_type(&self, error: ErrorType) -> bool {
        self.error_types.contains(&error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness::CmpOp;

    fn demo_spec() -> DatasetSpec {
        DatasetSpec {
            name: "demo",
            source: "finance",
            full_size: 100,
            label: "y",
            error_types: vec![ErrorType::MissingValues, ErrorType::Outliers],
            drop_variables: vec!["junk"],
            sensitive_attributes: vec![
                SensitiveAttribute {
                    name: "age",
                    privileged: GroupPredicate::num("age", CmpOp::Gt, 25.0),
                    privileged_description: "older than 25",
                },
                SensitiveAttribute {
                    name: "sex",
                    privileged: GroupPredicate::cat("sex", CmpOp::Eq, "male"),
                    privileged_description: "male",
                },
            ],
            has_intersectional: true,
        }
    }

    #[test]
    fn error_type_names() {
        assert_eq!(ErrorType::MissingValues.name(), "missing_values");
        assert_eq!(ErrorType::all().len(), 3);
        assert_eq!(ErrorType::Outliers.to_string(), "outliers");
    }

    #[test]
    fn single_attribute_specs_cover_all_attributes() {
        let spec = demo_spec();
        let specs = spec.single_attribute_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label(), "age");
        assert_eq!(specs[1].label(), "sex");
    }

    #[test]
    fn intersectional_spec_combines_first_two() {
        let spec = demo_spec();
        let inter = spec.intersectional_spec().unwrap();
        assert_eq!(inter.label(), "age*sex");
        let mut single_only = demo_spec();
        single_only.has_intersectional = false;
        assert!(single_only.intersectional_spec().is_none());
        let mut one_attr = demo_spec();
        one_attr.sensitive_attributes.truncate(1);
        assert!(one_attr.intersectional_spec().is_none());
    }

    #[test]
    fn lookup_and_error_membership() {
        let spec = demo_spec();
        assert!(spec.has_error_type(ErrorType::Outliers));
        assert!(!spec.has_error_type(ErrorType::Mislabels));
    }
}
