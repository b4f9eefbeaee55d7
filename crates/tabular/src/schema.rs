//! Schema: the typed description of a [`crate::DataFrame`].

use crate::error::TabularError;
use crate::Result;

/// The physical kind of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// 64-bit float storage, `NaN` encodes a missing value.
    Numeric,
    /// Dictionary-encoded strings, `None` encodes a missing value.
    Categorical,
}

/// The role a column plays in the learning task.
///
/// Mirrors the declarative dataset definitions of the paper (Listing 1):
/// `drop_variables` become [`ColumnRole::Dropped`], the `label` becomes
/// [`ColumnRole::Label`], sensitive attributes used for group definitions
/// become [`ColumnRole::Sensitive`] (and are also hidden from the
/// classifier), and everything else is a [`ColumnRole::Feature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnRole {
    /// Input to the classifier.
    Feature,
    /// The binary prediction target (stored as numeric 0.0 / 1.0).
    Label,
    /// Sensitive attribute: used for fairness groups, hidden from models.
    Sensitive,
    /// Present in the data but excluded from both features and groups.
    Dropped,
}

/// Name, kind and role of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMeta {
    /// Column name (unique within a schema).
    pub name: String,
    /// Physical kind.
    pub kind: ColumnKind,
    /// Role in the task.
    pub role: ColumnRole,
}

impl FieldMeta {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: ColumnKind, role: ColumnRole) -> Self {
        FieldMeta { name: name.into(), kind, role }
    }
}

/// An ordered collection of [`FieldMeta`] with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<FieldMeta>,
}

impl Schema {
    /// Builds a schema, validating name uniqueness.
    pub fn new(fields: Vec<FieldMeta>) -> Result<Self> {
        let mut seen = std::collections::HashSet::with_capacity(fields.len());
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(TabularError::Parse(format!("duplicate column name '{}'", f.name)));
            }
        }
        drop(seen);
        Ok(Schema { fields })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[FieldMeta] {
        &self.fields
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| TabularError::UnknownColumn(name.to_string()))
    }

    /// Field metadata by name.
    pub fn field(&self, name: &str) -> Result<&FieldMeta> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// The unique label column, if any.
    pub fn label(&self) -> Option<&FieldMeta> {
        self.fields.iter().find(|f| f.role == ColumnRole::Label)
    }

    /// Changes the role of a named column in place.
    pub fn set_role(&mut self, name: &str, role: ColumnRole) -> Result<()> {
        let idx = self.index_of(name)?;
        self.fields[idx].role = role;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            FieldMeta::new("age", ColumnKind::Numeric, ColumnRole::Sensitive),
            FieldMeta::new("income", ColumnKind::Numeric, ColumnRole::Feature),
            FieldMeta::new("job", ColumnKind::Categorical, ColumnRole::Feature),
            FieldMeta::new("credit", ColumnKind::Numeric, ColumnRole::Label),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_field_lookup() {
        let s = demo_schema();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("job").unwrap(), 2);
        assert_eq!(s.field("age").unwrap().role, ColumnRole::Sensitive);
        assert!(matches!(s.index_of("nope"), Err(TabularError::UnknownColumn(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            FieldMeta::new("x", ColumnKind::Numeric, ColumnRole::Feature),
            FieldMeta::new("x", ColumnKind::Numeric, ColumnRole::Feature),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn role_queries() {
        let s = demo_schema();
        assert_eq!(s.label().unwrap().name, "credit");
    }

    #[test]
    fn set_role_changes_role() {
        let mut s = demo_schema();
        s.set_role("income", ColumnRole::Dropped).unwrap();
        assert_eq!(s.field("income").unwrap().role, ColumnRole::Dropped);
        assert!(s.set_role("nope", ColumnRole::Feature).is_err());
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert!(s.label().is_none());
    }
}
