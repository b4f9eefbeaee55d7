//! JSON rows ⇄ tabular data against a reference schema.
//!
//! Incoming rows are JSON objects keyed by column name. The reference
//! schema (the serving model's training frame) decides each column's kind
//! and role. One cell rule, [`type_cell`], types every cell, whichever
//! decoder reads it:
//!
//! * [`frame_from_rows`] builds a [`DataFrame`] from a `Value` tree, for
//!   `/v1/clean` and `/v1/audit`, whose detectors, repairs and group
//!   specs consume frames;
//! * [`RowPlan::decode_rows`] reads `/v1/predict` rows straight from the
//!   request bytes into the rows of the matrix their model scores, with
//!   no tree and no frame in between.

use demodq::serving::ServingModel;
use fairness::GroupSpec;
use serde_json::{Event, Number, Reader, Value};
use tabular::{
    Cell, ColumnKind, ColumnRole, DataFrame, DenseMatrix, FeatureEncoder, FieldMeta, RowCell,
    Schema,
};

/// A client-input problem that should surface as a 400, not a panic.
pub type CodecError = String;

/// A JSON value as the cell rule sees it: a scalar with its content, or
/// the kind of a container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scalar<'a> {
    /// `null`, or an absent key.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    Str(&'a str),
    /// An array.
    Array,
    /// An object.
    Object,
}

impl<'a> Scalar<'a> {
    /// The scalar view of a tree value.
    pub(crate) fn of_value(value: &'a Value) -> Scalar<'a> {
        match value {
            Value::Null => Scalar::Null,
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Number(n) => Scalar::Number(*n),
            Value::String(s) => Scalar::Str(s),
            Value::Array(_) => Scalar::Array,
            Value::Object(_) => Scalar::Object,
        }
    }

    /// The scalar view of a value's first reader event; `None` for an
    /// event that starts no value (a key or a closer).
    pub(crate) fn of_event(event: Event<'a>) -> Option<Scalar<'a>> {
        Some(match event {
            Event::Null => Scalar::Null,
            Event::Bool(b) => Scalar::Bool(b),
            Event::Number(n) => Scalar::Number(n),
            Event::Str(s) => Scalar::Str(s),
            Event::StartArray => Scalar::Array,
            Event::StartObject => Scalar::Object,
            Event::Key(_) | Event::EndArray | Event::EndObject => return None,
        })
    }

    /// How a reply names the value's kind.
    fn kind(self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "a boolean",
            Scalar::Number(_) => "a number",
            Scalar::Str(_) => "a string",
            Scalar::Array => "an array",
            Scalar::Object => "an object",
        }
    }
}

/// A cell typed by its column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Typed<'a> {
    /// Missing (`null` or absent).
    Missing,
    /// A numeric value; exactly 0 or 1 in a label column.
    Num(f64),
    /// A categorical value.
    Str(&'a str),
}

/// Why [`type_cell`] rejected a cell; [`CellFault::message`] renders it
/// for the 400 reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellFault {
    /// What the column accepts; `None` for a required label that is
    /// missing.
    expected: Option<&'static str>,
    /// The kind of value it got.
    got: &'static str,
}

impl CellFault {
    /// The reply message for this fault at `row` of `column`.
    pub(crate) fn message(&self, row: usize, column: &str) -> String {
        match self.expected {
            Some(expected) => {
                format!("row {row} column {column:?} expects {expected}, got {}", self.got)
            }
            None => format!("row {row} is missing the required label column {column:?}"),
        }
    }
}

const LABEL_VALUES: &str = "a label of 0, 1, true or false";

/// The cell rule both decoders share: types `value` for `field`.
///
/// * a numeric column takes a number, or a boolean as 1 / 0;
/// * a numeric label takes only 0, 1, `true` or `false`: any other
///   number would otherwise count as a positive wherever labels are
///   read as "nonzero";
/// * a categorical column takes a string;
/// * `null`, or an absent key (pass [`Scalar::Null`]), is missing —
///   except for the label when `require_label` is set.
pub(crate) fn type_cell<'a>(
    field: &FieldMeta,
    value: Scalar<'a>,
    require_label: bool,
) -> Result<Typed<'a>, CellFault> {
    let is_label = field.role == ColumnRole::Label;
    let fault = |expected: &'static str| CellFault { expected: Some(expected), got: value.kind() };
    let typed = match (field.kind, value) {
        (_, Scalar::Null) => Typed::Missing,
        (ColumnKind::Numeric, Scalar::Bool(b)) => Typed::Num(f64::from(u8::from(b))),
        (ColumnKind::Numeric, Scalar::Number(n)) if is_label => match n.as_u64() {
            Some(0) => Typed::Num(0.0),
            Some(1) => Typed::Num(1.0),
            _ => return Err(fault(LABEL_VALUES)),
        },
        (ColumnKind::Numeric, Scalar::Number(n)) => Typed::Num(n.as_f64()),
        (ColumnKind::Numeric, _) => {
            return Err(fault(if is_label { LABEL_VALUES } else { "a number" }))
        }
        (ColumnKind::Categorical, Scalar::Str(s)) => Typed::Str(s),
        (ColumnKind::Categorical, _) => return Err(fault("a string")),
    };
    if is_label && require_label && typed == Typed::Missing {
        return Err(CellFault { expected: None, got: value.kind() });
    }
    Ok(typed)
}

/// The 400 message for a key the schema does not have.
fn unknown_column<'n>(names: impl Iterator<Item = &'n str>, row: usize, key: &str) -> CodecError {
    format!(
        "row {row} has unknown column {key:?}; expected columns: {}",
        names.collect::<Vec<_>>().join(", ")
    )
}

/// Builds a frame from JSON `rows` following `reference`.
///
/// Every row must be a JSON object; unknown keys are rejected (typos
/// would otherwise silently read as missing values). Cells are typed by
/// [`type_cell`]; with `require_label` set, every row needs a label (the
/// audit endpoint needs ground truth).
pub fn frame_from_rows(
    reference: &Schema,
    rows: &[Value],
    require_label: bool,
) -> Result<DataFrame, CodecError> {
    if rows.is_empty() {
        return Err("rows must be a non-empty array".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let object = row
            .as_object()
            .ok_or_else(|| format!("row {i} is not a JSON object"))?;
        if let Some(unknown) = object.keys().find(|k| reference.index_of(k).is_err()) {
            let names = reference.fields().iter().map(|f| f.name.as_str());
            return Err(unknown_column(names, i, unknown));
        }
    }

    let mut builder = DataFrame::builder();
    for field in reference.fields() {
        let mut cells = rows.iter().enumerate().map(|(i, row)| {
            let value = row.get(&field.name).map_or(Scalar::Null, Scalar::of_value);
            type_cell(field, value, require_label).map_err(|f| f.message(i, &field.name))
        });
        builder = match field.kind {
            ColumnKind::Numeric => {
                let data = cells.try_fold(Vec::with_capacity(rows.len()), |mut data, cell| {
                    data.push(match cell? {
                        Typed::Num(x) => x,
                        _ => f64::NAN,
                    });
                    Ok::<_, CodecError>(data)
                })?;
                builder.numeric(field.name.clone(), field.role, data)
            }
            ColumnKind::Categorical => {
                let labels = cells.try_fold(Vec::with_capacity(rows.len()), |mut labels, cell| {
                    labels.push(match cell? {
                        Typed::Str(s) => Some(s),
                        _ => None,
                    });
                    Ok::<_, CodecError>(labels)
                })?;
                builder.categorical(field.name.clone(), field.role, &labels)
            }
        };
    }
    builder.build().map_err(|e| format!("could not assemble frame: {e}"))
}

/// One cell as a JSON value (`null` = missing).
pub fn cell_to_json(frame: &DataFrame, row: usize, column: &str) -> Value {
    match frame.cell(row, column) {
        Ok(Cell::Num(x)) => serde_json::json!(x),
        Ok(Cell::Str(s)) => serde_json::json!(s),
        _ => Value::Null,
    }
}

/// Renders the frame's rows as JSON objects (used by the load generator
/// and the quickstart example to build request bodies).
pub fn rows_from_frame(frame: &DataFrame) -> Vec<Value> {
    let names: Vec<&str> =
        frame.schema().fields().iter().map(|f| f.name.as_str()).collect();
    (0..frame.n_rows())
        .map(|i| {
            let mut object = serde_json::Map::new();
            for name in &names {
                object.insert((*name).to_string(), cell_to_json(frame, i, name));
            }
            Value::Object(object)
        })
        .collect()
}

/// One decoded cell, held in its column's slot until the row ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decoded {
    Missing,
    Num(f64),
    /// Position in the column's category index.
    Cat(usize),
    /// A categorical value outside the index, kept as the byte range of
    /// its text in [`DecodedRows::text`].
    Text(usize, usize),
    /// A cell the rule rejected; reported only if no later duplicate key
    /// replaces it.
    Fault(CellFault),
}

/// One column of a [`RowPlan`].
struct PlanField {
    meta: FieldMeta,
    /// Category index of a categorical column: the encoder's fitted
    /// categories for a feature (a value's position is its one-hot
    /// slot), the training dictionary otherwise.
    categories: Vec<String>,
}

/// How one served model decodes `/v1/predict` rows, compiled once per
/// registry generation: the slot of each field name, a category index
/// per categorical column, and which slots feed the encoder, the label
/// and the group predicates.
pub struct RowPlan {
    /// The reference schema's columns, in schema order; a column's
    /// position is its slot.
    fields: Vec<PlanField>,
    /// Slot of each encoder source column, in encoding order.
    features: Vec<usize>,
    /// Slot of a numeric label column.
    label: Option<usize>,
    /// Slots the group predicates read, in the order first named.
    grouped: Vec<usize>,
    /// Encoded row width.
    n_cols: usize,
}

impl RowPlan {
    /// Compiles the plan of `served` from its training schema, encoder
    /// and group specs.
    pub fn compile(served: &ServingModel) -> tabular::Result<RowPlan> {
        let schema = served.train.schema();
        let mut fields: Vec<PlanField> = schema
            .fields()
            .iter()
            .map(|meta| {
                let categories = match meta.kind {
                    ColumnKind::Categorical => {
                        served.train.categorical(&meta.name).map(|c| c.categories().to_vec())
                    }
                    ColumnKind::Numeric => Ok(Vec::new()),
                };
                categories.map(|categories| PlanField { meta: meta.clone(), categories })
            })
            .collect::<tabular::Result<_>>()?;
        let mut features = Vec::new();
        for (c, name) in served.encoder.feature_columns().into_iter().enumerate() {
            let slot = schema.index_of(name)?;
            if let Some(categories) = served.encoder.categories(c) {
                fields[slot].categories = categories.to_vec();
            }
            features.push(slot);
        }
        let label = schema
            .fields()
            .iter()
            .position(|f| f.role == ColumnRole::Label && f.kind == ColumnKind::Numeric);
        let mut grouped = Vec::new();
        for spec in &served.groups {
            let predicates = match spec {
                GroupSpec::SingleAttribute(p) => std::slice::from_ref(p),
                GroupSpec::Intersectional(ps) => ps.as_slice(),
            };
            for p in predicates {
                // An attribute the schema lacks reads as missing.
                let Ok(slot) = schema.index_of(&p.attribute) else { continue };
                if !grouped.contains(&slot) {
                    grouped.push(slot);
                }
            }
        }
        Ok(RowPlan { fields, features, label, grouped, n_cols: served.encoder.n_output_cols() })
    }

    fn slot_of(&self, key: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.meta.name == key)
    }

    /// Decodes the rows of one request — `rows` holds the bytes of its
    /// `"row"` object (`single`) or its `"rows"` array, already checked
    /// to be valid JSON — and encodes each as the next row of `out`.
    /// Returns how many rows held a category the encoder never saw. On
    /// a 400-worthy fault, `out` is left as it was.
    pub fn decode_rows(
        &self,
        encoder: &FeatureEncoder,
        rows: &[u8],
        single: bool,
        out: &mut DecodedRows,
    ) -> Result<u64, CodecError> {
        let mark = (out.x.len(), out.labels.len(), out.groups.len());
        let decoded = self.decode_into(encoder, rows, single, out);
        if decoded.is_err() {
            out.x.truncate(mark.0);
            out.labels.truncate(mark.1);
            out.groups.truncate(mark.2);
        }
        decoded
    }

    fn decode_into(
        &self,
        encoder: &FeatureEncoder,
        rows: &[u8],
        single: bool,
        out: &mut DecodedRows,
    ) -> Result<u64, CodecError> {
        let mut reader = Reader::new(rows);
        let first = reader.next_event().map_err(malformed)?;
        if single {
            if first != Some(Event::StartObject) {
                return Err("row 0 is not a JSON object".to_string());
            }
            return self.decode_row(encoder, &mut reader, 0, out).map(u64::from);
        }
        if first != Some(Event::StartArray) {
            return Err("\"rows\" must be an array of objects".to_string());
        }
        let mut unseen_rows = 0u64;
        let mut row = 0usize;
        loop {
            match reader.next_event().map_err(malformed)? {
                None | Some(Event::EndArray) => break,
                Some(Event::StartObject) => {
                    unseen_rows += u64::from(self.decode_row(encoder, &mut reader, row, out)?);
                }
                Some(_) => return Err(format!("row {row} is not a JSON object")),
            }
            row += 1;
        }
        if row == 0 {
            return Err("rows must be a non-empty array".to_string());
        }
        Ok(unseen_rows)
    }

    /// Decodes one row object, its `StartObject` already read, and
    /// appends it to `out`. Returns whether it held an unseen category.
    fn decode_row(
        &self,
        encoder: &FeatureEncoder,
        reader: &mut Reader<'_>,
        row: usize,
        out: &mut DecodedRows,
    ) -> Result<bool, CodecError> {
        let slots = &mut out.slots;
        slots.clear();
        slots.resize(self.fields.len(), Decoded::Missing);
        // Keys are typed as they arrive; a duplicate key overwrites its
        // slot, so the last one wins, as in a `Value` tree.
        while let Some(Event::Key(key)) = reader.next_event().map_err(malformed)? {
            let Some(slot) = self.slot_of(key) else {
                let names = self.fields.iter().map(|f| f.meta.name.as_str());
                return Err(unknown_column(names, row, key));
            };
            let event = reader.next_event().map_err(malformed)?;
            let opens = matches!(event, Some(Event::StartObject | Event::StartArray));
            let value = event.and_then(Scalar::of_event).unwrap_or(Scalar::Null);
            let field = &self.fields[slot];
            slots[slot] = match type_cell(&field.meta, value, false) {
                Ok(Typed::Missing) => Decoded::Missing,
                Ok(Typed::Num(x)) => Decoded::Num(x),
                Ok(Typed::Str(s)) => match field.categories.iter().position(|c| c == s) {
                    Some(k) => Decoded::Cat(k),
                    None => {
                        let start = out.text.len();
                        out.text.push_str(s);
                        Decoded::Text(start, out.text.len())
                    }
                },
                Err(fault) => Decoded::Fault(fault),
            };
            if opens {
                reader.skip_container().map_err(malformed)?;
            }
        }
        for (slot, cell) in slots.iter().enumerate() {
            if let Decoded::Fault(fault) = cell {
                return Err(fault.message(row, &self.fields[slot].meta.name));
            }
        }

        let start = out.x.len();
        out.x.resize(start + self.n_cols, 0.0);
        let unseen = encoder.encode_row(
            |c| match slots[self.features[c]] {
                Decoded::Num(x) => RowCell::Num(x),
                Decoded::Cat(k) => RowCell::Category(k),
                Decoded::Text(..) => RowCell::Unseen,
                Decoded::Missing | Decoded::Fault(_) => RowCell::Missing,
            },
            &mut out.x[start..],
        );
        out.labels.push(self.label.and_then(|slot| match slots[slot] {
            Decoded::Num(x) => Some(u8::from(x > 0.5)),
            _ => None,
        }));
        out.groups.extend(self.grouped.iter().map(|&slot| slots[slot]));
        Ok(unseen)
    }

    /// Row `row` of `rows`' value of `attribute`, as the group predicates
    /// read it; missing when no predicate of the plan names it.
    pub fn group_cell<'s>(&'s self, rows: &'s DecodedRows, row: usize, attribute: &str) -> Cell<'s> {
        let Some(k) = self.grouped.iter().position(|&slot| self.fields[slot].meta.name == attribute)
        else {
            return Cell::Missing;
        };
        let slot = self.grouped[k];
        match rows.groups[row * self.grouped.len() + k] {
            Decoded::Num(x) => Cell::Num(x),
            Decoded::Cat(c) => Cell::Str(&self.fields[slot].categories[c]),
            Decoded::Text(a, b) => Cell::Str(&rows.text[a..b]),
            Decoded::Missing | Decoded::Fault(_) => Cell::Missing,
        }
    }
}

/// The reader error of a body that `route_or_defer` already validated:
/// unreachable unless the bytes changed in between.
fn malformed(e: serde_json::Error) -> CodecError {
    format!("invalid JSON body: {e}")
}

/// The rows one served model scores in a micro-batch, as
/// [`RowPlan::decode_rows`] leaves them: the encoded feature rows, and
/// each row's label and group-predicate cells for the drift windows.
#[derive(Default)]
pub struct DecodedRows {
    /// Encoded rows, row-major.
    x: Vec<f64>,
    labels: Vec<Option<u8>>,
    /// Each row's cells of the plan's grouped slots.
    groups: Vec<Decoded>,
    /// Text of categorical values outside their column's index.
    text: String,
    /// One row's cells while it is decoded.
    slots: Vec<Decoded>,
}

impl DecodedRows {
    /// Rows decoded so far.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Each row's label: `None` where it was absent or null, or where
    /// the schema has no numeric label.
    pub fn labels(&self) -> &[Option<u8>] {
        &self.labels
    }

    /// Moves the encoded rows out as a matrix; `None` when there are
    /// none.
    pub fn take_matrix(&mut self) -> Option<DenseMatrix> {
        let n = self.n_rows();
        (n > 0).then(|| {
            let x = std::mem::take(&mut self.x);
            DenseMatrix::from_vec(n, x.len() / n, x)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn reference() -> DataFrame {
        DataFrame::builder()
            .numeric("age", ColumnRole::Feature, vec![30.0, 40.0])
            .categorical("job", ColumnRole::Feature, &[Some("a"), Some("b")])
            .categorical("sex", ColumnRole::Sensitive, &[Some("male"), Some("female")])
            .numeric("credit", ColumnRole::Label, vec![1.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn round_trips_rows_through_a_frame() {
        let reference = reference();
        let rows = rows_from_frame(&reference);
        assert_eq!(rows.len(), 2);
        let rebuilt = frame_from_rows(reference.schema(), &rows, true).unwrap();
        assert_eq!(rebuilt.n_rows(), 2);
        assert_eq!(rebuilt.labels().unwrap(), vec![1, 0]);
        assert_eq!(rebuilt.numeric("age").unwrap(), &[30.0, 40.0]);
    }

    #[test]
    fn absent_and_null_values_become_missing() {
        let reference = reference();
        let rows = vec![json!({"job": null, "sex": "male"})];
        let frame = frame_from_rows(reference.schema(), &rows, false).unwrap();
        assert!(frame.numeric("age").unwrap()[0].is_nan());
        assert!(frame.categorical("job").unwrap().label(0).is_none());
    }

    #[test]
    fn unknown_column_is_rejected() {
        let reference = reference();
        let rows = vec![json!({"aeg": 30.0})];
        let err = frame_from_rows(reference.schema(), &rows, false).unwrap_err();
        assert!(err.contains("unknown column \"aeg\""), "{err}");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let reference = reference();
        let err = frame_from_rows(reference.schema(), &[json!({"age": "old"})], false)
            .unwrap_err();
        assert!(err.contains("expects a number"), "{err}");
        let err = frame_from_rows(reference.schema(), &[json!({"job": 3})], false)
            .unwrap_err();
        assert!(err.contains("expects a string"), "{err}");
    }

    #[test]
    fn audit_requires_labels() {
        let reference = reference();
        let rows = vec![json!({"age": 30.0})];
        let err = frame_from_rows(reference.schema(), &rows, true).unwrap_err();
        assert!(err.contains("missing the required label"), "{err}");
        assert!(frame_from_rows(reference.schema(), &rows, false).is_ok());
    }

    #[test]
    fn labels_are_only_zero_one_true_or_false() {
        let reference = reference();
        for (label, want) in [
            (json!(0u64), 0.0),
            (json!(1u64), 1.0),
            (json!(1.0), 1.0),
            (json!(-0.0), 0.0),
            (json!(true), 1.0),
            (json!(false), 0.0),
        ] {
            let rows = vec![json!({"credit": label})];
            for require in [false, true] {
                let frame = frame_from_rows(reference.schema(), &rows, require).unwrap();
                assert_eq!(frame.numeric("credit").unwrap()[0].to_bits(), f64::to_bits(want));
            }
        }
        for label in [json!(0.3), json!(-1i64), json!(2u64), json!("1"), json!([1u64])] {
            let rows = vec![json!({"credit": label})];
            for require in [false, true] {
                let err = frame_from_rows(reference.schema(), &rows, require).unwrap_err();
                assert!(err.contains("column \"credit\" expects a label"), "{label}: {err}");
            }
        }
        // A null label is allowed exactly where the endpoint allows one.
        let rows = vec![json!({"credit": null})];
        assert!(frame_from_rows(reference.schema(), &rows, false).is_ok());
        assert!(frame_from_rows(reference.schema(), &rows, true).is_err());
    }

    #[test]
    fn the_rule_types_numbers_booleans_and_strings() {
        let reference = reference();
        let field = |name: &str| reference.schema().field(name).unwrap().clone();
        let age = field("age");
        assert_eq!(type_cell(&age, Scalar::Bool(true), false), Ok(Typed::Num(1.0)));
        let big = Scalar::Number(Number::U64(u64::MAX));
        assert_eq!(type_cell(&age, big, false), Ok(Typed::Num(u64::MAX as f64)));
        assert_eq!(type_cell(&age, Scalar::Null, true), Ok(Typed::Missing));
        let err = type_cell(&age, Scalar::Object, false).unwrap_err();
        assert_eq!(err.message(2, "age"), "row 2 column \"age\" expects a number, got an object");
        let job = field("job");
        assert_eq!(type_cell(&job, Scalar::Str("a"), false), Ok(Typed::Str("a")));
        assert!(type_cell(&job, Scalar::Bool(false), false).is_err());
    }

    #[test]
    fn non_object_rows_and_empty_batches_are_rejected() {
        let reference = reference();
        assert!(frame_from_rows(reference.schema(), &[], false)
            .unwrap_err()
            .contains("non-empty"));
        assert!(frame_from_rows(reference.schema(), &[json!([1, 2])], false)
            .unwrap_err()
            .contains("not a JSON object"));
    }
}
