//! Minimal CSV serialisation for [`DataFrame`]s.
//!
//! Supports quoted fields, embedded commas/quotes/newlines (a quoted
//! field may span CRLF line breaks), a final record without a trailing
//! newline, and an unquoted empty field as a missing value — a present
//! empty label is written quoted, `""`, so it reads back present. Enough
//! to persist and reload the synthetic study datasets and to export
//! results for external analysis.

use crate::column::{CatColumn, Column};
use crate::error::TabularError;
use crate::frame::DataFrame;
use crate::schema::{ColumnKind, ColumnRole, FieldMeta, Schema};
use crate::Result;
use std::io::{BufRead, BufWriter, Write};

/// An empty string is quoted too: unquoted, it would read back missing.
fn needs_quoting(s: &str) -> bool {
    s.is_empty() || s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn write_field(out: &mut String, s: &str) {
    if needs_quoting(s) {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Serialises a frame to CSV text. Missing values serialise as empty fields.
pub fn to_csv_string(frame: &DataFrame) -> String {
    let mut out = String::new();
    for (i, field) in frame.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, &field.name);
    }
    out.push('\n');
    let mut buf = String::new();
    for row in 0..frame.n_rows() {
        buf.clear();
        for (i, field) in frame.schema().fields().iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            match frame.column_at(i) {
                Column::Numeric(v) => {
                    if !v[row].is_nan() {
                        buf.push_str(&format!("{}", v[row]));
                    }
                }
                Column::Categorical(c) => {
                    if let Some(label) = c.label(row) {
                        write_field(&mut buf, label);
                    }
                }
            }
            let _ = field;
        }
        out.push_str(&buf);
        out.push('\n');
    }
    out
}

/// Writes a frame to a writer as CSV.
pub fn write_csv<W: Write>(frame: &DataFrame, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(to_csv_string(frame).as_bytes())?;
    w.flush()
}

/// Splits CSV text into records, honouring double quotes so a quoted
/// field may contain embedded LF/CRLF. Record terminators are `\n` or
/// `\r\n` (the `\r` is stripped); a final record without a trailing
/// newline is kept. Quote-parity tracking treats the `""` escape as two
/// toggles, which nets out to "still quoted" — exactly right for finding
/// record boundaries (stray-quote errors are left to [`split_line`]).
fn split_records(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut start = 0usize;
    let mut in_quotes = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                records.push(&text[start..end]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < bytes.len() {
        let mut end = bytes.len();
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        records.push(&text[start..end]);
    }
    records
}

/// Splits one CSV record into fields, honouring double quotes. An
/// unquoted empty field is `None`, a missing value; a quoted one, `""`,
/// is a present empty string.
fn split_line(line: &str) -> Result<Vec<Option<String>>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    let mut quoted = false;
    let field = |cur: &mut String, quoted: bool| {
        (quoted || !cur.is_empty()).then(|| std::mem::take(cur))
    };
    while let Some(ch) = chars.next() {
        if in_quotes {
            if ch == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(ch);
            }
        } else {
            match ch {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                        quoted = true;
                    } else {
                        return Err(TabularError::Parse(format!("stray quote in line: {line}")));
                    }
                }
                ',' => {
                    fields.push(field(&mut cur, quoted));
                    quoted = false;
                }
                _ => cur.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(TabularError::Parse(format!("unterminated quote in line: {line}")));
    }
    fields.push(field(&mut cur, quoted));
    Ok(fields)
}

/// Parses CSV text into a frame using an explicit schema.
///
/// The header must match the schema's column names (in order). Unquoted
/// empty fields become missing values, and so does any empty numeric
/// field. Numeric fields must parse as `f64`.
pub fn from_csv_str(text: &str, schema: Schema) -> Result<DataFrame> {
    let records = split_records(text);
    let mut lines = records.into_iter();
    let header = lines.next().ok_or_else(|| TabularError::Parse("empty CSV".to_string()))?;
    let header_fields = split_line(header)?;
    if header_fields.len() != schema.len() {
        return Err(TabularError::Parse(format!(
            "header has {} columns, schema has {}",
            header_fields.len(),
            schema.len()
        )));
    }
    for (h, f) in header_fields.iter().zip(schema.fields()) {
        let h = h.as_deref().unwrap_or_default();
        if h != f.name {
            return Err(TabularError::Parse(format!(
                "header column '{h}' does not match schema column '{}'",
                f.name
            )));
        }
    }
    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| match f.kind {
            ColumnKind::Numeric => Column::Numeric(Vec::new()),
            ColumnKind::Categorical => Column::Categorical(CatColumn::with_categories(Vec::new())),
        })
        .collect();
    for (line_no, line) in lines.enumerate() {
        // An empty line is a blank separator for multi-column schemas, but
        // for a single-column schema it is a legitimate row holding one
        // missing value.
        if line.is_empty() && schema.len() != 1 {
            continue;
        }
        let fields = split_line(line)?;
        if fields.len() != schema.len() {
            return Err(TabularError::Parse(format!(
                "row {} has {} fields, expected {}",
                line_no + 2,
                fields.len(),
                schema.len()
            )));
        }
        for (value, col) in fields.iter().zip(columns.iter_mut()) {
            match (col, value.as_deref()) {
                (Column::Numeric(v), None | Some("")) => v.push(f64::NAN),
                (Column::Numeric(v), Some(value)) => {
                    let parsed = value.parse::<f64>().map_err(|_| {
                        TabularError::Parse(format!("bad numeric value '{value}'"))
                    })?;
                    v.push(parsed);
                }
                (Column::Categorical(c), None) => c.push_missing(),
                (Column::Categorical(c), Some(label)) => c.push_label(label),
            }
        }
    }
    DataFrame::new(schema, columns)
}

/// Reads a frame from any buffered reader.
pub fn read_csv<R: BufRead>(mut reader: R, schema: Schema) -> Result<DataFrame> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| TabularError::Parse(format!("io error: {e}")))?;
    from_csv_str(&text, schema)
}

/// Infers a schema from CSV text: columns whose non-empty values all parse
/// as `f64` become numeric, everything else categorical; all roles are
/// [`ColumnRole::Feature`].
pub fn infer_schema(text: &str) -> Result<Schema> {
    let records = split_records(text);
    let mut lines = records.into_iter();
    let header = lines.next().ok_or_else(|| TabularError::Parse("empty CSV".to_string()))?;
    let names: Vec<String> =
        split_line(header)?.into_iter().map(Option::unwrap_or_default).collect();
    let mut numeric = vec![true; names.len()];
    let mut any_value = vec![false; names.len()];
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let fields = split_line(line)?;
        for (i, value) in fields.iter().enumerate().take(names.len()) {
            let Some(value) = value.as_deref().filter(|v| !v.is_empty()) else {
                continue;
            };
            any_value[i] = true;
            if value.parse::<f64>().is_err() {
                numeric[i] = false;
            }
        }
    }
    let fields = names
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let kind = if numeric[i] && any_value[i] {
                ColumnKind::Numeric
            } else {
                ColumnKind::Categorical
            };
            FieldMeta::new(name, kind, ColumnRole::Feature)
        })
        .collect();
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_frame() -> DataFrame {
        DataFrame::builder()
            .numeric("age", ColumnRole::Feature, vec![25.0, f64::NAN, 31.5])
            .categorical("job", ColumnRole::Feature, &[Some("a,b"), None, Some("say \"hi\"")])
            .numeric("y", ColumnRole::Label, vec![1.0, 0.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_frame() {
        let df = demo_frame();
        let text = to_csv_string(&df);
        let back = from_csv_str(&text, df.schema().clone()).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.numeric("age").unwrap()[0], 25.0);
        assert!(back.numeric("age").unwrap()[1].is_nan());
        assert_eq!(back.categorical("job").unwrap().label(0), Some("a,b"));
        assert_eq!(back.categorical("job").unwrap().label(1), None);
        assert_eq!(back.categorical("job").unwrap().label(2), Some("say \"hi\""));
        assert_eq!(back.labels().unwrap(), vec![1, 0, 1]);
    }

    #[test]
    fn quoting_rules() {
        let mut out = String::new();
        write_field(&mut out, "plain");
        assert_eq!(out, "plain");
        out.clear();
        write_field(&mut out, "a,b");
        assert_eq!(out, "\"a,b\"");
        out.clear();
        write_field(&mut out, "q\"q");
        assert_eq!(out, "\"q\"\"q\"");
    }

    #[test]
    fn split_line_handles_quotes() {
        let fields = |line| -> Vec<Option<String>> { split_line(line).unwrap() };
        let some = |s: &str| Some(s.to_string());
        assert_eq!(fields("a,b,c"), vec![some("a"), some("b"), some("c")]);
        assert_eq!(fields("\"a,b\",c"), vec![some("a,b"), some("c")]);
        assert_eq!(fields("\"x\"\"y\""), vec![some("x\"y")]);
        // Unquoted empty is missing; quoted empty is a present "".
        assert_eq!(fields("a,,c"), vec![some("a"), None, some("c")]);
        assert_eq!(fields("\"\",,\"\""), vec![some(""), None, some("")]);
        assert!(split_line("\"open").is_err());
    }

    #[test]
    fn header_mismatch_rejected() {
        let df = demo_frame();
        let text = to_csv_string(&df);
        let wrong = Schema::new(vec![
            FieldMeta::new("xx", ColumnKind::Numeric, ColumnRole::Feature),
            FieldMeta::new("job", ColumnKind::Categorical, ColumnRole::Feature),
            FieldMeta::new("y", ColumnKind::Numeric, ColumnRole::Label),
        ])
        .unwrap();
        assert!(from_csv_str(&text, wrong).is_err());
    }

    #[test]
    fn bad_numeric_value_rejected() {
        let schema = Schema::new(vec![FieldMeta::new("x", ColumnKind::Numeric, ColumnRole::Feature)])
            .unwrap();
        assert!(from_csv_str("x\nhello\n", schema).is_err());
    }

    #[test]
    fn infer_schema_detects_kinds() {
        let text = "a,b,c\n1.5,x,\n2,y,3\n";
        let schema = infer_schema(text).unwrap();
        assert_eq!(schema.field("a").unwrap().kind, ColumnKind::Numeric);
        assert_eq!(schema.field("b").unwrap().kind, ColumnKind::Categorical);
        assert_eq!(schema.field("c").unwrap().kind, ColumnKind::Numeric);
        let df = from_csv_str(text, schema).unwrap();
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn empty_csv_is_an_error() {
        assert!(from_csv_str("", Schema::default()).is_err());
        assert!(infer_schema("").is_err());
    }

    #[test]
    fn split_records_honours_quotes_and_terminators() {
        assert_eq!(split_records("a\nb\n"), vec!["a", "b"]);
        assert_eq!(split_records("a\r\nb\r\n"), vec!["a", "b"]);
        // A quoted field spanning LF and CRLF stays one record.
        assert_eq!(split_records("\"x\ny\",z\nq\n"), vec!["\"x\ny\",z", "q"]);
        assert_eq!(split_records("\"x\r\ny\"\nq"), vec!["\"x\r\ny\"", "q"]);
        // Final record without a trailing newline is kept.
        assert_eq!(split_records("a\nb"), vec!["a", "b"]);
    }

    #[test]
    fn quoted_field_with_embedded_crlf_parses() {
        let text = "id,note,y\n1,\"line one\r\nline two\",0\r\n2,plain,1\r\n";
        let schema = Schema::new(vec![
            FieldMeta::new("id", ColumnKind::Numeric, ColumnRole::Feature),
            FieldMeta::new("note", ColumnKind::Categorical, ColumnRole::Feature),
            FieldMeta::new("y", ColumnKind::Numeric, ColumnRole::Label),
        ])
        .unwrap();
        let df = from_csv_str(text, schema).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.categorical("note").unwrap().label(0), Some("line one\r\nline two"));
        assert_eq!(df.categorical("note").unwrap().label(1), Some("plain"));

        // Schema inference must agree with explicit parsing.
        let inferred = infer_schema(text).unwrap();
        assert_eq!(inferred.field("id").unwrap().kind, ColumnKind::Numeric);
        assert_eq!(inferred.field("note").unwrap().kind, ColumnKind::Categorical);

        // And a frame holding such a field must survive a round trip.
        let df2 = DataFrame::builder()
            .categorical("memo", ColumnRole::Feature, &[Some("a\r\nb"), Some("c")])
            .numeric("y", ColumnRole::Label, vec![1.0, 0.0])
            .build()
            .unwrap();
        let back = from_csv_str(&to_csv_string(&df2), df2.schema().clone()).unwrap();
        assert_eq!(back.categorical("memo").unwrap().label(0), Some("a\r\nb"));
    }

    #[test]
    fn final_record_without_trailing_newline_parses() {
        let schema = Schema::new(vec![
            FieldMeta::new("x", ColumnKind::Numeric, ColumnRole::Feature),
            FieldMeta::new("y", ColumnKind::Numeric, ColumnRole::Label),
        ])
        .unwrap();
        let df = from_csv_str("x,y\n1,0\n2,1", schema.clone()).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.numeric("x").unwrap()[1], 2.0);
        // CRLF variant, also unterminated.
        let df = from_csv_str("x,y\r\n1,0\r\n2,1", schema).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.labels().unwrap(), vec![0, 1]);
    }
}
