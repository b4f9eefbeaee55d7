//! Missing-value detection: flags NULL/NaN cells in every non-dropped
//! column, and any row containing at least one such cell.

use crate::report::{CellFlags, DetectionReport};
use tabular::{ColumnRole, DataFrame};

/// Detects missing values in `frame`.
///
/// Cell flags cover every non-dropped column (features, label and sensitive
/// attributes alike — the paper counts a tuple as erroneous if *any* of its
/// values is missing); the row flags are the per-row disjunction.
pub fn detect(frame: &DataFrame) -> DetectionReport {
    let n = frame.n_rows();
    let mut cell_flags = CellFlags::new(n);
    for (idx, field) in frame.schema().fields().iter().enumerate() {
        if field.role == ColumnRole::Dropped {
            continue;
        }
        let col = frame.column_at(idx);
        if col.missing_count() == 0 {
            continue;
        }
        let flags: Vec<bool> = (0..n).map(|i| col.is_missing(i)).collect();
        cell_flags.insert_column(field.name.clone(), flags);
    }
    DetectionReport {
        detector: "missing_values".to_string(),
        row_flags: cell_flags.any_per_row(),
        cell_flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::ColumnRole;

    #[test]
    fn flags_missing_cells_and_rows() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, f64::NAN, 3.0])
            .categorical("c", ColumnRole::Feature, &[None, Some("a"), Some("b")])
            .build()
            .unwrap();
        let report = detect(&df);
        assert_eq!(report.row_flags, vec![true, true, false]);
        assert_eq!(report.cell_flags.column("x").unwrap(), &[false, true, false]);
        assert_eq!(report.cell_flags.column("c").unwrap(), &[true, false, false]);
        assert_eq!(report.flagged_rows(), 2);
    }

    #[test]
    fn clean_frame_flags_nothing() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0])
            .build()
            .unwrap();
        let report = detect(&df);
        assert_eq!(report.flagged_rows(), 0);
        assert_eq!(report.cell_flags.flagged_cells(), 0);
    }

    #[test]
    fn dropped_columns_are_ignored() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0])
            .numeric("junk", ColumnRole::Dropped, vec![f64::NAN, f64::NAN])
            .build()
            .unwrap();
        let report = detect(&df);
        assert_eq!(report.flagged_rows(), 0);
        assert!(report.cell_flags.column("junk").is_none());
    }

    #[test]
    fn fully_present_columns_are_omitted_from_cell_flags() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0])
            .numeric("y", ColumnRole::Feature, vec![f64::NAN, 2.0])
            .build()
            .unwrap();
        let report = detect(&df);
        assert!(report.cell_flags.column("x").is_none());
        assert!(report.cell_flags.column("y").is_some());
    }
}
