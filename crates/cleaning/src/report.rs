//! Detection reports: which rows (and which cells) a detector flagged.

use std::collections::BTreeMap;

/// Per-cell flags, keyed by column name. Only columns a detector inspects
/// appear (e.g. univariate outlier detectors only flag numeric feature
/// columns).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellFlags {
    by_column: BTreeMap<String, Vec<bool>>,
    n_rows: usize,
}

impl CellFlags {
    /// Creates empty flags for `n_rows` rows.
    pub fn new(n_rows: usize) -> Self {
        CellFlags { by_column: BTreeMap::new(), n_rows }
    }

    /// Number of rows covered.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Inserts the flag vector for one column.
    ///
    /// Panics if the length disagrees with `n_rows`.
    pub fn insert_column(&mut self, name: impl Into<String>, flags: Vec<bool>) {
        assert_eq!(flags.len(), self.n_rows, "flag length mismatch");
        self.by_column.insert(name.into(), flags);
    }

    /// Flags for one column, if tracked.
    pub fn column(&self, name: &str) -> Option<&[bool]> {
        self.by_column.get(name).map(Vec::as_slice)
    }

    /// Iterates over `(column, flags)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[bool])> {
        self.by_column.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of flagged cells across all columns.
    // lint:allow(U001, missing_detection_counts_match_frame and the report tests count with it)
    pub fn flagged_cells(&self) -> usize {
        self.by_column.values().map(|v| v.iter().filter(|&&b| b).count()).sum()
    }

    /// Per-row mask: true where any tracked column flags the row.
    pub fn any_per_row(&self) -> Vec<bool> {
        let mut out = vec![false; self.n_rows];
        for flags in self.by_column.values() {
            for (slot, &f) in out.iter_mut().zip(flags) {
                *slot |= f;
            }
        }
        out
    }
}

/// The result of running a fitted detector on a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionReport {
    /// Human-readable detector name (paper naming: `missing_values`,
    /// `outliers-sd`, `outliers-iqr`, `outliers-if`, `mislabels`).
    pub detector: String,
    /// True for rows considered erroneous.
    pub row_flags: Vec<bool>,
    /// Cell-level flags where the detector is cell-granular.
    pub cell_flags: CellFlags,
}

impl DetectionReport {
    /// Number of flagged rows.
    pub fn flagged_rows(&self) -> usize {
        self.row_flags.iter().filter(|&&b| b).count()
    }

    /// Fraction of flagged rows (0 for an empty frame).
    pub fn flagged_fraction(&self) -> f64 {
        if self.row_flags.is_empty() {
            0.0
        } else {
            self.flagged_rows() as f64 / self.row_flags.len() as f64
        }
    }

    /// Counts flagged/unflagged rows within a membership mask, producing
    /// the 2×2 contingency row the RQ1 G² test needs:
    /// `(flagged_in_mask, unflagged_in_mask)`.
    pub fn counts_within(&self, mask: &[bool]) -> (u64, u64) {
        assert_eq!(mask.len(), self.row_flags.len(), "mask length mismatch");
        let mut flagged = 0;
        let mut unflagged = 0;
        for (&f, &m) in self.row_flags.iter().zip(mask) {
            if m {
                if f {
                    flagged += 1;
                } else {
                    unflagged += 1;
                }
            }
        }
        (flagged, unflagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_flags_aggregate_per_row() {
        let mut cf = CellFlags::new(3);
        cf.insert_column("a", vec![true, false, false]);
        cf.insert_column("b", vec![false, false, true]);
        assert_eq!(cf.any_per_row(), vec![true, false, true]);
        assert_eq!(cf.flagged_cells(), 2);
        assert_eq!(cf.column("a").unwrap(), &[true, false, false]);
        assert!(cf.column("zz").is_none());
        assert_eq!(cf.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "flag length mismatch")]
    fn wrong_length_panics() {
        CellFlags::new(2).insert_column("a", vec![true]);
    }

    #[test]
    fn report_fraction_and_counts() {
        let report = DetectionReport {
            detector: "missing_values".to_string(),
            row_flags: vec![true, false, true, false],
            cell_flags: CellFlags::new(4),
        };
        assert_eq!(report.flagged_rows(), 2);
        assert!((report.flagged_fraction() - 0.5).abs() < 1e-12);
        let (f, u) = report.counts_within(&[true, true, false, false]);
        assert_eq!((f, u), (1, 1));
    }

    #[test]
    fn empty_report() {
        let report = DetectionReport {
            detector: "x".to_string(),
            row_flags: vec![],
            cell_flags: CellFlags::new(0),
        };
        assert_eq!(report.flagged_fraction(), 0.0);
    }
}
