//! Overall accuracy over hard predictions.
//!
//! The experimentation framework computes *group-wise* confusion matrices
//! and the fairness metrics read from them in the `fairness` crate; the
//! accuracy here serves model selection and the overall accuracy column.

/// Plain accuracy over hard predictions: the share of rows whose labels
/// are both 0 or both non-zero (0.0 for an empty input).
///
/// Panics on a length mismatch.
pub fn accuracy(y_true: &[u8], y_pred: &[u8]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "prediction length mismatch");
    if y_true.is_empty() {
        return 0.0;
    }
    let hits = y_true.iter().zip(y_pred).filter(|&(&t, &p)| (t == 0) == (p == 0)).count();
    hits as f64 / y_true.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_agreeing_rows() {
        assert!((accuracy(&[0, 0, 1, 1, 1], &[0, 1, 1, 0, 1]) - 0.6).abs() < 1e-12);
        // Every non-zero label is the positive class.
        assert_eq!(accuracy(&[0, 2, 1], &[0, 1, 3]), 1.0);
        assert_eq!(accuracy(&[0, 0], &[0, 0]), 1.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
