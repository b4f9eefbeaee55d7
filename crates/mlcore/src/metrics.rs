//! Classification metrics: confusion matrix, accuracy, precision, recall
//! and F1.
//!
//! The experimentation framework computes *group-wise* confusion matrices
//! (see the `fairness` crate); the scalar metrics here serve the overall
//! accuracy/F1 columns the benchmark reports.

/// Counts of a binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True negatives.
    pub tn: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True positives.
    pub tp: u64,
}

impl ConfusionMatrix {
    /// Tallies predictions against ground truth.
    ///
    /// Panics on a length mismatch; labels must be 0/1.
    pub fn from_predictions(y_true: &[u8], y_pred: &[u8]) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "prediction length mismatch");
        let mut cm = ConfusionMatrix::default();
        for (&t, &p) in y_true.iter().zip(y_pred) {
            match (t, p) {
                (0, 0) => cm.tn += 1,
                (0, _) => cm.fp += 1,
                (_, 0) => cm.fn_ += 1,
                _ => cm.tp += 1,
            }
        }
        cm
    }

    /// Total number of tallied examples.
    pub fn total(&self) -> u64 {
        self.tn + self.fp + self.fn_ + self.tp
    }

    /// Accuracy; `None` when no examples were tallied.
    pub fn accuracy(&self) -> Option<f64> {
        let n = self.total();
        (n > 0).then(|| (self.tp + self.tn) as f64 / n as f64)
    }

    /// Precision (positive predictive value); `None` when no positive
    /// predictions exist.
    pub fn precision(&self) -> Option<f64> {
        let denom = self.tp + self.fp;
        (denom > 0).then(|| self.tp as f64 / denom as f64)
    }

    /// Recall (true positive rate); `None` when no positives exist.
    pub fn recall(&self) -> Option<f64> {
        let denom = self.tp + self.fn_;
        (denom > 0).then(|| self.tp as f64 / denom as f64)
    }

    /// False positive rate; `None` when no negatives exist.
    pub fn false_positive_rate(&self) -> Option<f64> {
        let denom = self.fp + self.tn;
        (denom > 0).then(|| self.fp as f64 / denom as f64)
    }

    /// Selection rate (fraction predicted positive); `None` when empty.
    pub fn selection_rate(&self) -> Option<f64> {
        let n = self.total();
        (n > 0).then(|| (self.tp + self.fp) as f64 / n as f64)
    }

    /// F1 score; `None` when precision or recall are undefined.
    pub fn f1(&self) -> Option<f64> {
        let p = self.precision()?;
        let r = self.recall()?;
        // lint:allow(F001, exact-zero guard: p and r are both exactly 0.0 or the sum is positive)
        if p + r == 0.0 {
            Some(0.0)
        } else {
            Some(2.0 * p * r / (p + r))
        }
    }
}

/// Plain accuracy over hard predictions.
pub fn accuracy(y_true: &[u8], y_pred: &[u8]) -> f64 {
    ConfusionMatrix::from_predictions(y_true, y_pred).accuracy().unwrap_or(0.0)
}

/// F1 over hard predictions (0.0 when undefined).
pub fn f1_score(y_true: &[u8], y_pred: &[u8]) -> f64 {
    ConfusionMatrix::from_predictions(y_true, y_pred).f1().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1, 1, 1], &[0, 1, 1, 0, 1]);
        assert_eq!(cm, ConfusionMatrix { tn: 1, fp: 1, fn_: 1, tp: 2 });
        assert_eq!(cm.total(), 5);
        assert!((cm.accuracy().unwrap() - 0.6).abs() < 1e-12);
        assert!((cm.precision().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.f1().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.false_positive_rate().unwrap() - 0.5).abs() < 1e-12);
        assert!((cm.selection_rate().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn undefined_metrics_are_none() {
        let empty = ConfusionMatrix::default();
        assert!(empty.accuracy().is_none());
        assert!(empty.precision().is_none());
        assert!(empty.recall().is_none());
        // All-negative truth with no positive predictions.
        let cm = ConfusionMatrix::from_predictions(&[0, 0], &[0, 0]);
        assert!(cm.precision().is_none());
        assert!(cm.recall().is_none());
        assert_eq!(cm.accuracy(), Some(1.0));
    }

    #[test]
    fn scalar_helpers_match_matrix() {
        let t = [0, 1, 1, 0, 1];
        let p = [0, 1, 0, 1, 1];
        let cm = ConfusionMatrix::from_predictions(&t, &p);
        assert_eq!(accuracy(&t, &p), cm.accuracy().unwrap());
        assert_eq!(f1_score(&t, &p), cm.f1().unwrap());
    }
}
