//! Predicted-mislabel detection via confident learning — a from-scratch
//! reimplementation of the cleanlab algorithm (Northcutt et al.) with a
//! logistic-regression base classifier, as configured in the paper.
//!
//! Pipeline:
//! 1. out-of-fold predicted probabilities `p(y = 1 | x)` from k-fold
//!    cross-validation of the base model (so no example is scored by a
//!    model that saw its own label);
//! 2. per-class confidence thresholds `t_j` = mean predicted probability of
//!    class `j` among examples *labeled* `j`;
//! 3. the confident joint `C[i][j]`: an example labeled `i` counts towards
//!    `C[i][j]` when its probability of class `j` reaches `t_j` (argmax
//!    over qualifying classes);
//! 4. prune by noise rate: for each off-diagonal `(i, j)`, flag the
//!    `C[i][j]` examples labeled `i` with the highest `p_j` — the examples
//!    most confidently mislabeled.

use crate::report::{CellFlags, DetectionReport};
use tabular::{split::kfold, DataFrame, FeatureEncoder, Result, Rng64, TabularError};

/// A fitted mislabel detector. Detection refers to the labels of the frame
/// it was fitted on; applying it to a different frame is rejected.
pub struct MislabelDetector {
    /// Per-row mislabel flags over the fitted frame.
    flags: Vec<bool>,
    /// Out-of-fold probability of the positive class per row.
    probabilities: Vec<f64>,
    /// Noisy labels the detector was fitted on.
    labels: Vec<u8>,
    /// Per-class confidence thresholds `[t_0, t_1]`.
    thresholds: [f64; 2],
    /// The confident joint `C[i][j]` (rows: noisy label, cols: implied
    /// true label).
    confident_joint: [[usize; 2]; 2],
}

impl MislabelDetector {
    /// Fits the label model on `train` and computes the mislabel flags.
    ///
    /// `seed` controls the cross-validation fold assignment.
    pub fn fit(train: &DataFrame, seed: u64) -> Result<MislabelDetector> {
        let labels = train.labels()?;
        let n = labels.len();
        if n < 10 {
            return Err(TabularError::InvalidArgument(format!(
                "mislabel detection needs at least 10 rows, got {n}"
            )));
        }
        let encoder = FeatureEncoder::fit(train, true)?;
        let x = encoder.transform(train)?;
        let mut rng = Rng64::seed_from_u64(seed);

        // 1. Out-of-fold probabilities.
        let k = 5.min(n / 2).max(2);
        let folds = kfold(n, k, rng.next_u64())?;
        let mut probabilities = vec![0.5; n];
        for (train_idx, val_idx) in &folds {
            let x_tr = x.take_rows(train_idx);
            let y_tr: Vec<u8> = train_idx.iter().map(|&i| labels[i]).collect();
            let model = mlcore::LogRegClassifier::fit(&x_tr, &y_tr, 1.0, 50);
            let x_val = x.take_rows(val_idx);
            let p_val = mlcore::model::Classifier::predict_proba(&model, &x_val);
            for (&i, &p) in val_idx.iter().zip(&p_val) {
                probabilities[i] = p;
            }
        }

        // 2. Per-class thresholds.
        let mut sums = [0.0f64; 2];
        let mut counts = [0usize; 2];
        for (&y, &p) in labels.iter().zip(&probabilities) {
            let class = y as usize;
            sums[class] += if class == 1 { p } else { 1.0 - p };
            counts[class] += 1;
        }
        if counts[0] == 0 || counts[1] == 0 {
            // Single-class data: nothing can be confidently mislabeled.
            return Ok(MislabelDetector {
                flags: vec![false; n],
                probabilities,
                labels,
                thresholds: [1.0, 1.0],
                confident_joint: [[counts[0], 0], [0, counts[1]]],
            });
        }
        let thresholds = [sums[0] / counts[0] as f64, sums[1] / counts[1] as f64];

        // 3. Confident joint.
        let mut confident_joint = [[0usize; 2]; 2];
        // For each off-diagonal, remember (p_j, row) candidates for pruning.
        let mut candidates: [[Vec<(f64, usize)>; 2]; 2] = Default::default();
        for (i, (&y, &p)) in labels.iter().zip(&probabilities).enumerate() {
            let class_probs = [1.0 - p, p];
            let qualify: Vec<usize> = (0..2)
                .filter(|&j| class_probs[j] >= thresholds[j])
                .collect();
            let implied = match qualify.len() {
                0 => continue,
                1 => qualify[0],
                // Both qualify: argmax probability (ties to the noisy label).
                _ => {
                    if class_probs[1] > class_probs[0] {
                        1
                    } else {
                        0
                    }
                }
            };
            let noisy = y as usize;
            confident_joint[noisy][implied] += 1;
            if noisy != implied {
                candidates[noisy][implied].push((class_probs[implied], i));
            }
        }

        // 4. Prune by noise rate: the C[i][j] most confident candidates.
        let mut flags = vec![false; n];
        for noisy in 0..2 {
            for implied in 0..2 {
                if noisy == implied {
                    continue;
                }
                let target = confident_joint[noisy][implied];
                let pool = &mut candidates[noisy][implied];
                pool.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
                });
                for &(_, row) in pool.iter().take(target) {
                    flags[row] = true;
                }
            }
        }

        Ok(MislabelDetector { flags, probabilities, labels, thresholds, confident_joint })
    }

    /// Out-of-fold positive-class probabilities over the fitted frame.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Per-class confidence thresholds `[t_0, t_1]`.
    pub fn thresholds(&self) -> [f64; 2] {
        self.thresholds
    }

    /// The confident joint counts.
    pub fn confident_joint(&self) -> [[usize; 2]; 2] {
        self.confident_joint
    }

    /// Splits the flagged rows by the direction of the predicted error:
    /// `(flagged_false_positives, flagged_false_negatives)` — rows labeled
    /// 1 that look like true 0s, and rows labeled 0 that look like true 1s.
    /// This drives the paper's §III label-error drill-down.
    pub fn flag_directions(&self) -> (Vec<usize>, Vec<usize>) {
        let mut fp = Vec::new();
        let mut fn_ = Vec::new();
        for (i, &flagged) in self.flags.iter().enumerate() {
            if !flagged {
                continue;
            }
            if self.labels[i] == 1 {
                fp.push(i);
            } else {
                fn_.push(i);
            }
        }
        (fp, fn_)
    }

    /// Returns the mislabel report for the frame the detector was fitted
    /// on. The frame must have the same number of rows (the detector
    /// cannot re-score unseen data — its flags refer to training labels).
    pub fn detect(&self, frame: &DataFrame) -> Result<DetectionReport> {
        if frame.n_rows() != self.flags.len() {
            return Err(TabularError::LengthMismatch {
                expected: self.flags.len(),
                actual: frame.n_rows(),
            });
        }
        Ok(DetectionReport {
            detector: "mislabels".to_string(),
            row_flags: self.flags.clone(),
            cell_flags: CellFlags::new(frame.n_rows()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{ColumnRole, DataFrame};

    /// Builds a frame where the label is a clean function of x, then flips
    /// the labels of the given rows and moves them away from the decision
    /// boundary so the errors are unambiguous.
    fn noisy_frame(n: usize, flip: &[usize], seed: u64) -> DataFrame {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.normal();
            xs.push(x);
            ys.push(if x > 0.0 { 1.0 } else { 0.0 });
        }
        for &i in flip {
            xs[i] = xs[i].signum() * (2.0 + xs[i].abs());
            ys[i] = 1.0 - ys[i];
        }
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, xs)
            .numeric("label", ColumnRole::Label, ys)
            .build()
            .unwrap()
    }

    #[test]
    fn finds_planted_label_errors() {
        let flipped = [3, 17, 42, 77, 101, 150];
        let df = noisy_frame(200, &flipped, 1);
        let det = MislabelDetector::fit(&df, 9).unwrap();
        let report = det.detect(&df).unwrap();
        let hits = flipped.iter().filter(|&&i| report.row_flags[i]).count();
        assert!(hits >= 4, "found {hits}/6 planted errors");
        // Should not flag wildly more than planted (some slack for
        // borderline points near the decision boundary).
        assert!(report.flagged_rows() <= 30, "flagged {}", report.flagged_rows());
    }

    #[test]
    fn clean_data_has_few_flags() {
        let df = noisy_frame(200, &[], 2);
        let det = MislabelDetector::fit(&df, 3).unwrap();
        let report = det.detect(&df).unwrap();
        assert!(
            report.flagged_fraction() < 0.06,
            "flagged {}",
            report.flagged_fraction()
        );
    }

    #[test]
    fn thresholds_and_joint_are_consistent() {
        let df = noisy_frame(100, &[5, 50], 3);
        let det = MislabelDetector::fit(&df, 4).unwrap();
        let t = det.thresholds();
        assert!(t[0] > 0.5 && t[0] <= 1.0, "t0={}", t[0]);
        assert!(t[1] > 0.5 && t[1] <= 1.0, "t1={}", t[1]);
        let joint = det.confident_joint();
        let total: usize = joint.iter().flatten().sum();
        assert!(total <= 100);
        // Diagonal should dominate for mostly-clean data.
        assert!(joint[0][0] + joint[1][1] > joint[0][1] + joint[1][0]);
    }

    #[test]
    fn flag_directions_partition_flags() {
        let df = noisy_frame(150, &[10, 20, 30], 5);
        let det = MislabelDetector::fit(&df, 6).unwrap();
        let (fp, fn_) = det.flag_directions();
        let report = det.detect(&df).unwrap();
        assert_eq!(fp.len() + fn_.len(), report.flagged_rows());
    }

    #[test]
    fn deterministic_given_seed() {
        let df = noisy_frame(120, &[7, 70], 6);
        let a = MislabelDetector::fit(&df, 11).unwrap();
        let b = MislabelDetector::fit(&df, 11).unwrap();
        assert_eq!(a.detect(&df).unwrap(), b.detect(&df).unwrap());
    }

    #[test]
    fn single_class_data_flags_nothing() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, (0..50).map(|i| i as f64).collect())
            .numeric("label", ColumnRole::Label, vec![1.0; 50])
            .build()
            .unwrap();
        let det = MislabelDetector::fit(&df, 0).unwrap();
        assert_eq!(det.detect(&df).unwrap().flagged_rows(), 0);
    }

    #[test]
    fn tiny_frame_rejected() {
        let df = noisy_frame(5, &[], 7);
        assert!(MislabelDetector::fit(&df, 0).is_err());
    }

    #[test]
    fn detect_on_wrong_size_frame_rejected() {
        let df = noisy_frame(100, &[], 8);
        let det = MislabelDetector::fit(&df, 1).unwrap();
        let other = noisy_frame(50, &[], 9);
        assert!(det.detect(&other).is_err());
    }
}
