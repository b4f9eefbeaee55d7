//! Isolation forest (Liu, Ting & Zhou 2008) — the study's multivariate
//! outlier detector (`outliers-if`, contamination = 0.01).
//!
//! Each isolation tree recursively splits a subsample on a random feature
//! at a random threshold; anomalous points isolate in few splits, so their
//! expected path length is short. The anomaly score is
//! `s(x) = 2^(−E[h(x)] / c(ψ))` and the decision threshold is the
//! `(1 − contamination)` quantile of the training scores — mirroring
//! scikit-learn's `contamination` semantics.

use crate::report::{CellFlags, DetectionReport};
use tabular::stats::percentile;
use tabular::{ColumnKind, ColumnRole, DataFrame, DenseMatrix, FeatureEncoder, Result, Rng64};

/// Euler–Mascheroni constant.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Average path length of an unsuccessful BST search over `n` points —
/// the normalisation constant `c(n)` of the isolation-forest score.
pub fn average_path_length(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0,
        2 => 1.0,
        _ => {
            let n = n as f64;
            2.0 * ((n - 1.0).ln() + EULER_GAMMA) - 2.0 * (n - 1.0) / n
        }
    }
}

/// One node of an isolation tree.
#[derive(Debug, Clone)]
enum ITreeNode {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { size: usize },
}

/// A single isolation tree over a subsample.
#[derive(Debug, Clone)]
struct ITree {
    nodes: Vec<ITreeNode>,
}

impl ITree {
    fn fit(x: &DenseMatrix, rows: &[usize], max_depth: usize, rng: &mut Rng64) -> ITree {
        let mut tree = ITree { nodes: Vec::new() };
        tree.build(x, rows, 0, max_depth, rng);
        tree
    }

    fn build(
        &mut self,
        x: &DenseMatrix,
        rows: &[usize],
        depth: usize,
        max_depth: usize,
        rng: &mut Rng64,
    ) -> usize {
        if depth >= max_depth || rows.len() <= 1 {
            self.nodes.push(ITreeNode::Leaf { size: rows.len() });
            return self.nodes.len() - 1;
        }
        // Choose a random feature with spread; give up after a few tries
        // (all-constant subsample).
        let d = x.n_cols();
        let mut chosen: Option<(usize, f64, f64)> = None;
        for _ in 0..8 {
            let feature = rng.below(d);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in rows {
                let v = x.get(i, feature);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                chosen = Some((feature, lo, hi));
                break;
            }
        }
        let Some((feature, lo, hi)) = chosen else {
            self.nodes.push(ITreeNode::Leaf { size: rows.len() });
            return self.nodes.len() - 1;
        };
        let threshold = lo + rng.next_f64() * (hi - lo);
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&i| x.get(i, feature) < threshold);
        if left_rows.is_empty() || right_rows.is_empty() {
            self.nodes.push(ITreeNode::Leaf { size: rows.len() });
            return self.nodes.len() - 1;
        }
        let idx = self.nodes.len();
        self.nodes.push(ITreeNode::Leaf { size: 0 }); // placeholder
        let left = self.build(x, &left_rows, depth + 1, max_depth, rng);
        let right = self.build(x, &right_rows, depth + 1, max_depth, rng);
        self.nodes[idx] = ITreeNode::Split { feature, threshold, left, right };
        idx
    }

    /// Path length of `row` through the tree, with the `c(size)` adjustment
    /// at external nodes.
    fn path_length(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        let mut depth = 0.0;
        loop {
            match &self.nodes[idx] {
                ITreeNode::Leaf { size } => return depth + average_path_length(*size),
                ITreeNode::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] < *threshold { *left } else { *right };
                    depth += 1.0;
                }
            }
        }
    }
}

/// A fitted isolation forest with its feature encoder and decision
/// threshold.
pub struct IsolationForest {
    trees: Vec<ITree>,
    encoder: FeatureEncoder,
    /// Normalisation constant `c(ψ)` for the fitted subsample size.
    c_psi: f64,
    /// Scores above this threshold are outliers.
    threshold: f64,
    contamination: f64,
}

impl IsolationForest {
    /// Fits a forest of `n_trees` trees on subsamples of up to
    /// `subsample_size` rows of `train`'s encoded feature space, and sets
    /// the decision threshold to the `(1 − contamination)` quantile of the
    /// training scores.
    pub fn fit_frame(
        train: &DataFrame,
        n_trees: usize,
        subsample_size: usize,
        contamination: f64,
        seed: u64,
    ) -> Result<IsolationForest> {
        assert!(n_trees > 0, "need at least one tree");
        assert!((0.0..0.5).contains(&contamination), "contamination must be in [0, 0.5)");
        let encoder = FeatureEncoder::fit(train, true)?;
        let x = encoder.transform(train)?;
        let n = x.n_rows();
        let psi = subsample_size.min(n).max(2);
        let max_depth = (psi as f64).log2().ceil() as usize;
        let mut rng = Rng64::seed_from_u64(seed);
        let trees: Vec<ITree> = (0..n_trees)
            .map(|_| {
                let rows = rng.sample_indices(n, psi);
                ITree::fit(&x, &rows, max_depth, &mut rng)
            })
            .collect();
        let c_psi = average_path_length(psi);
        let mut forest = IsolationForest {
            trees,
            encoder,
            c_psi,
            threshold: f64::INFINITY,
            contamination,
        };
        let scores = forest.score_matrix(&x);
        forest.threshold = percentile(&scores, 1.0 - contamination).unwrap_or(f64::INFINITY);
        Ok(forest)
    }

    /// The fitted contamination parameter.
    pub fn contamination(&self) -> f64 {
        self.contamination
    }

    /// Anomaly scores in `(0, 1)`; higher is more anomalous.
    pub fn scores(&self, frame: &DataFrame) -> Result<Vec<f64>> {
        let x = self.encoder.transform(frame)?;
        Ok(self.score_matrix(&x))
    }

    fn score_matrix(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|i| {
                let row = x.row(i);
                let mean_path: f64 = self.trees.iter().map(|t| t.path_length(row)).sum::<f64>()
                    / self.trees.len() as f64;
                let exponent = if self.c_psi > 0.0 { -mean_path / self.c_psi } else { 0.0 };
                2f64.powf(exponent)
            })
            .collect()
    }

    /// Flags rows whose anomaly score exceeds the training threshold.
    /// All numeric feature cells of a flagged row are marked for repair
    /// (the detector is tuple-level).
    pub fn detect(&self, frame: &DataFrame) -> Result<DetectionReport> {
        let scores = self.scores(frame)?;
        let row_flags: Vec<bool> = scores.iter().map(|&s| s > self.threshold).collect();
        let mut cell_flags = CellFlags::new(frame.n_rows());
        if row_flags.iter().any(|&b| b) {
            for field in frame.schema().fields() {
                if field.role == ColumnRole::Feature && field.kind == ColumnKind::Numeric {
                    cell_flags.insert_column(field.name.clone(), row_flags.clone());
                }
            }
        }
        Ok(DetectionReport { detector: "outliers-if".to_string(), row_flags, cell_flags })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::ColumnRole;

    fn frame_with_anomalies(n: usize, seed: u64) -> DataFrame {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut a = Vec::with_capacity(n + 2);
        let mut b = Vec::with_capacity(n + 2);
        for _ in 0..n {
            a.push(rng.normal());
            b.push(rng.normal());
        }
        // Two far-away anomalies.
        a.push(12.0);
        b.push(-12.0);
        a.push(-15.0);
        b.push(14.0);
        DataFrame::builder()
            .numeric("a", ColumnRole::Feature, a)
            .numeric("b", ColumnRole::Feature, b)
            .build()
            .unwrap()
    }

    #[test]
    fn average_path_length_known_values() {
        assert_eq!(average_path_length(0), 0.0);
        assert_eq!(average_path_length(1), 0.0);
        assert_eq!(average_path_length(2), 1.0);
        // c(256) ~ 10.24 (classic reference value from the paper).
        let c256 = average_path_length(256);
        assert!((c256 - 10.24).abs() < 0.05, "c256={c256}");
    }

    #[test]
    fn anomalies_score_higher() {
        let df = frame_with_anomalies(300, 1);
        let forest = IsolationForest::fit_frame(&df, 100, 256, 0.01, 7).unwrap();
        let scores = forest.scores(&df).unwrap();
        let normal_max = scores[..300].iter().cloned().fold(0.0, f64::max);
        assert!(scores[300] > normal_max || scores[301] > normal_max,
            "anomaly scores {} / {} vs normal max {normal_max}", scores[300], scores[301]);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn contamination_controls_flag_rate() {
        let df = frame_with_anomalies(300, 2);
        let forest = IsolationForest::fit_frame(&df, 50, 128, 0.05, 3).unwrap();
        let report = forest.detect(&df).unwrap();
        let frac = report.flagged_fraction();
        // Should be near the contamination rate on the training data.
        assert!(frac > 0.01 && frac < 0.12, "frac={frac}");
        assert_eq!(forest.contamination(), 0.05);
    }

    #[test]
    fn flags_the_planted_anomalies() {
        let df = frame_with_anomalies(300, 3);
        let forest = IsolationForest::fit_frame(&df, 100, 256, 0.01, 9).unwrap();
        let report = forest.detect(&df).unwrap();
        assert!(report.row_flags[300] || report.row_flags[301]);
        // Cell flags mirror row flags on numeric feature columns.
        if report.flagged_rows() > 0 {
            assert_eq!(report.cell_flags.column("a").unwrap(), report.row_flags.as_slice());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let df = frame_with_anomalies(100, 4);
        let f1 = IsolationForest::fit_frame(&df, 20, 64, 0.02, 5).unwrap();
        let f2 = IsolationForest::fit_frame(&df, 20, 64, 0.02, 5).unwrap();
        assert_eq!(f1.scores(&df).unwrap(), f2.scores(&df).unwrap());
    }

    #[test]
    fn constant_data_flags_nothing() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![5.0; 50])
            .build()
            .unwrap();
        let forest = IsolationForest::fit_frame(&df, 10, 32, 0.01, 1).unwrap();
        let report = forest.detect(&df).unwrap();
        assert_eq!(report.flagged_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "contamination")]
    fn bad_contamination_panics() {
        let df = frame_with_anomalies(20, 5);
        let _ = IsolationForest::fit_frame(&df, 5, 16, 0.7, 1);
    }
}
