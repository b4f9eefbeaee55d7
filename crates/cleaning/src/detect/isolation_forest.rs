//! Isolation forest (Liu, Ting & Zhou 2008) — the study's multivariate
//! outlier detector (`outliers-if`, contamination = 0.01).
//!
//! Each isolation tree recursively splits a subsample on a random feature
//! at a random threshold; anomalous points isolate in few splits, so their
//! expected path length is short. The anomaly score is
//! `s(x) = 2^(−E[h(x)] / c(ψ))` and the decision threshold is the
//! `(1 − contamination)` quantile of the training scores — mirroring
//! scikit-learn's `contamination` semantics.
//!
//! **Layout.** Every tree has the same fixed depth `D = ⌈log₂ ψ⌉` and is
//! stored as an implicit complete binary tree: slot `p`'s children are
//! `2p + 1` (value `< threshold`) and `2p + 2` (otherwise, NaN included).
//! The forest keeps two flat arrays, `2^D − 1` splits and `2^D` leaf
//! values per tree (fewer than `4ψ` slots in all). A leaf value is the
//! whole path length `depth + c(size)`. A leaf shallower than `D` is
//! repeated over every bottom slot of its subtree, and the split slots
//! below it stay at their default, so any route through them ends on the
//! same value.
//!
//! **Build.** A tree partitions one index buffer in place (no buffer per
//! node) and fills its slots pre-order: a node draws its feature tries and
//! threshold, then its left subtree draws, then its right: the draw order
//! of the recursive build that `tests/iforest_parity.rs` keeps as the
//! reference.
//!
//! **Scoring.** Rows are scored tree-major over blocks of 64: one tree
//! moves every row of the block down one level at a time, `D` levels, by
//! the branch-free step `p ← 2p + 2 − [v < threshold]`, before the next
//! tree starts. The block's rows and the tree's slots stay in cache, and
//! the rows' steps are independent, so their loads overlap instead of
//! each waiting on the last. Each row adds its trees' path lengths in tree
//! order, from `Iterator::sum`'s start value, so every sum, and every
//! score, is bit for bit that of a row-at-a-time walk.

use crate::report::{CellFlags, DetectionReport};
use tabular::stats::percentile;
use tabular::{
    ColumnKind, ColumnRole, DataFrame, DenseMatrix, FeatureEncoder, Result, Rng64, TabularError,
};

/// Euler–Mascheroni constant.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Rows per scoring block: a block's encoded rows stay in L1 while every
/// tree walks them.
const BLOCK_ROWS: usize = 64;

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

/// One split slot: rows with `value < threshold` go to the left child.
#[derive(Clone, Copy, Default)]
struct Split {
    threshold: f64,
    feature: usize,
}

/// Fills one tree's slots from its subsample.
struct TreeBuilder<'a> {
    x: &'a DenseMatrix,
    depth: usize,
    splits: &'a mut [Split],
    leaves: &'a mut [f64],
}

impl TreeBuilder<'_> {
    /// Builds the subtree at slot `p` (on level `level`) over `rows`.
    fn build(&mut self, p: usize, level: usize, rows: &mut [usize], rng: &mut Rng64) {
        if level < self.depth && rows.len() > 1 {
            if let Some(split) = self.choose_split(rows, rng) {
                let mid = self.partition(rows, split);
                if mid > 0 && mid < rows.len() {
                    self.splits[p] = split;
                    let (left, right) = rows.split_at_mut(mid);
                    self.build(2 * p + 1, level + 1, left, rng);
                    self.build(2 * p + 2, level + 1, right, rng);
                    return;
                }
            }
        }
        // A leaf: every bottom slot under `p` holds its path length. They
        // are slots `(p + 1)·span − 1 ..` of the complete tree, whose
        // first `2^D − 1` slots are splits.
        let span = 1 << (self.depth - level);
        let first = (p + 1) * span - self.leaves.len();
        self.leaves[first..first + span].fill(level as f64 + average_path_length(rows.len()));
    }

    /// A random feature with spread among `rows` and a uniform threshold
    /// over its range; `None` after 8 tries without spread (an
    /// all-constant subsample).
    fn choose_split(&self, rows: &[usize], rng: &mut Rng64) -> Option<Split> {
        for _ in 0..8 {
            let feature = rng.below(self.x.n_cols());
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in rows {
                let v = self.x.get(i, feature);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                return Some(Split { threshold: lo + rng.next_f64() * (hi - lo), feature });
            }
        }
        None
    }

    /// Moves the rows going left to the front of `rows`; returns their
    /// count. A child is a set of rows, so their order does not matter.
    fn partition(&self, rows: &mut [usize], split: Split) -> usize {
        let mut mid = 0;
        for k in 0..rows.len() {
            if self.x.get(rows[k], split.feature) < split.threshold {
                rows.swap(mid, k);
                mid += 1;
            }
        }
        mid
    }
}

/// A fitted isolation forest with its feature encoder and decision
/// threshold.
pub struct IsolationForest {
    /// Tree depth `D`: every row takes exactly `D` steps per tree.
    depth: usize,
    /// `2^D − 1` split slots per tree, tree after tree.
    splits: Vec<Split>,
    /// `2^D` leaf path lengths per tree, tree after tree.
    leaves: Vec<f64>,
    encoder: FeatureEncoder,
    /// Normalisation constant `c(ψ)` for the fitted subsample size.
    c_psi: f64,
    /// Scores above this threshold are outliers.
    threshold: f64,
}

impl IsolationForest {
    /// Fits a forest of `n_trees` trees on subsamples of up to
    /// `subsample_size` rows of `train`'s encoded feature space, and sets
    /// the decision threshold to the `(1 − contamination)` quantile of the
    /// training scores. A frame of fewer than 2 rows is an error.
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
        if n < 2 {
            return Err(TabularError::InvalidArgument(format!(
                "isolation forest needs at least 2 rows, got {n}"
            )));
        }
        let psi = subsample_size.min(n).max(2);
        let depth = (psi as f64).log2().ceil() as usize;
        let n_leaves = 1 << depth;
        let mut splits = vec![Split::default(); n_trees * (n_leaves - 1)];
        let mut leaves = vec![0.0; n_trees * n_leaves];
        let mut rng = Rng64::seed_from_u64(seed);
        let trees = splits.chunks_exact_mut(n_leaves - 1).zip(leaves.chunks_exact_mut(n_leaves));
        for (splits, leaves) in trees {
            let mut rows = rng.sample_indices(n, psi);
            TreeBuilder { x: &x, depth, splits, leaves }.build(0, 0, &mut rows, &mut rng);
        }
        let mut forest = IsolationForest {
            depth,
            splits,
            leaves,
            encoder,
            c_psi: average_path_length(psi),
            threshold: f64::INFINITY,
        };
        let scores = forest.score_matrix(&x);
        forest.threshold = percentile(&scores, 1.0 - contamination).unwrap_or(f64::INFINITY);
        Ok(forest)
    }

    /// Anomaly scores in `(0, 1)`; higher is more anomalous.
    pub fn scores(&self, frame: &DataFrame) -> Result<Vec<f64>> {
        let x = self.encoder.transform(frame)?;
        Ok(self.score_matrix(&x))
    }

    fn score_matrix(&self, x: &DenseMatrix) -> Vec<f64> {
        let d = x.n_cols();
        let n_leaves = 1 << self.depth;
        let n_trees = self.leaves.len() / n_leaves;
        // `Iterator::sum`'s start value, so each sum is a row-at-a-time sum.
        let mut sums = vec![-0.0; x.n_rows()];
        // Each row's current slot in the tree being walked.
        let mut slots = [0usize; BLOCK_ROWS];
        let blocks = x.as_slice().chunks(BLOCK_ROWS * d).zip(sums.chunks_mut(BLOCK_ROWS));
        for (rows, sums) in blocks {
            let slots = &mut slots[..sums.len()];
            let trees =
                self.splits.chunks_exact(n_leaves - 1).zip(self.leaves.chunks_exact(n_leaves));
            for (splits, leaves) in trees {
                slots.fill(0);
                for _ in 0..self.depth {
                    for (p, row) in slots.iter_mut().zip(rows.chunks_exact(d)) {
                        let split = splits[*p];
                        *p = 2 * *p + 2 - usize::from(row[split.feature] < split.threshold);
                    }
                }
                for (sum, &p) in sums.iter_mut().zip(slots.iter()) {
                    *sum += leaves[p + 1 - n_leaves];
                }
            }
        }
        sums.into_iter()
            .map(|sum| {
                let mean_path = sum / n_trees as f64;
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
