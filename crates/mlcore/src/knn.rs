//! Brute-force k-nearest-neighbour classification.
//!
//! Distances are Euclidean in the encoded feature space (features are
//! standardised / one-hot by [`tabular::FeatureEncoder`], so unweighted
//! Euclidean distance is meaningful). Probability estimates are the
//! fraction of positive neighbours, which is what scikit-learn reports.
//!
//! Neighbours are the first entries of the `(squared distance, train
//! index)` total order ([`f64::total_cmp`], then index): ties go to the
//! lower index, and the `k`-nearest set of any smaller `k` is a prefix of
//! the `k_max`-nearest order, so one distance pass scores a whole grid of
//! neighbour counts. `select_nearest` is the one selection routine.

use crate::kernels::{self, QUERY_BLOCK, TRAIN_BLOCK};
use crate::model::Classifier;
use crate::scratch;
use tabular::DenseMatrix;

/// Live query lanes from which a block runs the 16-lane
/// [`kernels::sq_dist_block`] kernel; sparser blocks (serving's one-row
/// batches) use the per-pair [`DenseMatrix::row_distance_sq`] scan, which
/// gives the same bits per pair. Measured on random matrices of 337 and
/// 1500 train rows × 13–60 features (release build, x86-64 baseline
/// target, 2-vCPU Intel Xeon): one query's per-pair scan costs
/// 0.11–0.21× a full block (median 0.13), so the block wins from 8 live
/// lanes.
const BLOCK_MIN_LANES: usize = 8;

/// A trained (memorised) k-NN model.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    train: DenseMatrix,
    labels: Vec<u8>,
    k: usize,
}

impl KnnClassifier {
    /// Memorises the training data. `k` is clamped to the training size.
    ///
    /// Panics on a length mismatch or `k == 0`.
    pub fn fit(x: &DenseMatrix, y: &[u8], k: usize) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        assert!(k > 0, "k must be positive");
        KnnClassifier { train: x.clone(), labels: y.to_vec(), k }
    }

    /// The effective number of neighbours used at prediction time.
    pub fn effective_k(&self) -> usize {
        self.k.min(self.train.n_rows().max(1))
    }

    /// Positive-neighbour fractions for every query row of `x`, for
    /// **several** neighbour counts at once: `out[ki][q]` is the fraction
    /// of positive labels among the `ks[ki]` nearest training rows to
    /// query `q` (ties broken by lower index, each `k` clamped to the
    /// training size).
    ///
    /// One blocked distance pass serves every `k`: each query's
    /// `max(ks)` nearest neighbours are selected by `select_nearest`,
    /// and the `k`-nearest set of any smaller `k` is exactly a prefix of
    /// that order, so each per-`k` fraction is identical to a dedicated
    /// `k`-neighbour query.
    pub fn predict_proba_grid(&self, x: &DenseMatrix, ks: &[usize]) -> Vec<Vec<f64>> {
        let n = self.train.n_rows();
        let nq = x.n_rows();
        if n == 0 {
            return ks.iter().map(|_| vec![0.5; nq]).collect();
        }
        let kmax = ks.iter().copied().max().unwrap_or(1).min(n);
        let mut out: Vec<Vec<f64>> = ks.iter().map(|_| Vec::with_capacity(nq)).collect();
        // Pooled batch scratch, taken once per call (not per query): one
        // candidate row of `n` (distance, index) pairs per query lane.
        let mut cand = scratch::take_pairs();
        cand.resize(QUERY_BLOCK.min(nq) * n, (0.0, 0));
        let (mut qt, mut tile) = (scratch::take_f64(), scratch::take_f64());
        for q0 in (0..nq).step_by(QUERY_BLOCK) {
            let qb = QUERY_BLOCK.min(nq - q0);
            block_distances(&self.train, x, (q0, qb), &mut qt, &mut tile, |q, t, d| {
                cand[q * n + t] = (d, t);
            });
            for q in 0..qb {
                let nearest = &mut cand[q * n..(q + 1) * n];
                select_nearest(nearest, kmax);
                for (ki, &k) in ks.iter().enumerate() {
                    out[ki].push(positive_fraction(nearest, k, &self.labels));
                }
            }
        }
        out
    }
}

/// Reorders `cand` so that its first `k` entries are its `k` smallest by
/// the `(distance, index)` total order, ascending (`k` is clamped to the
/// length): a linear-time selection, then a sort of the `k` prefix only.
pub(crate) fn select_nearest(cand: &mut [(f64, usize)], k: usize) {
    let by = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let k = k.min(cand.len());
    if k == 0 {
        return;
    }
    if k < cand.len() {
        cand.select_nth_unstable_by(k - 1, by);
    }
    cand[..k].sort_unstable_by(by);
}

/// Calls `emit(q, t, d)` with the squared distance `d` between query row
/// `q0 + q` of `x` and train row `t`, for every `q < qb` and every `t`.
/// Blocks of at least [`BLOCK_MIN_LANES`] live queries run the 16-lane
/// tiled kernel, with `qt` and `tile` as its scratch; sparser blocks scan
/// query by query. Both accumulate each pair's features in sequential
/// order, so `d` has the same bits either way.
fn block_distances(
    train: &DenseMatrix,
    x: &DenseMatrix,
    (q0, qb): (usize, usize),
    qt: &mut Vec<f64>,
    tile: &mut Vec<f64>,
    mut emit: impl FnMut(usize, usize, f64),
) {
    let n = train.n_rows();
    if qb < BLOCK_MIN_LANES {
        for q in 0..qb {
            let point = x.row(q0 + q);
            for t in 0..n {
                emit(q, t, train.row_distance_sq(t, point));
            }
        }
        return;
    }
    tile.resize(TRAIN_BLOCK * QUERY_BLOCK, 0.0);
    kernels::transpose_queries(x, q0, qb, qt);
    for t0 in (0..n).step_by(TRAIN_BLOCK) {
        let tb = TRAIN_BLOCK.min(n - t0);
        kernels::sq_dist_block(train, t0, tb, qt, tile);
        for t in 0..tb {
            for q in 0..qb {
                emit(q, t0 + t, tile[t * QUERY_BLOCK + q]);
            }
        }
    }
}

/// The k-NN grid's cross-validated predictions and training accuracies,
/// from [`knn_grid_scores`].
pub(crate) struct KnnGridScores {
    /// 0.5-threshold predictions per (grid entry, fold) on the fold's
    /// validation rows, in row order, grid-major:
    /// `fold_predictions[ki * n_folds + f]`.
    pub(crate) fold_predictions: Vec<Vec<u8>>,
    /// Training accuracy of each grid entry refit on all rows.
    pub(crate) train_accuracy: Vec<f64>,
}

/// Scores every neighbour count of `ks` on `(x, y)` from **one** blocked
/// distance pass over all row pairs: for each `(k, fold)`, the
/// predictions a [`KnnClassifier`] fit on the fold's training rows makes
/// on its validation rows (as [`KnnClassifier::predict_proba_grid`]
/// scores them), and for each `k` the training accuracy of a model fit
/// on every row, predicting every row.
///
/// Each row's distances to the other folds' rows are exactly those its
/// fold model sees — distances are per pair, and the fold's training rows
/// keep ascending global order, so the index tie-break is unchanged — and
/// merging in its own fold's rows gives the whole-set order.
/// `folds` are [`tabular::split::kfold`]'s (train, validation) pairs, on
/// at least one row.
pub(crate) fn knn_grid_scores(
    x: &DenseMatrix,
    y: &[u8],
    folds: &[(Vec<usize>, Vec<usize>)],
    ks: &[usize],
) -> KnnGridScores {
    let n = x.n_rows();
    let n_folds = folds.len();
    let mut fold_of = vec![0usize; n];
    for (f, (_, val)) in folds.iter().enumerate() {
        val.iter().for_each(|&i| fold_of[i] = f);
    }
    let kmax = ks.iter().copied().max().unwrap_or(1);
    // Queries run in ascending row order, so each fold's predictions come
    // out in its (ascending) validation-row order.
    let mut fold_predictions = vec![Vec::new(); ks.len() * n_folds];
    let mut train_correct = vec![0u64; ks.len()];
    // Per query lane: its other folds' rows fill `cand` from the front,
    // its own fold's rows from the back.
    let mut cand = scratch::take_pairs();
    cand.resize(QUERY_BLOCK * n, (0.0, 0));
    let (mut qt, mut tile) = (scratch::take_f64(), scratch::take_f64());
    let mut merged = scratch::take_pairs();
    for q0 in (0..n).step_by(QUERY_BLOCK) {
        let qb = QUERY_BLOCK.min(n - q0);
        let mut split = [(0usize, n); QUERY_BLOCK];
        block_distances(x, x, (q0, qb), &mut qt, &mut tile, |q, t, d| {
            let (front, back) = &mut split[q];
            let same = fold_of[t] == fold_of[q0 + q];
            *back -= usize::from(same);
            cand[q * n + if same { *back } else { *front }] = (d, t);
            *front += usize::from(!same);
        });
        for (q, &(split_at, _)) in split.iter().enumerate().take(qb) {
            let (others, own) = cand[q * n..(q + 1) * n].split_at_mut(split_at);
            select_nearest(others, kmax);
            select_nearest(own, kmax);
            merge_nearest(others, own, kmax, &mut merged);
            let (f, truth) = (fold_of[q0 + q], y[q0 + q]);
            for (ki, &k) in ks.iter().enumerate() {
                let pred = positive_fraction(others, k, y) >= 0.5;
                fold_predictions[ki * n_folds + f].push(u8::from(pred));
                let correct = (truth == 0) != (positive_fraction(&merged, k, y) >= 0.5);
                train_correct[ki] += u64::from(correct);
            }
        }
    }
    // `metrics::accuracy`'s arithmetic: correct count over rows, in f64.
    let train_accuracy = train_correct.iter().map(|&c| c as f64 / n as f64).collect();
    KnnGridScores { fold_predictions, train_accuracy }
}

/// The fraction of positive labels among the first `k` of the sorted
/// candidates `nearest` (`k` clamped to their number, as the training
/// size clamps it).
fn positive_fraction(nearest: &[(f64, usize)], k: usize, labels: &[u8]) -> f64 {
    let eff = k.min(nearest.len());
    let pos = nearest[..eff].iter().filter(|&&(_, j)| labels[j] == 1).count();
    pos as f64 / eff as f64
}

/// Merges the sorted `k`-prefixes of `a` and `b` (each clamped to its
/// length) into the `k` first of their union by the `(distance, index)`
/// total order, written to `out`.
fn merge_nearest(a: &[(f64, usize)], b: &[(f64, usize)], k: usize, out: &mut Vec<(f64, usize)>) {
    let (a, b) = (&a[..k.min(a.len())], &b[..k.min(b.len())]);
    out.clear();
    let (mut i, mut j) = (0, 0);
    while out.len() < k && (i < a.len() || j < b.len()) {
        let take_a = j == b.len()
            || (i < a.len() && a[i].0.total_cmp(&b[j].0).then(a[i].1.cmp(&b[j].1)).is_lt());
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
}

impl Classifier for KnnClassifier {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        self.predict_proba_grid(x, &[self.effective_k()])
            .pop()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_data() -> (DenseMatrix, Vec<u8>) {
        // Two tight clusters: negatives near (0,0), positives near (10,10).
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            data.push(i as f64 * 0.1);
            data.push(i as f64 * 0.05);
            y.push(0);
        }
        for i in 0..10 {
            data.push(10.0 + i as f64 * 0.1);
            data.push(10.0 - i as f64 * 0.05);
            y.push(1);
        }
        (DenseMatrix::from_vec(20, 2, data), y)
    }

    #[test]
    fn classifies_clusters() {
        let (x, y) = clustered_data();
        let model = KnnClassifier::fit(&x, &y, 3);
        let test = DenseMatrix::from_vec(2, 2, vec![0.2, 0.2, 9.8, 9.9]);
        assert_eq!(model.predict(&test), vec![0, 1]);
    }

    #[test]
    fn proba_is_neighbour_fraction() {
        // 1 positive among 3 nearest -> p = 1/3.
        let x = DenseMatrix::from_vec(4, 1, vec![0.0, 0.1, 0.2, 9.0]);
        let y = vec![1, 0, 0, 1];
        let model = KnnClassifier::fit(&x, &y, 3);
        let test = DenseMatrix::from_vec(1, 1, vec![0.05]);
        let p = model.predict_proba(&test)[0];
        assert!((p - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn k_clamped_to_training_size() {
        let x = DenseMatrix::from_vec(2, 1, vec![0.0, 1.0]);
        let model = KnnClassifier::fit(&x, &[0, 1], 10);
        assert_eq!(model.effective_k(), 2);
        let p = model.predict_proba(&DenseMatrix::from_vec(1, 1, vec![0.5]))[0];
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_one_memorises_training_points() {
        let (x, y) = clustered_data();
        let model = KnnClassifier::fit(&x, &y, 1);
        assert_eq!(model.predict(&x), y);
    }

    #[test]
    fn deterministic_under_ties() {
        // Two equidistant neighbours with different labels; k=1 must pick
        // the lower index deterministically.
        let x = DenseMatrix::from_vec(2, 1, vec![1.0, -1.0]);
        let model = KnnClassifier::fit(&x, &[1, 0], 1);
        let p1 = model.predict_proba(&DenseMatrix::from_vec(1, 1, vec![0.0]))[0];
        let p2 = model.predict_proba(&DenseMatrix::from_vec(1, 1, vec![0.0]))[0];
        assert_eq!(p1, p2);
        assert_eq!(p1, 1.0); // index 0 has label 1
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let x = DenseMatrix::zeros(1, 1);
        KnnClassifier::fit(&x, &[0], 0);
    }

    #[test]
    fn matches_brute_force_sort() {
        // The selection must agree with a full sort by
        // (distance, index) on scrambled data with duplicate distances.
        let values: Vec<f64> = (0..60).map(|i| ((i * 17) % 12) as f64).collect();
        let x = DenseMatrix::from_vec(60, 1, values.clone());
        let y: Vec<u8> = (0..60).map(|i| (i % 2) as u8).collect();
        for k in [1, 3, 5, 11] {
            let model = KnnClassifier::fit(&x, &y, k);
            let queries = DenseMatrix::from_vec(4, 1, vec![0.3, 5.5, 11.2, 2.0]);
            let got = model.predict_proba(&queries);
            for (qi, &want_p) in got.iter().enumerate() {
                let q = queries.get(qi, 0);
                let mut order: Vec<(f64, usize)> =
                    values.iter().enumerate().map(|(i, v)| ((v - q) * (v - q), i)).collect();
                order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                let pos = order[..k].iter().filter(|&&(_, i)| y[i] == 1).count();
                assert!(
                    (want_p - pos as f64 / k as f64).abs() < 1e-12,
                    "k={k} query={qi}: got {want_p}, want {}/{k}",
                    pos
                );
            }
        }
    }

    #[test]
    fn empty_training_set_predicts_half() {
        let x = DenseMatrix::zeros(0, 2);
        let model = KnnClassifier::fit(&x, &[], 3);
        let p = model.predict_proba(&DenseMatrix::zeros(2, 2));
        assert_eq!(p, vec![0.5, 0.5]);
    }
}
