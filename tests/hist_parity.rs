//! Parity of histogram-binned tree training against the exact greedy
//! splitter, on the study's real datasets.
//!
//! Histogram splits consider quantile-bin boundaries instead of every
//! distinct-value midpoint, so individual trees can differ from the exact
//! ones — but on study-sized data the accuracy and fairness conclusions
//! must not move: test accuracy stays within 0.02 and per-group disparity
//! signs are unchanged (up to near-zero disparities, where the sign
//! carries no information).
//!
//! The exact splitter lives only here, as [`ExactTree`]: mlcore trains
//! every tree with histograms, and this file keeps the one reference they
//! are held to.

use datasets::DatasetId;
use demodq::pipeline::sample_split;
use demodq::StudyScale;
use fairness::{group_confusions, FairnessMetric, GroupConfusions};
use mlcore::kernels::{self, HistF32, HIST_QUAD};
use mlcore::linalg::sigmoid;
use mlcore::{
    accuracy, BinnedMatrix, Classifier, GbdtClassifier, RegressionTree, TreeParams, DEFAULT_N_BINS,
};
use tabular::{DataFrame, DenseMatrix, FeatureEncoder, Rng64};

/// One node of an [`ExactTree`].
enum ExactNode {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf(f64),
}

/// The exact greedy regression tree over (gradient, hessian) targets:
/// every feature re-sorted at every node, every midpoint between adjacent
/// distinct values a candidate, scored with the second-order gain and
/// leaf weight of mlcore's histogram trainer ([`TreeParams`]). Boosted
/// ([`ExactGbdt`]) it is the exact-split GBDT.
struct ExactTree(Vec<ExactNode>);

impl ExactTree {
    /// Fits on the rows `rows` of `x`; `grad` and `hess` are indexed by
    /// row of `x`.
    fn fit(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        params: TreeParams,
    ) -> Self {
        let mut tree = ExactTree(Vec::new());
        tree.build(x, grad, hess, rows, 0, params);
        tree
    }

    /// Builds the subtree for `rows`; returns its arena index.
    fn build(
        &mut self,
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        depth: usize,
        params: TreeParams,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = rows.iter().map(|&i| hess[i]).sum();
        let make_leaf = |nodes: &mut Vec<ExactNode>| {
            let denom = h_sum + params.reg_lambda;
            nodes.push(ExactNode::Leaf(if denom > 0.0 { -g_sum / denom } else { 0.0 }));
            nodes.len() - 1
        };
        if depth >= params.max_depth || rows.len() < 2 {
            return make_leaf(&mut self.0);
        }
        let parent_score = g_sum * g_sum / (h_sum + params.reg_lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
        for feature in 0..x.n_cols() {
            sorted.clear();
            sorted.extend(rows.iter().map(|&i| (x.get(i, feature), grad[i], hess[i])));
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let (mut gl, mut hl) = (0.0, 0.0);
            for w in 0..sorted.len() - 1 {
                gl += sorted[w].1;
                hl += sorted[w].2;
                // No split between identical values.
                if sorted[w].0 == sorted[w + 1].0 {
                    continue;
                }
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain = gl * gl / (hl + params.reg_lambda) + gr * gr / (hr + params.reg_lambda)
                    - parent_score;
                if gain > params.min_gain && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, feature, 0.5 * (sorted[w].0 + sorted[w + 1].0)));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            return make_leaf(&mut self.0);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&i| x.get(i, feature) <= threshold);
        let idx = self.0.len();
        self.0.push(ExactNode::Leaf(0.0)); // placeholder: children land after it
        let left = self.build(x, grad, hess, &left_rows, depth + 1, params);
        let right = self.build(x, grad, hess, &right_rows, depth + 1, params);
        self.0[idx] = ExactNode::Split { feature, threshold, left, right };
        idx
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match self.0[idx] {
                ExactNode::Leaf(value) => return value,
                ExactNode::Split { feature, threshold, left, right } => {
                    idx = if row[feature] <= threshold { left } else { right };
                }
            }
        }
    }
}

/// [`GbdtClassifier::fit`]'s boosting with [`ExactTree`] weak learners:
/// the same base score, 80% row subsample per round, gradients, tree
/// parameters and early stop.
struct ExactGbdt {
    trees: Vec<ExactTree>,
    learning_rate: f64,
    base_score: f64,
}

impl ExactGbdt {
    fn fit(
        x: &DenseMatrix,
        y: &[u8],
        max_depth: usize,
        n_rounds: usize,
        learning_rate: f64,
        reg_lambda: f64,
        seed: u64,
    ) -> Self {
        let n = x.n_rows();
        let params = TreeParams { max_depth, reg_lambda, min_child_weight: 1.0, min_gain: 1e-6 };
        let pos = y.iter().filter(|&&v| v == 1).count() as f64;
        let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (rate / (1.0 - rate)).ln();
        let mut scores = vec![base_score; n];
        let (mut grad, mut hess) = (vec![0.0; n], vec![0.0; n]);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut sample = Vec::new();
        let mut trees = Vec::new();
        for _ in 0..n_rounds {
            rng.sample_indices_into(n, ((n as f64) * 0.8).ceil() as usize, &mut sample);
            kernels::logistic_grad_hess(&sample, &scores, y, &mut grad, &mut hess);
            let tree = ExactTree::fit(x, &grad, &hess, &sample, params);
            if matches!(tree.0[..], [ExactNode::Leaf(value)] if value.abs() < 1e-12) {
                break;
            }
            for (i, score) in scores.iter_mut().enumerate() {
                *score += learning_rate * tree.predict_row(x.row(i));
            }
            trees.push(tree);
        }
        ExactGbdt { trees, learning_rate, base_score }
    }
}

impl Classifier for ExactGbdt {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|i| {
                let row = x.row(i);
                let sum = self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>();
                sigmoid(self.base_score + self.learning_rate * sum)
            })
            .collect()
    }
}

/// Encoded train/test matrices plus the frames for group evaluation.
struct Encoded {
    x_train: DenseMatrix,
    y_train: Vec<u8>,
    x_test: DenseMatrix,
    y_test: Vec<u8>,
    test: DataFrame,
}

/// Samples a split of `id` and encodes it (incomplete rows dropped so
/// both splitters see identical, fully numeric matrices).
///
/// The sample is larger than the smoke preset: parity tolerances are in
/// accuracy points, and on a smoke-sized (≈100 row) test set a single
/// row is already ≈0.01, so tie-flip noise between two equally valid
/// greedy trees would dominate the comparison.
fn encoded_split(id: DatasetId, seed: u64) -> Encoded {
    let scale = StudyScale { pool_size: 2000, sample_size: 1200, test_fraction: 0.3, ..StudyScale::smoke() };
    let pool = id.generate_store(scale.pool_size, seed).expect("generate pool");
    let (train, test) = sample_split(&pool, &scale, seed ^ 0xA11CE).expect("split");
    let train = train.drop_incomplete_rows().expect("drop train rows");
    let test = test.drop_incomplete_rows().expect("drop test rows");
    let encoder = FeatureEncoder::fit(&train, true).expect("fit encoder");
    Encoded {
        x_train: encoder.transform(&train).expect("encode train"),
        y_train: train.labels().expect("train labels"),
        x_test: encoder.transform(&test).expect("encode test"),
        y_test: test.labels().expect("test labels"),
        test,
    }
}

/// Per-group signed disparities of `preds` on the test frame, for the
/// two headline metrics.
fn signed_disparities(
    id: DatasetId,
    data: &Encoded,
    preds: &[u8],
) -> Vec<(String, FairnessMetric, Option<f64>)> {
    let groups = id.spec().single_attribute_specs();
    let mut out = Vec::new();
    for group in groups {
        let masks = group.evaluate(&data.test).expect("evaluate group");
        let gc: GroupConfusions = group_confusions(&data.y_test, preds, &masks);
        for metric in [FairnessMetric::PredictiveParity, FairnessMetric::EqualOpportunity] {
            out.push((group.label(), metric, metric.signed_disparity(&gc)));
        }
    }
    out
}

/// Element-wise mean of per-seed disparity vectors; an entry is `None`
/// unless it was defined on every seed.
fn averaged_disparities(
    per_seed: &[Vec<(String, FairnessMetric, Option<f64>)>],
) -> Vec<(String, FairnessMetric, Option<f64>)> {
    let n = per_seed.len() as f64;
    per_seed[0]
        .iter()
        .enumerate()
        .map(|(i, (label, metric, _))| {
            let vals: Option<Vec<f64>> = per_seed.iter().map(|s| s[i].2).collect();
            (label.clone(), *metric, vals.map(|v| v.iter().sum::<f64>() / n))
        })
        .collect()
}

/// Disparity signs must agree unless either disparity is so small that
/// its sign is noise.
fn assert_signs_compatible(
    dataset: DatasetId,
    exact: &[(String, FairnessMetric, Option<f64>)],
    hist: &[(String, FairnessMetric, Option<f64>)],
) {
    const SIGN_SLACK: f64 = 0.1;
    assert_eq!(exact.len(), hist.len());
    for ((label, metric, e), (_, _, h)) in exact.iter().zip(hist) {
        let (Some(e), Some(h)) = (e, h) else { continue };
        let same_sign = (e >= &0.0) == (h >= &0.0);
        assert!(
            same_sign || (e.abs() < SIGN_SLACK && h.abs() < SIGN_SLACK),
            "{dataset:?}/{label}/{metric:?}: disparity sign flipped beyond noise \
             (exact {e:.4}, hist {h:.4})"
        );
    }
}

/// Both comparisons average over a few independent splits: a single
/// split leaves room for tie-flip noise (two equally valid greedy trees
/// that happen to disagree on a handful of rows), which is exactly the
/// variation the study itself averages away over splits and seeds.
const PARITY_SEEDS: [u64; 3] = [2024, 4077, 9183];

#[test]
fn gbdt_hist_matches_exact_on_all_datasets() {
    for id in DatasetId::all() {
        let (mut accs_exact, mut accs_hist) = (Vec::new(), Vec::new());
        let (mut disp_exact, mut disp_hist) = (Vec::new(), Vec::new());
        for seed in PARITY_SEEDS {
            let data = encoded_split(id, seed);
            let exact = ExactGbdt::fit(&data.x_train, &data.y_train, 3, 50, 0.3, 1.0, 7);
            let hist = GbdtClassifier::fit(&data.x_train, &data.y_train, 3, 50, 0.3, 1.0, 7);
            let preds_exact = exact.predict(&data.x_test);
            let preds_hist = hist.predict(&data.x_test);
            accs_exact.push(accuracy(&data.y_test, &preds_exact));
            accs_hist.push(accuracy(&data.y_test, &preds_hist));
            disp_exact.push(signed_disparities(id, &data, &preds_exact));
            disp_hist.push(signed_disparities(id, &data, &preds_hist));
        }
        let n = PARITY_SEEDS.len() as f64;
        let acc_exact = accs_exact.iter().sum::<f64>() / n;
        let acc_hist = accs_hist.iter().sum::<f64>() / n;
        assert!(
            (acc_exact - acc_hist).abs() <= 0.02,
            "{id:?}: exact {acc_exact:.4} vs hist {acc_hist:.4}"
        );
        assert_signs_compatible(
            id,
            &averaged_disparities(&disp_exact),
            &averaged_disparities(&disp_hist),
        );
    }
}

/// The `f32` histogram kernel against the `f64` reference accumulator on
/// every study dataset's real encoded training matrix: gradient/hessian
/// cells agree to `f32` rounding, and the count lane — exact integers in
/// `f32` — covers every row of every feature.
#[test]
fn f32_hist_matches_f64_reference_on_all_datasets() {
    for id in DatasetId::all() {
        let data = encoded_split(id, 31);
        let x = &data.x_train;
        let n = x.n_rows();
        let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
        // The gradients/hessians a first boosting round sees: logistic
        // refresh at zero scores.
        let rows: Vec<usize> = (0..n).collect();
        let scores = vec![0.0f64; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        kernels::logistic_grad_hess(&rows, &scores, &data.y_train, &mut grad, &mut hess);
        let hist = HistF32::accumulate(&binned, &rows, &grad, &hess);
        let reference = kernels::hist_naive(&binned, &rows, &grad, &hess);
        for j in 0..binned.n_cols() {
            if binned.n_bins(j) == 1 {
                continue; // constant feature: reference skips it
            }
            let quads = hist.feature_quads(&binned, j);
            let lo = binned.offset(j);
            let mut count = 0usize;
            for b in 0..binned.n_bins(j) {
                let (rg, rh) = reference[lo + b];
                let g = f64::from(quads[HIST_QUAD * b]);
                let h = f64::from(quads[HIST_QUAD * b + 1]);
                let tol = 1e-3 * (1.0 + rg.abs().max(rh.abs()));
                assert!((g - rg).abs() < tol, "{id:?} grad {j}/{b}: {g} vs {rg}");
                assert!((h - rh).abs() < tol, "{id:?} hess {j}/{b}: {h} vs {rh}");
                count += quads[HIST_QUAD * b + 2] as usize;
            }
            assert_eq!(count, n, "{id:?} feature {j}: counts must cover every row");
        }
    }
}

#[test]
fn hist_training_is_deterministic_on_real_data() {
    let data = encoded_split(DatasetId::Adult, 5);
    let a = GbdtClassifier::fit(&data.x_train, &data.y_train, 3, 30, 0.3, 1.0, 9);
    let b = GbdtClassifier::fit(&data.x_train, &data.y_train, 3, 30, 0.3, 1.0, 9);
    assert_eq!(a.predict_proba(&data.x_test), b.predict_proba(&data.x_test));
}

/// With at most `DEFAULT_N_BINS` distinct values the histogram candidate
/// set is the exact candidate set, so both trees predict identically.
#[test]
fn tree_hist_matches_exact_on_few_distinct_values() {
    let values: Vec<f64> = (0..60).map(|i| f64::from(i % 6)).collect();
    let targets: Vec<f64> = values.iter().map(|&v| if v < 3.0 { -1.0 } else { 2.0 }).collect();
    let x = DenseMatrix::from_vec(60, 1, values);
    // Squared error from a zero prediction: g = −target, h = 1.
    let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
    let hess = vec![1.0; 60];
    let rows: Vec<usize> = (0..60).collect();
    let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
    let hist = RegressionTree::fit_binned(&binned, &rows, &grad, &hess, TreeParams::default());
    let exact = ExactTree::fit(&x, &grad, &hess, &rows, TreeParams::default());
    for probe in [0.0, 1.0, 2.5, 3.0, 4.9, 5.0] {
        let (h, e) = (hist.predict_row(&[probe]), exact.predict_row(&[probe]));
        assert!((h - e).abs() < 1e-9, "probe {probe}: hist {h} vs exact {e}");
    }
}

/// The boosted form of the case above: with few distinct values both
/// splitters produce the same ensemble.
#[test]
fn gbdt_hist_matches_exact_on_few_distinct_values() {
    let mut data = Vec::new();
    let mut y = Vec::new();
    for i in 0..80 {
        let a = f64::from(i % 4);
        let b = f64::from((i / 4) % 3);
        data.extend([a, b]);
        y.push(u8::from(a + b >= 3.0));
    }
    let x = DenseMatrix::from_vec(80, 2, data);
    let hist = GbdtClassifier::fit(&x, &y, 3, 20, 0.3, 1.0, 11).predict_proba(&x);
    let exact = ExactGbdt::fit(&x, &y, 3, 20, 0.3, 1.0, 11).predict_proba(&x);
    for (h, e) in hist.iter().zip(&exact) {
        assert!((h - e).abs() < 1e-9, "hist {h} vs exact {e}");
    }
}
