//! Bit-for-bit parity of `tune_and_fit` with a per-(spec, fold) rebuild
//! from the public model API, and of the two shortcuts underneath it
//! with the plain computations they replace.
//!
//! * k-NN tuning scores the grid's folds and its training accuracy from
//!   one distance pass over all row pairs; the rebuild fits one
//!   `KnnClassifier` per (k, fold) and predicts the full training set.
//! * GBDT rounds take a sampled row's score step from the leaf its tree
//!   build partitioned it into; the reference boosting loop walks every
//!   row through the raw tree.
//! * `predict_proba_grid` selects neighbours by the `(distance, index)`
//!   total order; the reference sorts every candidate.
//! * Each fold's grid-invariant work is shared across the grid: the
//!   GBDT depths of one fold size read one row-subsample schedule, and
//!   every log-reg `C` starts IRLS from one copy of the fold's w = 0
//!   system; the rebuild draws and accumulates its own for every fit.
//!
//! The inputs carry the cases these shortcuts must survive: duplicate
//! rows (tied distances within and across folds), a feature of adjacent
//! floats (bin boundaries between neighbouring values, where a rounded
//! midpoint threshold is closest to misrouting a row), a NaN cell
//! (which bins to 0 but routes right, so GBDT falls back to the walk),
//! constant features (GBDT fits that stop after their first round, so a
//! shared schedule is read as a prefix) and folds of two sizes.

use mlcore::kernels::logistic_grad_hess;
use mlcore::{
    accuracy, tune_and_fit, BinnedMatrix, GbdtClassifier, KnnClassifier, ModelKind,
    ModelSpec, RegressionTree, TreeParams, TunedModel, DEFAULT_N_BINS,
};
use tabular::{split::kfold, DenseMatrix, Rng64};

/// Gaussian features with a noisy linear label.
fn blobs(n: usize, d: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.normal()).collect();
        let score: f64 = row.iter().enumerate().map(|(j, v)| v * (1.0 - 0.4 * j as f64)).sum();
        y.push(u8::from(score + 0.8 * rng.normal() > 0.0));
        data.extend(row);
    }
    (DenseMatrix::from_vec(n, d, data), y)
}

/// Every row three times over, interleaved, with some copies relabelled:
/// equal distances between rows of different folds and different labels.
fn with_duplicates(n: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
    let (base, labels) = blobs(n.div_ceil(3), 4, seed);
    let rows: Vec<usize> = (0..n).map(|i| i % base.n_rows()).collect();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xD0B);
    let y = rows.iter().map(|&r| labels[r] ^ u8::from(rng.bernoulli(0.2))).collect();
    (base.take_rows(&rows), y)
}

/// Feature 0 steps through consecutive floats above 1.0, so every bin
/// boundary lies between adjacent floats; feature 1 is a binary flag.
fn with_adjacent_floats(n: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
    let (mut x, y) = blobs(n, 3, seed);
    let mut v = 1.0f64;
    for (i, &label) in y.iter().enumerate() {
        if i % 3 != 0 {
            v = v.next_up();
        }
        x.set(i, 0, if label == 1 { v } else { v.next_up() });
        x.set(i, 1, f64::from(u8::from(x.get(i, 1) > 0.3)));
    }
    (x, y)
}

/// Gaussian blobs with one NaN cell.
fn with_nan(n: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
    let (mut x, y) = blobs(n, 4, seed);
    x.set(n / 2, 1, f64::NAN);
    (x, y)
}

/// Three constant features and coin-flip labels. Every tree is a single
/// leaf, so a GBDT fit stops after its first round exactly when that
/// round's subsample keeps the fold's positive rate (the leaf value is
/// then ~0) and boosts every round otherwise.
fn constant(n: usize, seed: u64) -> (DenseMatrix, Vec<u8>) {
    let mut rng = Rng64::seed_from_u64(seed ^ 0xC0);
    let y = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
    let data = (0..n).flat_map(|_| [1.0, -2.5, 0.0]).collect();
    (DenseMatrix::from_vec(n, 3, data), y)
}

fn datasets(seed: u64) -> Vec<(&'static str, DenseMatrix, Vec<u8>)> {
    let (a, ya) = blobs(150, 5, seed);
    let (b, yb) = with_duplicates(129, seed);
    let (c, yc) = with_adjacent_floats(140, seed);
    let (d, yd) = with_nan(120, seed);
    let (e, ye) = blobs(7, 2, seed);
    let (f, yf) = constant(15, seed);
    vec![
        ("blobs", a, ya),
        ("duplicates", b, yb),
        ("adjacent-floats", c, yc),
        ("nan-cell", d, yd),
        ("tiny", e, ye),
        ("constant", f, yf),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `tune_and_fit`, rebuilt one (spec, fold) at a time from public calls:
/// `ModelSpec::fit_binned` for LogReg and GBDT, a dedicated
/// `KnnClassifier` per (k, fold) scored by `predict_proba_grid`, and the
/// refit's `accuracy(y, predict(x))`.
fn rebuilt(kind: ModelKind, x: &DenseMatrix, y: &[u8], n_folds: usize, seed: u64) -> TunedModel {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut grid = kind.default_grid();
    rng.shuffle(&mut grid);
    let folds = kfold(x.n_rows(), n_folds, rng.next_u64()).expect("enough rows");
    let fit_seed = rng.next_u64();
    let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
    let mut best: Option<(f64, ModelSpec)> = None;
    for spec in &grid {
        let mut sum = 0.0;
        for (train_idx, val_idx) in &folds {
            let x_val = x.take_rows(val_idx);
            let y_val: Vec<u8> = val_idx.iter().map(|&i| y[i]).collect();
            let preds: Vec<u8> = match *spec {
                ModelSpec::Knn { k } => {
                    let y_train: Vec<u8> = train_idx.iter().map(|&i| y[i]).collect();
                    let model = KnnClassifier::fit(&x.take_rows(train_idx), &y_train, k);
                    let proba = model.predict_proba_grid(&x_val, &[k]).remove(0);
                    proba.iter().map(|&p| u8::from(p >= 0.5)).collect()
                }
                _ => spec.fit_binned(&binned, x, train_idx, y, fit_seed).predict(&x_val),
            };
            sum += accuracy(&y_val, &preds);
        }
        let mean = sum / folds.len() as f64;
        if best.is_none_or(|(b, _)| mean > b) {
            best = Some((mean, *spec));
        }
    }
    let (val_accuracy, best_spec) = best.expect("non-empty grid");
    let model = if kind.is_tree_based() {
        let all: Vec<usize> = (0..x.n_rows()).collect();
        best_spec.fit_binned(&binned, x, &all, y, fit_seed)
    } else {
        best_spec.fit(x, y, fit_seed)
    };
    let train_accuracy = accuracy(y, &model.predict(x));
    TunedModel { model, best_spec, val_accuracy, train_accuracy }
}

#[test]
fn tune_and_fit_matches_per_fold_rebuild_bit_for_bit() {
    for data_seed in [1u64, 2] {
        for (name, x, y) in datasets(data_seed) {
            let (x_test, _) = blobs(40, x.n_cols(), 99);
            for kind in ModelKind::all() {
                for seed in [0u64, 7, 42] {
                    let n_folds = if x.n_rows() < 10 { 3 } else { 3 + (seed as usize % 3) };
                    let got = tune_and_fit(kind, &x, &y, n_folds, seed);
                    let want = rebuilt(kind, &x, &y, n_folds, seed);
                    let case = format!("{name} (data seed {data_seed}) {kind} seed {seed}");
                    assert_eq!(got.best_spec, want.best_spec, "{case}: winner");
                    assert_eq!(
                        got.val_accuracy.to_bits(),
                        want.val_accuracy.to_bits(),
                        "{case}: val_accuracy"
                    );
                    assert_eq!(
                        got.train_accuracy.to_bits(),
                        want.train_accuracy.to_bits(),
                        "{case}: train_accuracy"
                    );
                    assert_eq!(
                        bits(&got.model.predict_proba(&x_test)),
                        bits(&want.model.predict_proba(&x_test)),
                        "{case}: test probabilities"
                    );
                }
            }
        }
    }
}

/// The parity test reads a shared GBDT schedule as a prefix: among its
/// tunings on the constant input (the same data seeds, tuning seeds and
/// fold counts), some fit stops after its first round next to a fit of
/// the same fold size that boosts every round.
#[test]
fn constant_features_stop_some_gbdt_fits_after_their_first_round() {
    let spec = ModelKind::Gbdt.default_grid()[0];
    let ModelSpec::Gbdt { max_depth, n_rounds, learning_rate, reg_lambda } = spec else {
        unreachable!("gbdt grid")
    };
    let mut prefix_reads = 0;
    let cases = [1u64, 2].into_iter().flat_map(|d| [0u64, 7, 42].map(|seed| (d, seed)));
    for (data_seed, seed) in cases {
        let n_folds = 3 + (seed as usize % 3);
        let (x, y) = constant(15, data_seed);
        let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut grid = ModelKind::Gbdt.default_grid();
        rng.shuffle(&mut grid);
        let folds = kfold(x.n_rows(), n_folds, rng.next_u64()).expect("enough rows");
        let fit_seed = rng.next_u64();
        let rounds: Vec<(usize, usize)> = folds
            .iter()
            .map(|(train_idx, _)| {
                let model = GbdtClassifier::fit_binned(
                    &binned, &x, train_idx, &y, max_depth, n_rounds, learning_rate, reg_lambda,
                    fit_seed,
                );
                (train_idx.len(), model.n_trees())
            })
            .collect();
        assert!(rounds.iter().all(|&(_, t)| t == 0 || t == n_rounds), "{rounds:?}");
        prefix_reads += usize::from(
            rounds.iter().any(|&(n, t)| t == 0 && rounds.contains(&(n, n_rounds))),
        );
    }
    assert!(prefix_reads > 0, "no tuning stops one fit early beside a full one");
}

/// The boosting loop as it ran before leaf routing: every round walks
/// every row through the raw tree. Returns the per-round trees.
fn boosted_by_tree_walk(
    x: &DenseMatrix,
    y: &[u8],
    rows: &[usize],
    params: TreeParams,
    n_rounds: usize,
    seed: u64,
) -> Vec<RegressionTree> {
    let n = rows.len();
    let pos = rows.iter().filter(|&&i| y[i] == 1).count() as f64;
    let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
    let mut scores = vec![(rate / (1.0 - rate)).ln(); x.n_rows()];
    let (mut grad, mut hess) = (vec![0.0; x.n_rows()], vec![0.0; x.n_rows()]);
    let binned = BinnedMatrix::from_matrix(x, DEFAULT_N_BINS);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut trees = Vec::new();
    for _ in 0..n_rounds {
        let sample: Vec<usize> = rng
            .sample_indices(n, ((n as f64) * 0.8).ceil() as usize)
            .into_iter()
            .map(|k| rows[k])
            .collect();
        logistic_grad_hess(&sample, &scores, y, &mut grad, &mut hess);
        let tree = RegressionTree::fit_binned(&binned, &sample, &grad, &hess, params);
        if tree.n_nodes() == 1 && tree.predict_row(&[]).abs() < 1e-12 {
            break;
        }
        for &i in rows {
            scores[i] += 0.3 * tree.predict_row(x.row(i));
        }
        trees.push(tree);
    }
    trees
}

#[test]
fn gbdt_rounds_match_a_tree_walk_reference() {
    for (name, x, y) in datasets(3) {
        for (depth, seed) in [(2usize, 5u64), (4, 11)] {
            // A fold-like subset (every row but each fifth) and all rows.
            let subset: Vec<usize> = (0..x.n_rows()).filter(|i| i % 5 != 2).collect();
            let all: Vec<usize> = (0..x.n_rows()).collect();
            for rows in [&subset, &all] {
                let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
                let model =
                    GbdtClassifier::fit_binned(&binned, &x, rows, &y, depth, 25, 0.3, 1.0, seed);
                let params = TreeParams { max_depth: depth, ..TreeParams::default() };
                let want = boosted_by_tree_walk(&x, &y, rows, params, 25, seed);
                assert_eq!(model.n_trees(), want.len(), "{name} depth {depth}: rounds");
                for (round, (a, b)) in model.trees().iter().zip(&want).enumerate() {
                    let pa: Vec<f64> = (0..x.n_rows()).map(|i| a.predict_row(x.row(i))).collect();
                    let pb: Vec<f64> = (0..x.n_rows()).map(|i| b.predict_row(x.row(i))).collect();
                    assert_eq!(bits(&pa), bits(&pb), "{name} depth {depth}: round {round}");
                }
            }
        }
    }
}

#[test]
fn predict_proba_grid_matches_brute_force_sort_for_1_to_17_queries() {
    for (name, x, y) in datasets(4) {
        let n = x.n_rows();
        let ks = [1usize, 2, 3, 5, 8, 21, n + 5];
        let model = KnnClassifier::fit(&x, &y, 3);
        // Queries: rows of the training set itself (zero distances and
        // duplicates included) and shifted copies.
        let order: Vec<usize> = (0..17).map(|i| (i * 7) % n).collect();
        let mut queries = x.take_rows(&order);
        for i in (1..queries.n_rows()).step_by(2) {
            queries.set(i, 0, queries.get(i, 0) + 0.25);
        }
        for nq in 1..=17 {
            let q = queries.take_rows(&(0..nq).collect::<Vec<_>>());
            let got = model.predict_proba_grid(&q, &ks);
            let orders: Vec<Vec<(f64, usize)>> = (0..nq)
                .map(|qi| {
                    let mut order: Vec<(f64, usize)> =
                        (0..n).map(|t| (x.row_distance_sq(t, q.row(qi)), t)).collect();
                    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    order
                })
                .collect();
            for (&k, probas) in ks.iter().zip(&got) {
                for (qi, (p, order)) in probas.iter().zip(&orders).enumerate() {
                    let eff = k.min(n);
                    let pos = order[..eff].iter().filter(|&&(_, t)| y[t] == 1).count();
                    let want = pos as f64 / eff as f64;
                    assert_eq!(
                        p.to_bits(),
                        want.to_bits(),
                        "{name}: {nq} queries, query {qi}, k {k}"
                    );
                }
            }
        }
    }
}
