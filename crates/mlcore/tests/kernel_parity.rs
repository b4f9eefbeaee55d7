//! Property-based parity of the vectorised per-unit kernels against the
//! reference loops they replaced.
//!
//! The blocked kNN and batched scoring kernels reorder *independent*
//! work (rows, query lanes) but keep every per-result accumulation in
//! the reference order, so their outputs must be **bit-identical** to
//! the naive loops on arbitrary inputs. So must the IRLS accumulation,
//! whose zipped loops keep the indexed loop's blocked sums exactly. The `f32` histogram kernel
//! rounds each cell's statistics to `f32`, so it gets a rounding
//! tolerance — but its count lane holds small integers, which `f32`
//! represents exactly, so counts are compared exactly.

use mlcore::kernels::{self, HistF32, HIST_QUAD, QUERY_BLOCK, TRAIN_BLOCK};
use mlcore::BinnedMatrix;
use proptest::prelude::*;
use tabular::{DenseMatrix, Rng64};

fn random_matrix(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng64::seed_from_u64(seed);
    DenseMatrix::from_vec(n, d, (0..n * d).map(|_| rng.normal()).collect())
}

/// All (squared distance, train index) pairs for one query, in ascending
/// `(distance, index)` order — the exact ordering the kNN classifier's
/// neighbour selection produces.
fn sorted_neighbours(dist: &[f64]) -> Vec<(u64, usize)> {
    let mut pairs: Vec<(f64, usize)> = dist.iter().copied().zip(0..).collect();
    pairs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    // Compare exact bit patterns, not approximate values: the kernels
    // promise bit-identical distances.
    pairs.into_iter().map(|(d, i)| (d.to_bits(), i)).collect()
}

/// The indexed IRLS accumulation loop `kernels::irls_accumulate` was
/// rewritten from: four-row blocks with `((a+b)+(c+d))` per slot, blocks
/// in row order, the `n % 4` tail rows last.
fn irls_reference(x: &DenseMatrix, y: &[u8], z: &[f64], grad: &mut [f64], hess: &mut [f64]) {
    use mlcore::linalg::sigmoid;
    let n = x.n_rows();
    let d = x.n_cols();
    let mut i = 0;
    while i + 4 <= n {
        let (r0, r1, r2, r3) = (x.row(i), x.row(i + 1), x.row(i + 2), x.row(i + 3));
        let mut err = [0.0f64; 4];
        let mut wgt = [0.0f64; 4];
        for s in 0..4 {
            let p = sigmoid(z[i + s]);
            err[s] = p - f64::from(y[i + s]);
            wgt[s] = (p * (1.0 - p)).max(1e-9);
        }
        for (j, gj) in grad[..d].iter_mut().enumerate() {
            *gj += (err[0] * r0[j] + err[1] * r1[j]) + (err[2] * r2[j] + err[3] * r3[j]);
        }
        grad[d] += (err[0] + err[1]) + (err[2] + err[3]);
        for j in 0..d {
            let xw0 = wgt[0] * r0[j];
            let xw1 = wgt[1] * r1[j];
            let xw2 = wgt[2] * r2[j];
            let xw3 = wgt[3] * r3[j];
            let hrow = &mut hess[j * (d + 1)..];
            for (k, hk) in hrow[j..d].iter_mut().enumerate() {
                let kk = j + k;
                *hk += (xw0 * r0[kk] + xw1 * r1[kk]) + (xw2 * r2[kk] + xw3 * r3[kk]);
            }
            hrow[d] += (xw0 + xw1) + (xw2 + xw3);
        }
        hess[d * (d + 1) + d] += (wgt[0] + wgt[1]) + (wgt[2] + wgt[3]);
        i += 4;
    }
    while i < n {
        let row = x.row(i);
        let p = sigmoid(z[i]);
        let err = p - f64::from(y[i]);
        let wgt = (p * (1.0 - p)).max(1e-9);
        for (gj, &xj) in grad[..d].iter_mut().zip(row) {
            *gj += err * xj;
        }
        grad[d] += err;
        for j in 0..d {
            let xw = wgt * row[j];
            let hrow = &mut hess[j * (d + 1)..];
            for (hk, &xk) in hrow[j..d].iter_mut().zip(&row[j..d]) {
                *hk += xw * xk;
            }
            hrow[d] += xw;
        }
        hess[d * (d + 1) + d] += wgt;
        i += 1;
    }
}

/// A random value, or +0.0 or -0.0 with probability 1/4 each.
fn maybe_signed_zero(rng: &mut Rng64) -> f64 {
    match rng.below(4) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.normal(),
    }
}

proptest! {
    #[test]
    fn irls_accumulate_matches_the_indexed_loop_bit_for_bit(
        seed in any::<u64>(),
        blocks in 0usize..24,
        d in 0usize..12,
        from_zero in any::<bool>(),
    ) {
        // Every remainder of n mod 4, so the tail loop runs 0 to 3 rows.
        for n in 4 * blocks..4 * blocks + 4 {
            let mut rng = Rng64::seed_from_u64(seed ^ n as u64);
            // Whole rows of +0.0 or -0.0 among rows mixing signed zeros in.
            let mut x = DenseMatrix::zeros(n, d);
            for i in 0..n {
                let kind = rng.below(4);
                for j in 0..d {
                    let v = match kind {
                        0 => 0.0,
                        1 => -0.0,
                        _ => maybe_signed_zero(&mut rng),
                    };
                    x.set(i, j, v);
                }
            }
            let y: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
            let z: Vec<f64> = (0..n).map(|_| 3.0 * maybe_signed_zero(&mut rng)).collect();
            // Both kernels add onto what the buffers hold: zeros, as IRLS
            // hands them over, or arbitrary values with signed zeros.
            let mut start = |len: usize| -> Vec<f64> {
                (0..len).map(|_| if from_zero { 0.0 } else { maybe_signed_zero(&mut rng) }).collect()
            };
            let (grad0, hess0) = (start(d + 1), start((d + 1) * (d + 1)));
            let (mut grad, mut hess) = (grad0.clone(), hess0.clone());
            kernels::irls_accumulate(&x, &y, &z, &mut grad, &mut hess);
            let (mut want_grad, mut want_hess) = (grad0, hess0);
            irls_reference(&x, &y, &z, &mut want_grad, &mut want_hess);
            for (j, (a, b)) in grad.iter().zip(&want_grad).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n {}: grad slot {} diverged", n, j);
            }
            for (j, (a, b)) in hess.iter().zip(&want_hess).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n {}: hess slot {} diverged", n, j);
            }
        }
    }

    #[test]
    fn blocked_knn_matches_brute_force_sort(
        seed in any::<u64>(),
        n in 1usize..130,
        d in 1usize..12,
    ) {
        let x = random_matrix(n, d, seed);
        // Blocked kernel: all rows as queries, tiled exactly as the
        // classifier tiles them.
        let mut qt = Vec::new();
        let mut tile = vec![0.0f64; TRAIN_BLOCK * QUERY_BLOCK];
        let mut blocked = vec![vec![0.0f64; n]; n];
        for q0 in (0..n).step_by(QUERY_BLOCK) {
            let qb = QUERY_BLOCK.min(n - q0);
            kernels::transpose_queries(&x, q0, qb, &mut qt);
            for t0 in (0..n).step_by(TRAIN_BLOCK) {
                let tb = TRAIN_BLOCK.min(n - t0);
                kernels::sq_dist_block(&x, t0, tb, &qt, &mut tile);
                for t in 0..tb {
                    for q in 0..qb {
                        blocked[q0 + q][t0 + t] = tile[t * QUERY_BLOCK + q];
                    }
                }
            }
        }
        let mut naive = Vec::new();
        for (q, blocked_q) in blocked.iter().enumerate() {
            kernels::sq_dist_naive(&x, x.row(q), &mut naive);
            prop_assert_eq!(
                sorted_neighbours(blocked_q),
                sorted_neighbours(&naive),
                "query {} neighbour order diverged", q
            );
        }
    }

    #[test]
    fn decision_batch_matches_per_row_decision(
        seed in any::<u64>(),
        n in 1usize..130,
        d in 1usize..16,
    ) {
        let x = random_matrix(n, d, seed);
        let mut rng = Rng64::seed_from_u64(seed ^ 0xDEC1);
        let weights: Vec<f64> = (0..d).map(|_| rng.normal()).collect();
        let bias = rng.normal();
        let mut batch = Vec::new();
        let mut naive = Vec::new();
        kernels::decision_batch(&x, &weights, bias, &mut batch);
        kernels::decision_naive(&x, &weights, bias, &mut naive);
        prop_assert_eq!(batch.len(), naive.len());
        for (i, (b, r)) in batch.iter().zip(naive.iter()).enumerate() {
            prop_assert_eq!(b.to_bits(), r.to_bits(), "row {} score diverged", i);
        }
    }

    #[test]
    fn hist_f32_matches_f64_reference(
        seed in any::<u64>(),
        n in 1usize..200,
        d in 1usize..8,
        n_bins in 2usize..32,
    ) {
        let x = random_matrix(n, d, seed);
        let binned = BinnedMatrix::from_matrix(&x, n_bins);
        let mut rng = Rng64::seed_from_u64(seed ^ 0x4157);
        let grad: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let hess: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let rows: Vec<usize> = (0..n).filter(|_| rng.bernoulli(0.7)).collect();
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
                // f32 rounding: each of up to n added terms can shift by
                // half an ulp of the running sum's magnitude.
                let tol = 1e-3 * (1.0 + rg.abs().max(rh.abs()) + n as f64 * 1e-4);
                prop_assert!((g - rg).abs() < tol, "grad {}/{}: {} vs {}", j, b, g, rg);
                prop_assert!((h - rh).abs() < tol, "hess {}/{}: {} vs {}", j, b, h, rh);
                count += quads[HIST_QUAD * b + 2] as usize;
            }
            prop_assert_eq!(count, rows.len(), "feature {} counts must cover every row", j);
        }
    }
}
