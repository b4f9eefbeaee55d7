//! Vectorised inner-loop kernels for the per-unit training hot paths.
//!
//! Three kernels cover the loops the study spends nearly all of its
//! `train_eval` time in, each rewritten into a chunked,
//! autovectoriser-friendly shape with a **fixed accumulation order** (see
//! EXPERIMENTS.md, "Numeric determinism"):
//!
//! * [`HistF32`] — per-node (gradient, hessian, count) histograms over a
//!   [`BinnedMatrix`], stored as interleaved `[g, h, count, pad]` `f32`
//!   quads so one 16-byte load-add-store updates a whole cell (counts
//!   are integers far below 2^24, where `f32` stays exact). Only the
//!   features with at least two bins are accumulated: a single-bin
//!   feature can never split, so its cell is never read. The kernel
//!   streams the matrix's row-major bin codes — one contiguous `u8` row
//!   plus one gradient/hessian load per row instead of per-feature
//!   gathers — so every `(feature, bin)` cell sums in ascending row
//!   position. Split gain is computed in `f64` from the `f32` sums by
//!   the tree builder.
//! * [`sq_dist_block`] — cache-blocked brute-force kNN distances: a block
//!   of [`QUERY_BLOCK`] query rows is transposed into feature-major
//!   scratch once, then every train row accumulates all query lanes at
//!   once. Per (train, query) pair the feature order stays
//!   sequential, so each distance is bit-identical to
//!   `DenseMatrix::row_distance_sq`.
//! * [`decision_batch`] — batched linear scoring (logistic-regression
//!   decision function) with a four-row interleave; per row the feature
//!   order stays sequential, so each score is bit-identical to the
//!   per-row dot product.
//!
//! The naive single-row / tuple-of-`f64` references these kernels replace
//! are kept here ([`hist_naive`], [`sq_dist_naive`], [`decision_naive`])
//! for the `studybench` `micro.kernels.*` sections and the parity tests.

use crate::binned::BinnedMatrix;
use crate::scratch;
use tabular::DenseMatrix;

// ---------------------------------------------------------------------------
// Histogram accumulation
// ---------------------------------------------------------------------------

/// The `f32` slots per (feature, bin) histogram cell: gradient sum,
/// hessian sum, row count, and one padding lane that keeps every cell a
/// 16-byte unit (one SIMD register).
pub const HIST_QUAD: usize = 4;

/// Per-node histogram statistics as interleaved `[g, h, count, pad]`
/// `f32` quads.
///
/// For feature `j` of the backing [`BinnedMatrix`], bin `b`'s cell is
/// `quads[4*(offset(j)+b) ..][..4]`: gradient sum, hessian sum, row
/// count, padding. Keeping all three statistics of a cell adjacent lets
/// the accumulator update a cell with a single 16-byte load-add-store
/// instead of three scattered read-modify-writes (the earlier
/// separate-lane layout). Statistics are `f32`: the tree builder forms
/// split gains in `f64` from these sums, and leaf values come from exact
/// `f64` row totals, so `f32` rounding can only move near-tied split
/// choices. The count lane is exact despite being `f32` — integer counts
/// up to 2^24 round-trip exactly, far above any node size here — so
/// occupancy tests (and therefore split thresholds) are deterministic.
pub struct HistF32 {
    quads: scratch::F32Scratch,
}

impl HistF32 {
    /// Feature `j`'s cells: `4 * n_bins(j)` values, bin `b`'s gradient
    /// sum at `4b`, hessian sum at `4b + 1`, row count at `4b + 2`.
    #[inline]
    pub fn feature_quads(&self, binned: &BinnedMatrix, j: usize) -> &[f32] {
        let lo = HIST_QUAD * binned.offset(j);
        &self.quads[lo..lo + HIST_QUAD * binned.n_bins(j)]
    }

    /// Accumulates the histogram of `rows` (global row ids into `grad` /
    /// `hess`) over the matrix's split features; the cells of single-bin
    /// features stay zero.
    ///
    /// Every `(feature, bin)` slot receives its contributions in
    /// ascending row position — the **fixed accumulation order**. The
    /// kernel streams whole rows of the matrix's row-major bin codes (one
    /// contiguous `u8` read and one gradient/hessian load per row, with
    /// the ~`n_cols`-update gap between repeat visits to a lane hiding
    /// the `f32` add latency), updating each visited cell with one
    /// 16-byte load-add-store (SSE2 on x86_64; the portable fallback
    /// performs the identical three `f32` adds, so both produce
    /// bit-identical buffers).
    pub fn accumulate(
        binned: &BinnedMatrix,
        rows: &[usize],
        grad: &[f64],
        hess: &[f64],
    ) -> HistF32 {
        let mut quads = scratch::take_f32();
        quads.resize(HIST_QUAD * binned.total_bins(), 0.0);
        let cells = quads.as_mut_slice();
        // Per-feature cell bases, hoisted out of the row loop: bases[k] =
        // first `f32` slot of the k-th split feature's bin 0 quad, matching
        // the k-th code of each row-major row.
        let mut bases = scratch::take_usize();
        bases.extend(binned.split_features().iter().map(|&j| HIST_QUAD * binned.offset(j)));
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `BinnedMatrix` construction guarantees every bin code is
        // below its feature's bin count, and the k-th row-major code belongs
        // to the k-th split feature, so `base + 4*code` addresses that
        // feature's own quad and the 16-byte access ends at
        // `base + 4*code + 4 <= 4 * total_bins() == cells.len()` — always in
        // bounds. The unaligned load/store intrinsics have no alignment
        // requirement, and `_mm_add_ps` performs IEEE `f32` adds lane by
        // lane, identical to the scalar fallback. Checked indexing here
        // costs ~30% of the study's hottest loop.
        unsafe {
            use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_set_ps, _mm_storeu_ps};
            for &i in rows {
                let codes = binned.row_bins(i);
                let add = _mm_set_ps(0.0, 1.0, hess[i] as f32, grad[i] as f32);
                for (&code, &base) in codes.iter().zip(bases.iter()) {
                    let p = cells.as_mut_ptr().add(base + HIST_QUAD * usize::from(code));
                    _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), add));
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        for &i in rows {
            let codes = binned.row_bins(i);
            let g = grad[i] as f32;
            let h = hess[i] as f32;
            for (&code, &base) in codes.iter().zip(bases.iter()) {
                let q = base + HIST_QUAD * usize::from(code);
                // SAFETY: as above — `q + 2` stays inside the feature's own
                // quads because every bin code is below the feature's bin
                // count.
                unsafe {
                    *cells.get_unchecked_mut(q) += g;
                    *cells.get_unchecked_mut(q + 1) += h;
                    *cells.get_unchecked_mut(q + 2) += 1.0;
                }
            }
        }
        HistF32 { quads }
    }

    /// Parent histogram minus the smaller child's, element-wise — the
    /// sibling subtraction step of the tree builder. Count cells stay
    /// exact: they hold integers far below 2^24, where `f32` subtraction
    /// is error-free.
    pub fn subtract(mut self, small: &HistF32) -> HistF32 {
        for (p, s) in self.quads.iter_mut().zip(small.quads.iter()) {
            *p -= s;
        }
        self
    }
}

/// The tuple-of-`f64` reference accumulator the `f32` kernel replaced:
/// one sequential gather per feature. Kept for the `micro.kernels.hist`
/// bench section and the parity tests.
pub fn hist_naive(
    binned: &BinnedMatrix,
    rows: &[usize],
    grad: &[f64],
    hess: &[f64],
) -> Vec<(f64, f64)> {
    // lint:allow(K001, naive reference kernel for parity tests and the bench baseline; never on the study hot path)
    let mut hist = vec![(0.0, 0.0); binned.total_bins()];
    for j in 0..binned.n_cols() {
        if binned.n_bins(j) == 1 {
            continue;
        }
        let column = binned.feature_bins(j);
        let slice = &mut hist[binned.offset(j)..binned.offset(j) + binned.n_bins(j)];
        for &i in rows {
            let slot = &mut slice[usize::from(column[i])];
            slot.0 += grad[i];
            slot.1 += hess[i];
        }
    }
    hist
}

// ---------------------------------------------------------------------------
// Blocked kNN distances
// ---------------------------------------------------------------------------

/// Query rows per distance tile. The query block is transposed once into
/// feature-major scratch, so every train row's features broadcast across
/// [`QUERY_BLOCK`] independent accumulator lanes.
pub const QUERY_BLOCK: usize = 16;

/// Train rows per distance tile: bounds the tile to
/// `TRAIN_BLOCK × QUERY_BLOCK` `f64`s (8 KiB) so it stays L1-resident
/// while the query scratch is streamed once per block.
pub const TRAIN_BLOCK: usize = 64;

/// Transposes query rows `q0..q0+qb` of `x` into feature-major scratch:
/// `qt[j * QUERY_BLOCK + q]` is feature `j` of query `q0 + q`. Lanes past
/// `qb` are zero-padded so the distance kernel always runs the full fixed
/// width (padded lanes are computed and discarded).
pub fn transpose_queries(x: &DenseMatrix, q0: usize, qb: usize, qt: &mut Vec<f64>) {
    let d = x.n_cols();
    qt.clear();
    qt.resize(d * QUERY_BLOCK, 0.0);
    for q in 0..qb {
        let row = x.row(q0 + q);
        for (j, &v) in row.iter().enumerate() {
            qt[j * QUERY_BLOCK + q] = v;
        }
    }
}

/// Squared Euclidean distances from train rows `t0..t0+tb` to the
/// transposed query block `qt`: `tile[t * QUERY_BLOCK + q]` is the
/// distance between train row `t0 + t` and query lane `q`.
///
/// Per (train, query) pair the features accumulate in sequential order —
/// exactly the order of `DenseMatrix::row_distance_sq` — so every
/// distance is bit-identical to the naive per-row scan.
pub fn sq_dist_block(train: &DenseMatrix, t0: usize, tb: usize, qt: &[f64], tile: &mut [f64]) {
    debug_assert!(tile.len() >= tb * QUERY_BLOCK);
    debug_assert_eq!(qt.len(), train.n_cols() * QUERY_BLOCK);
    for t in 0..tb {
        let row = train.row(t0 + t);
        let mut acc = [0.0f64; QUERY_BLOCK];
        for (j, &xj) in row.iter().enumerate() {
            let lanes = &qt[j * QUERY_BLOCK..(j + 1) * QUERY_BLOCK];
            for q in 0..QUERY_BLOCK {
                let diff = xj - lanes[q];
                acc[q] += diff * diff;
            }
        }
        tile[t * QUERY_BLOCK..(t + 1) * QUERY_BLOCK].copy_from_slice(&acc);
    }
}

/// The one-row-at-a-time distance scan the blocked kernel replaced. Kept
/// for the `micro.kernels.knn_block` bench section and the parity tests.
pub fn sq_dist_naive(train: &DenseMatrix, point: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..train.n_rows()).map(|i| train.row_distance_sq(i, point)));
}

// ---------------------------------------------------------------------------
// Batched linear scoring
// ---------------------------------------------------------------------------

/// Decision-function values `x · weights + bias` for every row of `x`,
/// four rows interleaved per iteration so the dot products run on
/// independent accumulator chains. Per row the feature order is
/// sequential — bit-identical to the per-row
/// `row.iter().zip(weights).map(|(a, b)| a * b).sum() + bias`.
pub fn decision_batch(x: &DenseMatrix, weights: &[f64], bias: f64, out: &mut Vec<f64>) {
    let n = x.n_rows();
    let d = x.n_cols();
    debug_assert_eq!(weights.len(), d);
    out.clear();
    out.reserve(n);
    let mut i = 0;
    while i + 4 <= n {
        let (r0, r1, r2, r3) = (x.row(i), x.row(i + 1), x.row(i + 2), x.row(i + 3));
        let mut acc = [0.0f64; 4];
        for (j, &wj) in weights.iter().enumerate() {
            acc[0] += r0[j] * wj;
            acc[1] += r1[j] * wj;
            acc[2] += r2[j] * wj;
            acc[3] += r3[j] * wj;
        }
        out.extend(acc.iter().map(|a| a + bias));
        i += 4;
    }
    while i < n {
        // lint:allow(K001, push into capacity the caller reserved from the scratch pool; the tail loop never reallocates)
        out.push(x.row(i).iter().zip(weights).map(|(a, b)| a * b).sum::<f64>() + bias);
        i += 1;
    }
}

/// The per-row reference scoring loop. Kept for the
/// `micro.kernels.logreg_batch` bench section and the parity tests.
pub fn decision_naive(x: &DenseMatrix, weights: &[f64], bias: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        (0..x.n_rows())
            .map(|i| x.row(i).iter().zip(weights).map(|(a, b)| a * b).sum::<f64>() + bias),
    );
}

/// One IRLS iteration's gradient and (upper-triangle) hessian
/// accumulation from precomputed decision values `z`, blocked four rows
/// at a time so the per-`k` inner loops carry four independent
/// multiply-add streams.
///
/// The block structure is part of the fixed accumulation order: each
/// `grad` / `hess` slot receives its four in-block contributions as
/// `(r0 + r1) + (r2 + r3)` before the next block, blocks in row order and
/// the `n % 4` remainder rows last, one at a time. That reassociates the
/// strictly row-sequential sums — scores shift by `f64` rounding, which
/// is why the study journal fingerprint was bumped (see EXPERIMENTS.md) —
/// and any other order would move them again. The loops run over zipped
/// slices, so the inner loops carry no per-element bounds checks; the
/// loop they replaced, with the same arithmetic, is the bit-for-bit
/// reference of `tests/kernel_parity.rs`.
///
/// `grad` has `d + 1` slots (intercept last), `hess` is `(d+1)²`
/// row-major with only the upper triangle written; both accumulate onto
/// what they hold.
pub fn irls_accumulate(
    x: &DenseMatrix,
    y: &[u8],
    z: &[f64],
    grad: &mut [f64],
    hess: &mut [f64],
) {
    use crate::linalg::sigmoid;
    let n = x.n_rows();
    let d = x.n_cols();
    assert_eq!(z.len(), n, "one decision value per row");
    assert_eq!(y.len(), n, "one label per row");
    assert_eq!(grad.len(), d + 1, "gradient has d + 1 slots");
    assert_eq!(hess.len(), (d + 1) * (d + 1), "hessian is (d + 1)²");
    // Feature slots and the intercept slot; the hessian's first d rows,
    // and its last row, of which only the intercept diagonal is written.
    let (grad_w, grad_b) = grad.split_at_mut(d);
    let (hess_w, hess_b) = hess.split_at_mut(d * (d + 1));
    let blocked = n - n % 4;
    let blocks = z[..blocked].chunks_exact(4).zip(y[..blocked].chunks_exact(4));
    for (i, (zb, yb)) in (0..blocked).step_by(4).zip(blocks) {
        let (r0, r1, r2, r3) = (x.row(i), x.row(i + 1), x.row(i + 2), x.row(i + 3));
        let mut err = [0.0f64; 4];
        let mut wgt = [0.0f64; 4];
        for (((e, w), &zs), &ys) in err.iter_mut().zip(&mut wgt).zip(zb).zip(yb) {
            let p = sigmoid(zs);
            *e = p - f64::from(ys);
            *w = (p * (1.0 - p)).max(1e-9);
        }
        for ((((g, &a0), &a1), &a2), &a3) in grad_w.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *g += (err[0] * a0 + err[1] * a1) + (err[2] * a2 + err[3] * a3);
        }
        grad_b[0] += (err[0] + err[1]) + (err[2] + err[3]);
        for (j, hrow) in hess_w.chunks_exact_mut(d + 1).enumerate() {
            let xw0 = wgt[0] * r0[j];
            let xw1 = wgt[1] * r1[j];
            let xw2 = wgt[2] * r2[j];
            let xw3 = wgt[3] * r3[j];
            let (upper, intercept) = hrow[j..].split_at_mut(d - j);
            let cols = r0[j..].iter().zip(&r1[j..]).zip(&r2[j..]).zip(&r3[j..]);
            for (h, (((&a0, &a1), &a2), &a3)) in upper.iter_mut().zip(cols) {
                *h += (xw0 * a0 + xw1 * a1) + (xw2 * a2 + xw3 * a3);
            }
            intercept[0] += (xw0 + xw1) + (xw2 + xw3);
        }
        hess_b[d] += (wgt[0] + wgt[1]) + (wgt[2] + wgt[3]);
    }
    for (i, (&zi, &yi)) in (blocked..n).zip(z[blocked..].iter().zip(&y[blocked..])) {
        let row = x.row(i);
        let p = sigmoid(zi);
        let err = p - f64::from(yi);
        let wgt = (p * (1.0 - p)).max(1e-9);
        for (g, &a) in grad_w.iter_mut().zip(row) {
            *g += err * a;
        }
        grad_b[0] += err;
        for (j, hrow) in hess_w.chunks_exact_mut(d + 1).enumerate() {
            let xw = wgt * row[j];
            let (upper, intercept) = hrow[j..].split_at_mut(d - j);
            for (h, &a) in upper.iter_mut().zip(&row[j..]) {
                *h += xw * a;
            }
            intercept[0] += xw;
        }
        hess_b[d] += wgt;
    }
}

/// Logistic-loss gradient/hessian refresh for the boosting loop:
/// `grad[i] = p_i - y_i`, `hess[i] = max(p_i (1 - p_i), 1e-9)` with
/// `p_i = sigmoid(scores[i])` for every global row id in `rows` — the
/// same per-row operations the loop previously inlined, kept as a kernel
/// so the study, CV and bench paths share one definition.
pub fn logistic_grad_hess(
    rows: &[usize],
    scores: &[f64],
    y: &[u8],
    grad: &mut [f64],
    hess: &mut [f64],
) {
    use crate::linalg::sigmoid;
    for &i in rows {
        let p = sigmoid(scores[i]);
        grad[i] = p - f64::from(y[i]);
        hess[i] = (p * (1.0 - p)).max(1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Rng64;

    fn random_matrix(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = Rng64::seed_from_u64(seed);
        DenseMatrix::from_vec(n, d, (0..n * d).map(|_| rng.normal()).collect())
    }

    #[test]
    fn hist_f32_matches_naive_within_f32_rounding() {
        // Constant columns (one bin) are no split features: their cells
        // stay zero.
        let mut x = random_matrix(500, 6, 11);
        for i in 0..500 {
            x.set(i, 0, 1.5);
            x.set(i, 3, -2.0);
        }
        let binned = BinnedMatrix::from_matrix(&x, 16);
        assert_eq!(binned.split_features(), &[1, 2, 4, 5]);
        let mut rng = Rng64::seed_from_u64(3);
        let grad: Vec<f64> = (0..500).map(|_| rng.normal()).collect();
        let hess: Vec<f64> = (0..500).map(|_| rng.next_f64()).collect();
        let rows: Vec<usize> = (0..500).filter(|i| i % 3 != 0).collect();
        let hist = HistF32::accumulate(&binned, &rows, &grad, &hess);
        let naive = hist_naive(&binned, &rows, &grad, &hess);
        for j in 0..binned.n_cols() {
            let quads = hist.feature_quads(&binned, j);
            if !binned.split_features().contains(&j) {
                assert!(quads.iter().all(|&v| v == 0.0), "single-bin feature {j}");
                continue;
            }
            let lo = binned.offset(j);
            let mut total = 0.0f64;
            for b in 0..binned.n_bins(j) {
                let (ng, nh) = naive[lo + b];
                let g = f64::from(quads[HIST_QUAD * b]);
                let h = f64::from(quads[HIST_QUAD * b + 1]);
                assert!((g - ng).abs() < 1e-3 * (1.0 + ng.abs()), "g {j}/{b}");
                assert!((h - nh).abs() < 1e-3 * (1.0 + nh.abs()), "h {j}/{b}");
                total += f64::from(quads[HIST_QUAD * b + 2]);
            }
            assert_eq!(total as usize, rows.len(), "counts must cover every row");
        }
    }

    #[test]
    fn hist_f32_is_identical_on_a_recycled_scratch_buffer() {
        // The second call reuses the first histogram's pooled buffer,
        // which must come back zeroed: same inputs, same bits.
        let x = random_matrix(300, 4, 5);
        let binned = BinnedMatrix::from_matrix(&x, 32);
        let mut rng = Rng64::seed_from_u64(9);
        let grad: Vec<f64> = (0..300).map(|_| rng.normal()).collect();
        let hess = vec![0.25; 300];
        let rows: Vec<usize> = (0..300).collect();
        let a = HistF32::accumulate(&binned, &rows, &grad, &hess).quads.to_vec();
        let b = HistF32::accumulate(&binned, &rows, &grad, &hess);
        assert_eq!(a.as_slice(), b.quads.as_slice());
    }

    #[test]
    fn hist_subtract_keeps_counts_exact() {
        let x = random_matrix(400, 3, 7);
        let binned = BinnedMatrix::from_matrix(&x, 16);
        let grad = vec![1.0; 400];
        let hess = vec![1.0; 400];
        let all: Vec<usize> = (0..400).collect();
        let small: Vec<usize> = (0..400).filter(|i| i % 5 == 0).collect();
        let parent = HistF32::accumulate(&binned, &all, &grad, &hess);
        let child = HistF32::accumulate(&binned, &small, &grad, &hess);
        let large = parent.subtract(&child);
        for j in 0..binned.n_cols() {
            let quads = large.feature_quads(&binned, j);
            let total: f64 = (0..binned.n_bins(j))
                .map(|b| f64::from(quads[HIST_QUAD * b + 2]))
                .sum();
            assert_eq!(total as usize, 400 - small.len());
        }
    }

    #[test]
    fn sq_dist_block_is_bit_identical_to_row_scan() {
        let train = random_matrix(97, 7, 21);
        let queries = random_matrix(23, 7, 22);
        let mut qt = Vec::new();
        let mut tile = vec![0.0; TRAIN_BLOCK * QUERY_BLOCK];
        let mut naive = Vec::new();
        for q0 in (0..queries.n_rows()).step_by(QUERY_BLOCK) {
            let qb = QUERY_BLOCK.min(queries.n_rows() - q0);
            transpose_queries(&queries, q0, qb, &mut qt);
            for t0 in (0..train.n_rows()).step_by(TRAIN_BLOCK) {
                let tb = TRAIN_BLOCK.min(train.n_rows() - t0);
                sq_dist_block(&train, t0, tb, &qt, &mut tile);
                for q in 0..qb {
                    sq_dist_naive(&train, queries.row(q0 + q), &mut naive);
                    for t in 0..tb {
                        assert_eq!(
                            tile[t * QUERY_BLOCK + q].to_bits(),
                            naive[t0 + t].to_bits(),
                            "query {} train {}",
                            q0 + q,
                            t0 + t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decision_batch_is_bit_identical_to_per_row() {
        for n in [0, 1, 3, 4, 7, 64, 101] {
            let x = random_matrix(n, 9, n as u64 + 40);
            let mut rng = Rng64::seed_from_u64(77);
            let w: Vec<f64> = (0..9).map(|_| rng.normal()).collect();
            let mut batch = Vec::new();
            let mut naive = Vec::new();
            decision_batch(&x, &w, 0.37, &mut batch);
            decision_naive(&x, &w, 0.37, &mut naive);
            assert_eq!(batch.len(), n);
            for (a, b) in batch.iter().zip(&naive) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn irls_accumulate_matches_scalar_reference_closely() {
        // The blocked accumulation reassociates f64 sums, so it is not
        // bit-identical to the row-sequential loop — but it must agree to
        // rounding-level tolerance and be deterministic across calls.
        let n = 53;
        let d = 6;
        let x = random_matrix(n, d, 31);
        let mut rng = Rng64::seed_from_u64(32);
        let y: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
        let w: Vec<f64> = (0..=d).map(|_| rng.normal() * 0.3).collect();
        let mut z = Vec::new();
        decision_batch(&x, &w[..d], w[d], &mut z);

        let mut grad = vec![0.0; d + 1];
        let mut hess = vec![0.0; (d + 1) * (d + 1)];
        irls_accumulate(&x, &y, &z, &mut grad, &mut hess);

        let mut grad2 = vec![0.0; d + 1];
        let mut hess2 = vec![0.0; (d + 1) * (d + 1)];
        irls_accumulate(&x, &y, &z, &mut grad2, &mut hess2);
        assert_eq!(grad, grad2, "deterministic across calls");
        assert_eq!(hess, hess2);

        // Scalar reference.
        let mut rgrad = vec![0.0; d + 1];
        let mut rhess = vec![0.0; (d + 1) * (d + 1)];
        for i in 0..n {
            let row = x.row(i);
            let p = crate::linalg::sigmoid(z[i]);
            let err = p - f64::from(y[i]);
            let wgt = (p * (1.0 - p)).max(1e-9);
            for (gj, &xj) in rgrad[..d].iter_mut().zip(row) {
                *gj += err * xj;
            }
            rgrad[d] += err;
            for j in 0..d {
                let xw = wgt * row[j];
                let hrow = &mut rhess[j * (d + 1)..];
                for (hk, &xk) in hrow[j..d].iter_mut().zip(&row[j..d]) {
                    *hk += xw * xk;
                }
                hrow[d] += xw;
            }
            rhess[d * (d + 1) + d] += wgt;
        }
        for (a, b) in grad.iter().zip(&rgrad) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "grad {a} vs {b}");
        }
        for (a, b) in hess.iter().zip(&rhess) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "hess {a} vs {b}");
        }
    }
}
