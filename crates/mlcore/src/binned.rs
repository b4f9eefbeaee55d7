//! Quantile binning of feature matrices for histogram-based tree training.
//!
//! Each feature is discretised once per training matrix into at most
//! [`DEFAULT_N_BINS`] (≤ 256) `u8` bin indices by quantile-spaced cut
//! points. Tree learners then find splits by accumulating per-bin
//! statistics in a single O(n) pass per node instead of re-sorting every
//! feature at every node, and the binned representation is shared across
//! boosting rounds, CV folds and the hyperparameter grid.
//!
//! Binning preserves order (cut points are strictly increasing) and ties:
//! equal feature values always land in the same bin, so a histogram split
//! can never separate identical values — the same invariant the exact
//! greedy splitter enforces. When a feature has at most `max_bins`
//! distinct values, every distinct-value boundary becomes a cut point and
//! histogram split finding considers exactly the candidate thresholds the
//! exact splitter does.

use tabular::DenseMatrix;

/// Default number of bins per feature. 64 keeps the accuracy drift vs
/// exact splits well inside seed noise on the study's datasets (see
/// `tests/hist_parity.rs`) while making split finding O(n + bins) per
/// node.
pub const DEFAULT_N_BINS: usize = 64;

/// A feature matrix discretised into per-feature quantile bins.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    /// Column-major bin indices: feature `j`, row `i` at `j * n_rows + i`
    /// (column-major so per-feature histogram accumulation scans a
    /// contiguous block).
    bins: Vec<u8>,
    /// Row-major copy of the bin indices of the [`split
    /// features`](BinnedMatrix::split_features) only: row `i`'s codes
    /// occupy `i * k..(i + 1) * k` for `k` split features. The histogram
    /// kernel streams whole rows (one contiguous `u8` read per row)
    /// instead of gathering one feature at a time; single-bin
    /// features can never split, so their codes are left out.
    row_bins: Vec<u8>,
    /// The features with at least two bins, ascending.
    split_features: Vec<usize>,
    /// Whether any raw value is NaN (bin routing sends NaN to bin 0, raw
    /// threshold routing sends it right).
    has_nan: bool,
    n_rows: usize,
    n_cols: usize,
    /// Per-feature strictly increasing cut points; feature `j` has
    /// `cuts[j].len() + 1` bins and bin `b` holds values `v` with
    /// `cuts[b-1] < v <= cuts[b]`.
    cuts: Vec<Vec<f64>>,
    /// Prefix offsets into a flat all-features histogram:
    /// `offsets[j]..offsets[j] + n_bins(j)` is feature `j`'s slice.
    offsets: Vec<usize>,
    /// Total histogram slots across all features.
    total_bins: usize,
    /// Smallest value landing in each flat bin slot (`+inf` when empty).
    bin_lo: Vec<f64>,
    /// Largest value landing in each flat bin slot (`-inf` when empty).
    bin_hi: Vec<f64>,
}

impl BinnedMatrix {
    /// Bins every feature of `x` into at most `max_bins` quantile bins.
    ///
    /// Panics when `max_bins` is not in `2..=256` (indices must fit `u8`).
    pub fn from_matrix(x: &DenseMatrix, max_bins: usize) -> Self {
        assert!((2..=256).contains(&max_bins), "max_bins must be in 2..=256");
        let (n, d) = (x.n_rows(), x.n_cols());
        let mut bins = vec![0u8; n * d];
        let mut has_nan = false;
        let mut cuts = Vec::with_capacity(d);
        let mut offsets = Vec::with_capacity(d);
        let mut total_bins = 0usize;
        // Per-bin value ranges, used to centre split thresholds between
        // the actual values either side of a cut (see
        // [`BinnedMatrix::split_threshold`]).
        let mut bin_lo: Vec<f64> = Vec::new();
        let mut bin_hi: Vec<f64> = Vec::new();
        let mut column_values = vec![0.0f64; n];
        let mut sorted: Vec<f64> = Vec::with_capacity(n);
        for j in 0..d {
            for (i, slot) in column_values.iter_mut().enumerate() {
                *slot = x.get(i, j);
            }
            has_nan |= column_values.iter().any(|v| v.is_nan());
            sorted.clear();
            sorted.extend_from_slice(&column_values);
            sorted.sort_by(f64::total_cmp);
            let feature_cuts = quantile_cuts(&sorted, max_bins);
            let offset = total_bins;
            offsets.push(offset);
            total_bins += feature_cuts.len() + 1;
            bin_lo.resize(total_bins, f64::INFINITY);
            bin_hi.resize(total_bins, f64::NEG_INFINITY);
            let column = &mut bins[j * n..(j + 1) * n];
            for (i, slot) in column.iter_mut().enumerate() {
                let v = column_values[i];
                *slot = feature_cuts.partition_point(|t| *t < v) as u8;
                let flat = offset + usize::from(*slot);
                bin_lo[flat] = bin_lo[flat].min(v);
                bin_hi[flat] = bin_hi[flat].max(v);
            }
            cuts.push(feature_cuts);
        }
        let split_features: Vec<usize> = (0..d).filter(|&j| !cuts[j].is_empty()).collect();
        let mut row_bins = vec![0u8; n * split_features.len()];
        if !split_features.is_empty() {
            for (i, codes) in row_bins.chunks_exact_mut(split_features.len()).enumerate() {
                for (code, &j) in codes.iter_mut().zip(&split_features) {
                    *code = bins[j * n + i];
                }
            }
        }
        BinnedMatrix {
            bins,
            row_bins,
            split_features,
            has_nan,
            n_rows: n,
            n_cols: d,
            cuts,
            offsets,
            total_bins,
            bin_lo,
            bin_hi,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The contiguous bin-index column of feature `j`.
    #[inline]
    pub fn feature_bins(&self, j: usize) -> &[u8] {
        &self.bins[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// The contiguous bin-index row of row `i`: its codes of the
    /// [`split features`](BinnedMatrix::split_features), in that order.
    #[inline]
    pub fn row_bins(&self, i: usize) -> &[u8] {
        let k = self.split_features.len();
        &self.row_bins[i * k..(i + 1) * k]
    }

    /// The features with at least two bins (the only ones a split can
    /// use), ascending.
    #[inline]
    pub fn split_features(&self) -> &[usize] {
        &self.split_features
    }

    /// Number of bins of feature `j`.
    #[inline]
    pub fn n_bins(&self, j: usize) -> usize {
        self.cuts[j].len() + 1
    }

    /// Flat histogram offset of feature `j` (see [`BinnedMatrix::total_bins`]).
    #[inline]
    pub fn offset(&self, j: usize) -> usize {
        self.offsets[j]
    }

    /// Total histogram slots across all features.
    pub fn total_bins(&self) -> usize {
        self.total_bins
    }

    /// The raw split threshold for "bin ≤ `b` goes left" on feature `j`:
    /// a row value `v` satisfies `bin(v) <= b` exactly when
    /// `v <= threshold(j, b)`, so trees built on bins predict raw rows.
    #[inline]
    pub fn threshold(&self, j: usize, b: usize) -> f64 {
        self.cuts[j][b]
    }

    /// A centred split threshold for "bin ≤ `b` goes left" on feature
    /// `j`, where `left_bin ≤ b < right_bin` are the occupied bins
    /// adjacent to the cut *in the node being split*: the midpoint of the
    /// largest value in `left_bin` and the smallest value in `right_bin`.
    ///
    /// Centring matters for generalisation: the raw cut point hugs the
    /// left bin's values, so unseen rows falling between the two bins'
    /// values would all route right. The midpoint reproduces the exact
    /// greedy splitter's between-adjacent-values thresholds (identically
    /// so when every distinct value has its own bin). Routing of binned
    /// rows is unchanged: every value of `left_bin` (and below) stays
    /// `<=` the midpoint, every value of `right_bin` (and above) stays
    /// above it.
    pub fn split_threshold(&self, j: usize, left_bin: usize, right_bin: usize) -> f64 {
        debug_assert!(left_bin < right_bin && right_bin < self.n_bins(j));
        let hi = self.bin_hi[self.offsets[j] + left_bin];
        let lo = self.bin_lo[self.offsets[j] + right_bin];
        debug_assert!(hi < lo, "occupied bins out of order: {hi} >= {lo}");
        let mid = 0.5 * (hi + lo);
        if mid.is_finite() {
            mid
        } else {
            hi // midpoint overflowed; `hi` still separates the bins
        }
    }

    /// Whether a tree split "bin ≤ `b` goes left" on feature `j`, whose
    /// threshold came from [`BinnedMatrix::split_threshold`] or
    /// [`BinnedMatrix::threshold`] and whose lowest occupied bin right of
    /// the cut in the node is `right_bin` (`None`: that side is empty),
    /// routes the node's raw rows exactly as their bins do: raw
    /// `v <= threshold` iff `bin(v) <= b`.
    ///
    /// The left side always agrees: its values are at most the left bin's
    /// maximum, which neither threshold undercuts (rounding is monotone).
    /// The right side agrees when the right bin's minimum lies strictly
    /// above the threshold; a midpoint could only round onto it if the
    /// two values were adjacent floats, and then the binning's own cut
    /// between them — the same midpoint of the same two values — would
    /// have put that minimum in the left bin, so this check guards the
    /// invariant rather than firing on real data. NaN breaks routing: it
    /// bins to 0 but compares false, so any NaN in the matrix fails.
    pub(crate) fn routes_like_bins(
        &self,
        j: usize,
        right_bin: Option<usize>,
        threshold: f64,
    ) -> bool {
        !self.has_nan && right_bin.is_none_or(|r| self.bin_lo[self.offsets[j] + r] > threshold)
    }
}

/// Builds strictly increasing cut points from an ascending value slice.
///
/// When the feature has at most `max_bins` distinct values every boundary
/// between distinct values becomes a cut (histogram splits ≡ exact
/// splits); otherwise cuts are placed at quantile-spaced boundaries.
fn quantile_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    let n = sorted.len();
    if n < 2 {
        return Vec::new();
    }
    let distinct_boundaries: Vec<usize> =
        (0..n - 1).filter(|&p| sorted[p] < sorted[p + 1]).collect();
    let mut cuts: Vec<f64> = Vec::new();
    if distinct_boundaries.len() < max_bins {
        for &p in &distinct_boundaries {
            push_cut(&mut cuts, sorted[p], sorted[p + 1]);
        }
    } else {
        // Quantile-spaced: advance a running row-count target, cutting at
        // the first distinct-value boundary past each target.
        let step = n as f64 / max_bins as f64;
        let mut next = step;
        for &p in &distinct_boundaries {
            if (p + 1) as f64 >= next {
                push_cut(&mut cuts, sorted[p], sorted[p + 1]);
                next = (p + 1) as f64 + step;
            }
        }
    }
    // Hard invariant, not a debug check: a 256th cut would make bin
    // indices overflow `u8` and silently corrupt every downstream
    // histogram, so release builds must refuse too.
    assert!(cuts.len() < 256, "cut count exceeds u8 bin range");
    cuts
}

/// Appends the midpoint of `(lo, hi)` as a cut, keeping cuts strictly
/// increasing even when floating-point rounding collapses the midpoint
/// onto a neighbouring value.
fn push_cut(cuts: &mut Vec<f64>, lo: f64, hi: f64) {
    let mut cut = 0.5 * (lo + hi);
    if !cut.is_finite() {
        cut = lo; // midpoint overflowed; `lo` still separates lo-and-below from hi
    }
    if cuts.last().is_none_or(|&last| cut > last) {
        cuts.push(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bin index of row `i`, feature `j`.
    fn bin_of(b: &BinnedMatrix, i: usize, j: usize) -> u8 {
        b.bins[j * b.n_rows + i]
    }

    fn matrix_of(col: Vec<f64>) -> DenseMatrix {
        let n = col.len();
        DenseMatrix::from_vec(n, 1, col)
    }

    #[test]
    fn cut_points_are_strictly_increasing() {
        let mut values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 97) as f64 * 0.5).collect();
        values.push(f64::MAX);
        values.push(f64::MIN);
        let b = BinnedMatrix::from_matrix(&matrix_of(values), 32);
        let cuts = &b.cuts[0];
        assert!(!cuts.is_empty());
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "cuts not strictly increasing: {} >= {}", w[0], w[1]);
        }
        assert!(b.n_bins(0) <= 32);
    }

    #[test]
    fn ties_land_in_one_bin() {
        // Heavy ties: only three distinct values, many repeats.
        let values: Vec<f64> = (0..300).map(|i| [1.0, 2.0, 7.5][i % 3]).collect();
        let x = matrix_of(values);
        let b = BinnedMatrix::from_matrix(&x, 8);
        assert_eq!(b.n_bins(0), 3);
        for i in 0..x.n_rows() {
            for k in 0..x.n_rows() {
                if x.get(i, 0) == x.get(k, 0) {
                    assert_eq!(bin_of(&b, i, 0), bin_of(&b, k, 0), "tie split across bins");
                }
            }
        }
    }

    #[test]
    fn binning_preserves_order() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 7919) % 1000) as f64 * 0.013 - 3.0).collect();
        let x = matrix_of(values);
        let b = BinnedMatrix::from_matrix(&x, 16);
        for i in 0..x.n_rows() {
            for k in 0..x.n_rows() {
                if x.get(i, 0) < x.get(k, 0) {
                    assert!(bin_of(&b, i, 0) <= bin_of(&b, k, 0), "order not preserved");
                }
            }
        }
    }

    #[test]
    fn thresholds_reproduce_bin_routing() {
        // v <= threshold(j, b) must hold exactly when bin(v) <= b.
        let values: Vec<f64> = (0..200).map(|i| (i % 50) as f64 * 1.5).collect();
        let x = matrix_of(values);
        let b = BinnedMatrix::from_matrix(&x, 16);
        for bsel in 0..b.n_bins(0) - 1 {
            let t = b.threshold(0, bsel);
            for i in 0..x.n_rows() {
                assert_eq!(x.get(i, 0) <= t, usize::from(bin_of(&b, i, 0)) <= bsel);
            }
        }
    }

    #[test]
    fn few_distinct_values_get_exact_boundaries() {
        let x = matrix_of(vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let b = BinnedMatrix::from_matrix(&x, 64);
        // Six distinct values => five cuts, six bins: identical candidate
        // thresholds to the exact greedy splitter.
        assert_eq!(b.n_bins(0), 6);
        assert_eq!(b.cuts[0].len(), 5);
        assert!((b.threshold(0, 2) - 6.0).abs() < 1e-12); // midpoint of 2 and 10
    }

    #[test]
    fn split_thresholds_are_centred_between_occupied_bins() {
        // Quantile-merged bins: 400 distinct values into at most 8 bins.
        let values: Vec<f64> = (0..400).map(|i| ((i * 373) % 400) as f64 * 0.25).collect();
        let x = matrix_of(values);
        let b = BinnedMatrix::from_matrix(&x, 8);
        for left in 0..b.n_bins(0) - 1 {
            let t = b.split_threshold(0, left, left + 1);
            // Same routing as the raw cut edge: v <= t iff bin(v) <= left...
            for i in 0..x.n_rows() {
                assert_eq!(x.get(i, 0) <= t, usize::from(bin_of(&b, i, 0)) <= left);
            }
            // ...but centred: strictly above the left bin's largest value
            // and strictly below the right bin's smallest.
            let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
            for i in 0..x.n_rows() {
                let v = x.get(i, 0);
                if usize::from(bin_of(&b, i, 0)) <= left {
                    hi = hi.max(v);
                } else {
                    lo = lo.min(v);
                }
            }
            assert!(hi < t && t < lo, "threshold {t} not inside ({hi}, {lo})");
            assert!((t - 0.5 * (hi + lo)).abs() < 1e-12, "threshold {t} not centred");
        }
    }

    #[test]
    fn constant_feature_has_single_bin() {
        let x = matrix_of(vec![5.0; 40]);
        let b = BinnedMatrix::from_matrix(&x, 64);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.cuts[0].is_empty());
        assert!((0..40).all(|i| bin_of(&b, i, 0) == 0));
    }

    #[test]
    fn binning_is_deterministic() {
        let values: Vec<f64> = (0..400).map(|i| ((i * 31) % 113) as f64).collect();
        let x = matrix_of(values);
        let a = BinnedMatrix::from_matrix(&x, 24);
        let b = BinnedMatrix::from_matrix(&x, 24);
        assert_eq!(a.cuts[0], b.cuts[0]);
        assert!((0..x.n_rows()).all(|i| bin_of(&a, i, 0) == bin_of(&b, i, 0)));
    }

    #[test]
    fn offsets_cover_all_features() {
        let x = DenseMatrix::from_vec(4, 2, vec![0.0, 9.0, 1.0, 9.0, 2.0, 9.0, 3.0, 9.0]);
        let b = BinnedMatrix::from_matrix(&x, 8);
        assert_eq!(b.offset(0), 0);
        assert_eq!(b.offset(1), b.n_bins(0));
        assert_eq!(b.total_bins(), b.n_bins(0) + b.n_bins(1));
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn oversized_max_bins_panics() {
        BinnedMatrix::from_matrix(&matrix_of(vec![0.0]), 257);
    }

    #[test]
    fn max_bins_256_with_256_distinct_values_fills_u8_exactly() {
        // The u8 boundary case: 256 distinct values at max_bins = 256
        // produce 255 cuts — the largest cut count the assert admits —
        // and bin indices 0..=255 with order preserved.
        let values: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let b = BinnedMatrix::from_matrix(&matrix_of(values), 256);
        assert_eq!(b.cuts[0].len(), 255);
        assert_eq!(b.n_bins(0), 256);
        assert!((0..256).all(|i| usize::from(bin_of(&b, i, 0)) == i));
    }

    #[test]
    fn more_distinct_values_than_256_bins_stay_in_u8_range() {
        // 1000 distinct values at the maximum bin budget: quantile
        // merging must keep the cut count under 256 (the assert) and
        // every index inside u8.
        let values: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let b = BinnedMatrix::from_matrix(&matrix_of(values), 256);
        assert!(b.cuts[0].len() < 256);
        assert!(b.n_bins(0) <= 256);
    }

    #[test]
    fn constant_column_at_max_bin_budget_has_no_cuts() {
        let b = BinnedMatrix::from_matrix(&matrix_of(vec![-2.5; 300]), 256);
        assert!(b.cuts[0].is_empty());
        assert_eq!(b.n_bins(0), 1);
    }

    #[test]
    fn empty_feature_has_no_cuts() {
        // Zero rows: quantile_cuts sees an empty slice and must not cut.
        let b = BinnedMatrix::from_matrix(&DenseMatrix::zeros(0, 1), 256);
        assert!(b.cuts[0].is_empty());
        assert_eq!(b.n_bins(0), 1);
    }

    #[test]
    fn row_bins_mirror_column_bins_of_split_features() {
        // Feature 1 is constant: a single bin, so no row-major codes.
        let x = DenseMatrix::from_vec(
            4,
            4,
            vec![
                0.0, 5.0, 9.0, 1.0, 1.0, 5.0, 9.0, 1.0, 2.0, 5.0, 8.0, 0.0, 3.0, 5.0, 8.0, 0.0,
            ],
        );
        let b = BinnedMatrix::from_matrix(&x, 8);
        assert_eq!(b.split_features(), &[0, 2, 3]);
        for i in 0..4 {
            let row = b.row_bins(i);
            assert_eq!(row.len(), 3);
            for (&code, &j) in row.iter().zip(b.split_features()) {
                assert_eq!(code, bin_of(&b, i, j));
            }
        }
    }

    #[test]
    fn routing_certificate_holds_on_adjacent_floats_and_fails_on_nan() {
        // Consecutive floats, so every midpoint is a ties-to-even rounding
        // onto one of its two ends: the centred threshold of adjacent
        // occupied bins is computed exactly as the binning's cut was, and
        // stays below the right bin's smallest value.
        let mut v = 1.0f64;
        let values: Vec<f64> = (0..12)
            .map(|_| {
                v = v.next_up();
                v
            })
            .collect();
        let x = matrix_of(values.iter().chain(&values).copied().collect());
        let b = BinnedMatrix::from_matrix(&x, 4);
        for left in 0..b.n_bins(0) - 1 {
            for right in left + 1..b.n_bins(0) {
                let t = b.split_threshold(0, left, right);
                assert!(b.routes_like_bins(0, Some(right), t));
                for i in 0..x.n_rows() {
                    let bin = usize::from(bin_of(&b, i, 0));
                    if bin <= left || bin >= right {
                        assert_eq!(x.get(i, 0) <= t, bin <= left);
                    }
                }
            }
        }
        // A threshold on the right bin's smallest value would send it left.
        assert!(!b.routes_like_bins(0, Some(1), b.split_threshold(0, 0, 1).next_up()));
        // A NaN anywhere fails every split.
        let b = BinnedMatrix::from_matrix(
            &DenseMatrix::from_vec(2, 2, vec![0.0, f64::NAN, 4.0, 1.0]),
            8,
        );
        assert!(!b.routes_like_bins(0, Some(1), b.split_threshold(0, 0, 1)));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let b = BinnedMatrix::from_matrix(&DenseMatrix::zeros(0, 3), 64);
        assert_eq!(b.n_rows(), 0);
        assert_eq!(b.n_cols(), 3);
        assert_eq!(b.n_bins(0), 1);
    }
}
