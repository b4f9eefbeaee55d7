//! A minimal dense row-major matrix used as the interface between feature
//! encoding and the `mlcore` models.

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        DenseMatrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.cols + j] = value;
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Column `j` copied into a fresh vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// New matrix with only the given rows, in order.
    pub fn take_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Squared Euclidean distance between row `i` and an external point.
    #[inline]
    pub fn row_distance_sq(&self, i: usize, point: &[f64]) -> f64 {
        self.row(i).iter().zip(point).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(0, 1, 5.0);
        m.set(1, 2, -1.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, -1.0]);
        assert_eq!(m.column(2), vec![0.0, -1.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
    }

    #[test]
    fn from_vec_round_trip() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_size_mismatch_panics() {
        DenseMatrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn take_rows_reorders() {
        let m = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[5.0, 6.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn row_distance() {
        let m = DenseMatrix::from_vec(2, 2, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(m.row_distance_sq(1, &[0.0, 0.0]), 25.0);
        assert_eq!(m.row_distance_sq(0, &[1.0, 1.0]), 2.0);
    }
}
