//! L2-regularised logistic regression fitted with iteratively reweighted
//! least squares (Newton's method), falling back to gradient descent when
//! the normal equations are ill-conditioned.
//!
//! Every fit starts at w = 0, where the decision values depend on the
//! features alone (they are 0 on finite rows), so the first iteration's
//! gradient and Hessian do not depend on `C`: the penalty, the mirror of
//! the upper triangle and the ridge jitter are all applied after the
//! accumulation.
//! Cross-validation accumulates that system once per fold ([`IrlsStart`])
//! and starts every `C` of the grid from a copy. A copy holds the very
//! bits the fit would have accumulated itself, so sharing it cannot move
//! a weight.

use crate::kernels;
use crate::linalg::{cholesky_solve, sigmoid};
use crate::model::Classifier;
use crate::scratch;
use tabular::DenseMatrix;

/// A trained logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogRegClassifier {
    /// Feature weights.
    weights: Vec<f64>,
    /// Intercept.
    bias: f64,
}

/// The first IRLS iteration's gradient and upper-triangle Hessian, as
/// [`kernels::irls_accumulate`] returns them at w = 0 before any
/// `C`-dependent term is added.
pub(crate) struct IrlsStart {
    grad: Vec<f64>,
    hess: Vec<f64>,
}

impl IrlsStart {
    /// Accumulates the w = 0 system of `(x, y)`.
    pub(crate) fn new(x: &DenseMatrix, y: &[u8]) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        let d = x.n_cols();
        let mut z = scratch::take_f64();
        kernels::decision_batch(x, &vec![0.0; d], 0.0, &mut z);
        let mut grad = vec![0.0; d + 1];
        let mut hess = vec![0.0; (d + 1) * (d + 1)];
        kernels::irls_accumulate(x, y, &z, &mut grad, &mut hess);
        IrlsStart { grad, hess }
    }
}

impl LogRegClassifier {
    /// Fits by IRLS with L2 penalty `1/C` (scikit-learn convention: larger
    /// `C` means weaker regularisation). The intercept is unpenalised.
    ///
    /// Panics if `x` and `y` disagree on length or `c <= 0`.
    pub fn fit(x: &DenseMatrix, y: &[u8], c: f64, max_iter: usize) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/label length mismatch");
        assert!(c > 0.0, "C must be positive");
        Self::fit_from(x, y, c, max_iter, &IrlsStart::new(x, y))
    }

    /// [`LogRegClassifier::fit`] with the first iteration's system taken
    /// from `start`, which must be [`IrlsStart::new`] of the same `(x, y)`.
    pub(crate) fn fit_from(
        x: &DenseMatrix,
        y: &[u8],
        c: f64,
        max_iter: usize,
        start: &IrlsStart,
    ) -> Self {
        assert!(c > 0.0, "C must be positive");
        let n = x.n_rows();
        let d = x.n_cols();
        assert_eq!(start.grad.len(), d + 1, "start system of another width");
        let lambda = 1.0 / c;
        let mut w = vec![0.0; d + 1]; // last slot is the bias
        if n == 0 {
            return LogRegClassifier { weights: vec![0.0; d], bias: 0.0 };
        }
        let mut z = scratch::take_f64();
        for iter in 0..max_iter {
            let (mut grad, mut hess) = if iter == 0 {
                (start.grad.clone(), start.hess.clone())
            } else {
                // Batched decision values (bit-identical to the per-row
                // dot), then the blocked gradient/hessian accumulation.
                kernels::decision_batch(x, &w[..d], w[d], &mut z);
                let mut grad = vec![0.0; d + 1];
                let mut hess = vec![0.0; (d + 1) * (d + 1)];
                kernels::irls_accumulate(x, y, &z, &mut grad, &mut hess);
                (grad, hess)
            };
            // L2 penalty (not on bias).
            for j in 0..d {
                grad[j] += lambda * w[j];
                hess[j * (d + 1) + j] += lambda;
            }
            // Mirror the upper triangle.
            for j in 0..=d {
                for k in (j + 1)..=d {
                    hess[k * (d + 1) + j] = hess[j * (d + 1) + k];
                }
            }
            // Ridge jitter for numerical safety.
            for j in 0..=d {
                hess[j * (d + 1) + j] += 1e-9;
            }
            let step = match cholesky_solve(&hess, &grad, d + 1) {
                Some(s) => s,
                None => {
                    // Ill-conditioned: take a plain gradient step instead.
                    grad.iter().map(|g| g * 0.1).collect()
                }
            };
            let mut max_step: f64 = 0.0;
            for (wj, sj) in w.iter_mut().zip(&step) {
                *wj -= sj;
                max_step = max_step.max(sj.abs());
            }
            if max_step < 1e-8 {
                break;
            }
        }
        let bias = w[d];
        w.truncate(d);
        LogRegClassifier { weights: w, bias }
    }

    /// Decision-function value for one row.
    #[inline]
    pub fn decision(&self, row: &[f64]) -> f64 {
        row.iter().zip(&self.weights).map(|(a, b)| a * b).sum::<f64>() + self.bias
    }
}

impl Classifier for LogRegClassifier {
    fn predict_proba(&self, x: &DenseMatrix) -> Vec<f64> {
        // Batched scoring kernel, shared by the study path, CV and the
        // serving predict handler; each score is bit-identical to
        // `sigmoid(self.decision(x.row(i)))`.
        let mut scores = Vec::new();
        kernels::decision_batch(x, &self.weights, self.bias, &mut scores);
        scores.iter_mut().for_each(|s| *s = sigmoid(*s));
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_data() -> (DenseMatrix, Vec<u8>) {
        // y = 1 iff x0 > 1.0, 40 points.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let x0 = i as f64 / 10.0; // 0.0 .. 3.9
            data.push(x0);
            data.push(1.0); // constant nuisance feature
            y.push(u8::from(x0 > 1.95));
        }
        (DenseMatrix::from_vec(40, 2, data), y)
    }

    #[test]
    fn learns_separable_boundary() {
        let (x, y) = separable_data();
        let model = LogRegClassifier::fit(&x, &y, 10.0, 50);
        let preds = model.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 39, "correct={correct}");
    }

    #[test]
    fn probabilities_are_monotone_in_feature() {
        let (x, y) = separable_data();
        let model = LogRegClassifier::fit(&x, &y, 1.0, 50);
        let probs = model.predict_proba(&x);
        for w in probs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "probabilities should increase with x0");
        }
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn regularisation_shrinks_weights() {
        let (x, y) = separable_data();
        let strong = LogRegClassifier::fit(&x, &y, 0.01, 50);
        let weak = LogRegClassifier::fit(&x, &y, 100.0, 50);
        assert!(
            strong.weights[0].abs() < weak.weights[0].abs(),
            "strong reg should shrink weights: {} vs {}",
            strong.weights[0],
            weak.weights[0]
        );
    }

    #[test]
    fn balanced_coin_has_half_probability() {
        // Uninformative single feature, balanced classes.
        let x = DenseMatrix::from_vec(4, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let model = LogRegClassifier::fit(&x, &y, 1.0, 50);
        let p = model.predict_proba(&x);
        for pi in p {
            assert!((pi - 0.5).abs() < 0.05, "p={pi}");
        }
    }

    #[test]
    fn empty_training_set_predicts_half() {
        let x = DenseMatrix::zeros(0, 3);
        let model = LogRegClassifier::fit(&x, &[], 1.0, 10);
        let test = DenseMatrix::zeros(2, 3);
        let p = model.predict_proba(&test);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn intercept_captures_base_rate() {
        // No signal, 80% positives: predicted probability ~0.8.
        let x = DenseMatrix::zeros(100, 1);
        let y: Vec<u8> = (0..100).map(|i| u8::from(i < 80)).collect();
        let model = LogRegClassifier::fit(&x, &y, 1.0, 50);
        let p = model.predict_proba(&DenseMatrix::zeros(1, 1))[0];
        assert!((p - 0.8).abs() < 0.02, "p={p}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let x = DenseMatrix::zeros(3, 1);
        LogRegClassifier::fit(&x, &[0, 1], 1.0, 5);
    }

    #[test]
    fn every_c_from_one_shared_start_fits_like_its_own() {
        let (x, y) = separable_data();
        let start = IrlsStart::new(&x, &y);
        for c in [0.01, 0.1, 1.0, 10.0] {
            let shared = LogRegClassifier::fit_from(&x, &y, c, 50, &start);
            let own = LogRegClassifier::fit(&x, &y, c, 50);
            let bits = |m: &LogRegClassifier| -> Vec<u64> {
                m.weights.iter().chain([&m.bias]).map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&shared), bits(&own), "C = {c}");
        }
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = separable_data();
        let a = LogRegClassifier::fit(&x, &y, 1.0, 50);
        let b = LogRegClassifier::fit(&x, &y, 1.0, 50);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }
}
