//! Property-based tests for the ML substrate.

use mlcore::{accuracy, ModelSpec};
use proptest::prelude::*;
use tabular::{DenseMatrix, Rng64};

fn arb_labels(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, n..=n)
}

proptest! {
    #[test]
    fn logreg_probabilities_in_unit_interval(seed in any::<u64>(), n in 10usize..80) {
        let mut rng = Rng64::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * 3).map(|_| rng.normal()).collect();
        let x = DenseMatrix::from_vec(n, 3, data);
        let y: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
        let model = ModelSpec::LogReg { c: 1.0, max_iter: 30 }.fit(&x, &y, seed);
        for p in model.predict_proba(&x) {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn knn_proba_is_a_neighbour_fraction(seed in any::<u64>(), n in 5usize..60, k in 1usize..9) {
        let mut rng = Rng64::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * 2).map(|_| rng.normal()).collect();
        let x = DenseMatrix::from_vec(n, 2, data);
        let y: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.4))).collect();
        let model = ModelSpec::Knn { k }.fit(&x, &y, seed);
        let eff_k = k.min(n) as f64;
        for p in model.predict_proba(&x) {
            // p must be i/eff_k for integer i.
            let scaled = p * eff_k;
            prop_assert!((scaled - scaled.round()).abs() < 1e-9, "p={p} k={eff_k}");
        }
    }

    #[test]
    fn gbdt_handles_arbitrary_binary_labels(seed in any::<u64>(), n in 10usize..60) {
        let mut rng = Rng64::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * 2).map(|_| rng.normal()).collect();
        let x = DenseMatrix::from_vec(n, 2, data);
        let y: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
        let model = ModelSpec::Gbdt {
            max_depth: 2,
            n_rounds: 10,
            learning_rate: 0.3,
            reg_lambda: 1.0,
        }
        .fit(&x, &y, seed);
        for p in model.predict_proba(&x) {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn accuracy_bounds_and_perfect_prediction(y in arb_labels(50)) {
        prop_assert_eq!(accuracy(&y, &y), 1.0);
        let inverted: Vec<u8> = y.iter().map(|&l| 1 - l).collect();
        prop_assert_eq!(accuracy(&y, &inverted), 0.0);
    }

    #[test]
    fn accuracy_is_the_share_of_agreeing_rows(
        y in arb_labels(64),
        p in arb_labels(64),
    ) {
        let agree = y.iter().zip(&p).filter(|(a, b)| a == b).count();
        prop_assert_eq!(accuracy(&y, &p), agree as f64 / 64.0);
    }

    #[test]
    fn models_are_deterministic_given_seed(seed in any::<u64>()) {
        let mut rng = Rng64::seed_from_u64(seed);
        let n = 30;
        let data: Vec<f64> = (0..n * 2).map(|_| rng.normal()).collect();
        let x = DenseMatrix::from_vec(n, 2, data);
        let y: Vec<u8> = (0..n).map(|i| u8::from(i % 2 == 0)).collect();
        for spec in [
            ModelSpec::LogReg { c: 1.0, max_iter: 20 },
            ModelSpec::Knn { k: 3 },
            ModelSpec::Gbdt { max_depth: 2, n_rounds: 5, learning_rate: 0.3, reg_lambda: 1.0 },
        ] {
            let a = spec.fit(&x, &y, seed).predict_proba(&x);
            let b = spec.fit(&x, &y, seed).predict_proba(&x);
            prop_assert_eq!(a, b);
        }
    }
}
