//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use statskit::special::{beta_inc, gamma_p, gamma_q, ln_gamma};
use statskit::ttest::t_two_sided;
use statskit::{chi2_survival, g_test_2x2, paired_t_test};

proptest! {
    #[test]
    fn gamma_p_q_sum_to_one(a in 0.1..50.0f64, x in 0.0..100.0f64) {
        let p = gamma_p(a, x);
        let q = gamma_q(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-8, "a={a} x={x}: p+q={}", p + q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
    }

    #[test]
    fn gamma_p_monotone_in_x(a in 0.1..20.0f64, x in 0.0..50.0f64, dx in 0.01..10.0f64) {
        prop_assert!(gamma_p(a, x + dx) >= gamma_p(a, x) - 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.1..50.0f64) {
        // Γ(x+1) = x·Γ(x)  =>  lnΓ(x+1) = ln(x) + lnΓ(x)
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()), "x={x}");
    }

    #[test]
    fn beta_inc_symmetry(a in 0.2..20.0f64, b in 0.2..20.0f64, x in 0.0..=1.0f64) {
        let lhs = beta_inc(a, b, x);
        let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-8, "a={a} b={b} x={x}");
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&lhs));
    }

    #[test]
    fn beta_inc_monotone_in_x(a in 0.2..10.0f64, b in 0.2..10.0f64, x in 0.0..0.98f64, dx in 0.001..0.02f64) {
        prop_assert!(beta_inc(a, b, x + dx) >= beta_inc(a, b, x) - 1e-10);
    }

    #[test]
    fn chi2_survival_decreasing(x in 0.0..50.0f64, dx in 0.01..5.0f64, df in 1.0..20.0f64) {
        prop_assert!(chi2_survival(x + dx, df) <= chi2_survival(x, df) + 1e-10);
    }

    #[test]
    fn g_test_p_value_valid(a in 0u64..200, b in 0u64..200, c in 0u64..200, d in 0u64..200) {
        if let Some(result) = g_test_2x2(a, b, c, d) {
            prop_assert!((0.0..=1.0).contains(&result.p_value));
            prop_assert!(result.g2 >= 0.0);
        }
    }

    #[test]
    fn g_test_symmetric_in_groups(a in 1u64..100, b in 1u64..100, c in 1u64..100, d in 1u64..100) {
        // Swapping privileged and disadvantaged rows must not change G².
        let r1 = g_test_2x2(a, b, c, d).unwrap();
        let r2 = g_test_2x2(c, d, a, b).unwrap();
        prop_assert!((r1.g2 - r2.g2).abs() < 1e-9);
    }

    #[test]
    fn proportional_tables_have_zero_g2(scale in 1u64..20, a in 1u64..50, b in 1u64..50) {
        // Rows proportional -> perfectly independent -> G² ≈ 0.
        let r = g_test_2x2(a, b, a * scale, b * scale).unwrap();
        prop_assert!(r.g2 < 1e-6, "g2={}", r.g2);
        prop_assert!(r.p_value > 0.99);
    }

    #[test]
    fn t_two_sided_in_unit_interval(t in -50.0..50.0f64, df in 1.0..200.0f64) {
        let p = t_two_sided(t, df);
        prop_assert!((0.0..=1.0).contains(&p));
        // Symmetric in t.
        prop_assert!((p - t_two_sided(-t, df)).abs() < 1e-10);
    }

    #[test]
    fn paired_t_test_shift_invariance(
        base in prop::collection::vec(-10.0..10.0f64, 3..40),
        shift in -5.0..5.0f64,
        offset in -100.0..100.0f64,
    ) {
        // Adding the same constant to both samples leaves the test alone;
        // t(b+shift) moves with the shift direction.
        let a: Vec<f64> = base.clone();
        let b: Vec<f64> = base.iter().map(|x| x + shift).collect();
        let r1 = paired_t_test(&a, &b).unwrap();
        let a2: Vec<f64> = a.iter().map(|x| x + offset).collect();
        let b2: Vec<f64> = b.iter().map(|x| x + offset).collect();
        let r2 = paired_t_test(&a2, &b2).unwrap();
        prop_assert!((r1.mean_diff - r2.mean_diff).abs() < 1e-6);
        if shift.abs() > 1e-9 {
            prop_assert_eq!(r1.mean_diff > 0.0, shift > 0.0);
        }
    }

    #[test]
    fn paired_t_antisymmetric(
        a in prop::collection::vec(-10.0..10.0f64, 3..30),
        noise in prop::collection::vec(-1.0..1.0f64, 3..30),
    ) {
        let n = a.len().min(noise.len());
        let a = &a[..n];
        let b: Vec<f64> = a.iter().zip(&noise[..n]).map(|(x, e)| x + e).collect();
        let ab = paired_t_test(a, &b).unwrap();
        let ba = paired_t_test(&b, a).unwrap();
        prop_assert!((ab.mean_diff + ba.mean_diff).abs() < 1e-9);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
    }
}
