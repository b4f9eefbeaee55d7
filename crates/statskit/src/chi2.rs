//! χ² distribution and the G² log-likelihood-ratio test on 2×2 contingency
//! tables.
//!
//! The paper (Section III) flags a detector × dataset × group combination as
//! exhibiting a *significant demographic disparity* when a G² test on the
//! (group membership) × (flagged or not) contingency table rejects
//! independence at p = .05. G² is asymptotically χ²-distributed with
//! `(r-1)(c-1) = 1` degree of freedom for a 2×2 table.

use crate::special::gamma_q;

/// Survival function of the χ² distribution with `df` degrees of freedom:
/// `P(X >= x)`.
pub fn chi2_survival(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "df must be positive");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

/// Outcome of a G² independence test on a 2×2 contingency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GTestResult {
    /// The G² statistic (2 Σ O ln(O/E)).
    pub g2: f64,
    /// Two-sided p-value from the χ²(1) approximation.
    pub p_value: f64,
    /// Degrees of freedom (always 1 for the 2×2 case).
    pub df: f64,
}

impl GTestResult {
    /// True when the disparity is significant at the given level.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// G² test of independence on the 2×2 table
///
/// ```text
///              flagged   not flagged
/// privileged      a          b
/// disadvantaged   c          d
/// ```
///
/// Returns `None` when a marginal is zero (the test is undefined: one of
/// the groups is empty, or the detector flagged nothing/everything).
pub fn g_test_2x2(a: u64, b: u64, c: u64, d: u64) -> Option<GTestResult> {
    // Degenerate-marginal guards on the exact integer counts; a zero
    // marginal also covers the empty table.
    if a + b == 0 || c + d == 0 || a + c == 0 || b + d == 0 {
        return None;
    }
    let n = (a + b + c + d) as f64;
    let row1 = (a + b) as f64;
    let row2 = (c + d) as f64;
    let col1 = (a + c) as f64;
    let col2 = (b + d) as f64;
    let observed = [a as f64, b as f64, c as f64, d as f64];
    let expected = [row1 * col1 / n, row1 * col2 / n, row2 * col1 / n, row2 * col2 / n];
    let mut g2 = 0.0;
    for (&o, &e) in observed.iter().zip(&expected) {
        if o > 0.0 {
            g2 += o * (o / e).ln();
        }
    }
    g2 *= 2.0;
    // Guard tiny negative values from floating-point cancellation.
    let g2 = g2.max(0.0);
    Some(GTestResult { g2, p_value: chi2_survival(g2, 1.0), df: 1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi2_survival_reference() {
        // scipy.stats.chi2.sf(3.84, 1) ~ 0.05004352
        assert!((chi2_survival(3.84, 1.0) - 0.050_043_5).abs() < 1e-6);
        // sf at 0 is 1.
        assert_eq!(chi2_survival(0.0, 1.0), 1.0);
        assert_eq!(chi2_survival(-3.0, 2.0), 1.0);
        // scipy.stats.chi2.sf(5.99, 2) ~ 0.05003663
        assert!((chi2_survival(5.99, 2.0) - 0.050_036_6).abs() < 1e-6);
    }

    #[test]
    fn g_test_independent_table_not_significant() {
        // Perfectly proportional table: no association.
        let r = g_test_2x2(50, 50, 50, 50).unwrap();
        assert!(r.g2 < 1e-9);
        assert!(r.p_value > 0.99);
        assert!(!r.significant(0.05));
    }

    #[test]
    fn g_test_strong_association_significant() {
        let r = g_test_2x2(90, 10, 10, 90).unwrap();
        assert!(r.g2 > 50.0);
        assert!(r.p_value < 1e-10);
        assert!(r.significant(0.05));
    }

    #[test]
    fn g_test_reference_value() {
        // Observed [[10, 20], [30, 40]]: n=100, expected [12, 18, 28, 42].
        // G2 = 2*(10 ln(10/12) + 20 ln(20/18) + 30 ln(30/28) + 40 ln(40/42)).
        let expected_g2 = 2.0
            * (10.0 * (10.0f64 / 12.0).ln()
                + 20.0 * (20.0f64 / 18.0).ln()
                + 30.0 * (30.0f64 / 28.0).ln()
                + 40.0 * (40.0f64 / 42.0).ln());
        let r = g_test_2x2(10, 20, 30, 40).unwrap();
        assert!((r.g2 - expected_g2).abs() < 1e-12, "g2={}", r.g2);
        assert!((r.g2 - 0.804_348_6).abs() < 1e-6, "g2={}", r.g2);
        // p = chi2.sf(0.80434865, 1) ~ 0.3698
        assert!((r.p_value - 0.369_8).abs() < 1e-3, "p={}", r.p_value);
    }

    #[test]
    fn degenerate_marginals_return_none() {
        assert!(g_test_2x2(0, 0, 5, 5).is_none()); // empty privileged group
        assert!(g_test_2x2(0, 5, 0, 5).is_none()); // nothing flagged
        assert!(g_test_2x2(5, 0, 5, 0).is_none()); // everything flagged
        assert!(g_test_2x2(0, 0, 0, 0).is_none());
    }

    #[test]
    fn zero_cell_is_fine_if_marginals_positive() {
        let r = g_test_2x2(0, 50, 25, 25).unwrap();
        assert!(r.g2.is_finite());
        assert!(r.significant(0.05));
    }

    #[test]
    fn p_value_in_unit_interval() {
        for &(a, b, c, d) in &[(1, 2, 3, 4), (10, 1, 1, 10), (7, 7, 7, 8), (100, 3, 5, 200)] {
            let r = g_test_2x2(a, b, c, d).unwrap();
            assert!((0.0..=1.0).contains(&r.p_value));
            assert!(r.g2 >= 0.0);
        }
    }
}
