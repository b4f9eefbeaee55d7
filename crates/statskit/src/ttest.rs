//! Student-t distribution and the paired-sample t-test.
//!
//! The experimentation framework compares, per configuration, the paired
//! per-run scores of the "dirty" and "repaired" arms (the same split is used
//! for both, so scores are naturally paired) and classifies the impact as
//! worse / insignificant / better via a two-sided paired t-test.

use crate::special::beta_inc;

/// Survival function of Student's t with `df` degrees of freedom:
/// `P(T >= t)` (one-sided).
pub fn t_survival(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "df must be positive");
    let p_two = beta_inc(df / 2.0, 0.5, df / (df + t * t));
    if t >= 0.0 {
        p_two / 2.0
    } else {
        1.0 - p_two / 2.0
    }
}

/// Two-sided p-value for a t statistic.
pub fn t_two_sided(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "df must be positive");
    beta_inc(df / 2.0, 0.5, df / (df + t * t))
}

/// Outcome of a paired t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic of the mean difference (b - a).
    pub t: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Degrees of freedom (n - 1).
    pub df: f64,
    /// Mean of the differences (b - a): positive means `b` is larger.
    pub mean_diff: f64,
}

impl TTestResult {
    /// True when the difference is significant at `alpha` (two-sided).
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Paired two-sided t-test of `b` against `a` (difference `b - a`).
///
/// Pairs whose difference is not finite are dropped, and `None` is
/// returned when fewer than two remain. When the variance of the
/// differences is (numerically) zero the result is exact: a zero mean is
/// trivially no effect (`t = 0`, p = 1), and a nonzero mean an exact
/// effect (`t = ±∞`, p = 0).
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    assert_eq!(a.len(), b.len(), "paired samples must have equal length");
    let diffs: Vec<f64> = b
        .iter()
        .zip(a)
        .map(|(&y, &x)| y - x)
        .filter(|d| d.is_finite())
        .collect();
    let n = diffs.len();
    if n < 2 {
        return None;
    }
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1) as f64;
    let df = (n - 1) as f64;
    if var <= 1e-24 {
        return if mean.abs() <= 1e-12 {
            Some(TTestResult { t: 0.0, p_value: 1.0, df, mean_diff: mean })
        } else {
            Some(TTestResult {
                t: if mean > 0.0 { f64::INFINITY } else { f64::NEG_INFINITY },
                p_value: 0.0,
                df,
                mean_diff: mean,
            })
        };
    }
    let se = (var / n as f64).sqrt();
    let t = mean / se;
    Some(TTestResult { t, p_value: t_two_sided(t, df), df, mean_diff: mean })
}

/// Welch's (unpaired, unequal-variance) t-test — used by follow-up analyses
/// where pairing is unavailable.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    let na = a.len();
    let nb = b.len();
    if na < 2 || nb < 2 {
        return None;
    }
    let ma = a.iter().sum::<f64>() / na as f64;
    let mb = b.iter().sum::<f64>() / nb as f64;
    let va = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / (na - 1) as f64;
    let vb = b.iter().map(|x| (x - mb) * (x - mb)).sum::<f64>() / (nb - 1) as f64;
    let se2 = va / na as f64 + vb / nb as f64;
    if se2 <= 1e-24 {
        let mean = mb - ma;
        let df = (na + nb - 2) as f64;
        return if mean.abs() <= 1e-12 {
            Some(TTestResult { t: 0.0, p_value: 1.0, df, mean_diff: mean })
        } else {
            Some(TTestResult {
                t: if mean > 0.0 { f64::INFINITY } else { f64::NEG_INFINITY },
                p_value: 0.0,
                df,
                mean_diff: mean,
            })
        };
    }
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2
        / ((va / na as f64).powi(2) / (na - 1) as f64
            + (vb / nb as f64).powi(2) / (nb - 1) as f64);
    let t = (mb - ma) / se2.sqrt();
    Some(TTestResult { t, p_value: t_two_sided(t, df), df, mean_diff: mb - ma })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_distribution_reference() {
        // scipy.stats.t.sf(2.0, 10) ~ 0.0366940
        assert!((t_survival(2.0, 10.0) - 0.036_694_0).abs() < 1e-6);
        // Symmetry: sf(-t) = 1 - sf(t).
        assert!((t_survival(-2.0, 10.0) + t_survival(2.0, 10.0) - 1.0).abs() < 1e-12);
        // sf(0) = 0.5.
        assert!((t_survival(0.0, 5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_sided_p_reference() {
        // Hand-checkable pair: diffs = [.5, .5, .4, .6, .5], mean .5,
        // var = 0.005, se = sqrt(0.005/5) -> t = 0.5/0.0316.. = sqrt(250).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.5, 2.5, 3.4, 4.6, 5.5];
        let r = paired_t_test(&a, &b).unwrap();
        assert!((r.t - 250f64.sqrt()).abs() < 1e-9, "t={}", r.t);
        assert!(r.p_value < 1e-3, "p={}", r.p_value);
        assert!(r.p_value > 0.0);
        assert!(r.mean_diff > 0.0);
        assert!(r.significant(0.05));
    }

    #[test]
    fn no_effect_is_insignificant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.1, 1.9, 3.05, 3.95];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(!r.significant(0.05));
    }

    #[test]
    fn identical_samples_p_one() {
        let a = [1.0, 2.0, 3.0];
        let r = paired_t_test(&a, &a).unwrap();
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.t, 0.0);
    }

    #[test]
    fn constant_shift_is_exact_effect() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 3.0, 4.0];
        let r = paired_t_test(&a, &b).unwrap();
        assert_eq!(r.p_value, 0.0);
        assert!(r.t.is_infinite() && r.t > 0.0);
    }

    #[test]
    fn too_few_pairs_is_none() {
        assert!(paired_t_test(&[1.0], &[2.0]).is_none());
        assert!(paired_t_test(&[], &[]).is_none());
    }

    #[test]
    fn nan_pairs_are_dropped() {
        let a = [1.0, f64::NAN, 3.0, 4.0];
        let b = [1.5, 2.0, 3.5, 4.5];
        let r = paired_t_test(&a, &b).unwrap();
        // Only 3 finite differences remain.
        assert_eq!(r.df, 2.0);
    }

    #[test]
    fn direction_of_mean_diff() {
        let a = [5.0, 6.0, 7.0];
        let b = [1.0, 2.0, 3.0];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.mean_diff < 0.0);
        assert!(r.t < 0.0);
    }

    #[test]
    fn welch_reference() {
        // Hand-checkable: both samples have var 5/3, n=4, so
        // t = (5 - 2.5) / sqrt(2 * (5/3) / 4) = 2.5/sqrt(5/6).
        let r = welch_t_test(&[1.0, 2.0, 3.0, 4.0], &[3.0, 4.0, 5.0, 6.0]).unwrap();
        let expected_t = 2.0 / (5.0f64 / 6.0).sqrt();
        assert!((r.t - expected_t).abs() < 1e-12, "t={}", r.t);
        // Equal variances -> Welch df reduces to n1+n2-2 = 6.
        assert!((r.df - 6.0).abs() < 1e-9, "df={}", r.df);
        assert!(r.p_value > 0.05 && r.p_value < 0.10, "p={}", r.p_value);
    }

    #[test]
    fn welch_degenerate_cases() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        let same = welch_t_test(&[2.0, 2.0], &[2.0, 2.0]).unwrap();
        assert_eq!(same.p_value, 1.0);
        let shifted = welch_t_test(&[2.0, 2.0], &[3.0, 3.0]).unwrap();
        assert_eq!(shifted.p_value, 0.0);
    }
}
