//! The t and χ² survival functions against their closed forms at small
//! degrees of freedom, on dense grids that include the range ends. The
//! χ²₁ form needs `erfc`, which std lacks, so the test integrates it by
//! quadrature.

use statskit::chi2_survival;
use statskit::ttest::t_survival;
use std::f64::consts::PI;

const TOL: f64 = 1e-12;

/// `n + 1` evenly spaced points from `lo` to `hi`, both included.
fn grid(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
    (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
}

/// Largest absolute gap between `f` and `closed` over `points`, with the
/// point where it occurs.
fn worst(
    points: impl Iterator<Item = f64>,
    f: impl Fn(f64) -> f64,
    closed: impl Fn(f64) -> f64,
) -> (f64, f64) {
    points.map(|x| ((f(x) - closed(x)).abs(), x)).fold((0.0, f64::NAN), |a, b| {
        if b.0 > a.0 {
            b
        } else {
            a
        }
    })
}

#[test]
fn t_survival_at_one_df_is_the_cauchy_survival_function() {
    let (gap, at) =
        worst(grid(-50.0, 50.0, 20_000), |t| t_survival(t, 1.0), |t| 0.5 - t.atan() / PI);
    assert!(gap < TOL, "|t_survival(t, 1) - (1/2 - atan(t)/pi)| = {gap:e} at t = {at}");
}

#[test]
fn t_survival_at_two_df_matches_its_closed_form() {
    let (gap, at) = worst(
        grid(-50.0, 50.0, 20_000),
        |t| t_survival(t, 2.0),
        |t| 0.5 - t / (2.0 * (t * t + 2.0).sqrt()),
    );
    assert!(gap < TOL, "|t_survival(t, 2) - closed form| = {gap:e} at t = {at}");
}

#[test]
fn chi2_survival_at_four_df_matches_its_closed_form() {
    let (gap, at) = worst(
        grid(0.0, 200.0, 20_000),
        |x| chi2_survival(x, 4.0),
        |x| (-x / 2.0).exp() * (1.0 + x / 2.0),
    );
    assert!(gap < TOL, "|chi2_survival(x, 4) - e^(-x/2)(1 + x/2)| = {gap:e} at x = {at}");
}

/// Nodes and weights of `n`-point Gauss–Legendre quadrature on [−1, 1]:
/// the roots of `P_n`, found by Newton's method from Chebyshev guesses.
fn gauss_legendre(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|k| {
            let mut x = (PI * (k as f64 + 0.75) / (n as f64 + 0.5)).cos();
            loop {
                // P_n(x) and P_{n-1}(x) by the three-term recurrence.
                let (mut prev, mut p) = (1.0, x);
                for j in 2..=n {
                    let j = j as f64;
                    (prev, p) = (p, ((2.0 * j - 1.0) * x * p - (j - 1.0) * prev) / j);
                }
                let dp = n as f64 * (x * p - prev) / (x * x - 1.0);
                let step = p / dp;
                x -= step;
                if step.abs() < 1e-15 {
                    return (x, 2.0 / ((1.0 - x * x) * dp * dp));
                }
            }
        })
        .collect()
}

/// `erfc(z)` for `z ≥ 0` without statskit: `2/√π ∫ e^(−t²) dt` over
/// `[z, z + 8]` by 10-point Gauss–Legendre on 64 panels. The tail past
/// `z + 8` is below `e^(−64)`.
fn erfc(z: f64) -> f64 {
    let rule = gauss_legendre(10);
    let half = 8.0 / 64.0 / 2.0;
    let sum: f64 = (0..64)
        .map(|panel| {
            let mid = z + (2 * panel + 1) as f64 * half;
            rule.iter().map(|(x, w)| w * (-(mid + half * x).powi(2)).exp()).sum::<f64>()
        })
        .sum();
    sum * half * 2.0 / PI.sqrt()
}

#[test]
fn chi2_survival_at_one_df_is_erfc_of_root_half_x() {
    // Anchor the quadrature first: erfc(0) = 1, erfc(1) = 0.1572992070502851.
    assert!((erfc(0.0) - 1.0).abs() < 1e-14, "erfc(0) = {}", erfc(0.0));
    assert!((erfc(1.0) - 0.157_299_207_050_285_13).abs() < 1e-14, "erfc(1) = {}", erfc(1.0));
    let (gap, at) = worst(
        grid(0.0, 200.0, 20_000),
        |x| chi2_survival(x, 1.0),
        |x| erfc((x / 2.0).sqrt()),
    );
    assert!(gap < TOL, "|chi2_survival(x, 1) - erfc(sqrt(x/2))| = {gap:e} at x = {at}");
}
