//! The t and χ² survival functions against their closed forms at small
//! degrees of freedom, on dense grids that include the range ends.

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
