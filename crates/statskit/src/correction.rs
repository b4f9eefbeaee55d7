//! Multiple-hypothesis corrections.
//!
//! The study runs one t-test per (configuration, metric) and adjusts the
//! significance threshold by Bonferroni correction, following CleanML.

/// Bonferroni-adjusted significance level: `alpha / m` for `m` simultaneous
/// hypotheses. `m = 0` is treated as one hypothesis.
pub fn bonferroni_alpha(alpha: f64, m: usize) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
    alpha / m.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonferroni_divides_alpha() {
        assert_eq!(bonferroni_alpha(0.05, 10), 0.005);
        assert_eq!(bonferroni_alpha(0.05, 1), 0.05);
        assert_eq!(bonferroni_alpha(0.05, 0), 0.05);
    }

    #[test]
    #[should_panic(expected = "alpha must be")]
    fn bonferroni_rejects_bad_alpha() {
        bonferroni_alpha(1.5, 2);
    }
}
