//! Descriptive statistics of score samples.

/// Summary description of a sample of scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Description {
    /// Number of finite observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Description {
    /// Describes a sample, skipping non-finite values.
    ///
    /// Returns `None` for an empty (or all-NaN) sample.
    pub fn of(sample: &[f64]) -> Option<Description> {
        let finite: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let n = finite.len();
        let mean = finite.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            (finite.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let std_err = if n > 0 { std_dev / (n as f64).sqrt() } else { 0.0 };
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Description { n, mean, std_dev, std_err, min, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describes_basic_sample() {
        let d = Description::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(d.n, 8);
        assert!((d.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic example is ~2.138.
        assert!((d.std_dev - 2.138_089_935).abs() < 1e-6);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
    }

    #[test]
    fn skips_non_finite() {
        let d = Description::of(&[1.0, f64::NAN, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(d.n, 2);
        assert!((d.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_none() {
        assert!(Description::of(&[]).is_none());
        assert!(Description::of(&[f64::NAN]).is_none());
    }

    #[test]
    fn singleton_has_zero_spread() {
        let d = Description::of(&[42.0]).unwrap();
        assert_eq!(d.std_dev, 0.0);
        assert_eq!(d.std_err, 0.0);
    }
}
