//! Shared generator machinery: weighted categorical draws, label models,
//! group-dependent missingness injection, and corruption helpers.

use tabular::{Column, DataFrame, Result, Rng64, TabularError};

/// Draws a category index according to the given weights.
pub fn draw_cat(rng: &mut Rng64, weights: &[f64]) -> usize {
    rng.choose_weighted(weights)
}

/// Bernoulli label draw from a log-odds score.
pub fn label_from_score(rng: &mut Rng64, log_odds: f64) -> f64 {
    let p = 1.0 / (1.0 + (-log_odds).exp());
    f64::from(rng.bernoulli(p))
}

/// Injects missing values into a numeric column: row `i` goes missing with
/// probability `base_rate * boost[i]` (boost defaults to 1.0 when shorter).
///
/// This is the mechanism behind the study's "disparities in missing
/// values": passing per-row boosts > 1 for disadvantaged rows yields the
/// group-dependent missingness the paper observes.
pub fn inject_missing_numeric(
    frame: &mut DataFrame,
    column: &str,
    base_rate: f64,
    boost: &[f64],
    rng: &mut Rng64,
) -> Result<()> {
    let n = frame.n_rows();
    if boost.len() != n {
        return Err(TabularError::LengthMismatch { expected: n, actual: boost.len() });
    }
    let data = frame.column_mut(column)?.as_numeric_mut()?;
    for (slot, &b) in data.iter_mut().zip(boost) {
        if rng.bernoulli((base_rate * b).clamp(0.0, 1.0)) {
            *slot = f64::NAN;
        }
    }
    Ok(())
}

/// Injects missing values into a categorical column (see
/// [`inject_missing_numeric`]).
pub fn inject_missing_categorical(
    frame: &mut DataFrame,
    column: &str,
    base_rate: f64,
    boost: &[f64],
    rng: &mut Rng64,
) -> Result<()> {
    let n = frame.n_rows();
    if boost.len() != n {
        return Err(TabularError::LengthMismatch { expected: n, actual: boost.len() });
    }
    let col = frame.column_mut(column)?.as_categorical_mut()?;
    for (i, &factor) in boost.iter().enumerate() {
        if rng.bernoulli((base_rate * factor).clamp(0.0, 1.0)) {
            col.set_code(i, None);
        }
    }
    Ok(())
}

/// Replaces a random `rate` fraction of a numeric column's values with a
/// corrupted version `corrupt(value)` — models data-entry errors like the
/// heart dataset's ten-fold blood-pressure misrecordings or credit's 96/98
/// sentinel codes, which are what the outlier detectors then flag.
pub fn inject_corruption(
    frame: &mut DataFrame,
    column: &str,
    rate: f64,
    rng: &mut Rng64,
    corrupt: impl Fn(f64, &mut Rng64) -> f64,
) -> Result<()> {
    let data = frame.column_mut(column)?.as_numeric_mut()?;
    for slot in data.iter_mut() {
        if !slot.is_nan() && rng.bernoulli(rate) {
            *slot = corrupt(*slot, rng);
        }
    }
    Ok(())
}

/// Flips labels *directionally*: a true-0 row becomes a recorded 1
/// ("false positive label") with probability `fp_rate[i]`, a true-1 row
/// becomes a recorded 0 ("false negative label") with probability
/// `fn_rate[i]`.
///
/// The paper's §III drill-down observes exactly this asymmetry in the
/// real data (heart: flagged privileged errors skew false-positive,
/// disadvantaged errors skew false-negative), and it is the mechanism
/// through which label repair moves equal opportunity and predictive
/// parity in opposite directions: false negatives concentrated on the
/// disadvantaged group suppress its recall in models trained on dirty
/// labels, and flipping them back restores it.
pub fn inject_directional_label_noise(
    frame: &mut DataFrame,
    fp_rate: &[f64],
    fn_rate: &[f64],
    rng: &mut Rng64,
) -> Result<()> {
    let mut labels = frame.labels()?;
    if fp_rate.len() != labels.len() || fn_rate.len() != labels.len() {
        return Err(TabularError::LengthMismatch {
            expected: labels.len(),
            actual: fp_rate.len().min(fn_rate.len()),
        });
    }
    for (i, label) in labels.iter_mut().enumerate() {
        let rate = if *label == 0 { fp_rate[i] } else { fn_rate[i] };
        if rng.bernoulli(rate.clamp(0.0, 1.0)) {
            *label = 1 - *label;
        }
    }
    frame.set_labels(&labels)
}

/// Per-row boost vector from a privileged-group mask:
/// `privileged_boost` where the mask is true, `disadvantaged_boost`
/// elsewhere.
pub fn group_boost(mask: &[bool], privileged_boost: f64, disadvantaged_boost: f64) -> Vec<f64> {
    mask.iter()
        .map(|&m| if m { privileged_boost } else { disadvantaged_boost })
        .collect()
}

/// Extracts a categorical column's membership mask for one label.
pub fn category_mask(frame: &DataFrame, column: &str, label: &str) -> Result<Vec<bool>> {
    let col = frame.categorical(column)?;
    Ok((0..col.len()).map(|i| col.label(i) == Some(label)).collect())
}

/// Extracts a numeric threshold mask (`value > threshold`).
pub fn numeric_gt_mask(frame: &DataFrame, column: &str, threshold: f64) -> Result<Vec<bool>> {
    let data = frame.numeric(column)?;
    Ok(data.iter().map(|&x| x > threshold).collect())
}

/// Validates basic generator postconditions shared by all datasets: the
/// expected row count, a present label column with both classes, and at
/// least one feature column.
pub fn validate_generated(frame: &DataFrame, expected_rows: usize) -> Result<()> {
    if frame.n_rows() != expected_rows {
        return Err(TabularError::LengthMismatch {
            expected: expected_rows,
            actual: frame.n_rows(),
        });
    }
    let labels = frame.labels()?;
    let pos = labels.iter().filter(|&&l| l == 1).count();
    if expected_rows >= 100 && (pos == 0 || pos == labels.len()) {
        return Err(TabularError::InvalidArgument(
            "generated labels are single-class".to_string(),
        ));
    }
    let has_feature = frame
        .schema()
        .fields()
        .iter()
        .any(|f| f.role == tabular::ColumnRole::Feature);
    if !has_feature {
        return Err(TabularError::InvalidArgument("no feature columns".to_string()));
    }
    for (field, idx) in frame.schema().fields().iter().zip(0..) {
        if let Column::Numeric(v) = frame.column_at(idx) {
            if v.iter().any(|x| x.is_infinite()) {
                return Err(TabularError::InvalidArgument(format!(
                    "column '{}' contains infinite values",
                    field.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::ColumnRole;

    fn base_frame(n: usize) -> DataFrame {
        DataFrame::builder()
            .numeric("x", ColumnRole::Feature, (0..n).map(|i| i as f64).collect())
            .categorical(
                "c",
                ColumnRole::Feature,
                &(0..n).map(|i| Some(if i % 2 == 0 { "a" } else { "b" })).collect::<Vec<_>>(),
            )
            .numeric("label", ColumnRole::Label, (0..n).map(|i| f64::from(i % 2 == 0)).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn missing_injection_rates_respond_to_boost() {
        let mut df = base_frame(4000);
        let mut rng = Rng64::seed_from_u64(1);
        let mask: Vec<bool> = (0..4000).map(|i| i < 2000).collect();
        let boost = group_boost(&mask, 0.5, 2.0);
        inject_missing_numeric(&mut df, "x", 0.1, &boost, &mut rng).unwrap();
        let data = df.numeric("x").unwrap();
        let priv_missing = data[..2000].iter().filter(|x| x.is_nan()).count();
        let dis_missing = data[2000..].iter().filter(|x| x.is_nan()).count();
        // ~5% vs ~20%.
        assert!(priv_missing < dis_missing, "{priv_missing} vs {dis_missing}");
        assert!((priv_missing as f64 / 2000.0 - 0.05).abs() < 0.02);
        assert!((dis_missing as f64 / 2000.0 - 0.20).abs() < 0.03);
    }

    #[test]
    fn categorical_missing_injection() {
        let mut df = base_frame(1000);
        let mut rng = Rng64::seed_from_u64(2);
        inject_missing_categorical(&mut df, "c", 0.3, &vec![1.0; 1000], &mut rng).unwrap();
        let missing = df.categorical("c").unwrap().missing_count();
        assert!((missing as f64 / 1000.0 - 0.3).abs() < 0.05);
    }

    #[test]
    fn corruption_replaces_values() {
        let mut df = base_frame(1000);
        let mut rng = Rng64::seed_from_u64(3);
        inject_corruption(&mut df, "x", 0.1, &mut rng, |v, _| v * 10.0 + 1e6).unwrap();
        let corrupted = df.numeric("x").unwrap().iter().filter(|&&x| x >= 1e6).count();
        assert!((corrupted as f64 / 1000.0 - 0.1).abs() < 0.04);
    }

    #[test]
    fn directional_noise_respects_directions() {
        let mut df = base_frame(4000);
        let before = df.labels().unwrap();
        let mut rng = Rng64::seed_from_u64(9);
        // Only false-positive noise: 0 -> 1 flips, never 1 -> 0.
        gen_fp_only(&mut df, &mut rng);
        let after = df.labels().unwrap();
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            if b == 1 {
                assert_eq!(a, 1, "row {i}: a true positive was flipped");
            }
        }
        let flips = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(flips > 0, "no flips at all");
    }

    fn gen_fp_only(df: &mut DataFrame, rng: &mut Rng64) {
        let n = df.n_rows();
        inject_directional_label_noise(df, &vec![0.3; n], &vec![0.0; n], rng).unwrap();
    }

    #[test]
    fn directional_noise_rates() {
        let mut df = base_frame(10_000);
        let before = df.labels().unwrap();
        let mut rng = Rng64::seed_from_u64(10);
        let n = df.n_rows();
        inject_directional_label_noise(&mut df, &vec![0.2; n], &vec![0.05; n], &mut rng).unwrap();
        let after = df.labels().unwrap();
        let (mut fp, mut zeros, mut fn_, mut ones) = (0usize, 0usize, 0usize, 0usize);
        for (&b, &a) in before.iter().zip(&after) {
            if b == 0 {
                zeros += 1;
                fp += usize::from(a == 1);
            } else {
                ones += 1;
                fn_ += usize::from(a == 0);
            }
        }
        assert!((fp as f64 / zeros as f64 - 0.2).abs() < 0.03);
        assert!((fn_ as f64 / ones as f64 - 0.05).abs() < 0.02);
    }

    #[test]
    fn directional_noise_length_mismatch_rejected() {
        let mut df = base_frame(10);
        let mut rng = Rng64::seed_from_u64(11);
        assert!(
            inject_directional_label_noise(&mut df, &[0.1; 10], &[0.1; 9], &mut rng).is_err()
        );
    }

    #[test]
    fn masks_and_boosts() {
        let df = base_frame(4);
        let mask = category_mask(&df, "c", "a").unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
        let gt = numeric_gt_mask(&df, "x", 1.5).unwrap();
        assert_eq!(gt, vec![false, false, true, true]);
        assert_eq!(group_boost(&mask, 2.0, 0.5), vec![2.0, 0.5, 2.0, 0.5]);
    }

    #[test]
    fn validation_catches_problems() {
        let df = base_frame(10);
        assert!(validate_generated(&df, 10).is_ok());
        assert!(validate_generated(&df, 11).is_err());
    }

    #[test]
    fn length_mismatches_rejected() {
        let mut df = base_frame(10);
        let mut rng = Rng64::seed_from_u64(5);
        assert!(inject_missing_numeric(&mut df, "x", 0.1, &[1.0], &mut rng).is_err());
    }
}
