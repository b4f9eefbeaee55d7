//! Fairness-constrained model selection — the paper's §VII research
//! direction: "the selection of cleaning techniques and model
//! hyperparameters is typically steered by cross-validation techniques
//! which aim for the highest accuracy. A promising direction might be to
//! extend existing techniques and implementations to adhere to fairness
//! constraints during the selection procedure."
//!
//! [`tune_and_fit_fair`] is [`mlcore::tune_and_fit`]'s k-fold grid search
//! (the same shuffled grid, folds, validation predictions and refit) with
//! a second selection rule: it scores every candidate on mean validation
//! accuracy *and* mean validation fairness disparity, then picks the most
//! accurate candidate whose disparity stays within `epsilon`, falling back
//! to the least-disparate candidate when the constraint is infeasible.

use fairness::{group_confusions, FairnessMetric, Groups};
use mlcore::cv::{tune_and_fit_by, CvPredictions};
use mlcore::{ModelKind, TunedModel};
use tabular::{DenseMatrix, Result, TabularError};

/// Result of fairness-constrained tuning.
pub struct FairTunedModel {
    /// The refit model, its configuration and mean validation accuracy.
    pub tuned: TunedModel,
    /// Mean validation disparity of the winner (absolute).
    pub val_disparity: f64,
    /// True when the winner satisfied the epsilon constraint; false when
    /// the search fell back to the least-disparate candidate.
    pub constraint_satisfied: bool,
}

/// Tunes `kind`'s hyperparameter on `(x, y)` under a fairness constraint.
///
/// * `groups` holds the privileged/disadvantaged masks of `x`'s rows (the
///   disparity is computed on each validation fold's rows);
/// * `metric` is the guarded fairness metric;
/// * `epsilon` is the maximum tolerated mean absolute disparity.
///
/// Folds where the metric is undefined (e.g. no positive predictions in
/// one group) contribute a pessimistic disparity of 1.0 — undefined
/// fairness must not be rewarded. Accuracy ties keep the first candidate
/// of the shuffled grid, so with `epsilon` = 1 this is `tune_and_fit`.
///
/// Errors when `epsilon` is outside `[0, 1]`, `n_folds < 2`, `x` has
/// fewer rows than folds, or `y` or a mask is not one entry per row.
#[allow(clippy::too_many_arguments)]
pub fn tune_and_fit_fair(
    kind: ModelKind,
    x: &DenseMatrix,
    y: &[u8],
    groups: &Groups,
    metric: FairnessMetric,
    epsilon: f64,
    n_folds: usize,
    seed: u64,
) -> Result<FairTunedModel> {
    let n = x.n_rows();
    let invalid = |msg: String| Err(TabularError::InvalidArgument(msg));
    if !(0.0..=1.0).contains(&epsilon) {
        return invalid(format!("epsilon must be in [0,1], got {epsilon}"));
    }
    if n_folds < 2 || n < n_folds {
        return invalid(format!("need 2 <= folds <= rows, got {n_folds} folds and {n} rows"));
    }
    let lengths = [y.len(), groups.privileged.len(), groups.disadvantaged.len()];
    if lengths.iter().any(|&len| len != n) {
        return invalid(format!("{n} rows, but label and group mask lengths {lengths:?}"));
    }
    let (mut val_disparity, mut constraint_satisfied) = (0.0, false);
    let tuned = tune_and_fit_by(kind, x, y, n_folds, seed, |cv| {
        let disparity = mean_disparities(cv, y, groups, metric);
        // With no candidate within epsilon, the ceiling drops to the least
        // disparity, so the least disparate wins, ties going to accuracy.
        let least = disparity.iter().copied().fold(f64::INFINITY, f64::min);
        let ceiling = epsilon.max(least);
        let within = (0..cv.grid.len()).filter(|&s| disparity[s] <= ceiling);
        // lint:allow(P001, the least disparity's candidate is always within the ceiling)
        let best = cv.most_accurate(within).expect("a candidate within the ceiling");
        (val_disparity, constraint_satisfied) = (disparity[best], least <= epsilon);
        best
    });
    Ok(FairTunedModel { tuned, val_disparity, constraint_satisfied })
}

/// Mean absolute `metric` disparity of each grid entry over the folds'
/// validation rows, its fold disparities summed in fold order.
fn mean_disparities(
    cv: &CvPredictions,
    y: &[u8],
    groups: &Groups,
    metric: FairnessMetric,
) -> Vec<f64> {
    let validation: Vec<(Vec<u8>, Groups)> = cv
        .folds
        .iter()
        .map(|(_, val)| {
            let rows = |m: &[bool]| val.iter().map(|&i| m[i]).collect();
            let masks = Groups {
                privileged: rows(&groups.privileged),
                disadvantaged: rows(&groups.disadvantaged),
            };
            (val.iter().map(|&i| y[i]).collect(), masks)
        })
        .collect();
    let fold_disparity = |(preds, (y_val, masks)): (&Vec<u8>, &(Vec<u8>, Groups))| {
        metric.absolute_disparity(&group_confusions(y_val, preds, masks)).unwrap_or(1.0)
    };
    let mean = |preds: &[Vec<u8>]| {
        preds.iter().zip(&validation).map(fold_disparity).sum::<f64>() / preds.len() as f64
    };
    cv.predictions.chunks(cv.folds.len()).map(mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetId;
    use mlcore::tune_and_fit;
    use tabular::FeatureEncoder;

    fn german_train() -> (DenseMatrix, Vec<u8>, Groups) {
        let frame = DatasetId::German.generate(600, 5).unwrap();
        let clean = frame.drop_incomplete_rows().unwrap();
        let x = FeatureEncoder::fit(&clean, true).unwrap().transform(&clean).unwrap();
        let sex = &DatasetId::German.spec().single_attribute_specs()[1];
        (x, clean.labels().unwrap(), sex.evaluate(&clean).unwrap())
    }

    #[test]
    fn constrained_tuning_runs_for_all_models() {
        let (x, y, groups) = german_train();
        for kind in ModelKind::all() {
            let eo = FairnessMetric::EqualOpportunity;
            let fair = tune_and_fit_fair(kind, &x, &y, &groups, eo, 0.5, 5, 7).unwrap();
            assert!(fair.tuned.val_accuracy > 0.4, "{kind}");
            assert!((0.0..=1.0).contains(&fair.val_disparity));
            assert_eq!(fair.tuned.best_spec.kind(), kind);
        }
    }

    #[test]
    fn loose_constraint_matches_unconstrained_accuracy_ordering() {
        let (x, y, groups) = german_train();
        // epsilon = 1.0 makes every candidate feasible: the winner is the
        // plain accuracy maximiser over the same folds, so the whole
        // result is tune_and_fit's, bit for bit.
        for kind in ModelKind::all() {
            for seed in [1, 7, 11, 13, 21] {
                let eo = FairnessMetric::EqualOpportunity;
                let fair = tune_and_fit_fair(kind, &x, &y, &groups, eo, 1.0, 5, seed).unwrap();
                let plain = tune_and_fit(kind, &x, &y, 5, seed);
                assert!(fair.constraint_satisfied);
                assert_eq!(fair.tuned.best_spec, plain.best_spec, "{kind} seed {seed}");
                assert_eq!(fair.tuned.val_accuracy.to_bits(), plain.val_accuracy.to_bits());
                let bits = |p: Vec<f64>| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(fair.tuned.model.predict_proba(&x)),
                    bits(plain.model.predict_proba(&x)),
                    "{kind} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn tight_constraint_reduces_disparity_or_reports_fallback() {
        let (x, y, groups) = german_train();
        let eo = FairnessMetric::EqualOpportunity;
        let loose = tune_and_fit_fair(ModelKind::Gbdt, &x, &y, &groups, eo, 1.0, 5, 13).unwrap();
        let tight = tune_and_fit_fair(ModelKind::Gbdt, &x, &y, &groups, eo, 0.02, 5, 13).unwrap();
        if tight.constraint_satisfied {
            assert!(tight.val_disparity <= 0.02 + 1e-12);
        } else {
            // Fallback picks the least-disparate candidate.
            assert!(tight.val_disparity <= loose.val_disparity + 1e-12);
        }
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let (x, y, groups) = german_train();
        let eo = FairnessMetric::EqualOpportunity;
        for epsilon in [1.5, -0.1, f64::NAN] {
            let fair = tune_and_fit_fair(ModelKind::LogReg, &x, &y, &groups, eo, epsilon, 5, 1);
            assert!(fair.is_err(), "epsilon {epsilon}");
        }
    }

    #[test]
    fn invalid_folds_or_lengths_rejected_before_the_search() {
        let (x, y, groups) = german_train();
        let fair = |y: &[u8], groups: &Groups, n_folds| {
            let eo = FairnessMetric::EqualOpportunity;
            tune_and_fit_fair(ModelKind::LogReg, &x, y, groups, eo, 0.1, n_folds, 1)
        };
        for n_folds in [0, 1, x.n_rows() + 1] {
            assert!(fair(&y, &groups, n_folds).is_err(), "{n_folds} folds");
        }
        assert!(fair(&y[1..], &groups, 5).is_err(), "short labels");
        let mut short = groups.clone();
        short.privileged.pop();
        assert!(fair(&y, &short, 5).is_err(), "short privileged mask");
        let mut long = groups.clone();
        long.disadvantaged.push(false);
        assert!(fair(&y, &long, 5).is_err(), "long disadvantaged mask");
        assert!(fair(&y, &groups, 5).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y, groups) = german_train();
        let pp = FairnessMetric::PredictiveParity;
        let run = || tune_and_fit_fair(ModelKind::LogReg, &x, &y, &groups, pp, 0.3, 5, 21).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.tuned.best_spec, b.tuned.best_spec);
        assert_eq!(a.tuned.val_accuracy, b.tuned.val_accuracy);
        assert_eq!(a.val_disparity, b.val_disparity);
    }
}
