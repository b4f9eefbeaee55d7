//! Fairness-constrained model selection — the paper's §VII research
//! direction: "the selection of cleaning techniques and model
//! hyperparameters is typically steered by cross-validation techniques
//! which aim for the highest accuracy. A promising direction might be to
//! extend existing techniques and implementations to adhere to fairness
//! constraints during the selection procedure."
//!
//! [`tune_and_fit_fair`] runs the same k-fold grid search as
//! [`mlcore::tune_and_fit`], but scores every candidate on *both* mean
//! validation accuracy and mean validation fairness disparity, then picks
//! the most accurate candidate whose disparity stays within `epsilon` —
//! falling back to the least-disparate candidate when the constraint is
//! infeasible on this data.

use fairness::{group_confusions, FairnessMetric, GroupSpec};
use mlcore::model::Classifier;
use mlcore::{accuracy, ModelKind, ModelSpec};
use tabular::{split::kfold, DataFrame, FeatureEncoder, Result, Rng64, TabularError};

/// Result of fairness-constrained tuning.
pub struct FairTunedModel {
    /// The refit classifier.
    pub model: Box<dyn Classifier>,
    /// The winning hyperparameter configuration.
    pub best_spec: ModelSpec,
    /// Mean validation accuracy of the winner.
    pub val_accuracy: f64,
    /// Mean validation disparity of the winner (absolute).
    pub val_disparity: f64,
    /// True when the winner satisfied the epsilon constraint; false when
    /// the search fell back to the least-disparate candidate.
    pub constraint_satisfied: bool,
}

/// Per-candidate validation scores.
#[derive(Debug, Clone, Copy)]
struct CandidateScore {
    accuracy: f64,
    disparity: f64,
}

/// Tunes `kind`'s hyperparameter under a fairness constraint.
///
/// * `groups` defines the privileged/disadvantaged split the disparity is
///   computed over (evaluated on each validation fold's rows);
/// * `metric` is the guarded fairness metric;
/// * `epsilon` is the maximum tolerated mean absolute disparity.
///
/// Folds where the metric is undefined (e.g. no positive predictions in
/// one group) contribute a pessimistic disparity of 1.0 — undefined
/// fairness must not be rewarded.
pub fn tune_and_fit_fair(
    kind: ModelKind,
    train: &DataFrame,
    groups: &GroupSpec,
    metric: FairnessMetric,
    epsilon: f64,
    n_folds: usize,
    seed: u64,
) -> Result<FairTunedModel> {
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(TabularError::InvalidArgument(format!(
            "epsilon must be in [0,1], got {epsilon}"
        )));
    }
    let y = train.labels()?;
    let n = train.n_rows();
    if n < n_folds {
        return Err(TabularError::InvalidArgument(format!(
            "need at least {n_folds} rows, got {n}"
        )));
    }
    let encoder = FeatureEncoder::fit(train, true)?;
    let x = encoder.transform(train)?;
    let membership = groups.evaluate(train)?;

    let mut rng = Rng64::seed_from_u64(seed);
    let mut grid = kind.default_grid();
    rng.shuffle(&mut grid);
    let folds = kfold(n, n_folds, rng.next_u64())?;
    let fit_seed = rng.next_u64();

    let mut scored: Vec<(ModelSpec, CandidateScore)> = Vec::with_capacity(grid.len());
    for spec in &grid {
        let mut accs = Vec::with_capacity(folds.len());
        let mut disparities = Vec::with_capacity(folds.len());
        for (train_idx, val_idx) in &folds {
            let x_tr = x.take_rows(train_idx);
            let y_tr: Vec<u8> = train_idx.iter().map(|&i| y[i]).collect();
            let model = spec.fit(&x_tr, &y_tr, fit_seed);
            let x_val = x.take_rows(val_idx);
            let y_val: Vec<u8> = val_idx.iter().map(|&i| y[i]).collect();
            let preds = model.predict(&x_val);
            accs.push(accuracy(&y_val, &preds));
            let val_groups = fairness::Groups {
                privileged: val_idx.iter().map(|&i| membership.privileged[i]).collect(),
                disadvantaged: val_idx.iter().map(|&i| membership.disadvantaged[i]).collect(),
            };
            let gc = group_confusions(&y_val, &preds, &val_groups);
            disparities.push(metric.absolute_disparity(&gc).unwrap_or(1.0));
        }
        let score = CandidateScore {
            accuracy: accs.iter().sum::<f64>() / accs.len() as f64,
            disparity: disparities.iter().sum::<f64>() / disparities.len() as f64,
        };
        scored.push((*spec, score));
    }

    // Feasible set: within epsilon. Pick max accuracy there; otherwise
    // minimise disparity (ties by accuracy).
    let feasible_best = scored
        .iter()
        .filter(|(_, s)| s.disparity <= epsilon)
        .max_by(|a, b| a.1.accuracy.partial_cmp(&b.1.accuracy).unwrap_or(std::cmp::Ordering::Equal));
    let (best_spec, score, satisfied) = match feasible_best {
        Some((spec, score)) => (*spec, *score, true),
        None => {
            let (spec, score) = scored
                .iter()
                .min_by(|a, b| {
                    a.1.disparity
                        .partial_cmp(&b.1.disparity)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(
                            b.1.accuracy
                                .partial_cmp(&a.1.accuracy)
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                })
                // lint:allow(P001, scored has one entry per spec and the spec grid is never empty)
                .expect("non-empty grid");
            (*spec, *score, false)
        }
    };
    let model = best_spec.fit(&x, &y, fit_seed);
    Ok(FairTunedModel {
        model,
        best_spec,
        val_accuracy: score.accuracy,
        val_disparity: score.disparity,
        constraint_satisfied: satisfied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetId;

    fn german_train() -> (DataFrame, GroupSpec) {
        let frame = DatasetId::German.generate(600, 5).unwrap();
        let clean = frame.drop_incomplete_rows().unwrap();
        let spec = DatasetId::German.spec();
        (clean, spec.single_attribute_specs()[1].clone()) // sex
    }

    #[test]
    fn constrained_tuning_runs_for_all_models() {
        let (train, groups) = german_train();
        for kind in ModelKind::all() {
            let tuned = tune_and_fit_fair(
                kind,
                &train,
                &groups,
                FairnessMetric::EqualOpportunity,
                0.5,
                5,
                7,
            )
            .unwrap();
            assert!(tuned.val_accuracy > 0.4, "{kind}");
            assert!((0.0..=1.0).contains(&tuned.val_disparity));
            assert_eq!(tuned.best_spec.kind(), kind);
        }
    }

    #[test]
    fn loose_constraint_matches_unconstrained_accuracy_ordering() {
        let (train, groups) = german_train();
        // epsilon = 1.0 makes every candidate feasible: the winner is the
        // plain accuracy maximiser over the same folds.
        let tuned = tune_and_fit_fair(
            ModelKind::LogReg,
            &train,
            &groups,
            FairnessMetric::EqualOpportunity,
            1.0,
            5,
            11,
        )
        .unwrap();
        assert!(tuned.constraint_satisfied);
    }

    #[test]
    fn tight_constraint_reduces_disparity_or_reports_fallback() {
        let (train, groups) = german_train();
        let loose = tune_and_fit_fair(
            ModelKind::Gbdt,
            &train,
            &groups,
            FairnessMetric::EqualOpportunity,
            1.0,
            5,
            13,
        )
        .unwrap();
        let tight = tune_and_fit_fair(
            ModelKind::Gbdt,
            &train,
            &groups,
            FairnessMetric::EqualOpportunity,
            0.02,
            5,
            13,
        )
        .unwrap();
        if tight.constraint_satisfied {
            assert!(tight.val_disparity <= 0.02 + 1e-12);
        } else {
            // Fallback picks the least-disparate candidate.
            assert!(tight.val_disparity <= loose.val_disparity + 1e-12);
        }
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let (train, groups) = german_train();
        assert!(tune_and_fit_fair(
            ModelKind::LogReg,
            &train,
            &groups,
            FairnessMetric::EqualOpportunity,
            1.5,
            5,
            1,
        )
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, groups) = german_train();
        let run = || {
            tune_and_fit_fair(
                ModelKind::LogReg,
                &train,
                &groups,
                FairnessMetric::PredictiveParity,
                0.3,
                5,
                21,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_spec, b.best_spec);
        assert_eq!(a.val_accuracy, b.val_accuracy);
        assert_eq!(a.val_disparity, b.val_disparity);
    }
}
