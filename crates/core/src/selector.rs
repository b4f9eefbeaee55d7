//! Fairness-aware cleaning-technique selection — the paper's §VII vision
//! ("we can — and should — mitigate any potential negative impact of
//! automated cleaning with the help of a principled methodology for
//! selecting an appropriate cleaning procedure"), made executable.
//!
//! Given a study's classified configurations, the selector recommends,
//! per (dataset, group), a cleaning technique under a guardrail policy:
//! never deploy a technique whose fairness impact was classified *worse*;
//! prefer techniques that improve fairness; break ties by accuracy
//! impact. When no technique passes the guardrail, the recommendation is
//! to keep the dirty baseline — the paper's warning that blind
//! auto-cleaning is not safe.

use crate::config::ExperimentConfig;
use crate::impact::Impact;
use crate::runner::StudyResults;
use crate::tables::{classify_study, ClassifiedEntry};
use fairness::FairnessMetric;
use std::collections::BTreeMap;

/// How candidates are ranked after the fairness guardrail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Rank by fairness impact first, accuracy second.
    FairnessFirst,
    /// Rank by accuracy impact first (fairness still guarded).
    AccuracyFirst,
}

/// What the selector recommends for one (dataset, group) setting.
#[derive(Debug, Clone)]
pub enum SelectorChoice {
    /// Deploy this cleaning configuration.
    Clean {
        /// The chosen configuration.
        config: ExperimentConfig,
        /// Its classified fairness impact.
        fairness: Impact,
        /// Its classified accuracy impact.
        accuracy: Impact,
    },
    /// No configuration passed the fairness guardrail: keep the dirty
    /// baseline (do not auto-clean).
    KeepDirty {
        /// How many candidates were rejected by the guardrail.
        rejected: usize,
    },
}

/// A per-setting recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Dataset name.
    pub dataset: String,
    /// Group label (sensitive attribute or intersection).
    pub group: String,
    /// Fairness metric the guardrail protects.
    pub metric: FairnessMetric,
    /// The decision.
    pub choice: SelectorChoice,
}

impl Recommendation {
    /// True when the selector found a deployable technique.
    pub fn is_clean(&self) -> bool {
        matches!(self.choice, SelectorChoice::Clean { .. })
    }
}

/// Ranks an impact for "better is higher" ordering.
fn rank(impact: Impact) -> u8 {
    match impact {
        Impact::Worse => 0,
        Impact::Insignificant => 1,
        Impact::Better => 2,
    }
}

/// Candidate ordering key under a policy (higher wins).
fn policy_key(entry: &ClassifiedEntry, policy: SelectionPolicy) -> (u8, u8) {
    match policy {
        SelectionPolicy::FairnessFirst => (rank(entry.fairness), rank(entry.accuracy)),
        SelectionPolicy::AccuracyFirst => (rank(entry.accuracy), rank(entry.fairness)),
    }
}

/// Recommends jointly for *both* headline metrics: a candidate must pass
/// the guardrail on PP **and** EO simultaneously (the paper's observation
/// that improving one metric while worsening the other creates in-group
/// unfairness makes a single-metric guardrail insufficient).
pub fn recommend_dual_metric(
    results: &StudyResults,
    intersectional: bool,
    alpha: f64,
    policy: SelectionPolicy,
) -> Vec<Recommendation> {
    let pp = classify_study(results, FairnessMetric::PredictiveParity, intersectional, alpha);
    let eo = classify_study(results, FairnessMetric::EqualOpportunity, intersectional, alpha);
    let mut by_setting: BTreeMap<(String, String), Vec<(ClassifiedEntry, Impact)>> =
        BTreeMap::new();
    for (p, e) in pp.into_iter().zip(eo) {
        debug_assert_eq!(p.config.key(), e.config.key());
        debug_assert_eq!(p.group, e.group);
        by_setting
            .entry((p.config.dataset.name().to_string(), p.group.clone()))
            .or_default()
            .push((p, e.fairness));
    }
    by_setting
        .into_iter()
        .map(|((dataset, group), candidates)| {
            let total = candidates.len();
            let mut passing: Vec<&(ClassifiedEntry, Impact)> = candidates
                .iter()
                .filter(|(p, eo_fairness)| {
                    p.fairness != Impact::Worse && *eo_fairness != Impact::Worse
                })
                .collect();
            passing.sort_by(|(a, a_eo), (b, b_eo)| {
                let ka = (policy_key(a, policy), rank(*a_eo));
                let kb = (policy_key(b, policy), rank(*b_eo));
                kb.cmp(&ka).then_with(|| a.config.key().cmp(&b.config.key()))
            });
            let choice = match passing.first() {
                Some((best, _)) => SelectorChoice::Clean {
                    config: best.config,
                    fairness: best.fairness,
                    accuracy: best.accuracy,
                },
                None => SelectorChoice::KeepDirty { rejected: total },
            };
            Recommendation {
                dataset,
                group,
                metric: FairnessMetric::PredictiveParity,
                choice,
            }
        })
        .collect()
}

/// Summary over a set of recommendations:
/// `(settings, deployable, fairness_improving, keep_dirty)`.
pub fn summarize(recommendations: &[Recommendation]) -> (usize, usize, usize, usize) {
    let deployable = recommendations.iter().filter(|r| r.is_clean()).count();
    let improving = recommendations
        .iter()
        .filter(|r| {
            matches!(r.choice, SelectorChoice::Clean { fairness: Impact::Better, .. })
        })
        .count();
    (
        recommendations.len(),
        deployable,
        improving,
        recommendations.len() - deployable,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RepairSpec, StudyScale};
    use crate::runner::{ConfigScores, GroupMetricScores};
    use cleaning::repair::MissingRepair;
    use datasets::{DatasetId, ErrorType};
    use mlcore::ModelKind;

    /// A study with two configurations on one group: one improves accuracy
    /// but worsens fairness, the other is fairness-neutral.
    fn study(first_worsens_fairness: bool) -> StudyResults {
        let flat = vec![0.70; 6];
        let up = vec![0.80, 0.81, 0.79, 0.80, 0.81, 0.82];
        let disparity_flat = vec![0.05; 6];
        let disparity_up = vec![0.15, 0.16, 0.15, 0.14, 0.15, 0.16];
        let mk = |repair: RepairSpec, acc: Vec<f64>, disp: Vec<f64>| ConfigScores {
            config: ExperimentConfig { dataset: DatasetId::German, model: ModelKind::LogReg, repair },
            dirty_accuracy: flat.clone(),
            repaired_accuracy: acc,
            fairness: vec![
                GroupMetricScores {
                    group: "sex".to_string(),
                    intersectional: false,
                    metric: FairnessMetric::PredictiveParity,
                    dirty: disparity_flat.clone(),
                    repaired: disp,
                },
                // EO never moves, so the dual guardrail decides on PP.
                GroupMetricScores {
                    group: "sex".to_string(),
                    intersectional: false,
                    metric: FairnessMetric::EqualOpportunity,
                    dirty: disparity_flat.clone(),
                    repaired: disparity_flat.clone(),
                },
            ],
        };
        let variants = MissingRepair::all();
        StudyResults::new(
            ErrorType::MissingValues,
            StudyScale::smoke(),
            vec![
                mk(
                    RepairSpec::Missing(variants[0]),
                    up.clone(),
                    if first_worsens_fairness { disparity_up.clone() } else { disparity_flat.clone() },
                ),
                mk(RepairSpec::Missing(variants[1]), flat.clone(), disparity_flat.clone()),
            ],
        )
    }

    #[test]
    fn guardrail_rejects_fairness_worsening_candidates() {
        let results = study(true);
        let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::AccuracyFirst);
        assert_eq!(recs.len(), 1);
        match &recs[0].choice {
            SelectorChoice::Clean { config, fairness, .. } => {
                // The accuracy-improving candidate worsens fairness, so the
                // neutral one must win even under AccuracyFirst.
                assert_eq!(config.repair.name(), MissingRepair::all()[1].name());
                assert_eq!(*fairness, Impact::Insignificant);
            }
            other => panic!("expected Clean, got {other:?}"),
        }
    }

    #[test]
    fn accuracy_first_prefers_accuracy_when_guardrail_passes() {
        let results = study(false);
        let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::AccuracyFirst);
        match &recs[0].choice {
            SelectorChoice::Clean { config, accuracy, .. } => {
                assert_eq!(config.repair.name(), MissingRepair::all()[0].name());
                assert_eq!(*accuracy, Impact::Better);
            }
            other => panic!("expected Clean, got {other:?}"),
        }
    }

    #[test]
    fn keep_dirty_when_everything_worsens() {
        let mut results = study(true);
        // Make the second candidate worsen fairness too.
        results.configs[1].fairness[0].repaired =
            vec![0.15, 0.16, 0.15, 0.14, 0.15, 0.16];
        let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::FairnessFirst);
        match &recs[0].choice {
            SelectorChoice::KeepDirty { rejected } => assert_eq!(*rejected, 2),
            other => panic!("expected KeepDirty, got {other:?}"),
        }
        let (settings, deployable, improving, dirty) = summarize(&recs);
        assert_eq!((settings, deployable, improving, dirty), (1, 0, 0, 1));
    }

    #[test]
    fn selector_is_deterministic() {
        let results = study(false);
        let a = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::FairnessFirst);
        let b = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::FairnessFirst);
        for (x, y) in a.iter().zip(&b) {
            match (&x.choice, &y.choice) {
                (SelectorChoice::Clean { config: ca, .. }, SelectorChoice::Clean { config: cb, .. }) => {
                    assert_eq!(ca.key(), cb.key());
                }
                (SelectorChoice::KeepDirty { .. }, SelectorChoice::KeepDirty { .. }) => {}
                _ => panic!("choices diverged"),
            }
        }
    }

    #[test]
    fn dual_metric_guardrail_on_real_smoke_study() {
        let results = crate::runner::run_error_type_study(
            ErrorType::MissingValues,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            3,
        )
        .unwrap();
        let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::FairnessFirst);
        // One recommendation per (dataset, group): german has age and sex.
        assert_eq!(recs.len(), 2);
        let (settings, deployable, _, keep_dirty) = summarize(&recs);
        assert_eq!(settings, 2);
        assert_eq!(deployable + keep_dirty, 2);
    }
}
