//! The Section VI deep-dive analyses:
//!
//! * **case analysis** — a case is (fairness metric × dataset-with-
//!   sensitive-attribute × error type); for each case, does *some* cleaning
//!   technique avoid worsening fairness / improve fairness / improve both
//!   fairness and accuracy? (The paper finds 37 / 23 / 17 out of 40.)
//! * **detector comparison** — which outlier detection strategy worsens
//!   fairness most often (the paper: iqr 50% vs sd 25% vs if 33%);
//! * **categorical-imputation comparison** — dummy vs mode imputation
//!   fairness wins (the paper: 27 vs 22);
//! * **model comparison (Table XIV)** — per model: how often auto-cleaning
//!   makes fairness worse / better / fairness-and-accuracy better.

use crate::config::RepairSpec;
use crate::impact::Impact;
use crate::runner::StudyResults;
use crate::tables::{classify_study, ClassifiedEntry};
use cleaning::repair::CatImpute;
use fairness::FairnessMetric;
use mlcore::ModelKind;
use std::collections::BTreeMap;

/// Classified entries of several studies pooled together (both headline
/// metrics, single-attribute groups unless noted).
pub fn pooled_entries(
    studies: &[StudyResults],
    metrics: &[FairnessMetric],
    intersectional: bool,
    alpha: f64,
) -> Vec<ClassifiedEntry> {
    let mut out = Vec::new();
    for study in studies {
        for &metric in metrics {
            out.extend(classify_study(study, metric, intersectional, alpha));
        }
    }
    out
}

/// Outcome of the per-case analysis.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Metric of the case.
    pub metric: FairnessMetric,
    /// Dataset name.
    pub dataset: String,
    /// Sensitive attribute (group label).
    pub group: String,
    /// Error type name.
    pub error: String,
    /// Number of techniques evaluated for the case.
    pub n_techniques: usize,
    /// Some technique does not worsen fairness.
    pub has_non_worsening: bool,
    /// Some technique improves fairness.
    pub has_improving: bool,
    /// Some technique improves fairness and accuracy simultaneously.
    pub has_win_win: bool,
}

/// Groups classified entries into cases and computes the §VI counts.
pub fn case_analysis(entries: &[ClassifiedEntry]) -> Vec<CaseOutcome> {
    let mut cases: BTreeMap<(FairnessMetric, String, String, String), Vec<&ClassifiedEntry>> =
        BTreeMap::new();
    for e in entries {
        let key = (
            e.metric,
            e.config.dataset.name().to_string(),
            e.group.clone(),
            e.config.repair.error_type().name().to_string(),
        );
        cases.entry(key).or_default().push(e);
    }
    cases
        .into_iter()
        .map(|((metric, dataset, group, error), entries)| CaseOutcome {
            metric,
            dataset,
            group,
            error,
            n_techniques: entries.len(),
            has_non_worsening: entries.iter().any(|e| e.fairness != Impact::Worse),
            has_improving: entries.iter().any(|e| e.fairness == Impact::Better),
            has_win_win: entries
                .iter()
                .any(|e| e.fairness == Impact::Better && e.accuracy == Impact::Better),
        })
        .collect()
}

/// Summary counts of a case analysis: `(total, non_worsening, improving,
/// win_win)` — the paper's "37 / 23 / 17 out of 40".
pub fn case_summary(cases: &[CaseOutcome]) -> (usize, usize, usize, usize) {
    (
        cases.len(),
        cases.iter().filter(|c| c.has_non_worsening).count(),
        cases.iter().filter(|c| c.has_improving).count(),
        cases.iter().filter(|c| c.has_win_win).count(),
    )
}

/// Per-detector fairness-impact shares, for the outlier detector
/// comparison: returns `(detector, worse_fraction, better_fraction, n)`.
pub fn detector_comparison(entries: &[ClassifiedEntry]) -> Vec<(String, f64, f64, usize)> {
    let mut by_detector: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for e in entries {
        if let RepairSpec::Outliers { detector, .. } = e.config.repair {
            let slot = by_detector.entry(detector.name().to_string()).or_default();
            slot.2 += 1;
            match e.fairness {
                Impact::Worse => slot.0 += 1,
                Impact::Better => slot.1 += 1,
                Impact::Insignificant => {}
            }
        }
    }
    by_detector
        .into_iter()
        .map(|(name, (worse, better, n))| {
            (name, worse as f64 / n.max(1) as f64, better as f64 / n.max(1) as f64, n)
        })
        .collect()
}

/// Dummy-vs-mode categorical imputation comparison: counts of
/// fairness-improving entries per strategy (the paper: dummy 27 vs other
/// 22).
pub fn categorical_imputation_comparison(entries: &[ClassifiedEntry]) -> (usize, usize) {
    let mut dummy_wins = 0;
    let mut mode_wins = 0;
    for e in entries {
        if let RepairSpec::Missing(repair) = e.config.repair {
            if e.fairness == Impact::Better {
                match repair.cat {
                    CatImpute::Dummy => dummy_wins += 1,
                    CatImpute::Mode => mode_wins += 1,
                }
            }
        }
    }
    (dummy_wins, mode_wins)
}

/// One row of Table XIV.
#[derive(Debug, Clone)]
pub struct ModelImpactRow {
    /// The model.
    pub model: ModelKind,
    /// Entries evaluated.
    pub n: usize,
    /// Count with fairness worsened.
    pub fairness_worse: usize,
    /// Count with fairness improved.
    pub fairness_better: usize,
    /// Count with fairness *and* accuracy improved.
    pub both_better: usize,
}

impl ModelImpactRow {
    /// Percentage helpers for rendering.
    pub fn pct(&self, count: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.n as f64
        }
    }
}

/// Builds Table XIV: per-model impact of auto-cleaning on fairness and
/// accuracy over all pooled entries.
pub fn model_comparison(entries: &[ClassifiedEntry]) -> Vec<ModelImpactRow> {
    ModelKind::all()
        .iter()
        .map(|&model| {
            let mine: Vec<&ClassifiedEntry> =
                entries.iter().filter(|e| e.config.model == model).collect();
            ModelImpactRow {
                model,
                n: mine.len(),
                fairness_worse: mine.iter().filter(|e| e.fairness == Impact::Worse).count(),
                fairness_better: mine.iter().filter(|e| e.fairness == Impact::Better).count(),
                both_better: mine
                    .iter()
                    .filter(|e| e.fairness == Impact::Better && e.accuracy == Impact::Better)
                    .count(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use cleaning::detect::DetectorKind;
    use cleaning::repair::{MissingRepair, NumImpute, OutlierRepair};
    use datasets::DatasetId;

    fn entry(
        repair: RepairSpec,
        model: ModelKind,
        metric: FairnessMetric,
        fairness: Impact,
        accuracy: Impact,
    ) -> ClassifiedEntry {
        ClassifiedEntry {
            config: ExperimentConfig { dataset: DatasetId::German, model, repair },
            group: "sex".to_string(),
            intersectional: false,
            metric,
            fairness,
            accuracy,
        }
    }

    #[test]
    fn case_analysis_aggregates_per_case() {
        let pp = FairnessMetric::PredictiveParity;
        let entries = vec![
            entry(RepairSpec::Mislabels, ModelKind::LogReg, pp, Impact::Worse, Impact::Better),
            entry(RepairSpec::Mislabels, ModelKind::Knn, pp, Impact::Better, Impact::Better),
            entry(RepairSpec::Mislabels, ModelKind::Gbdt, pp, Impact::Insignificant, Impact::Worse),
        ];
        let cases = case_analysis(&entries);
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.n_techniques, 3);
        assert!(c.has_non_worsening);
        assert!(c.has_improving);
        assert!(c.has_win_win);
        assert_eq!(case_summary(&cases), (1, 1, 1, 1));
    }

    #[test]
    fn case_without_any_improvement() {
        let eo = FairnessMetric::EqualOpportunity;
        let entries = vec![
            entry(RepairSpec::Mislabels, ModelKind::LogReg, eo, Impact::Worse, Impact::Better),
            entry(RepairSpec::Mislabels, ModelKind::Knn, eo, Impact::Worse, Impact::Better),
        ];
        let cases = case_analysis(&entries);
        assert_eq!(case_summary(&cases), (1, 0, 0, 0));
    }

    #[test]
    fn detector_comparison_counts_worse_shares() {
        let pp = FairnessMetric::PredictiveParity;
        let iqr = RepairSpec::Outliers {
            detector: DetectorKind::OutliersIqr { k: 1.5 },
            repair: OutlierRepair { strategy: NumImpute::Mean },
        };
        let sd = RepairSpec::Outliers {
            detector: DetectorKind::OutliersSd { n_std: 3.0 },
            repair: OutlierRepair { strategy: NumImpute::Mean },
        };
        let entries = vec![
            entry(iqr, ModelKind::LogReg, pp, Impact::Worse, Impact::Worse),
            entry(iqr, ModelKind::Knn, pp, Impact::Worse, Impact::Worse),
            entry(sd, ModelKind::LogReg, pp, Impact::Insignificant, Impact::Worse),
            entry(sd, ModelKind::Knn, pp, Impact::Better, Impact::Worse),
        ];
        let cmp = detector_comparison(&entries);
        assert_eq!(cmp.len(), 2);
        let iqr_row = cmp.iter().find(|(n, ..)| n == "outliers-iqr").unwrap();
        assert!((iqr_row.1 - 1.0).abs() < 1e-12);
        let sd_row = cmp.iter().find(|(n, ..)| n == "outliers-sd").unwrap();
        assert!((sd_row.1 - 0.0).abs() < 1e-12);
        assert!((sd_row.2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn imputation_comparison_counts_wins_by_cat_strategy() {
        let pp = FairnessMetric::PredictiveParity;
        let dummy = RepairSpec::Missing(MissingRepair {
            num: NumImpute::Mean,
            cat: CatImpute::Dummy,
        });
        let mode = RepairSpec::Missing(MissingRepair {
            num: NumImpute::Mean,
            cat: CatImpute::Mode,
        });
        let entries = vec![
            entry(dummy, ModelKind::LogReg, pp, Impact::Better, Impact::Better),
            entry(dummy, ModelKind::Knn, pp, Impact::Better, Impact::Worse),
            entry(mode, ModelKind::LogReg, pp, Impact::Better, Impact::Better),
            entry(mode, ModelKind::Knn, pp, Impact::Worse, Impact::Better),
        ];
        assert_eq!(categorical_imputation_comparison(&entries), (2, 1));
    }

    #[test]
    fn model_comparison_builds_table_xiv_rows() {
        let pp = FairnessMetric::PredictiveParity;
        let entries = vec![
            entry(RepairSpec::Mislabels, ModelKind::LogReg, pp, Impact::Better, Impact::Better),
            entry(RepairSpec::Mislabels, ModelKind::LogReg, pp, Impact::Worse, Impact::Better),
            entry(RepairSpec::Mislabels, ModelKind::Gbdt, pp, Impact::Worse, Impact::Worse),
        ];
        let rows = model_comparison(&entries);
        assert_eq!(rows.len(), 3);
        let logreg = rows.iter().find(|r| r.model == ModelKind::LogReg).unwrap();
        assert_eq!(logreg.n, 2);
        assert_eq!(logreg.fairness_worse, 1);
        assert_eq!(logreg.fairness_better, 1);
        assert_eq!(logreg.both_better, 1);
        assert!((logreg.pct(logreg.both_better) - 50.0).abs() < 1e-12);
        let knn = rows.iter().find(|r| r.model == ModelKind::Knn).unwrap();
        assert_eq!(knn.n, 0);
        assert_eq!(knn.pct(0), 0.0);
    }
}
