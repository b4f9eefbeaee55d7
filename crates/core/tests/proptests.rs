//! Property-based tests for the framework's analysis layer: impact
//! classification, table construction and the selector guardrail must be
//! consistent for arbitrary score vectors.

use demodq::config::{ExperimentConfig, RepairSpec, StudyScale};
use demodq::impact::{classify_pair, Impact};
use demodq::runner::{ConfigScores, GroupMetricScores, StudyResults};
use demodq::selector::{recommend_dual_metric, SelectionPolicy, SelectorChoice};
use demodq::tables::build_table;
use datasets::{DatasetId, ErrorType};
use fairness::FairnessMetric;
use mlcore::ModelKind;
use proptest::prelude::*;

fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0f64, 4..24)
}

proptest! {
    #[test]
    fn classification_is_antisymmetric(a in arb_scores(), b in arb_scores()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let forward = classify_pair(a, b, true, 0.05, 1);
        let backward = classify_pair(b, a, true, 0.05, 1);
        match forward {
            Impact::Better => prop_assert_eq!(backward, Impact::Worse),
            Impact::Worse => prop_assert_eq!(backward, Impact::Better),
            Impact::Insignificant => prop_assert_eq!(backward, Impact::Insignificant),
        }
        // Direction flips with the "higher is better" convention.
        let as_fairness = classify_pair(a, b, false, 0.05, 1);
        match forward {
            Impact::Better => prop_assert_eq!(as_fairness, Impact::Worse),
            Impact::Worse => prop_assert_eq!(as_fairness, Impact::Better),
            Impact::Insignificant => prop_assert_eq!(as_fairness, Impact::Insignificant),
        }
    }

    #[test]
    fn more_hypotheses_never_increase_significance(a in arb_scores(), b in arb_scores()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let loose = classify_pair(a, b, true, 0.05, 1);
        let strict = classify_pair(a, b, true, 0.05, 100);
        if loose == Impact::Insignificant {
            prop_assert_eq!(strict, Impact::Insignificant);
        }
        // strict is either the same verdict or insignificant.
        prop_assert!(strict == loose || strict == Impact::Insignificant);
    }

    #[test]
    fn tables_count_every_entry_once(
        pairs in prop::collection::vec((arb_scores(), arb_scores()), 1..8),
    ) {
        let configs: Vec<ConfigScores> = pairs
            .iter()
            .map(|(dirty, repaired)| {
                let n = dirty.len().min(repaired.len());
                ConfigScores {
                    config: ExperimentConfig {
                        dataset: DatasetId::German,
                        model: ModelKind::LogReg,
                        repair: RepairSpec::Mislabels,
                    },
                    dirty_accuracy: dirty[..n].to_vec(),
                    repaired_accuracy: repaired[..n].to_vec(),
                    fairness: vec![GroupMetricScores {
                        group: "sex".to_string(),
                        intersectional: false,
                        metric: FairnessMetric::PredictiveParity,
                        dirty: repaired[..n].to_vec(),
                        repaired: dirty[..n].to_vec(),
                    }],
                }
            })
            .collect();
        let results = StudyResults::new(ErrorType::Mislabels, StudyScale::smoke(), configs);
        let table = build_table(&results, FairnessMetric::PredictiveParity, false, 0.05);
        prop_assert_eq!(table.total(), pairs.len());
        // Marginals are consistent.
        let fairness_total: usize = [Impact::Worse, Impact::Insignificant, Impact::Better]
            .iter()
            .map(|&f| table.fairness_marginal(f))
            .sum();
        prop_assert_eq!(fairness_total, pairs.len());
    }

    #[test]
    fn selector_never_recommends_fairness_worsening(
        pairs in prop::collection::vec((arb_scores(), arb_scores(), arb_scores()), 1..6),
    ) {
        // Build one group with arbitrary dirty/repaired disparity vectors.
        let variants = RepairSpec::variants_for(ErrorType::MissingValues);
        let configs: Vec<ConfigScores> = pairs
            .iter()
            .enumerate()
            .map(|(i, (acc_d, acc_r, disp))| {
                let n = acc_d.len().min(acc_r.len()).min(disp.len());
                ConfigScores {
                    config: ExperimentConfig {
                        dataset: DatasetId::German,
                        model: ModelKind::LogReg,
                        repair: variants[i % variants.len()],
                    },
                    dirty_accuracy: acc_d[..n].to_vec(),
                    repaired_accuracy: acc_r[..n].to_vec(),
                    fairness: vec![
                        GroupMetricScores {
                            group: "sex".to_string(),
                            intersectional: false,
                            metric: FairnessMetric::PredictiveParity,
                            dirty: disp[..n].to_vec(),
                            repaired: acc_d[..n].to_vec(),
                        },
                        GroupMetricScores {
                            group: "sex".to_string(),
                            intersectional: false,
                            metric: FairnessMetric::EqualOpportunity,
                            dirty: acc_d[..n].to_vec(),
                            repaired: disp[..n].to_vec(),
                        },
                    ],
                }
            })
            .collect();
        let results = StudyResults::new(ErrorType::MissingValues, StudyScale::smoke(), configs);
        for policy in [SelectionPolicy::FairnessFirst, SelectionPolicy::AccuracyFirst] {
            for rec in recommend_dual_metric(&results, false, 0.05, policy) {
                if let SelectorChoice::Clean { fairness, .. } = rec.choice {
                    prop_assert_ne!(fairness, Impact::Worse);
                }
            }
        }
    }
}
