//! Machine-readable exports of analysis artifacts: Markdown (for reports
//! and READMEs) and CSV (for external plotting) renderings of the impact
//! tables, RQ1 disparity rows, and the model comparison, plus the
//! deterministic JSON export of full study results.

use crate::impact::Impact;
use crate::results::failed_task_record;
use crate::runner::StudyResults;
use crate::tables::ImpactTable;
use serde_json::{json, Map, Value};
use std::fmt::Write;

const AXIS: [Impact; 3] = [Impact::Worse, Impact::Insignificant, Impact::Better];

/// CSV rendering of a 3×3 impact table: one row per cell with
/// `fairness,accuracy,count,percent` columns.
pub fn impact_table_csv(table: &ImpactTable) -> String {
    let mut out = String::from("fairness,accuracy,count,percent\n");
    for f in AXIS {
        for a in AXIS {
            let _ = writeln!(
                out,
                "{},{},{},{:.4}",
                f.label(),
                a.label(),
                table.cell(f, a),
                table.percentage(f, a)
            );
        }
    }
    out
}

/// Score vector as a JSON array; non-finite values (undefined
/// disparities) serialise as `null`.
fn score_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::from(x)).collect())
}

/// Deterministic JSON export of a study's results.
///
/// Contains only run-content fields — configuration scores, the
/// degradation summary and the evaluation count. Wall-clock measurements
/// (per-phase timings) and journal statistics are deliberately excluded,
/// so an uninterrupted run and a killed-then-resumed run of the same
/// configuration export **byte-identical** documents (the crash-resume CI
/// smoke compares them with `cmp`).
pub fn study_results_json(results: &StudyResults) -> String {
    let configs: Vec<Value> = results
        .configs
        .iter()
        .map(|c| {
            let fairness: Vec<Value> = c
                .fairness
                .iter()
                .map(|f| {
                    let mut entry = Map::new();
                    entry.insert("group".to_string(), json!(f.group));
                    entry.insert("intersectional".to_string(), json!(f.intersectional));
                    entry.insert("metric".to_string(), json!(f.metric.name()));
                    entry.insert("dirty".to_string(), score_array(&f.dirty));
                    entry.insert("repaired".to_string(), score_array(&f.repaired));
                    Value::Object(entry)
                })
                .collect();
            let mut entry = Map::new();
            entry.insert("key".to_string(), json!(c.config.key()));
            entry.insert("dirty_accuracy".to_string(), score_array(&c.dirty_accuracy));
            entry.insert("repaired_accuracy".to_string(), score_array(&c.repaired_accuracy));
            entry.insert("fairness".to_string(), Value::Array(fairness));
            Value::Object(entry)
        })
        .collect();
    let failed: Vec<Value> = results.failed_tasks.iter().map(failed_task_record).collect();
    let doc = json!({
        "error": results.error.name(),
        "repair_side": results.repair_side.name(),
        "scale": {
            "pool_size": results.scale.pool_size,
            "sample_size": results.scale.sample_size,
            "n_splits": results.scale.n_splits,
            "n_model_seeds": results.scale.n_model_seeds,
            "test_fraction": results.scale.test_fraction,
            "cv_folds": results.scale.cv_folds,
        },
        "degraded": results.degraded(),
        "failed_tasks": Value::Array(failed),
        "n_model_evaluations": results.n_model_evaluations(),
        "configs": Value::Array(configs),
    });
    // lint:allow(P001, serialising an in-memory Value tree cannot fail)
    serde_json::to_string_pretty(&doc).expect("study export serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> ImpactTable {
        let mut t = ImpactTable::default();
        t.add(Impact::Worse, Impact::Better);
        t.add(Impact::Better, Impact::Better);
        t.add(Impact::Better, Impact::Better);
        t.add(Impact::Insignificant, Impact::Worse);
        t
    }

    #[test]
    fn csv_table_has_nine_rows() {
        let csv = impact_table_csv(&demo_table());
        assert_eq!(csv.lines().count(), 10); // header + 9 cells
        assert!(csv.starts_with("fairness,accuracy,count,percent"));
        assert!(csv.contains("better,better,2,50.0000"));
    }

    #[test]
    fn study_json_is_deterministic_and_excludes_wall_clock() {
        use crate::config::{ExperimentConfig, RepairSpec, StudyScale};
        use crate::results::FailedTask;
        use crate::runner::{ConfigScores, GroupMetricScores, StudyResults};
        use datasets::{DatasetId, ErrorType};
        use fairness::FairnessMetric;
        use mlcore::ModelKind;

        let mut results = StudyResults::new(
            ErrorType::Mislabels,
            StudyScale::smoke(),
            vec![ConfigScores {
                config: ExperimentConfig {
                    dataset: DatasetId::German,
                    model: ModelKind::LogReg,
                    repair: RepairSpec::Mislabels,
                },
                dirty_accuracy: vec![0.7, 0.71],
                repaired_accuracy: vec![0.8, 0.81],
                fairness: vec![GroupMetricScores {
                    group: "sex".to_string(),
                    intersectional: false,
                    metric: FairnessMetric::PredictiveParity,
                    dirty: vec![0.1, f64::NAN],
                    repaired: vec![0.2, 0.3],
                }],
            }],
        );
        results.failed_tasks.push(FailedTask {
            dataset: "german".to_string(),
            split: 1,
            seed: 42,
            error: "boom".to_string(),
        });
        let a = study_results_json(&results);
        assert_eq!(a, study_results_json(&results));
        assert!(a.contains("german/mislabels/flip_labels/log-reg"), "{a}");
        assert!(a.contains("null"), "undefined disparity must export as null: {a}");
        assert!(a.contains("\"degraded\": true"), "{a}");
        assert!(a.contains("\"repair_side\": \"data\""), "{a}");
        assert!(a.contains("\"boom\""), "{a}");
        // Wall-clock fields stay out of the export (byte-identity on
        // resume) — and journal statistics likewise.
        assert!(!a.contains("phase"), "{a}");
        assert!(!a.contains("journal"), "{a}");
        // Timings differ between runs but must not affect the export.
        results.phases.sample = 123.0;
        results.journal_hits = 7;
        assert_eq!(a, study_results_json(&results));
    }
}
