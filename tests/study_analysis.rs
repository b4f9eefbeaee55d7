//! Integration tests for the analysis layer: RQ1 disparity analysis,
//! impact tables, and the deep-dive over a real (smoke-scale) study.

use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::StudyScale;
use demodq_repro::demodq::deepdive::{
    case_analysis, case_summary, model_comparison, pooled_entries,
};
use demodq_repro::demodq::report::{render_disparities, render_impact_table};
use demodq_repro::demodq::rq1::analyze_datasets;
use demodq_repro::demodq::runner::run_error_type_study;
use demodq_repro::demodq::tables::{build_table, classify_study};
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::ModelKind;

#[test]
fn rq1_analysis_covers_both_group_granularities() {
    let rows = analyze_datasets(&[DatasetId::German, DatasetId::Heart], 1_500, 3).unwrap();
    assert!(rows.iter().any(|r| !r.intersectional));
    assert!(rows.iter().any(|r| r.intersectional));
    // Rendering works for both figures.
    let fig1 = render_disparities(&rows, false, 0.05);
    let fig2 = render_disparities(&rows, true, 0.05);
    assert!(fig1.contains("single-attribute"));
    assert!(fig2.contains("intersectional"));
}

#[test]
fn impact_tables_from_real_study_are_consistent() {
    let results = run_error_type_study(
        ErrorType::MissingValues,
        &[DatasetId::German],
        &[ModelKind::LogReg, ModelKind::Gbdt],
        &StudyScale::smoke(),
        17,
    )
    .unwrap();
    // 2 models x 6 repairs = 12 configs; german has 2 single attributes
    // -> 24 single-attribute entries per metric.
    assert_eq!(results.configs.len(), 12);
    for metric in FairnessMetric::all() {
        let single = build_table(&results, metric, false, 0.05);
        assert_eq!(single.total(), 24, "{metric}");
        let inter = build_table(&results, metric, true, 0.05);
        assert_eq!(inter.total(), 12, "{metric} intersectional");
        let rendered = render_impact_table("t", &single);
        assert!(rendered.contains("n=24"));
    }
    // Classified entries expose the same counts.
    let entries = classify_study(&results, FairnessMetric::PredictiveParity, false, 0.05);
    assert_eq!(entries.len(), 24);
}

#[test]
fn deepdive_over_two_error_types() {
    let scale = StudyScale::smoke();
    let studies = vec![
        run_error_type_study(
            ErrorType::Mislabels,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &scale,
            5,
        )
        .unwrap(),
        run_error_type_study(
            ErrorType::MissingValues,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &scale,
            5,
        )
        .unwrap(),
    ];
    let entries = pooled_entries(&studies, &FairnessMetric::all(), false, 0.05);
    // mislabels: 1 config x 2 groups x 2 metrics = 4;
    // missing: 6 configs x 2 groups x 2 metrics = 24.
    assert_eq!(entries.len(), 28);
    let cases = case_analysis(&entries);
    // Cases: metric(2) x attribute(2) x error(2) = 8.
    assert_eq!(cases.len(), 8);
    let (total, non_worsening, improving, win_win) = case_summary(&cases);
    assert_eq!(total, 8);
    assert!(non_worsening <= total);
    assert!(improving <= non_worsening || improving <= total);
    assert!(win_win <= improving || win_win <= total);
    let models = model_comparison(&entries);
    assert_eq!(models.len(), 3);
    let logreg = models.iter().find(|r| r.model == ModelKind::LogReg).unwrap();
    assert_eq!(logreg.n, 28);
}
