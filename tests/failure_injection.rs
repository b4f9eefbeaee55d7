//! Failure-injection tests: degenerate and adversarial inputs must produce
//! clean `Err`s (or well-defined no-ops), never panics or silent garbage.

use demodq_repro::cleaning::detect::DetectorKind;
use demodq_repro::cleaning::repair::{CatImpute, MissingRepair, NumImpute};
use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::{RepairSpec, StudyOptions, StudyScale};
use demodq_repro::demodq::pipeline::{prepare_variants, run_configuration_once, sample_split};
use demodq_repro::demodq::runner::run_error_type_study_with;
use demodq_repro::fairness::{CmpOp, GroupPredicate, GroupSpec};
use demodq_repro::mlcore::ModelKind;
use demodq_repro::tabular::{BlockStore, ColumnRole, DataFrame};

/// A frame whose every row has a missing value: the dirty baseline
/// (drop incomplete rows) has nothing left to train on and must error.
#[test]
fn all_rows_incomplete_is_a_clean_error() {
    let n = 60;
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, vec![f64::NAN; n])
        .numeric("z", ColumnRole::Feature, (0..n).map(|i| i as f64).collect())
        .numeric("label", ColumnRole::Label, (0..n).map(|i| f64::from(i % 2 == 0)).collect())
        .build()
        .unwrap();
    let (train, test) = {
        let (a, b) = demodq_repro::tabular::split::train_test_split(n, 0.25, 1).unwrap();
        (frame.take(&a).unwrap(), frame.take(&b).unwrap())
    };
    let repair = RepairSpec::Missing(MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy });
    let result = prepare_variants(&train, &test, ErrorType::MissingValues, &[repair], 1);
    assert!(result.is_err(), "expected an error, got a silent success");
}

/// Single-class labels: the pipeline must run (models degenerate to the
/// majority class) and fairness metrics must report undefined rather than
/// panicking.
#[test]
fn single_class_labels_do_not_panic() {
    let n = 200;
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, (0..n).map(|i| i as f64 / 10.0).collect())
        .categorical(
            "sex",
            ColumnRole::Sensitive,
            &(0..n).map(|i| Some(if i % 2 == 0 { "male" } else { "female" })).collect::<Vec<_>>(),
        )
        .numeric("label", ColumnRole::Label, vec![1.0; n])
        .build()
        .unwrap();
    let groups = vec![GroupSpec::SingleAttribute(GroupPredicate::cat("sex", CmpOp::Eq, "male"))];
    let scale = StudyScale {
        pool_size: n,
        sample_size: n,
        n_splits: 1,
        n_model_seeds: 1,
        test_fraction: 0.25,
        cv_folds: 3,
    };
    let pool = BlockStore::from_frame(&frame).unwrap();
    let pair = run_configuration_once(
        &pool,
        ModelKind::LogReg,
        &RepairSpec::Mislabels,
        &groups,
        &scale,
        1,
        2,
    )
    .expect("single-class data should run");
    // Trivially perfect accuracy, and recall defined (all positives).
    assert_eq!(pair.dirty.test_accuracy, 1.0);
}

/// Constant features: detectors find nothing, models fall back to the
/// base rate, nothing crashes.
#[test]
fn constant_features_are_harmless() {
    let n = 120;
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, vec![3.0; n])
        .numeric("label", ColumnRole::Label, (0..n).map(|i| f64::from(i % 3 == 0)).collect())
        .build()
        .unwrap();
    for detector in [
        DetectorKind::OutliersSd { n_std: 3.0 },
        DetectorKind::OutliersIqr { k: 1.5 },
        DetectorKind::OutliersIf { contamination: 0.01, n_trees: 10 },
    ] {
        let fitted = detector.fit(&frame, 1).unwrap();
        let report = fitted.detect(&frame).unwrap();
        assert_eq!(report.flagged_rows(), 0, "{detector}");
    }
}

/// A group predicate referencing a non-existent attribute must surface as
/// an error from the pipeline, not a panic.
#[test]
fn unknown_sensitive_attribute_errors() {
    let pool = DatasetId::German.generate_store(400, 1).unwrap();
    let groups = vec![GroupSpec::SingleAttribute(GroupPredicate::cat(
        "not_a_column",
        CmpOp::Eq,
        "male",
    ))];
    let result = run_configuration_once(
        &pool,
        ModelKind::LogReg,
        &RepairSpec::Mislabels,
        &groups,
        &StudyScale::smoke(),
        1,
        2,
    );
    assert!(result.is_err());
}

/// Sampling more rows than the pool holds degrades gracefully to the full
/// pool.
#[test]
fn oversampling_clamps_to_pool() {
    let pool = DatasetId::German.generate_store(200, 3).unwrap();
    let scale = StudyScale {
        pool_size: 200,
        sample_size: 10_000,
        n_splits: 1,
        n_model_seeds: 1,
        test_fraction: 0.25,
        cv_folds: 3,
    };
    let (train, test) = sample_split(&pool, &scale, 5).unwrap();
    assert_eq!(train.n_rows() + test.n_rows(), 200);
}

/// Tiny frames: everything under ~10 rows must be rejected by the
/// components that need data, with errors rather than panics.
#[test]
fn tiny_frames_are_rejected_cleanly() {
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, f64::NAN])
        .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 0.0])
        .build()
        .unwrap();
    assert!(DetectorKind::Mislabels.fit(&frame, 1).is_err());
    let repair = RepairSpec::Missing(MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy });
    assert!(prepare_variants(&frame, &frame, ErrorType::MissingValues, &[repair], 1).is_err());
}

/// The isolation forest subsamples at least 2 rows per tree, so a frame
/// of 0 or 1 rows is an error, not a panic in the sampler.
#[test]
fn isolation_forest_rejects_fewer_than_two_rows() {
    for n in [0usize, 1] {
        let frame = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.5; n])
            .numeric("label", ColumnRole::Label, vec![1.0; n])
            .build()
            .unwrap();
        let detector = DetectorKind::OutliersIf { contamination: 0.01, n_trees: 100 };
        assert!(detector.fit(&frame, 1).is_err(), "outliers-if on {n} rows must be an Err");
    }
}

/// A dataset failing on exactly one split no longer aborts the study:
/// the run completes degraded, the other configurations keep their full
/// score vectors, the failure is recorded with its seeds, and the
/// failure threshold is respected, on one worker and on eight (where
/// the failure happens while other workers wait for the task's arms).
#[test]
fn single_task_failure_degrades_instead_of_aborting() {
    for threads in [1, 8] {
        single_task_failure_degrades_on(threads);
    }
}

fn single_task_failure_degrades_on(threads: usize) {
    fn german_split_one_fails(dataset: &str, split: usize) -> bool {
        dataset == "german" && split == 1
    }
    let datasets = [DatasetId::German, DatasetId::Adult];
    let scale = StudyScale::smoke();
    let options = StudyOptions {
        failure_threshold: 0.5,
        inject_task_failure: Some(german_split_one_fails),
        threads,
        ..StudyOptions::default()
    };
    let results = run_error_type_study_with(
        ErrorType::Mislabels,
        &datasets,
        &[ModelKind::LogReg],
        &scale,
        7,
        &options,
    )
    .expect("one failed task of four is under the 50% threshold");

    assert!(results.degraded());
    assert_eq!(results.failed_tasks.len(), 1);
    let failed = &results.failed_tasks[0];
    assert_eq!(failed.label(), "german#1");
    assert!(failed.error.contains("injected"), "{}", failed.error);
    assert!(failed.seed != 0, "the failed task's seed is recorded for reproduction");
    let summary = results.degraded_summary().expect("degraded runs summarise");
    assert!(summary.contains("german#1"), "{summary}");

    // The untouched dataset keeps its full score vector; the degraded one
    // loses exactly the failed split's runs.
    let full_runs = scale.scores_per_config();
    for cs in &results.configs {
        let expected = match cs.config.dataset {
            DatasetId::German => full_runs - scale.n_model_seeds,
            _ => full_runs,
        };
        assert_eq!(cs.repaired_accuracy.len(), expected, "{}", cs.config.key());
        assert_eq!(cs.dirty_accuracy.len(), expected, "{}", cs.config.key());
    }
    // And the evaluation count reflects what actually ran.
    let performed: usize =
        results.configs.iter().map(|c| c.repaired_accuracy.len() * 2).sum();
    assert_eq!(results.n_model_evaluations(), performed);

    // The same failure past a tighter threshold aborts: 1 of 4 tasks is
    // 25%, above 10%.
    let strict = StudyOptions {
        failure_threshold: 0.1,
        inject_task_failure: Some(german_split_one_fails),
        threads,
        ..StudyOptions::default()
    };
    let err = run_error_type_study_with(
        ErrorType::Mislabels,
        &datasets,
        &[ModelKind::LogReg],
        &scale,
        7,
        &strict,
    )
    .unwrap_err();
    assert!(err.to_string().contains("failure threshold"), "{err}");
    assert!(err.to_string().contains("german#1"), "{err}");
}

/// Adversarial numeric content: huge magnitudes and denormals flow
/// through detection, repair and training without producing NaN scores.
#[test]
fn extreme_magnitudes_stay_finite() {
    let n = 80;
    let mut xs: Vec<f64> = (0..n).map(|i| (i as f64 - 40.0) * 1e12).collect();
    xs[0] = 1e-300;
    xs[1] = -1e15;
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, xs)
        .numeric("label", ColumnRole::Label, (0..n).map(|i| f64::from(i % 2 == 0)).collect())
        .build()
        .unwrap();
    let groups: Vec<GroupSpec> = vec![];
    let scale = StudyScale {
        pool_size: n,
        sample_size: n,
        n_splits: 1,
        n_model_seeds: 1,
        test_fraction: 0.25,
        cv_folds: 3,
    };
    for detector in DetectorKind::outlier_detectors() {
        let repair = RepairSpec::Outliers {
            detector,
            repair: demodq_repro::cleaning::repair::OutlierRepair {
                strategy: NumImpute::Median,
            },
        };
        let pool = BlockStore::from_frame(&frame).unwrap();
        let pair = run_configuration_once(&pool, ModelKind::LogReg, &repair, &groups, &scale, 1, 2)
            .expect("extreme magnitudes should not break the pipeline");
        assert!(pair.dirty.test_accuracy.is_finite());
        assert!(pair.repaired.test_accuracy.is_finite());
    }
}
