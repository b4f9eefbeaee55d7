//! Integration tests for the extension surface: the CleanML error types
//! beyond the paper's three (duplicates, inconsistencies), denial-
//! constraint rules, the extended model zoo, data valuation, and the
//! fairness-aware selection stack — all driven end-to-end on generated
//! data.

use demodq_repro::cleaning::{
    valuation, DuplicateDetector, InconsistencyDetector, RuleSet,
};
use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::StudyScale;
use demodq_repro::demodq::fair_tuning::tune_and_fit_fair;
use demodq_repro::demodq::runner::run_error_type_study;
use demodq_repro::demodq::selector::{recommend, SelectionPolicy, SelectorChoice};
use demodq_repro::demodq_rectify::{rectify_classifier, RectifyOptions};
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::{tune_and_fit, BinnedMatrix, ModelKind, DEFAULT_N_BINS};
use demodq_repro::tabular::FeatureEncoder;

#[test]
fn rules_engine_cleans_heart_bp_corruption() {
    let df = DatasetId::Heart.generate(3_000, 3).unwrap();
    let rules = RuleSet::heart_defaults();
    let report = rules.detect(&df).unwrap();
    // The generator's ten-fold BP misrecordings violate the constraints.
    assert!(
        report.flagged_fraction() > 0.01,
        "expected >1% violations, got {}",
        report.flagged_fraction()
    );
    let repaired = rules.repair(&df).unwrap();
    assert_eq!(rules.detect(&repaired).unwrap().flagged_rows(), 0);
    // SetMissing repairs introduce missing values for imputation to handle.
    assert!(repaired.missing_cells() > 0);
}

#[test]
fn duplicates_and_inconsistencies_on_generated_data() {
    // Build a frame with injected duplicates and spelling variants on top
    // of german.
    let base = DatasetId::German.generate(300, 7).unwrap();
    let mut with_dups_rows: Vec<usize> = (0..300).collect();
    with_dups_rows.extend([5, 10, 15]); // three exact duplicates
    let df = base.take(&with_dups_rows).unwrap();
    let dup_report = DuplicateDetector::default().detect(&df).unwrap();
    assert!(dup_report.flagged_rows() >= 3, "flags {}", dup_report.flagged_rows());
    let deduped = DuplicateDetector::default().repair(&df, &dup_report).unwrap();
    assert!(deduped.n_rows() <= 300);

    // german's generated categories are consistent; the detector agrees.
    let inc_report = InconsistencyDetector.detect(&base).unwrap();
    assert_eq!(inc_report.flagged_rows(), 0);
}

#[test]
fn extended_models_run_through_cv_tuning() {
    let df = DatasetId::Heart.generate(400, 9).unwrap();
    let (encoder, x) = FeatureEncoder::fit_transform(&df, true).unwrap();
    let y = df.labels().unwrap();
    for kind in [ModelKind::DecisionTree, ModelKind::RandomForest] {
        let tuned = tune_and_fit(kind, &x, &y, 3, 5);
        assert!(tuned.val_accuracy > 0.5, "{kind}: {}", tuned.val_accuracy);
        assert!(tuned.best_spec.params_string().contains("max_depth"));
    }
    let _ = encoder;
}

#[test]
fn valuation_and_selector_compose_with_the_study() {
    // Valuation on a real dataset slice.
    let df = DatasetId::German.generate(250, 11).unwrap().drop_incomplete_rows().unwrap();
    let (_, x) = FeatureEncoder::fit_transform(&df, true).unwrap();
    let y = df.labels().unwrap();
    let values = valuation::knn_shapley(&x, &y, &x, &y, 5);
    assert_eq!(values.len(), df.n_rows());
    assert!(values.iter().all(|v| v.is_finite()));
    // At least some points should be helpful on self-evaluation.
    assert!(values.iter().sum::<f64>() > 0.0);

    // Selector over a real smoke study: every recommendation passes the
    // guardrail by construction.
    let results = run_error_type_study(
        ErrorType::Mislabels,
        &[DatasetId::German],
        &ModelKind::all(),
        &StudyScale::smoke(),
        13,
    )
    .unwrap();
    let recs = recommend(
        &results,
        FairnessMetric::EqualOpportunity,
        false,
        0.05,
        SelectionPolicy::FairnessFirst,
    );
    assert_eq!(recs.len(), 2); // age, sex
    for rec in &recs {
        if let SelectorChoice::Clean { fairness, .. } = &rec.choice {
            assert_ne!(*fairness, demodq_repro::demodq::impact::Impact::Worse);
        }
    }
}

#[test]
fn fair_tuning_integrates_with_generated_data() {
    let df = DatasetId::Heart.generate(500, 21).unwrap();
    let spec = DatasetId::Heart.spec();
    let groups = spec.single_attribute_specs()[0].clone();
    let tuned = tune_and_fit_fair(
        ModelKind::DecisionTree,
        &df,
        &groups,
        FairnessMetric::EqualOpportunity,
        0.2,
        3,
        17,
    )
    .unwrap();
    assert!(tuned.val_accuracy > 0.5);
    assert!((0.0..=1.0).contains(&tuned.val_disparity));
}

/// FNV-1a over the little-endian bytes of `words`, folded into `hash`.
fn fnv_words(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Pins the decision tree's and random forest's outputs bit for bit: the
/// probabilities of every default grid entry fit directly and on shared
/// bins, of the CV-tuned refit, and the leaf rectification's edits plus
/// the probabilities after them. The study CLI runs only the paper's
/// three models, so no byte-identity smoke covers these two.
#[test]
fn extension_tree_models_are_bit_stable() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in [DatasetId::German, DatasetId::Heart] {
        let df = id.generate(400, 5).unwrap().drop_incomplete_rows().unwrap();
        let (_, x) = FeatureEncoder::fit_transform(&df, true).unwrap();
        let y = df.labels().unwrap();
        let groups = id.spec().single_attribute_specs()[0].evaluate(&df).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        for kind in [ModelKind::DecisionTree, ModelKind::RandomForest] {
            for spec in kind.default_grid() {
                for model in [spec.fit(&x, &y, 7), spec.fit_binned(&binned, &x, &rows, &y, 7)] {
                    fnv_words(&mut hash, model.predict_proba(&x).iter().map(|p| p.to_bits()));
                }
            }
            let mut tuned = tune_and_fit(kind, &x, &y, 3, 11);
            fnv_words(&mut hash, tuned.model.predict_proba(&x).iter().map(|p| p.to_bits()));
            let opts = RectifyOptions { epsilon: 0.0, ..RectifyOptions::default() };
            let report = rectify_classifier(tuned.model.as_mut(), &x, &y, &groups, &opts)
                .expect("tree models are rectifiable");
            assert!(!report.edits.is_empty(), "{id:?}/{kind}: no edit, so nothing pinned");
            for edit in &report.edits {
                fnv_words(
                    &mut hash,
                    [
                        edit.tree as u64,
                        edit.leaf as u64,
                        u64::from(edit.to_label),
                        edit.old_score.to_bits(),
                        edit.new_score.to_bits(),
                    ],
                );
            }
            fnv_words(&mut hash, tuned.model.predict_proba(&x).iter().map(|p| p.to_bits()));
        }
    }
    assert_eq!(hash, 0x31a0_8c8a_a8f0_6997, "digest {hash:#018x}");
}
