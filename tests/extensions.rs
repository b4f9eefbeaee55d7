//! Integration tests for the extension surface: the extended model zoo,
//! data valuation, and the fairness-aware selection stack — all driven
//! end-to-end on generated data.

use demodq_repro::cleaning::valuation;
use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::StudyScale;
use demodq_repro::demodq::fair_tuning::tune_and_fit_fair;
use demodq_repro::demodq::runner::run_error_type_study;
use demodq_repro::demodq::selector::{recommend_dual_metric, SelectionPolicy, SelectorChoice};
use demodq_repro::demodq_rectify::{rectify_classifier, RectifyOptions};
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::{tune_and_fit, BinnedMatrix, ModelKind, DEFAULT_N_BINS};
use demodq_repro::tabular::FeatureEncoder;

#[test]
fn extended_models_run_through_cv_tuning() {
    let df = DatasetId::Heart.generate(400, 9).unwrap();
    let encoder = FeatureEncoder::fit(&df, true).unwrap();
    let x = encoder.transform(&df).unwrap();
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
    let x = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
    let y = df.labels().unwrap();
    let values = valuation::knn_shapley_masked(&x, &y, &x, &y, 5, &vec![true; x.n_rows()]);
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
    let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::FairnessFirst);
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
        let x = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
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
