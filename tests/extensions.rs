//! Integration tests for the extension surface: data valuation, the
//! fairness-aware selection stack and the xgboost family's pinned bits —
//! all driven end-to-end on generated data.

use demodq_repro::cleaning::valuation;
use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::StudyScale;
use demodq_repro::demodq::fair_tuning::tune_and_fit_fair;
use demodq_repro::demodq::runner::run_error_type_study;
use demodq_repro::demodq::selector::{recommend_dual_metric, SelectionPolicy, SelectorChoice};
use demodq_repro::demodq_rectify::{rectify_classifier, RectifySpec};
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::{tune_and_fit, BinnedMatrix, ModelKind, DEFAULT_N_BINS};
use demodq_repro::tabular::FeatureEncoder;

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
    let x = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
    let groups = DatasetId::Heart.spec().single_attribute_specs()[0].evaluate(&df).unwrap();
    let eo = FairnessMetric::EqualOpportunity;
    let y = df.labels().unwrap();
    let fair = tune_and_fit_fair(ModelKind::Gbdt, &x, &y, &groups, eo, 0.2, 3, 17).unwrap();
    assert!(fair.tuned.val_accuracy > 0.5);
    assert!((0.0..=1.0).contains(&fair.val_disparity));
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

/// Pins the xgboost family's outputs bit for bit: the probabilities of
/// every default grid entry fit directly and on shared bins, of the
/// CV-tuned refit, and the leaf rectification's edits plus the
/// probabilities after them. The study's byte-identity smokes compare
/// one build against itself, and the `results/` tables repair on the
/// data side only, so this digest is what holds GBDT rectification to
/// the same bits across commits.
#[test]
fn xgboost_model_is_bit_stable() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in [DatasetId::German, DatasetId::Heart] {
        let df = id.generate(400, 5).unwrap().drop_incomplete_rows().unwrap();
        let x = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
        let y = df.labels().unwrap();
        let groups = id.spec().single_attribute_specs()[0].evaluate(&df).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        for spec in ModelKind::Gbdt.default_grid() {
            for model in [spec.fit(&x, &y, 7), spec.fit_binned(&binned, &x, &rows, &y, 7)] {
                fnv_words(&mut hash, model.predict_proba(&x).iter().map(|p| p.to_bits()));
            }
        }
        let mut tuned = tune_and_fit(ModelKind::Gbdt, &x, &y, 3, 11);
        fnv_words(&mut hash, tuned.model.predict_proba(&x).iter().map(|p| p.to_bits()));
        let opts = RectifySpec { epsilon: 0.0, ..RectifySpec::default() };
        let report = rectify_classifier(tuned.model.as_mut(), &x, &y, &groups, &opts)
            .expect("xgboost is rectifiable");
        assert!(!report.edits.is_empty(), "{id:?}: no edit, so nothing pinned");
        for edit in &report.edits {
            fnv_words(
                &mut hash,
                [
                    edit.leaf as u64,
                    u64::from(edit.to_label),
                    edit.old_score.to_bits(),
                    edit.new_score.to_bits(),
                ],
            );
        }
        fnv_words(&mut hash, tuned.model.predict_proba(&x).iter().map(|p| p.to_bits()));
    }
    assert_eq!(hash, 0x88b2_9c23_0ae2_951c, "digest {hash:#018x}");
}

/// Pins the fairness-constrained tuner's outputs bit for bit: the
/// winning configuration, its mean validation accuracy and disparity,
/// the constraint flag and the refit's probabilities. The cases cover
/// every family and both metrics at three ceilings: 0 (mostly the
/// least-disparate fallback), 0.05 (where the constraint binds) and 1
/// (`tune_and_fit`'s winner). The xgboost folds train on the
/// dataset-level bins, as in `tune_and_fit`.
#[test]
fn fair_tuning_is_bit_stable() {
    let df = DatasetId::German.generate(600, 5).unwrap().drop_incomplete_rows().unwrap();
    let x = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
    let y = df.labels().unwrap();
    let groups = DatasetId::German.spec().single_attribute_specs()[1].evaluate(&df).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fallbacks = 0;
    for kind in ModelKind::all() {
        for metric in FairnessMetric::all() {
            for epsilon in [0.0, 0.05, 1.0] {
                let fair = tune_and_fit_fair(kind, &x, &y, &groups, metric, epsilon, 5, 7).unwrap();
                fallbacks += usize::from(!fair.constraint_satisfied);
                let spec = fair.tuned.best_spec.params_string();
                fnv_words(&mut hash, spec.bytes().map(u64::from));
                fnv_words(
                    &mut hash,
                    [
                        fair.tuned.val_accuracy.to_bits(),
                        fair.val_disparity.to_bits(),
                        u64::from(fair.constraint_satisfied),
                    ],
                );
                let proba = fair.tuned.model.predict_proba(&x);
                fnv_words(&mut hash, proba.iter().map(|p| p.to_bits()));
            }
        }
    }
    assert!((1..18).contains(&fallbacks), "{fallbacks} of 18 cases fell back");
    assert_eq!(hash, 0x6206_c3b0_6994_8546, "digest {hash:#018x}");
}
