//! Fairness-aware cleaning — the paper's §VII vision, assembled from the
//! extension modules of this repository:
//!
//! 1. **Valuation**: rank training tuples by their influence on the
//!    equal-opportunity gap (kNN-Shapley decomposition, cf. refs [36]/[38]),
//! 2. **Targeted repair**: inspect only the top widening tuples and flip
//!    the ones the mislabel detector also flags — cleaning *for* fairness
//!    instead of cleaning blindly,
//! 3. **Fairness-constrained tuning**: select model hyperparameters under
//!    an explicit disparity ceiling instead of accuracy alone.
//!
//! Run with: `cargo run --release --example fairness_aware_cleaning`

use demodq_repro::cleaning::detect::DetectorKind;
use demodq_repro::cleaning::valuation::{fairness_influence, rank_by_influence};
use demodq_repro::datasets::DatasetId;
use demodq_repro::demodq::fair_tuning::tune_and_fit_fair;
use demodq_repro::fairness::{group_confusions, FairnessMetric};
use demodq_repro::mlcore::{accuracy, tune_and_fit, ModelKind};
use demodq_repro::tabular::{split::train_test_split, FeatureEncoder};

fn main() {
    let pool = DatasetId::Adult.generate(2_400, 17).expect("generate adult");
    let pool = pool.drop_incomplete_rows().expect("preclean");
    let (train_idx, test_idx) = train_test_split(pool.n_rows(), 0.3, 9).expect("split");
    let train = pool.take(&train_idx).expect("take");
    let test = pool.take(&test_idx).expect("take");
    let spec = DatasetId::Adult.spec();
    let sex_spec = spec.single_attribute_specs()[0].clone();

    let encoder = FeatureEncoder::fit(&train, true).expect("encode");
    let x_train = encoder.transform(&train).expect("transform");
    let x_test = encoder.transform(&test).expect("transform");
    let y_train = train.labels().expect("labels");
    let y_test = test.labels().expect("labels");
    let test_groups = sex_spec.evaluate(&test).expect("groups");

    // --- Step 1: fairness influence of every training tuple. ---
    let influence = fairness_influence(&x_train, &y_train, &x_test, &y_test, 5, &test_groups);
    let ranking = rank_by_influence(&influence);
    let widening = influence.iter().filter(|&&v| v > 0.0).count();
    println!(
        "{} of {} training tuples widen the EO gap; top influence {:.4}",
        widening,
        influence.len(),
        influence[ranking[0]]
    );

    // --- Step 2: targeted label repair — only tuples that BOTH rank in
    //     the top decile of widening influence AND are flagged by the
    //     mislabel detector get flipped. ---
    let detector = DetectorKind::Mislabels.fit(&train, 3).expect("fit detector");
    let flags = detector.detect(&train).expect("detect");
    let top_decile: std::collections::HashSet<usize> =
        ranking[..ranking.len() / 10].iter().copied().collect();
    let mut y_repaired = y_train.clone();
    let mut flipped = 0;
    for (i, label) in y_repaired.iter_mut().enumerate() {
        if flags.row_flags[i] && top_decile.contains(&i) {
            *label = 1 - *label;
            flipped += 1;
        }
    }
    println!("targeted repair flips {flipped} tuples (vs {} blind flips)", flags.flagged_rows());

    let eo_gap = |y_tr: &[u8]| {
        let tuned = tune_and_fit(ModelKind::LogReg, &x_train, y_tr, 5, 7);
        let preds = tuned.model.predict(&x_test);
        let gc = group_confusions(&y_test, &preds, &test_groups);
        (
            accuracy(&y_test, &preds),
            FairnessMetric::EqualOpportunity.absolute_disparity(&gc).unwrap_or(f64::NAN),
        )
    };
    let (acc_dirty, gap_dirty) = eo_gap(&y_train);
    let (acc_targeted, gap_targeted) = eo_gap(&y_repaired);
    println!("\n                    accuracy   EO gap");
    println!("dirty labels        {acc_dirty:>7.3}  {gap_dirty:>7.3}");
    println!("targeted repair     {acc_targeted:>7.3}  {gap_targeted:>7.3}");

    // --- Step 3: fairness-constrained hyperparameter selection. ---
    let fair = tune_and_fit_fair(
        ModelKind::LogReg,
        &x_train,
        &y_train,
        &sex_spec.evaluate(&train).expect("groups"),
        FairnessMetric::EqualOpportunity,
        0.05,
        5,
        11,
    )
    .expect("fair tuning");
    let preds = fair.tuned.model.predict(&x_test);
    let gc = group_confusions(&y_test, &preds, &test_groups);
    println!(
        "fair-constrained    {:>7.3}  {:>7.3}   ({}; constraint satisfied: {})",
        accuracy(&y_test, &preds),
        FairnessMetric::EqualOpportunity.absolute_disparity(&gc).unwrap_or(f64::NAN),
        fair.tuned.best_spec.params_string(),
        fair.constraint_satisfied
    );
    println!(
        "\nThe paper's conclusion stands: none of this is automatic — every knob above\n\
         trades vendor and applicant interests explicitly rather than silently."
    );
}
