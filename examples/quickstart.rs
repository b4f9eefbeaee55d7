//! Quickstart: the full demodq loop on one dataset in ~60 lines.
//!
//! Generates the german credit dataset, detects its data errors, repairs
//! missing values, trains a tuned model on the dirty and the repaired
//! version, and compares accuracy and group fairness between the two.
//!
//! Run with: `cargo run --release --example quickstart`

use demodq_repro::cleaning::detect::DetectorKind;
use demodq_repro::cleaning::repair::{CatImpute, MissingRepair, NumImpute};
use demodq_repro::datasets::DatasetId;
use demodq_repro::demodq::config::{RepairSpec, StudyScale};
use demodq_repro::demodq::pipeline::run_configuration_once;
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::ModelKind;

fn main() {
    // 1. Generate the dataset (a seeded synthetic reproduction of the
    //    Statlog German Credit data; see DESIGN.md for the substitution).
    let pool = DatasetId::German.generate_store(2_000, 42).expect("generate german");
    println!(
        "german: {} rows, {} columns, {} missing cells",
        pool.n_rows(),
        pool.n_cols(),
        pool.missing_cells()
    );

    // 2. What do the five error detectors flag? (Detector reports are
    //    row-oriented, so materialise the pool's single block once.)
    let pool_frame = pool.to_frame().expect("materialise pool");
    for detector in DetectorKind::all() {
        let fitted = detector.fit(&pool_frame, 7).expect("fit detector");
        let report = fitted.detect(&pool_frame).expect("detect");
        println!(
            "  {:<15} flags {:>5.1}% of tuples",
            detector.name(),
            100.0 * report.flagged_fraction()
        );
    }

    // 3. Run the paper's Figure 3 pipeline once: dirty baseline vs
    //    mean/dummy missing-value imputation, logistic regression.
    let spec = DatasetId::German.spec();
    let mut groups = spec.single_attribute_specs();
    groups.push(spec.intersectional_spec().expect("german is intersectional"));
    let repair = RepairSpec::Missing(MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy });
    let pair = run_configuration_once(
        &pool,
        ModelKind::LogReg,
        &repair,
        &groups,
        &StudyScale::smoke(),
        1,
        2,
    )
    .expect("pipeline run");

    // 4. Compare the two arms.
    println!("\n                dirty    repaired   (impute_mean_dummy, log-reg)");
    println!(
        "accuracy      {:>7.3}  {:>9.3}",
        pair.dirty.test_accuracy, pair.repaired.test_accuracy
    );
    for metric in FairnessMetric::all() {
        for group in ["age", "sex", "age*sex"] {
            let dirty = pair
                .dirty
                .confusions_for(group)
                .and_then(|gc| metric.absolute_disparity(gc));
            let repaired = pair
                .repaired
                .confusions_for(group)
                .and_then(|gc| metric.absolute_disparity(gc));
            if let (Some(d), Some(r)) = (dirty, repaired) {
                println!("|{:<5}| {:<7} {:>7.3}  {:>9.3}", metric.name(), group, d, r);
            }
        }
    }
    println!("\n(lower disparity = fairer; run the demodq-bench binaries for the full study)");
}
