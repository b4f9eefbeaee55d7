//! Bring your own data: running the demodq machinery on a CSV file.
//!
//! The paper's framework is declarative — point it at a table, name the
//! label and the privileged groups, and everything else (error detection,
//! repair sweeps, fairness scoring) is automatic. This example builds a
//! small CSV in memory (standing in for your file on disk), loads it with
//! schema inference, assigns roles, and runs a detection-disparity check
//! plus one dirty-vs-repaired comparison.
//!
//! Run with: `cargo run --release --example custom_dataset`

use demodq_repro::cleaning::detect::DetectorKind;
use demodq_repro::cleaning::repair::{CatImpute, MissingRepair, NumImpute};
use demodq_repro::demodq::config::{RepairSpec, StudyScale};
use demodq_repro::demodq::pipeline::run_configuration_once;
use demodq_repro::fairness::{CmpOp, FairnessMetric, GroupPredicate, GroupSpec};
use demodq_repro::mlcore::ModelKind;
use demodq_repro::statskit::g_test_2x2;
use demodq_repro::tabular::{csv, ColumnRole, Rng64};

fn main() {
    // --- 1. "Your" CSV (generated here so the example is self-contained;
    //        replace with std::fs::read_to_string("your.csv")). ---
    let mut rng = Rng64::seed_from_u64(3);
    let mut text = String::from("hours,dept,tenure,gender,promoted\n");
    for i in 0..1200 {
        let is_f = i % 3 == 0;
        let hours = 30.0 + rng.next_f64() * 25.0;
        let dept = ["eng", "sales", "ops"][rng.below(3)];
        // Tenure goes unreported more often for women (a data-quality
        // disparity the detectors should surface).
        let tenure = if rng.bernoulli(if is_f { 0.18 } else { 0.05 }) {
            String::new()
        } else {
            format!("{:.1}", rng.next_f64() * 12.0)
        };
        let promoted = u8::from(hours + 8.0 * rng.next_f64() > 48.0);
        text.push_str(&format!(
            "{hours:.1},{dept},{tenure},{},{promoted}\n",
            if is_f { "F" } else { "M" }
        ));
    }

    // --- 2. Load with schema inference, then declare roles. ---
    let schema = csv::infer_schema(&text).expect("infer schema");
    let mut frame = csv::from_csv_str(&text, schema).expect("parse csv");
    frame.schema_mut().set_role("promoted", ColumnRole::Label).expect("label role");
    frame.schema_mut().set_role("gender", ColumnRole::Sensitive).expect("sensitive role");
    println!(
        "loaded {} rows x {} cols, {} missing cells",
        frame.n_rows(),
        frame.n_cols(),
        frame.missing_cells()
    );

    // --- 3. Declare the privileged group (Listing-1 style). ---
    let privileged = GroupPredicate::cat("gender", CmpOp::Eq, "M");
    let spec = GroupSpec::SingleAttribute(privileged);
    let groups = spec.evaluate(&frame).expect("evaluate groups");

    // --- 4. RQ1-style check: does missingness track gender? ---
    let report = DetectorKind::MissingValues
        .fit(&frame, 1)
        .expect("fit")
        .detect(&frame)
        .expect("detect");
    let (pf, pu) = report.counts_within(&groups.privileged);
    let (df, du) = report.counts_within(&groups.disadvantaged);
    println!(
        "missing rows: men {:.1}%, women {:.1}%",
        100.0 * pf as f64 / (pf + pu) as f64,
        100.0 * df as f64 / (df + du) as f64
    );
    if let Some(test) = g_test_2x2(pf, pu, df, du) {
        println!("G2 = {:.2}, p = {:.2e} -> {}", test.g2, test.p_value, if test.significant(0.05) { "significant disparity" } else { "no significant disparity" });
    }

    // --- 5. One dirty-vs-repaired pipeline run. ---
    let scale = StudyScale {
        pool_size: frame.n_rows(),
        sample_size: frame.n_rows(),
        n_splits: 1,
        n_model_seeds: 1,
        test_fraction: 0.25,
        cv_folds: 5,
    };
    let repair =
        RepairSpec::Missing(MissingRepair { num: NumImpute::Median, cat: CatImpute::Dummy });
    let pool = demodq_repro::tabular::BlockStore::from_frame(&frame).expect("build block store");
    let pair = run_configuration_once(
        &pool,
        ModelKind::LogReg,
        &repair,
        &[spec],
        &scale,
        9,
        10,
    )
    .expect("pipeline run");
    println!(
        "\naccuracy: dirty {:.3} -> repaired {:.3}",
        pair.dirty.test_accuracy, pair.repaired.test_accuracy
    );
    for metric in FairnessMetric::all() {
        let d = pair
            .dirty
            .confusions_for("gender")
            .and_then(|gc| metric.absolute_disparity(gc));
        let r = pair
            .repaired
            .confusions_for("gender")
            .and_then(|gc| metric.absolute_disparity(gc));
        if let (Some(d), Some(r)) = (d, r) {
            println!("{}: dirty disparity {:.3} -> repaired {:.3}", metric.name(), d, r);
        }
    }
}
