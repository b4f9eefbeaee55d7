//! Integration tests spanning crates: the Figure 3 pipeline end-to-end on
//! generated datasets, with the dirty-baseline semantics the paper
//! specifies.

use demodq_repro::cleaning::detect::DetectorKind;
use demodq_repro::cleaning::repair::{CatImpute, MissingRepair, NumImpute, OutlierRepair};
use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::{RepairSpec, StudyScale};
use demodq_repro::demodq::pipeline::{prepare_variants, run_configuration_once, sample_split};
use demodq_repro::fairness::FairnessMetric;
use demodq_repro::mlcore::ModelKind;

fn smoke() -> StudyScale {
    StudyScale::smoke()
}

#[test]
fn every_dataset_supports_its_declared_error_types_end_to_end() {
    for id in DatasetId::all() {
        let pool = id.generate_store(700, 3).unwrap();
        let spec = id.spec();
        let groups = spec.single_attribute_specs();
        for error in &spec.error_types {
            let variant = RepairSpec::variants_for(*error)[0];
            let pair = run_configuration_once(
                &pool,
                ModelKind::LogReg,
                &variant,
                &groups,
                &smoke(),
                11,
                12,
            )
            .unwrap_or_else(|e| panic!("{id}/{error}: {e}"));
            assert!(pair.dirty.test_accuracy > 0.3, "{id}/{error}");
            assert!(pair.repaired.test_accuracy > 0.3, "{id}/{error}");
        }
    }
}

#[test]
fn dirty_baseline_semantics_match_the_paper() {
    let pool = DatasetId::Credit.generate_store(900, 5).unwrap();
    let (train, test) = sample_split(&pool, &smoke(), 1).unwrap();

    // Missing values: dirty train drops incomplete rows; dirty test is
    // imputed (never dropped).
    let missing =
        RepairSpec::Missing(MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy });
    let (dt, dte, repaired) =
        prepare_variants(&train, &test, ErrorType::MissingValues, &[missing], 2).unwrap();
    let (rt, rte) = &repaired[0];
    assert!(dt.n_rows() < train.n_rows(), "credit has ~20% missing income");
    assert_eq!(dte.n_rows(), test.n_rows());
    assert_eq!(rt.n_rows(), train.n_rows());
    assert_eq!(dte.missing_cells(), 0);
    assert_eq!(rte.missing_cells(), 0);

    // Mislabels: test frames identical across arms, train labels differ.
    let (dt, dte, repaired) =
        prepare_variants(&train, &test, ErrorType::Mislabels, &[RepairSpec::Mislabels], 3).unwrap();
    let (rt, rte) = &repaired[0];
    assert_eq!(&dte, rte, "test set must never change for label repair");
    assert_ne!(dt.labels().unwrap(), rt.labels().unwrap());

    // Outliers: row counts equal, labels equal, some cells changed.
    let outlier = RepairSpec::Outliers {
        detector: DetectorKind::OutliersIqr { k: 1.5 },
        repair: OutlierRepair { strategy: NumImpute::Median },
    };
    let (dt, _dte, repaired) =
        prepare_variants(&train, &test, ErrorType::Outliers, &[outlier], 4).unwrap();
    let (rt, _rte) = &repaired[0];
    assert_eq!(dt.n_rows(), rt.n_rows());
    assert_eq!(dt.labels().unwrap(), rt.labels().unwrap());
}

#[test]
fn intersectional_confusions_never_exceed_test_size() {
    let pool = DatasetId::Adult.generate_store(800, 9).unwrap();
    let spec = DatasetId::Adult.spec();
    let mut groups = spec.single_attribute_specs();
    groups.push(spec.intersectional_spec().unwrap());
    let pair = run_configuration_once(
        &pool,
        ModelKind::Knn,
        &RepairSpec::Mislabels,
        &groups,
        &smoke(),
        7,
        8,
    )
    .unwrap();
    let test_rows = (smoke().sample_size as f64 * smoke().test_fraction).round() as u64;
    for (label, gc) in &pair.repaired.group_confusions {
        let total = gc.total();
        if label.contains('*') {
            assert!(total < test_rows, "{label}: intersectional must exclude mixed tuples");
        } else {
            assert_eq!(total, test_rows, "{label}: single-attribute must partition");
        }
    }
}

#[test]
fn fairness_metrics_computable_from_pipeline_output() {
    let pool = DatasetId::Heart.generate_store(800, 13).unwrap();
    let spec = DatasetId::Heart.spec();
    let groups = spec.single_attribute_specs();
    let variant = RepairSpec::Outliers {
        detector: DetectorKind::OutliersSd { n_std: 3.0 },
        repair: OutlierRepair { strategy: NumImpute::Mean },
    };
    let pair =
        run_configuration_once(&pool, ModelKind::Gbdt, &variant, &groups, &smoke(), 3, 4).unwrap();
    let mut defined = 0;
    for metric in FairnessMetric::all() {
        for (_, gc) in &pair.repaired.group_confusions {
            if let Some(v) = metric.absolute_disparity(gc) {
                assert!((0.0..=1.0).contains(&v), "{metric}: {v}");
                defined += 1;
            }
        }
    }
    // Both metrics are defined for both of heart's attributes (age, sex).
    assert_eq!(defined, 4, "PP and EO should be defined on heart");
}

#[test]
fn all_three_models_run_the_same_configuration() {
    let pool = DatasetId::German.generate_store(700, 21).unwrap();
    let spec = DatasetId::German.spec();
    let groups = spec.single_attribute_specs();
    let missing = RepairSpec::Missing(MissingRepair::all()[0]);
    for model in ModelKind::all() {
        let pair =
            run_configuration_once(&pool, model, &missing, &groups, &smoke(), 2, 3).unwrap();
        assert!(pair.dirty.test_accuracy > 0.4, "{model}");
    }
}
