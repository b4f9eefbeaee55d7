//! The Figure 3 evaluation pipeline.
//!
//! For one experimental configuration and one `(split seed, model seed)`
//! pair:
//!
//! 1. sample records from the dataset pool and split into train/test;
//! 2. keep the raw data as the **dirty** version and apply the repair to
//!    obtain the **repaired** version (with the paper's per-error-type
//!    dirty semantics — see below);
//! 3. train a tuned classifier on each version's training set;
//! 4. predict on the matching test set;
//! 5. score both models on accuracy and group-wise confusion matrices.
//!
//! Dirty-baseline semantics (paper Section V):
//! * **missing values** — classifiers cannot ingest NaN, so the dirty
//!   version *drops* incomplete training rows and imputes the test set
//!   with mean/dummy (one cannot drop records at prediction time);
//! * **outliers / mislabels** — the dirty version keeps the data as-is;
//!   missing values are removed beforehand for both arms;
//! * test labels are **never** flipped.

use crate::config::{RectifySpec, RepairSpec, StudyScale};
use cleaning::detect::DetectorKind;
use cleaning::repair::{CatImpute, LabelRepair, MissingRepair, NumImpute};
use cleaning::DetectionReport;
use datasets::ErrorType;
use demodq_rectify::{rectify_classifier, RectificationReport};
use fairness::{group_confusions, FairnessMetric, GroupConfusions, GroupSpec, Groups};
use mlcore::{tune_and_fit, Classifier, ModelKind, TunedModel};
use std::collections::BTreeMap;
use tabular::{
    split::train_test_split, BlockStore, DataFrame, DenseMatrix, FeatureEncoder, Result, Rng64,
    TabularError,
};

/// Salt folded into the model seed to derive the rectification
/// validation carve-out, keeping it decoupled from every other stream.
const VALIDATION_SALT: u64 = 0x7EC7_1F1E;

/// Scores of one trained model on its test set.
#[derive(Debug, Clone)]
pub struct ArmEvaluation {
    /// Test-set accuracy.
    pub test_accuracy: f64,
    /// Group-wise confusion matrices per group spec, keyed by the spec's
    /// label (e.g. `sex`, `sex*age`).
    pub group_confusions: Vec<(String, GroupConfusions)>,
}

impl ArmEvaluation {
    /// The confusion pair for a group label, if evaluated.
    pub fn confusions_for(&self, group_label: &str) -> Option<&GroupConfusions> {
        self.group_confusions
            .iter()
            .find(|(label, _)| label == group_label)
            .map(|(_, gc)| gc)
    }
}

/// The paired dirty/repaired evaluations of one run.
#[derive(Debug, Clone)]
pub struct RunPair {
    /// Scores of the model trained/evaluated on dirty data.
    pub dirty: ArmEvaluation,
    /// Scores of the model trained/evaluated on repaired data.
    pub repaired: ArmEvaluation,
}

/// One prepared (train, test) arm, encoded once and reusable across every
/// model kind and model seed evaluated on it.
///
/// Encoding (standardise + one-hot + missing indicators) and group-mask
/// evaluation are pure functions of the frames, so hoisting them out of
/// the per-(model, seed) loop changes no scores — it only removes
/// redundant work.
#[derive(Debug, Clone)]
pub struct EncodedArm {
    /// Encoded training features.
    pub x_train: DenseMatrix,
    /// Training labels.
    pub y_train: Vec<u8>,
    /// Encoded test features (same encoder as `x_train`).
    pub x_test: DenseMatrix,
    /// Test labels.
    pub y_test: Vec<u8>,
    /// Per-group-spec membership masks over the test rows, keyed by the
    /// spec's label (e.g. `sex`, `sex*age`).
    pub groups: Vec<(String, Groups)>,
    /// The same group specs evaluated over the **training** rows — the
    /// substrate of the rectification validation carve-out (model-side
    /// repair must never look at the test split).
    pub train_groups: Vec<(String, Groups)>,
}

/// Encodes one prepared (train, test) pair: fits the feature encoder on
/// `train`, transforms both frames, and evaluates every group spec on the
/// test frame.
pub fn encode_arm(train: &DataFrame, test: &DataFrame, groups: &[GroupSpec]) -> Result<EncodedArm> {
    let y_train = train.labels()?;
    let y_test = test.labels()?;
    let encoder = FeatureEncoder::fit(train, true)?;
    let x_train = encoder.transform(train)?;
    let x_test = encoder.transform(test)?;
    let mut masks = Vec::with_capacity(groups.len());
    let mut train_masks = Vec::with_capacity(groups.len());
    for spec in groups {
        masks.push((spec.label(), spec.evaluate(test)?));
        train_masks.push((spec.label(), spec.evaluate(train)?));
    }
    Ok(EncodedArm { x_train, y_train, x_test, y_test, groups: masks, train_groups: train_masks })
}

/// Predicts the arm's test rows once and scores the predictions: test
/// accuracy plus one confusion pair per group spec.
fn score_arm(arm: &EncodedArm, tuned: &TunedModel) -> ArmEvaluation {
    let preds = tuned.model.predict(&arm.x_test);
    let group_confusions = arm
        .groups
        .iter()
        .map(|(label, masks)| (label.clone(), group_confusions(&arm.y_test, &preds, masks)))
        .collect();
    ArmEvaluation { test_accuracy: mlcore::accuracy(&arm.y_test, &preds), group_confusions }
}

/// Cross-validates and refits one unit's model on the arm's training
/// matrix. The runner times it apart from rectification and scoring.
pub fn fit_unit(arm: &EncodedArm, model: ModelKind, cv_folds: usize, seed: u64) -> TunedModel {
    tune_and_fit(model, &arm.x_train, &arm.y_train, cv_folds, seed)
}

/// Scores a fitted (and possibly rectified) unit model: test accuracy
/// plus absolute disparities in `group_labels` × `metrics` order (NaN
/// when a disparity is undefined for the split).
///
/// Everything a unit's result depends on is in its arguments; nothing is
/// read from shared mutable state, which is what lets the runner execute
/// units in any order on any worker and still assemble byte-identical
/// studies.
pub fn score_unit(
    arm: &EncodedArm,
    tuned: &TunedModel,
    group_labels: &[(String, bool)],
    metrics: &[FairnessMetric],
) -> (f64, Vec<f64>) {
    let eval = score_arm(arm, tuned);
    let mut disp = Vec::with_capacity(group_labels.len() * metrics.len());
    for (label, _) in group_labels {
        let gc = eval.confusions_for(label);
        for metric in metrics {
            disp.push(gc.and_then(|gc| metric.absolute_disparity(gc)).unwrap_or(f64::NAN));
        }
    }
    (eval.test_accuracy, disp)
}

/// The deterministic validation carve-out rectification evaluates flips
/// against: a ~25% subset of the training rows, derived from the unit's
/// model seed so every unit (and every resume of it) sees the same rows.
pub fn rectification_split(n_rows: usize, seed: u64) -> Vec<usize> {
    if n_rows == 0 {
        return Vec::new();
    }
    let n_val = (n_rows / 4).max(1);
    let mut rng = Rng64::seed_from_u64(seed ^ VALIDATION_SALT);
    let mut idx = rng.sample_indices(n_rows, n_val);
    idx.sort_unstable();
    idx
}

/// Rectifies a unit's fitted model in place against the arm's validation
/// carve-out, constraining the **first** group spec (the dataset's
/// primary protected attribute). Returns `None` for model families
/// without editable tree structure — those pass through unrectified.
pub fn rectify_unit_model(
    model: &mut dyn Classifier,
    arm: &EncodedArm,
    seed: u64,
    rectify: &RectifySpec,
) -> Option<RectificationReport> {
    let (_, train_groups) = arm.train_groups.first()?;
    let idx = rectification_split(arm.y_train.len(), seed);
    if idx.is_empty() {
        return None;
    }
    let x_val = arm.x_train.take_rows(&idx);
    let y_val: Vec<u8> = idx.iter().map(|&i| arm.y_train[i]).collect();
    let groups = Groups {
        privileged: idx.iter().map(|&i| train_groups.privileged[i]).collect(),
        disadvantaged: idx.iter().map(|&i| train_groups.disadvantaged[i]).collect(),
    };
    rectify_classifier(model, &x_val, &y_val, &groups, rectify)
}

/// The dirty (train, test) pair plus one repaired pair per variant.
pub type PreparedVariants = (DataFrame, DataFrame, Vec<(DataFrame, DataFrame)>);

/// Builds the shared dirty frames and one repaired (train, test) pair per
/// variant of `error` for one split, running each detector once.
pub fn prepare_variants(
    train: &DataFrame,
    test: &DataFrame,
    error: ErrorType,
    variants: &[RepairSpec],
    seed: u64,
) -> Result<PreparedVariants> {
    let mismatch = || TabularError::InvalidArgument("variant/error mismatch".to_string());
    match error {
        ErrorType::MissingValues => {
            // Dirty: drop incomplete train rows; impute test (mean/dummy
            // fitted on the complete train rows). Repaired: impute train
            // and test with the variant fitted on the raw train data.
            let (dirty_train, dirty_test) = drop_and_impute(train, test)?;
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Missing(config) = variant else { return Err(mismatch()) };
                let fitted = config.fit(train)?;
                repaired.push((fitted.apply(train)?, fitted.apply(test)?));
            }
            Ok((dirty_train, dirty_test, repaired))
        }
        ErrorType::Outliers => {
            let (base_train, base_test) = preclean_missing(train, test)?;
            // Repairs of the same detector share its reports.
            let mut reports: BTreeMap<&str, (DetectionReport, DetectionReport)> = BTreeMap::new();
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Outliers { detector, repair } = variant else {
                    return Err(mismatch());
                };
                if !reports.contains_key(detector.name()) {
                    let fitted_detector = detector.fit(&base_train, seed)?;
                    let pair =
                        (fitted_detector.detect(&base_train)?, fitted_detector.detect(&base_test)?);
                    reports.insert(detector.name(), pair);
                }
                let (train_report, test_report) = &reports[detector.name()];
                let fitted_repair = repair.fit(&base_train, train_report)?;
                repaired.push((
                    fitted_repair.apply(&base_train, train_report)?,
                    fitted_repair.apply(&base_test, test_report)?,
                ));
            }
            Ok((base_train, base_test, repaired))
        }
        ErrorType::Mislabels => {
            let (base_train, base_test) = preclean_missing(train, test)?;
            let detector = DetectorKind::Mislabels.fit(&base_train, seed)?;
            let report = detector.detect(&base_train)?;
            let flipped = LabelRepair.apply(&base_train, &report)?;
            // Labels are never flipped on the test set.
            let repaired = variants.iter().map(|_| (flipped.clone(), base_test.clone())).collect();
            Ok((base_train, base_test, repaired))
        }
    }
}

/// Removes missing values before outlier/mislabel experiments (a no-op
/// on complete frames).
fn preclean_missing(train: &DataFrame, test: &DataFrame) -> Result<(DataFrame, DataFrame)> {
    if train.missing_cells() == 0 && test.missing_cells() == 0 {
        return Ok((train.clone(), test.clone()));
    }
    drop_and_impute(train, test)
}

/// The paper's dirty baseline for missing values: drops incomplete
/// training rows and imputes the test set with mean/dummy fitted on the
/// rows kept (one cannot drop records at prediction time).
fn drop_and_impute(train: &DataFrame, test: &DataFrame) -> Result<(DataFrame, DataFrame)> {
    let clean_train = train.drop_incomplete_rows()?;
    if clean_train.n_rows() < 10 {
        return Err(TabularError::InvalidArgument(
            "dropping incomplete rows leaves too little training data".to_string(),
        ));
    }
    let imputer =
        MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy }.fit(&clean_train)?;
    let clean_test = imputer.apply(test)?;
    Ok((clean_train, clean_test))
}

/// Samples a run's train/test split from the columnar dataset pool.
///
/// The RNG sequence (index sample, then split seed draw) and the
/// gathered sample are bit-identical to the old dense-frame path:
/// [`BlockStore::take`] reconstructs exactly the cells
/// `DataFrame::take` would copy, so exports do not move.
pub fn sample_split(
    pool: &BlockStore,
    scale: &StudyScale,
    split_seed: u64,
) -> Result<(DataFrame, DataFrame)> {
    let mut rng = Rng64::seed_from_u64(split_seed);
    let rows = rng.sample_indices(pool.n_rows(), scale.sample_size.min(pool.n_rows()));
    let sample = pool.take(&rows)?;
    let (train_idx, test_idx) =
        train_test_split(sample.n_rows(), scale.test_fraction, rng.next_u64())?;
    Ok((sample.take(&train_idx)?, sample.take(&test_idx)?))
}

/// Runs the full Figure 3 pipeline once for one configuration, through
/// the runner's steps: sample, prepare, encode, fit and score each arm.
pub fn run_configuration_once(
    pool: &BlockStore,
    model: ModelKind,
    repair: &RepairSpec,
    groups: &[GroupSpec],
    scale: &StudyScale,
    split_seed: u64,
    model_seed: u64,
) -> Result<RunPair> {
    let (train, test) = sample_split(pool, scale, split_seed)?;
    let variants = std::slice::from_ref(repair);
    let (dirty_train, dirty_test, mut repaired) =
        prepare_variants(&train, &test, repair.error_type(), variants, split_seed ^ 0x5EED)?;
    let (rep_train, rep_test) = repaired.pop().ok_or_else(|| {
        TabularError::InvalidArgument("no repaired arm for the variant".to_string())
    })?;
    let evaluate = |train: &DataFrame, test: &DataFrame| -> Result<ArmEvaluation> {
        let arm = encode_arm(train, test, groups)?;
        Ok(score_arm(&arm, &fit_unit(&arm, model, scale.cv_folds, model_seed)))
    };
    Ok(RunPair {
        dirty: evaluate(&dirty_train, &dirty_test)?,
        repaired: evaluate(&rep_train, &rep_test)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleaning::repair::OutlierRepair;
    use datasets::DatasetId;

    fn german_pool() -> BlockStore {
        DatasetId::German.generate_store(900, 42).unwrap()
    }

    fn groups() -> Vec<GroupSpec> {
        let spec = DatasetId::German.spec();
        let mut gs = spec.single_attribute_specs();
        gs.push(spec.intersectional_spec().unwrap());
        gs
    }

    #[test]
    fn sample_split_respects_scale() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let (train, test) = sample_split(&pool, &scale, 7).unwrap();
        assert_eq!(train.n_rows() + test.n_rows(), scale.sample_size);
        let expected_test = (scale.sample_size as f64 * scale.test_fraction).round() as usize;
        assert_eq!(test.n_rows(), expected_test);
    }

    #[test]
    fn missing_arms_have_correct_shapes() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let (train, test) = sample_split(&pool, &scale, 3).unwrap();
        let repair = RepairSpec::Missing(MissingRepair::all()[0]);
        let (dt, dte, repaired) =
            prepare_variants(&train, &test, ErrorType::MissingValues, &[repair], 1).unwrap();
        let (rt, rte) = &repaired[0];
        // Dirty train drops incomplete rows.
        assert!(dt.n_rows() <= train.n_rows());
        assert_eq!(dt.missing_cells(), 0);
        // Dirty test keeps all rows but is imputed.
        assert_eq!(dte.n_rows(), test.n_rows());
        assert_eq!(dte.missing_cells(), 0);
        // Repaired arms keep all rows, fully imputed.
        assert_eq!(rt.n_rows(), train.n_rows());
        assert_eq!(rt.missing_cells(), 0);
        assert_eq!(rte.n_rows(), test.n_rows());
        assert_eq!(rte.missing_cells(), 0);
    }

    #[test]
    fn outlier_arms_keep_rows_and_change_cells() {
        let pool = DatasetId::Credit.generate_store(900, 7).unwrap();
        let scale = StudyScale::smoke();
        let (train, test) = sample_split(&pool, &scale, 5).unwrap();
        let repair = RepairSpec::Outliers {
            detector: DetectorKind::OutliersIqr { k: 1.5 },
            repair: OutlierRepair::all()[0],
        };
        let (dt, dte, repaired) =
            prepare_variants(&train, &test, ErrorType::Outliers, &[repair], 2).unwrap();
        let (rt, rte) = &repaired[0];
        assert_eq!(dt.n_rows(), rt.n_rows());
        assert_eq!(dte.n_rows(), rte.n_rows());
        // The repaired train differs from the dirty train (outliers exist
        // in credit by construction).
        let dirty_util = dt.numeric("revolving_utilization").unwrap();
        let rep_util = rt.numeric("revolving_utilization").unwrap();
        assert!(dirty_util.iter().zip(rep_util).any(|(a, b)| a != b));
        // Labels are identical in both arms.
        assert_eq!(dt.labels().unwrap(), rt.labels().unwrap());
    }

    #[test]
    fn mislabel_arms_flip_train_labels_only() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let (train, test) = sample_split(&pool, &scale, 11).unwrap();
        let (dt, dte, repaired) =
            prepare_variants(&train, &test, ErrorType::Mislabels, &[RepairSpec::Mislabels], 3)
                .unwrap();
        let (rt, rte) = &repaired[0];
        let flipped = dt
            .labels()
            .unwrap()
            .iter()
            .zip(&rt.labels().unwrap())
            .filter(|(a, b)| a != b)
            .count();
        assert!(flipped > 0, "confident learning found no mislabels");
        // Test sets are byte-identical across arms.
        assert_eq!(&dte, rte);
    }

    #[test]
    fn full_run_produces_paired_scores() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let pair = run_configuration_once(
            &pool,
            ModelKind::LogReg,
            &RepairSpec::Missing(MissingRepair::all()[0]),
            &groups(),
            &scale,
            21,
            4,
        )
        .unwrap();
        for arm in [&pair.dirty, &pair.repaired] {
            assert!(arm.test_accuracy > 0.4, "accuracy {}", arm.test_accuracy);
            assert!(arm.test_accuracy <= 1.0);
            assert_eq!(arm.group_confusions.len(), 3); // age, sex, age*sex
            // Confusion counts cover the full test set for partitioning
            // (single-attribute) specs.
            let total = arm.confusions_for("age").unwrap().total();
            assert_eq!(total as usize, 113); // 450 * 0.25 rounded
        }
    }

    #[test]
    fn rectification_split_is_a_deterministic_quarter() {
        let a = rectification_split(400, 9);
        let b = rectification_split(400, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&i| i < 400));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        assert_ne!(a, rectification_split(400, 10), "seed-dependent");
        assert!(rectification_split(0, 9).is_empty());
        assert_eq!(rectification_split(3, 9).len(), 1, "tiny splits keep one row");
    }

    #[test]
    fn rectify_unit_model_edits_trees_and_skips_logreg() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let (train, test) = sample_split(&pool, &scale, 13).unwrap();
        let arm = encode_arm(&train, &test, &groups()).unwrap();
        assert_eq!(arm.train_groups.len(), 3);
        let spec = RectifySpec {
            epsilon: 0.0,
            ..RectifySpec::default()
        };
        let mut tree = fit_unit(&arm, ModelKind::Gbdt, scale.cv_folds, 4);
        let report = rectify_unit_model(tree.model.as_mut(), &arm, 4, &spec);
        assert!(report.is_some(), "xgboost is rectifiable");
        // Scoring the rectified model still produces well-formed scores.
        let labels = vec![("sex".to_string(), false)];
        let (acc, disp) = score_unit(&arm, &tree, &labels, &[FairnessMetric::EqualOpportunity]);
        assert!(acc > 0.0 && acc <= 1.0);
        assert_eq!(disp.len(), 1);
        let mut logreg = fit_unit(&arm, ModelKind::LogReg, scale.cv_folds, 4);
        assert!(rectify_unit_model(logreg.model.as_mut(), &arm, 4, &spec).is_none());
    }

    #[test]
    fn run_is_deterministic() {
        let pool = german_pool();
        let scale = StudyScale::smoke();
        let run = |sseed, mseed| {
            run_configuration_once(
                &pool,
                ModelKind::LogReg,
                &RepairSpec::Mislabels,
                &groups(),
                &scale,
                sseed,
                mseed,
            )
            .unwrap()
        };
        let a = run(5, 6);
        let b = run(5, 6);
        assert_eq!(a.dirty.test_accuracy, b.dirty.test_accuracy);
        assert_eq!(a.repaired.test_accuracy, b.repaired.test_accuracy);
        assert_eq!(a.dirty.group_confusions, b.dirty.group_confusions);
    }
}
