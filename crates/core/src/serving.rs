//! Serving-time model training.
//!
//! The study pipeline ([`crate::pipeline`]) trains thousands of throwaway
//! models to score cleaning configurations; a *serving* model is the
//! opposite: one tuned classifier per (dataset, model kind), trained once
//! and then applied to unlabeled rows arriving after training. The
//! training-time [`FeatureEncoder`] travels with the classifier so
//! serving-time rows are standardised and one-hot encoded exactly like the
//! training data — never re-fit on incoming data.

use crate::config::{RectifySpec, StudyScale};
use crate::pipeline::sample_split;
use datasets::{DatasetId, DatasetSpec};
use demodq_rectify::rectify_classifier;
use fairness::{group_confusions, FairnessMetric, GroupSpec};
use mlcore::{accuracy, tune_and_fit, Classifier, ModelKind};
use tabular::{DataFrame, FeatureEncoder, Result};

/// Pre/post-rectification fairness gap of one group spec, measured on the
/// held-out test split. `None` means the metric was undefined for that
/// group on this split (e.g. no positives in one group).
#[derive(Debug, Clone, PartialEq)]
pub struct RectificationGap {
    /// Group spec label, e.g. `sex` or `sex*age`.
    pub group: String,
    /// Absolute disparity before any leaf was edited.
    pub pre: Option<f64>,
    /// Absolute disparity of the served (rectified) classifier.
    pub post: Option<f64>,
}

/// Summary of the post-training rectification applied to a served tree
/// classifier. Absent for model families without editable decision
/// regions (log-reg, kNN).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRectification {
    /// The fairness metric the rectifier constrained.
    pub metric: FairnessMetric,
    /// The constraint threshold.
    pub epsilon: f64,
    /// Number of leaf edits applied.
    pub n_edits: usize,
    /// Whether the constraint held on the rectifier's own validation data
    /// (the training split) after editing.
    pub constraint_met: bool,
    /// Test accuracy of the classifier before rectification; compare with
    /// [`ServingModel::test_accuracy`], which describes the served
    /// (rectified) classifier.
    pub pre_test_accuracy: f64,
    /// Pre/post gaps on the held-out test split, one entry per group spec.
    pub gaps: Vec<RectificationGap>,
}

/// Training-time fairness reference point for one group spec: the served
/// classifier's disparities on the held-out test split. The serving
/// tier's sliding-window drift telemetry compares live-traffic windows
/// against these values.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDisparity {
    /// Group spec label, e.g. `sex` or `sex*age`.
    pub group: String,
    /// Absolute predictive-parity disparity; `None` when undefined on the
    /// test split.
    pub predictive_parity: Option<f64>,
    /// Absolute equal-opportunity disparity; `None` when undefined.
    pub equal_opportunity: Option<f64>,
}

/// A tuned classifier packaged with everything needed to serve it: the
/// fitted feature encoder, the training frame (for fitting detectors with
/// train-time statistics), and the dataset's fairness group specs.
pub struct ServingModel {
    /// The dataset the model was trained on.
    pub dataset: DatasetId,
    /// The model family.
    pub model: ModelKind,
    /// Feature encoder fitted on the training split (with missing
    /// indicators, so serving rows may have missing values).
    pub encoder: FeatureEncoder,
    /// The tuned, refit classifier.
    pub classifier: Box<dyn Classifier>,
    /// Winning hyperparameters (CleanML `best_params` formatting).
    pub best_params: String,
    /// Mean validation accuracy of the winning hyperparameters.
    pub val_accuracy: f64,
    /// Accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// The training split; detectors for incoming batches are fitted on
    /// this so detection thresholds reflect train-time statistics.
    pub train: DataFrame,
    /// Single-attribute (and, where defined, intersectional) fairness
    /// group specs of the dataset.
    pub groups: Vec<GroupSpec>,
    /// Post-training rectification summary; `Some` exactly when the
    /// classifier is the GBDT, the one family with leaves to search.
    pub rectification: Option<ServingRectification>,
    /// Test-split disparities of the classifier actually served (post
    /// rectification where applicable), one entry per group spec — the
    /// baseline the live drift telemetry measures against.
    pub baseline_disparities: Vec<BaselineDisparity>,
}

impl ServingModel {
    /// The dataset's declarative spec.
    pub fn spec(&self) -> DatasetSpec {
        self.dataset.spec()
    }

    /// Predicts 0/1 labels for the rows of `frame`.
    ///
    /// The frame needs only the encoder's feature columns — no label, no
    /// sensitive attributes; missing values are allowed.
    pub fn predict_frame(&self, frame: &DataFrame) -> Result<Vec<u8>> {
        Ok(self.classifier.predict(&self.encoder.transform(frame)?))
    }
}

/// Trains one serving model: generate the dataset pool, take one
/// train/test split at `scale`, tune hyperparameters by cross-validation
/// on the training split, refit, and score on the held-out test split.
///
/// Tree-family classifiers are additionally **rectified** before serving:
/// their leaves are searched (branch-and-bound, see [`demodq_rectify`])
/// for the minimum-error set of label flips that brings the default
/// [`RectifySpec`] constraint within epsilon on the training split, using
/// the dataset's first group spec. Pre/post fairness gaps for *every*
/// group spec are then measured on the held-out test split and reported in
/// [`ServingModel::rectification`]; `test_accuracy` always describes the
/// classifier actually served.
pub fn train_serving_model(
    dataset: DatasetId,
    model: ModelKind,
    scale: &StudyScale,
    seed: u64,
) -> Result<ServingModel> {
    let pool = dataset.generate_store(scale.pool_size, seed)?;
    let (train, test) = sample_split(&pool, scale, seed ^ 0x5EED_CAFE)?;
    let encoder = FeatureEncoder::fit(&train, true)?;
    let x_train = encoder.transform(&train)?;
    let y_train = train.labels()?;
    let tuned = tune_and_fit(model, &x_train, &y_train, scale.cv_folds, seed);
    let spec = dataset.spec();
    let mut groups = spec.single_attribute_specs();
    if let Some(inter) = spec.intersectional_spec() {
        groups.push(inter);
    }

    let x_test = encoder.transform(&test)?;
    let y_test = test.labels()?;
    let mut classifier = tuned.model;
    let pre_preds = classifier.predict(&x_test);
    let opts = RectifySpec::default();
    let report = match groups.first() {
        Some(gs) => {
            let membership = gs.evaluate(&train)?;
            rectify_classifier(classifier.as_mut(), &x_train, &y_train, &membership, &opts)
        }
        None => None,
    };
    let rectification = match report {
        Some(report) => {
            let post_preds = classifier.predict(&x_test);
            let mut gaps = Vec::with_capacity(groups.len());
            for gs in &groups {
                let membership = gs.evaluate(&test)?;
                gaps.push(RectificationGap {
                    group: gs.label(),
                    pre: opts
                        .metric
                        .absolute_disparity(&group_confusions(&y_test, &pre_preds, &membership)),
                    post: opts
                        .metric
                        .absolute_disparity(&group_confusions(&y_test, &post_preds, &membership)),
                });
            }
            Some(ServingRectification {
                metric: opts.metric,
                epsilon: opts.epsilon,
                n_edits: report.edits.len(),
                constraint_met: report.constraint_met,
                pre_test_accuracy: accuracy(&y_test, &pre_preds),
                gaps,
            })
        }
        None => None,
    };
    let served_preds = classifier.predict(&x_test);
    let test_accuracy = accuracy(&y_test, &served_preds);
    let mut baseline_disparities = Vec::with_capacity(groups.len());
    for gs in &groups {
        let membership = gs.evaluate(&test)?;
        let gc = group_confusions(&y_test, &served_preds, &membership);
        baseline_disparities.push(BaselineDisparity {
            group: gs.label(),
            predictive_parity: FairnessMetric::PredictiveParity.absolute_disparity(&gc),
            equal_opportunity: FairnessMetric::EqualOpportunity.absolute_disparity(&gc),
        });
    }
    Ok(ServingModel {
        dataset,
        model,
        encoder,
        classifier,
        best_params: tuned.best_spec.params_string(),
        val_accuracy: tuned.val_accuracy,
        test_accuracy,
        train,
        groups,
        rectification,
        baseline_disparities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_and_predicts_unlabeled_rows() {
        let scale = StudyScale::smoke();
        let served =
            train_serving_model(DatasetId::German, ModelKind::LogReg, &scale, 7).unwrap();
        assert_eq!(served.dataset, DatasetId::German);
        assert!(served.test_accuracy > 0.5, "accuracy {}", served.test_accuracy);
        assert!(!served.best_params.is_empty());
        assert!(!served.groups.is_empty());

        // Serve rows that carry only the feature columns.
        let batch = DatasetId::German.generate(40, 99).unwrap();
        let preds = served.predict_frame(&batch).unwrap();
        assert_eq!(preds.len(), 40);
        assert!(preds.iter().all(|&p| p <= 1));
        let probas = served.classifier.predict_proba(&served.encoder.transform(&batch).unwrap());
        assert!(probas.iter().all(|p| (0.0..=1.0).contains(p)));
        // Linear models have no editable decision regions.
        assert!(served.rectification.is_none());
        // Every group spec carries a drift baseline from the test split.
        assert_eq!(served.baseline_disparities.len(), served.groups.len());
        for (b, gs) in served.baseline_disparities.iter().zip(&served.groups) {
            assert_eq!(b.group, gs.label());
            for v in [b.predictive_parity, b.equal_opportunity].into_iter().flatten() {
                assert!((0.0..=1.0).contains(&v), "baseline {v} out of range");
            }
        }
    }

    #[test]
    fn tree_serving_models_are_rectified_with_test_split_gaps() {
        let scale = StudyScale::smoke();
        let served = train_serving_model(DatasetId::German, ModelKind::Gbdt, &scale, 7).unwrap();
        let rect = served.rectification.as_ref().expect("trees are rectified before serving");
        assert_eq!(rect.gaps.len(), served.groups.len());
        for (gap, gs) in rect.gaps.iter().zip(&served.groups) {
            assert_eq!(gap.group, gs.label());
            for g in [gap.pre, gap.post].into_iter().flatten() {
                assert!((0.0..=1.0).contains(&g), "gap {g} out of range for {}", gap.group);
            }
        }
        assert!((0.0..=1.0).contains(&rect.pre_test_accuracy));
        // The served classifier reflects the edits: predictions still work.
        let batch = DatasetId::German.generate(25, 99).unwrap();
        assert_eq!(served.predict_frame(&batch).unwrap().len(), 25);
    }
}
