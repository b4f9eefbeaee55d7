//! # demodq — fairness-aware data-cleaning-impact experimentation framework
//!
//! The paper's core contribution: an extension of the CleanML protocol that
//! computes *group fairness* metrics alongside accuracy when evaluating
//! automated data cleaning, driven by declarative dataset definitions with
//! `privileged_groups`.
//!
//! The pieces map to the paper as follows:
//!
//! * [`config`] — experimental configurations (dataset / model / error /
//!   detection / repair) and study scales (the paper's full study trains
//!   26,400 models; the scale presets let a laptop reproduce the protocol
//!   at reduced grid density);
//! * [`pipeline`] — the Figure 3 evaluation pipeline: split → dirty and
//!   repaired versions → two models → paired scoring with group-wise
//!   confusion matrices;
//! * [`runner`] — multi-split, multi-model-seed execution of whole
//!   configuration grids as one flat queue of single model evaluations
//!   over scoped worker threads, sharing the dirty baseline across repair
//!   variants exactly like CleanML;
//! * [`impact`] — the paired-t-test + Bonferroni classification of each
//!   configuration's impact on accuracy and fairness into
//!   worse / insignificant / better;
//! * [`tables`] — the 3×3 fairness × accuracy contingency tables of
//!   Tables II–XIII;
//! * [`rq1`] — the demographic-disparity analysis of detected errors
//!   (Figures 1–2) with G² significance tests, plus the mislabel FP/FN
//!   drill-down;
//! * [`deepdive`] — Section VI: per-case best-technique analysis, detector
//!   and repair comparisons, and the per-model Table XIV;
//! * [`results`] — failed-task records for the degraded-run summary and
//!   the study export;
//! * [`report`] — paper-format text rendering of every table and figure.
//!
//! Beyond the paper's protocol, the study grid carries a `repair_side`
//! axis ([`config::RepairSide`]): repair the *data* (the paper's
//! cleaning arms), rectify the *model* post-training with
//! [`demodq_rectify`] (leaf-level branch-and-bound under a fairness
//! constraint), or compose *both* — addressing the paper's §VII call to
//! steer repair selection by fairness rather than accuracy alone.

pub mod config;
pub mod deepdive;
pub mod export;
pub mod fair_tuning;
pub mod journal;
pub mod selector;
pub mod impact;
pub mod pipeline;
pub mod progress;
pub mod report;
pub mod results;
pub mod rq1;
pub mod runner;
pub mod serving;
pub mod tables;

pub use config::{ExperimentConfig, RectifySpec, RepairSide, RepairSpec, StudyOptions, StudyScale};
pub use fair_tuning::{tune_and_fit_fair, FairTunedModel};
pub use impact::{classify_pair, Impact};
pub use pipeline::{
    encode_arm, rectification_split, rectify_unit_model, run_configuration_once, ArmEvaluation,
    EncodedArm, RunPair,
};
pub use progress::{PhaseSeconds, ProgressSnapshot, ProgressTracker, StudyPhase};
pub use results::FailedTask;
pub use runner::{
    run_error_type_study, run_error_type_study_with, ConfigScores, GroupMetricScores, StudyResults,
};
pub use serving::{train_serving_model, BaselineDisparity, RectificationGap, ServingModel, ServingRectification};
pub use tables::ImpactTable;
