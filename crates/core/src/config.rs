//! Experimental configurations, study scales, and durable-execution
//! options.

use cleaning::detect::DetectorKind;
use cleaning::repair::{MissingRepair, OutlierRepair};
use datasets::{DatasetId, ErrorType};
use fairness::FairnessMetric;
use mlcore::ModelKind;
use std::path::PathBuf;
use std::time::Duration;

/// Which side of the pipeline a study's repairs act on.
///
/// The paper's protocol repairs the **data** (clean, refit, compare);
/// `demodq-rectify` adds the **model** side (train on dirty data, then
/// edit the trained model's leaves until a fairness constraint holds).
/// `Both` composes them: clean the data *and* rectify the refit model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairSide {
    /// Repair the training data only (the paper's protocol).
    Data,
    /// Leave the data dirty and rectify the trained model only.
    Model,
    /// Clean the data, then rectify the model trained on it.
    Both,
}

impl RepairSide {
    /// All sides, in study-grid order.
    pub fn all() -> [RepairSide; 3] {
        [RepairSide::Data, RepairSide::Model, RepairSide::Both]
    }

    /// Stable name used in exports and journal fingerprints.
    pub fn name(&self) -> &'static str {
        match self {
            RepairSide::Data => "data",
            RepairSide::Model => "model",
            RepairSide::Both => "both",
        }
    }

    /// Parses a side name.
    pub fn parse(name: &str) -> Option<RepairSide> {
        match name {
            "data" => Some(RepairSide::Data),
            "model" => Some(RepairSide::Model),
            "both" => Some(RepairSide::Both),
            _ => None,
        }
    }

    /// Whether units on this side rectify the trained model.
    pub fn rectifies(&self) -> bool {
        !matches!(self, RepairSide::Data)
    }

    /// Whether the "repaired" arm of a unit uses the cleaned data (when
    /// false, the repaired arm retrains on the dirty frame and relies on
    /// rectification alone).
    pub fn repairs_data(&self) -> bool {
        !matches!(self, RepairSide::Model)
    }
}

/// The fairness constraint model-side rectification restores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectifySpec {
    /// Constrained metric (absolute validation gap).
    pub metric: FairnessMetric,
    /// Gap tolerance.
    pub epsilon: f64,
    /// Branch-and-bound node budget per rectification.
    pub max_nodes: usize,
}

impl Default for RectifySpec {
    fn default() -> RectifySpec {
        RectifySpec {
            metric: FairnessMetric::EqualOpportunity,
            epsilon: 0.05,
            max_nodes: 20_000,
        }
    }
}

/// A fully specified cleaning intervention: which errors are detected and
/// how flagged tuples are repaired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairSpec {
    /// Impute missing values (detector is trivially `missing_values`).
    Missing(MissingRepair),
    /// Detect outliers with `detector` and replace flagged cells.
    Outliers {
        /// One of the three outlier detectors.
        detector: DetectorKind,
        /// Replacement statistic.
        repair: OutlierRepair,
    },
    /// Detect mislabels with confident learning and flip flagged labels.
    Mislabels,
}

impl RepairSpec {
    /// The error type this intervention addresses.
    pub fn error_type(&self) -> ErrorType {
        match self {
            RepairSpec::Missing(_) => ErrorType::MissingValues,
            RepairSpec::Outliers { .. } => ErrorType::Outliers,
            RepairSpec::Mislabels => ErrorType::Mislabels,
        }
    }

    /// CleanML-style name, e.g. `impute_mean_dummy`,
    /// `outliers-iqr/impute_median`, `flip_labels`.
    pub fn name(&self) -> String {
        match self {
            RepairSpec::Missing(r) => r.name(),
            RepairSpec::Outliers { detector, repair } => {
                format!("{}/{}", detector.name(), repair.name())
            }
            RepairSpec::Mislabels => "flip_labels".to_string(),
        }
    }

    /// All repair variants the study sweeps for an error type:
    /// 6 imputation combos for missing values, 3 detectors × 3 replacement
    /// statistics for outliers, and label flipping for mislabels.
    pub fn variants_for(error: ErrorType) -> Vec<RepairSpec> {
        match error {
            ErrorType::MissingValues => {
                MissingRepair::all().into_iter().map(RepairSpec::Missing).collect()
            }
            ErrorType::Outliers => {
                let mut out = Vec::new();
                for detector in DetectorKind::outlier_detectors() {
                    for repair in OutlierRepair::all() {
                        out.push(RepairSpec::Outliers { detector, repair });
                    }
                }
                out
            }
            ErrorType::Mislabels => vec![RepairSpec::Mislabels],
        }
    }
}

/// One experimental configuration: dataset × model × cleaning intervention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// The dataset.
    pub dataset: DatasetId,
    /// The model family.
    pub model: ModelKind,
    /// The cleaning intervention.
    pub repair: RepairSpec,
}

impl ExperimentConfig {
    /// CleanML-style configuration key, e.g.
    /// `german/missing_values/impute_mean_dummy/log-reg`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.dataset.name(),
            self.repair.error_type().name(),
            self.repair.name(),
            self.model.name()
        )
    }
}

/// How big a study run is. The paper's full study uses 15,000-record
/// samples, 20 splits and 5 model seeds per configuration (100 paired
/// scores); the presets keep the identical protocol at reduced density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyScale {
    /// Rows generated per dataset pool (sampling source).
    pub pool_size: usize,
    /// Rows sampled from the pool per run (paper: 15,000).
    pub sample_size: usize,
    /// Train/test splits per configuration (paper: 20).
    pub n_splits: usize,
    /// Model instances with different seeds per split (paper: 5).
    pub n_model_seeds: usize,
    /// Test fraction of each split.
    pub test_fraction: f64,
    /// Cross-validation folds for hyperparameter tuning (paper: 5).
    pub cv_folds: usize,
}

impl StudyScale {
    /// Minimal scale for unit/integration tests (seconds).
    pub fn smoke() -> StudyScale {
        StudyScale {
            pool_size: 900,
            sample_size: 450,
            n_splits: 2,
            n_model_seeds: 2,
            test_fraction: 0.25,
            cv_folds: 3,
        }
    }

    /// Laptop-scale default for the benchmark binaries (minutes).
    pub fn default_scale() -> StudyScale {
        StudyScale {
            pool_size: 6_000,
            sample_size: 2_000,
            n_splits: 6,
            n_model_seeds: 3,
            test_fraction: 0.25,
            cv_folds: 5,
        }
    }

    /// The paper's protocol (hours; 100 paired scores per configuration).
    pub fn full() -> StudyScale {
        StudyScale {
            pool_size: 40_000,
            sample_size: 15_000,
            n_splits: 20,
            n_model_seeds: 5,
            test_fraction: 0.25,
            cv_folds: 5,
        }
    }

    /// Million-row study tier: pools are one full block
    /// (`tabular::ROWS_PER_BLOCK` rows) per dataset, exercising chunked
    /// generation into the columnar store and sampling splits from a
    /// million-row pool. Split/seed density is kept low — the point is
    /// data volume, not score density.
    pub fn large() -> StudyScale {
        StudyScale {
            pool_size: 1 << 20,
            sample_size: 4_000,
            n_splits: 1,
            n_model_seeds: 1,
            test_fraction: 0.25,
            cv_folds: 3,
        }
    }

    /// Parses a scale name (`smoke` / `default` / `full` / `large`).
    pub fn parse(name: &str) -> Option<StudyScale> {
        match name {
            "smoke" => Some(StudyScale::smoke()),
            "default" => Some(StudyScale::default_scale()),
            "full" => Some(StudyScale::full()),
            "large" => Some(StudyScale::large()),
            _ => None,
        }
    }

    /// Paired scores produced per configuration.
    pub fn scores_per_config(&self) -> usize {
        self.n_splits * self.n_model_seeds
    }
}

/// Durability and robustness controls for
/// [`crate::runner::run_error_type_study_with`].
///
/// The defaults reproduce a plain in-memory run (no journal, no progress
/// lines) with graceful degradation: a failed (dataset, split) task is
/// recorded and excluded from assembly instead of aborting the study, and
/// only when more than [`StudyOptions::failure_threshold`] of the tasks
/// fail does the run turn into an `Err`.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Directory for the append-only task journal (e.g. `results/journal`).
    /// `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Load the matching journal before running and skip tasks whose
    /// results are already recorded (fingerprint-verified).
    pub resume: bool,
    /// Highest tolerated fraction of failed tasks; strictly more than this
    /// turns the study into an `Err` listing every failed task.
    pub failure_threshold: f64,
    /// Emit periodic progress lines (tasks done/total, evals/s, ETA) to
    /// stderr.
    pub progress: bool,
    /// Minimum interval between progress lines.
    pub progress_interval: Duration,
    /// Test hook: report `(dataset name, split)` tasks as failed without
    /// executing them (exercises the degradation path deterministically).
    pub inject_task_failure: Option<fn(dataset: &str, split: usize) -> bool>,
    /// Hook called after each newly executed task completes (and is
    /// journaled), with `(tasks executed this run, total tasks)`.
    /// Returning `true` stops the runner from starting new tasks; the run
    /// then returns an interruption `Err` and the journal keeps what
    /// completed. Tests use this to simulate a crash without killing the
    /// process; the crash-resume CI smoke uses it to `kill -9` itself
    /// mid-run.
    pub on_task_complete: Option<fn(done: usize, total: usize) -> bool>,
    /// Which side of the pipeline the study's repairs act on. `Data`
    /// reproduces the paper's protocol exactly; `Model` / `Both` add
    /// post-training rectification of tree-structured models.
    pub repair_side: RepairSide,
    /// The rectification constraint used when
    /// [`StudyOptions::repair_side`] rectifies.
    pub rectify: RectifySpec,
}

impl Default for StudyOptions {
    fn default() -> StudyOptions {
        StudyOptions {
            journal_dir: None,
            resume: false,
            failure_threshold: 0.1,
            progress: false,
            progress_interval: Duration::from_secs(5),
            inject_task_failure: None,
            on_task_complete: None,
            repair_side: RepairSide::Data,
            rectify: RectifySpec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_counts_match_study() {
        assert_eq!(RepairSpec::variants_for(ErrorType::MissingValues).len(), 6);
        assert_eq!(RepairSpec::variants_for(ErrorType::Outliers).len(), 9);
        assert_eq!(RepairSpec::variants_for(ErrorType::Mislabels).len(), 1);
    }

    #[test]
    fn names_follow_cleanml_convention() {
        let missing = &RepairSpec::variants_for(ErrorType::MissingValues)[0];
        assert!(missing.name().starts_with("impute_"));
        let outlier = &RepairSpec::variants_for(ErrorType::Outliers)[0];
        assert!(outlier.name().contains('/'));
        assert_eq!(RepairSpec::Mislabels.name(), "flip_labels");
    }

    #[test]
    fn error_types_and_detectors_consistent() {
        for error in ErrorType::all() {
            for spec in RepairSpec::variants_for(error) {
                assert_eq!(spec.error_type(), error);
            }
        }
    }

    #[test]
    fn config_key_format() {
        let cfg = ExperimentConfig {
            dataset: DatasetId::German,
            model: ModelKind::LogReg,
            repair: RepairSpec::Missing(MissingRepair::all()[0]),
        };
        let key = cfg.key();
        assert!(key.starts_with("german/missing_values/impute_"));
        assert!(key.ends_with("/log-reg"));
    }

    #[test]
    fn repair_sides_round_trip_and_default_is_the_paper() {
        for side in RepairSide::all() {
            assert_eq!(RepairSide::parse(side.name()), Some(side));
        }
        assert!(RepairSide::parse("smt").is_none());
        let options = StudyOptions::default();
        assert_eq!(options.repair_side, RepairSide::Data);
        assert!(!options.repair_side.rectifies(), "paper protocol has no model edits");
        assert!(RepairSide::Model.rectifies());
        assert!(!RepairSide::Model.repairs_data());
        assert!(RepairSide::Both.rectifies());
        assert!(RepairSide::Both.repairs_data());
        assert_eq!(options.rectify.metric, FairnessMetric::EqualOpportunity);
        assert!(options.rectify.epsilon > 0.0 && options.rectify.epsilon < 1.0);
    }

    #[test]
    fn scales_parse_and_order() {
        let smoke = StudyScale::parse("smoke").unwrap();
        let default = StudyScale::parse("default").unwrap();
        let full = StudyScale::parse("full").unwrap();
        assert!(smoke.sample_size < default.sample_size);
        assert!(default.sample_size < full.sample_size);
        assert_eq!(full.scores_per_config(), 100); // the paper's 100 models/config
        let large = StudyScale::parse("large").unwrap();
        assert_eq!(large.pool_size, 1 << 20); // exactly one block per pool
        assert!(large.pool_size > full.pool_size);
        assert!(StudyScale::parse("nope").is_none());
    }
}
