//! Study runner: executes whole configuration grids — (dataset × model ×
//! repair variant) × (splits × model seeds) — collecting the paired score
//! vectors the impact classification consumes.
//!
//! Mirrors CleanML's execution structure: the **dirty baseline is computed
//! once per (dataset, model, split, model-seed)** and shared across all
//! repair variants of the error type, and detection runs once per detector
//! rather than once per (detector, repair) pair. Model-independent work is
//! hoisted maximally: each (dataset, split) task samples, prepares
//! (detection + repair) and **feature-encodes every arm exactly once**,
//! then reuses the encoded matrices across all models and model seeds.
//!
//! # Parallel decomposition
//!
//! Work is scheduled on the persistent work-stealing pool at **evaluation
//! unit** granularity, not task granularity. Tasks prepare (sample +
//! detect/repair + encode) in parallel; each prepared task then fans its
//! (model × model-seed × arm) grid out as individual units — one tuned
//! fit-and-score each — through a nested indexed parallel map on the same
//! pool, so idle workers steal units (and the CV folds inside them) from
//! whichever task is still running instead of idling behind the slowest
//! task. A task's encoded matrices live only while its units are in
//! flight, which keeps memory bounded by the number of workers rather
//! than the grid size.
//!
//! Determinism is by construction, not by scheduling: every unit's RNG
//! seed derives purely from `(study_seed, dataset, split, model,
//! seed_idx)` — see [`split_seed`] and the model-seed derivation in the
//! unit loop — and unit results return through an order-preserving
//! indexed collect, so any thread count (including the serial 1-worker
//! reference pool) produces byte-identical exports.
//!
//! # Durable execution
//!
//! [`run_error_type_study_with`] adds a crash-safe layer on top:
//!
//! * every completed task is appended to a fingerprinted JSONL
//!   **journal** (see [`crate::journal`]) as it finishes, so a killed
//!   process loses at most the tasks still in flight;
//! * `resume: true` replays journaled tasks instead of re-executing them
//!   — and because every task seed derives from `(study seed, dataset,
//!   split)` only (never from the task's position in a work list), a
//!   resumed run produces byte-identical final results;
//! * a task is journalled **only after all of its units complete** — a
//!   halt or crash mid-task re-runs that task from scratch on resume, so
//!   no partial grid ever reaches the journal (exactly-once semantics);
//! * a failed task no longer aborts the study: it is recorded (error
//!   string + seeds) and excluded from assembly, and only when more than
//!   [`StudyOptions::failure_threshold`] of the tasks fail does the run
//!   return an `Err` — past the threshold a halt flag stops workers from
//!   picking up new tasks promptly (idle workers park on the pool's
//!   condvar; nothing busy-spins);
//! * an atomic [`crate::progress::ProgressTracker`] reports units
//!   done/total, evals/s and ETA, and per-phase wall time is aggregated
//!   into the study result.

use crate::config::{ExperimentConfig, RectifySpec, RepairSide, RepairSpec, StudyOptions, StudyScale};
use crate::journal::{self, JournalWriter, StudyFingerprint};
use crate::pipeline::{
    encode_arm, evaluate_unit, fit_unit, prepare_variants, rectify_unit_model, sample_split,
    score_unit, EncodedArm,
};
use crate::progress::{PhaseAccumulator, PhaseSeconds, ProgressTracker, StudyPhase};
use crate::results::FailedTask;
use datasets::{DatasetId, ErrorType};
use fairness::{FairnessMetric, GroupSpec};
use mlcore::ModelKind;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tabular::{BlockStore, Result, TabularError};

/// Paired dirty/repaired score vectors for one group × metric.
#[derive(Debug, Clone)]
pub struct GroupMetricScores {
    /// Group label (e.g. `sex`, `sex*race`).
    pub group: String,
    /// True when the group spec is intersectional.
    pub intersectional: bool,
    /// The fairness metric.
    pub metric: FairnessMetric,
    /// Absolute disparity per run on the dirty arm (NaN when undefined).
    pub dirty: Vec<f64>,
    /// Absolute disparity per run on the repaired arm.
    pub repaired: Vec<f64>,
}

/// All paired scores of one configuration.
#[derive(Debug, Clone)]
pub struct ConfigScores {
    /// The configuration.
    pub config: ExperimentConfig,
    /// Paired accuracies (dirty arm), one entry per run.
    pub dirty_accuracy: Vec<f64>,
    /// Paired accuracies (repaired arm).
    pub repaired_accuracy: Vec<f64>,
    /// Fairness score pairs per group × metric.
    pub fairness: Vec<GroupMetricScores>,
}

impl ConfigScores {
}

/// Results of a study over one error type.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// The error type studied.
    pub error: ErrorType,
    /// The scale the study ran at.
    pub scale: StudyScale,
    /// One entry per (dataset, model, repair variant) with at least one
    /// completed run; configurations whose every task failed are excluded.
    pub configs: Vec<ConfigScores>,
    /// Tasks that failed and were excluded from assembly (degraded run
    /// when non-empty).
    pub failed_tasks: Vec<FailedTask>,
    /// Tasks restored from the journal instead of re-executed.
    pub journal_hits: usize,
    /// Journal records that could not be used (stale fingerprint,
    /// truncation, seed drift, ...). Zero on a healthy resume.
    pub journal_warnings: usize,
    /// Cumulative per-phase wall time of the tasks executed this run.
    pub phases: PhaseSeconds,
    /// Which side of the pipeline the study's repairs acted on.
    pub repair_side: RepairSide,
}

impl StudyResults {
    /// A plain result carrying only scores (no failures, no journal
    /// statistics) — what an undisturbed in-memory run produces.
    // lint:allow(U001, selector/tables/export/runner tests and core proptests build studies with it)
    pub fn new(error: ErrorType, scale: StudyScale, configs: Vec<ConfigScores>) -> StudyResults {
        StudyResults {
            error,
            scale,
            configs,
            failed_tasks: Vec::new(),
            journal_hits: 0,
            journal_warnings: 0,
            phases: PhaseSeconds::default(),
            repair_side: RepairSide::Data,
        }
    }

    /// True when at least one task failed and the study completed without
    /// its runs.
    pub fn degraded(&self) -> bool {
        !self.failed_tasks.is_empty()
    }

    /// Human-readable summary of the failed tasks, `None` for a clean run.
    pub fn degraded_summary(&self) -> Option<String> {
        if self.failed_tasks.is_empty() {
            return None;
        }
        let list = self
            .failed_tasks
            .iter()
            .map(|t| format!("{} ({})", t.label(), t.error))
            .collect::<Vec<_>>()
            .join("; ");
        Some(format!("degraded: {} task(s) failed: {list}", self.failed_tasks.len()))
    }

    /// Total number of model evaluations performed (two arms per run, but
    /// the dirty arm is shared across repair variants).
    ///
    /// Counts the dirty runs actually present per (dataset, model) rather
    /// than assuming the full grid, so degraded runs and partially
    /// completed configurations are not overcounted.
    pub fn n_model_evaluations(&self) -> usize {
        let repaired: usize = self
            .configs
            .iter()
            .map(|c| c.repaired_accuracy.len())
            .sum();
        let mut dirty_runs: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
        for c in &self.configs {
            let key = (c.config.dataset.name(), c.config.model.name());
            let entry = dirty_runs.entry(key).or_insert(0);
            // All variants of a (dataset, model) share the identical dirty
            // baseline, so max == the shared run count.
            *entry = (*entry).max(c.dirty_accuracy.len());
        }
        repaired + dirty_runs.values().sum::<usize>()
    }
}

/// FNV-1a hash for deterministic seed derivation.
pub(crate) fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Mixes study seed, dataset and split index into a split seed.
/// Independent of the model so all models see identical splits
/// (CleanML re-uses splits across methods), and independent of the task's
/// position in any work list so a resumed run reproduces identical seeds.
pub(crate) fn split_seed(study_seed: u64, dataset: DatasetId, split: usize) -> u64 {
    study_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(fnv(dataset.name()))
        .wrapping_add(split as u64 * 0xA24BAED4963EE407)
}

/// One model-seed's scores: dirty accuracy, dirty disparities, and per
/// variant (repaired accuracy, repaired disparities).
pub(crate) type SeedScores = (f64, Vec<f64>, Vec<(f64, Vec<f64>)>);

/// Output of one (dataset, split) task: per model, one [`SeedScores`]
/// per model seed (seeds in ascending order).
pub(crate) struct TaskOutput {
    pub(crate) dataset_idx: usize,
    pub(crate) split_idx: usize,
    pub(crate) runs_by_model: Vec<Vec<SeedScores>>,
}

/// The model-independent product of one (dataset, split) task: the dirty
/// arm and every variant arm, encoded once. Holds the matrices the
/// task's evaluation units all read; dropped as soon as the last unit
/// finishes.
struct EncodedTask {
    dirty_arm: EncodedArm,
    variant_arms: Vec<EncodedArm>,
}

/// Prepares one (dataset, split) task: sample, prepare all variants,
/// encode every arm once. Phase wall times are accumulated even when a
/// stage errors out.
fn prepare_task(
    sseed: u64,
    pool: &BlockStore,
    error: ErrorType,
    variants: &[RepairSpec],
    scale: &StudyScale,
    group_specs: &[GroupSpec],
    phases: &PhaseAccumulator,
) -> Result<EncodedTask> {
    // lint:allow(D002, phase timing is telemetry only; durations never feed seeds or exports)
    let mut mark = Instant::now();
    let mut lap = |phase: StudyPhase| {
        // lint:allow(D002, phase timing is telemetry only; durations never feed seeds or exports)
        let now = Instant::now();
        phases.add(phase, now - mark);
        mark = now;
    };

    let sampled = sample_split(pool, scale, sseed);
    lap(StudyPhase::Sample);
    let (train, test) = sampled?;

    let prepared = prepare_variants(&train, &test, error, variants, sseed ^ 0x5EED);
    lap(StudyPhase::Prepare);
    let (dirty_train, dirty_test, repaired_frames) = prepared?;

    let encoded = (|| -> Result<_> {
        let dirty_arm = encode_arm(&dirty_train, &dirty_test, group_specs)?;
        let variant_arms = repaired_frames
            .iter()
            .map(|(rep_train, rep_test)| encode_arm(rep_train, rep_test, group_specs))
            .collect::<Result<Vec<_>>>()?;
        Ok((dirty_arm, variant_arms))
    })();
    lap(StudyPhase::Encode);
    let (dirty_arm, variant_arms) = encoded?;
    Ok(EncodedTask { dirty_arm, variant_arms })
}

/// Evaluates a prepared task's full (model × model-seed × arm) grid as
/// individual units on the ambient pool and assembles the results in
/// grid order.
///
/// Read-only evaluation context shared by every unit of every task:
/// rosters, scale, fairness bookkeeping and the telemetry sinks.
struct UnitCtx<'a> {
    models: &'a [ModelKind],
    scale: &'a StudyScale,
    metrics: &'a [FairnessMetric],
    phases: &'a PhaseAccumulator,
    tracker: &'a ProgressTracker,
    side: RepairSide,
    rectify: &'a RectifySpec,
}

/// Each unit derives its model seed from `(sseed, model, seed_idx)`
/// alone and writes to its own index of the collected vector, so the
/// assembly — and therefore the export — is invariant to which worker
/// ran which unit. Arm index 0 is the dirty arm, `1 + v` is variant `v`;
/// the dirty and every variant arm of a (model, seed) pair share one
/// model seed, preserving the paper's paired design.
///
/// [`RepairSide`] decides what a variant unit trains on and whether its
/// fitted model is rectified afterwards; the dirty baseline (arm 0) is
/// always a plain fit, so every side's "repaired vs dirty" comparison
/// shares one baseline:
///
/// * `Data`  — variant arm, no rectification (the paper's protocol);
/// * `Model` — the **dirty** arm refit per variant slot, then rectified
///   (isolates the model-side repair from any data cleaning);
/// * `Both`  — variant arm, then rectified (composition of the two).
fn evaluate_task_units(
    d: usize,
    s: usize,
    sseed: u64,
    arms: &EncodedTask,
    group_labels: &[(String, bool)],
    ctx: &UnitCtx<'_>,
) -> TaskOutput {
    let UnitCtx { models, scale, metrics, phases, tracker, side, rectify } = *ctx;
    let n_arms = 1 + arms.variant_arms.len();
    let unit_scores: Vec<(f64, Vec<f64>)> = (0..models.len() * scale.n_model_seeds * n_arms)
        .into_par_iter()
        .map(|unit| {
            let m = unit / (scale.n_model_seeds * n_arms);
            let k = (unit / n_arms) % scale.n_model_seeds;
            let a = unit % n_arms;
            let model_seed = sseed
                .wrapping_add(fnv(models[m].name()))
                .wrapping_add(k as u64 * 0x2545F4914F6CDD1D);
            let use_variant = a > 0 && side.repairs_data();
            let arm = if use_variant { &arms.variant_arms[a - 1] } else { &arms.dirty_arm };
            let scores = if a > 0 && side.rectifies() {
                // lint:allow(D002, unit timing is telemetry only; never feeds seeds or exports)
                let start = Instant::now();
                let mut tuned = fit_unit(arm, models[m], scale.cv_folds, model_seed);
                phases.add(StudyPhase::TrainEval, start.elapsed());
                // lint:allow(D002, unit timing is telemetry only; never feeds seeds or exports)
                let rectify_start = Instant::now();
                let _report = rectify_unit_model(tuned.model.as_mut(), arm, model_seed, rectify);
                phases.add(StudyPhase::Rectify, rectify_start.elapsed());
                // lint:allow(D002, unit timing is telemetry only; never feeds seeds or exports)
                let score_start = Instant::now();
                let scores = score_unit(arm, &tuned, group_labels, metrics);
                phases.add(StudyPhase::TrainEval, score_start.elapsed());
                scores
            } else {
                // lint:allow(D002, unit timing is telemetry only; never feeds seeds or exports)
                let start = Instant::now();
                let scores = evaluate_unit(
                    arm,
                    models[m],
                    scale.cv_folds,
                    model_seed,
                    group_labels,
                    metrics,
                );
                phases.add(StudyPhase::TrainEval, start.elapsed());
                scores
            };
            tracker.advance(1, 1);
            scores
        })
        .collect();
    let mut units = unit_scores.into_iter();
    let runs_by_model = models
        .iter()
        .map(|_| {
            (0..scale.n_model_seeds)
                .map(|_| {
                    // lint:allow(P001, unit_scores has exactly n_models*n_seeds*n_arms entries by construction)
                    let (dirty_acc, dirty_disp) = units.next().expect("dirty unit present");
                    let per_variant: Vec<(f64, Vec<f64>)> = (1..n_arms)
                        // lint:allow(P001, unit_scores has exactly n_models*n_seeds*n_arms entries by construction)
                        .map(|_| units.next().expect("variant unit present"))
                        .collect();
                    (dirty_acc, dirty_disp, per_variant)
                })
                .collect()
        })
        .collect();
    TaskOutput { dataset_idx: d, split_idx: s, runs_by_model }
}

/// Per-task result of the parallel phase.
enum TaskOutcome {
    /// Executed this run.
    Done(TaskOutput),
    /// Restored from the journal (counts as a journal hit).
    Replayed(TaskOutput),
    /// Failed; recorded and excluded from assembly.
    Failed(FailedTask),
    /// Not started because the `on_task_complete` hook asked to stop.
    Interrupted,
}

/// Runs the full study for one error type over the given datasets and
/// models with default [`StudyOptions`] (no journal, graceful
/// degradation up to the default failure threshold).
///
/// Datasets that do not carry the error type (e.g. heart has no missing
/// values) are skipped automatically.
pub fn run_error_type_study(
    error: ErrorType,
    dataset_ids: &[DatasetId],
    models: &[ModelKind],
    scale: &StudyScale,
    study_seed: u64,
) -> Result<StudyResults> {
    run_error_type_study_with(error, dataset_ids, models, scale, study_seed, &StudyOptions::default())
}

/// Runs the full study for one error type with durable-execution options:
/// task journaling, resume, graceful per-task degradation and progress
/// telemetry. See [`StudyOptions`].
pub fn run_error_type_study_with(
    error: ErrorType,
    dataset_ids: &[DatasetId],
    models: &[ModelKind],
    scale: &StudyScale,
    study_seed: u64,
    options: &StudyOptions,
) -> Result<StudyResults> {
    let metrics = FairnessMetric::all().to_vec();
    let variants = RepairSpec::variants_for(error);

    // Keep only datasets that declare the error type.
    let datasets: Vec<DatasetId> = dataset_ids
        .iter()
        .copied()
        .filter(|id| id.spec().has_error_type(error))
        .collect();

    // Generate pools and group specs up front (one per dataset).
    let mut pools = Vec::with_capacity(datasets.len());
    let mut group_specs: Vec<Vec<GroupSpec>> = Vec::with_capacity(datasets.len());
    let mut group_labels: Vec<Vec<(String, bool)>> = Vec::with_capacity(datasets.len());
    for id in &datasets {
        let pool = id.generate_store(scale.pool_size, study_seed ^ fnv(id.name()))?;
        let spec = id.spec();
        let mut gs = spec.single_attribute_specs();
        if let Some(inter) = spec.intersectional_spec() {
            gs.push(inter);
        }
        group_labels.push(gs.iter().map(|g| (g.label(), g.is_intersectional())).collect());
        group_specs.push(gs);
        pools.push(pool);
    }

    // Task grid: (dataset, split). Sampling, detection, repair and feature
    // encoding are all model-independent, so each split's arms are built
    // and encoded once and shared across every model and model seed.
    let mut tasks = Vec::new();
    for d in 0..datasets.len() {
        for s in 0..scale.n_splits {
            tasks.push((d, s));
        }
    }

    // Journal setup: open (append) the fingerprinted journal file and,
    // when resuming, replay whatever valid records it already holds.
    let fingerprint = StudyFingerprint::compute(
        error,
        &datasets,
        models,
        scale,
        study_seed,
        &variants,
        options.repair_side,
        &options.rectify,
    );
    let mut journal_warnings = 0usize;
    let mut replayed: BTreeMap<(usize, usize), Vec<Vec<SeedScores>>> = BTreeMap::new();
    let writer: Option<JournalWriter> = match &options.journal_dir {
        Some(dir) => {
            let path = journal::journal_path(dir, error, &fingerprint);
            if options.resume {
                let replay = journal::load(&path, &fingerprint);
                for warning in &replay.warnings {
                    eprintln!("journal warning: {warning}");
                }
                journal_warnings += replay.warnings.len();
                for ((name, split), record) in replay.tasks {
                    let Some(d) = datasets.iter().position(|id| id.name() == name) else {
                        eprintln!("journal warning: task {name}#{split} not in the dataset roster");
                        journal_warnings += 1;
                        continue;
                    };
                    if split >= scale.n_splits {
                        eprintln!("journal warning: task {name}#{split} beyond the split grid");
                        journal_warnings += 1;
                        continue;
                    }
                    let expected_seed = split_seed(study_seed, datasets[d], split);
                    if record.seed != expected_seed {
                        eprintln!(
                            "journal warning: task {name}#{split} seed {} does not match the \
                             derived seed {expected_seed}; re-running",
                            record.seed
                        );
                        journal_warnings += 1;
                        continue;
                    }
                    let shape_ok = record.runs_by_model.len() == models.len()
                        && record
                            .runs_by_model
                            .iter()
                            .all(|runs| runs.len() == scale.n_model_seeds);
                    if !shape_ok {
                        eprintln!("journal warning: task {name}#{split} has a mismatched run grid; re-running");
                        journal_warnings += 1;
                        continue;
                    }
                    replayed.insert((d, split), record.runs_by_model);
                }
            }
            Some(JournalWriter::open(&path, &fingerprint)?)
        }
        None => None,
    };

    // One evaluation unit = one tuned fit-and-score of a single
    // (model, seed, arm); the unit grid is the progress denominator.
    let units_per_task = models.len() * scale.n_model_seeds * (1 + variants.len());
    let tracker = ProgressTracker::new(
        tasks.len() * units_per_task,
        options.progress,
        options.progress_interval,
    );
    let phases = PhaseAccumulator::default();
    let executed = AtomicUsize::new(0);
    let failed_count = AtomicUsize::new(0);
    // Why a task stopped picking up work. Tasks already in flight finish
    // all their units (so their journal record stays all-or-nothing);
    // not-yet-started tasks see the flag at entry and return immediately
    // — the pool's workers then park on its condvar, nothing spins.
    const HALT_NONE: usize = 0;
    const HALT_STOP: usize = 1;
    const HALT_THRESHOLD: usize = 2;
    let halt = AtomicUsize::new(HALT_NONE);

    let outcomes: Vec<TaskOutcome> = tasks
        .par_iter()
        .map(|&(d, s)| {
            let name = datasets[d].name();
            let sseed = split_seed(study_seed, datasets[d], s);
            if let Some(runs) = replayed.get(&(d, s)) {
                tracker.advance(units_per_task, 0);
                return TaskOutcome::Replayed(TaskOutput {
                    dataset_idx: d,
                    split_idx: s,
                    runs_by_model: runs.clone(),
                });
            }
            if halt.load(Ordering::Relaxed) != HALT_NONE {
                return TaskOutcome::Interrupted;
            }
            let prepared: Result<EncodedTask> = if options
                .inject_task_failure
                .is_some_and(|should_fail| should_fail(name, s))
            {
                Err(TabularError::InvalidArgument(format!(
                    "injected prepare_variants failure for {name} split {s}"
                )))
            } else {
                prepare_task(sseed, &pools[d], error, &variants, scale, &group_specs[d], &phases)
            };
            let arms = match prepared {
                Ok(arms) => arms,
                Err(e) => {
                    let message = e.to_string();
                    if let Some(writer) = &writer {
                        let _ = writer.record_failure(name, s, sseed, &message);
                    }
                    tracker.advance(units_per_task, 0);
                    let failed = failed_count.fetch_add(1, Ordering::SeqCst) + 1;
                    if failed as f64 / tasks.len() as f64 > options.failure_threshold {
                        let _ = halt.compare_exchange(
                            HALT_NONE,
                            HALT_THRESHOLD,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    return TaskOutcome::Failed(FailedTask {
                        dataset: name.to_string(),
                        split: s,
                        seed: sseed,
                        error: message,
                    });
                }
            };
            let ctx = UnitCtx {
                models,
                scale,
                metrics: &metrics,
                phases: &phases,
                tracker: &tracker,
                side: options.repair_side,
                rectify: &options.rectify,
            };
            let output = evaluate_task_units(d, s, sseed, &arms, &group_labels[d], &ctx);
            // Journal only now, with every unit of the task complete:
            // exactly-once, all-or-nothing records.
            if let Some(writer) = &writer {
                if let Err(e) = writer.record_task(name, s, sseed, &output.runs_by_model) {
                    eprintln!("journal write failed for {name}#{s}: {e}");
                }
            }
            let done = executed.fetch_add(1, Ordering::SeqCst) + 1;
            if options.on_task_complete.is_some_and(|hook| hook(done, tasks.len())) {
                let _ =
                    halt.compare_exchange(HALT_NONE, HALT_STOP, Ordering::SeqCst, Ordering::SeqCst);
            }
            TaskOutcome::Done(output)
        })
        .collect();

    // Triage the outcomes. Graceful degradation: failed tasks are
    // recorded and excluded; only past the threshold (or on a simulated
    // interruption) does the study error out. The outcome vector is in
    // task-grid order, so `failed_tasks` is deterministic regardless of
    // which worker hit each failure first.
    let mut slots: Vec<Option<TaskOutput>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), || None);
    let mut failed_tasks: Vec<FailedTask> = Vec::new();
    let mut journal_hits = 0usize;
    let mut interrupted = false;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            TaskOutcome::Done(output) => slots[i] = Some(output),
            TaskOutcome::Replayed(output) => {
                journal_hits += 1;
                slots[i] = Some(output);
            }
            TaskOutcome::Failed(task) => failed_tasks.push(task),
            TaskOutcome::Interrupted => interrupted = true,
        }
    }
    // The threshold error outranks the interruption error: a
    // threshold-triggered halt interrupts the remaining tasks as a side
    // effect, and the failure is the part worth reporting.
    if !tasks.is_empty() {
        let failed_fraction = failed_tasks.len() as f64 / tasks.len() as f64;
        if failed_fraction > options.failure_threshold {
            let list = failed_tasks
                .iter()
                .map(|t| format!("{}: {}", t.label(), t.error))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(TabularError::InvalidArgument(format!(
                "study degraded beyond the failure threshold: {}/{} tasks failed \
                 (threshold {:.0}%): {list}",
                failed_tasks.len(),
                tasks.len(),
                options.failure_threshold * 100.0
            )));
        }
    }
    if interrupted {
        return Err(TabularError::InvalidArgument(format!(
            "study interrupted after {} executed task(s) (on_task_complete asked to stop); \
             the journal keeps completed work",
            executed.load(Ordering::SeqCst)
        )));
    }

    // Assemble per-configuration score vectors. Runs are ordered by
    // (split asc, model seed asc), matching the task grid order; splits
    // whose task failed are skipped, and configurations left with no runs
    // at all are dropped.
    let n_runs = scale.scores_per_config();
    let mut configs = Vec::new();
    for (d, id) in datasets.iter().enumerate() {
        for (m, model) in models.iter().enumerate() {
            for (v, variant) in variants.iter().enumerate() {
                let mut cs = ConfigScores {
                    config: ExperimentConfig { dataset: *id, model: *model, repair: *variant },
                    dirty_accuracy: Vec::with_capacity(n_runs),
                    repaired_accuracy: Vec::with_capacity(n_runs),
                    fairness: group_labels[d]
                        .iter()
                        .flat_map(|(label, inter)| {
                            metrics.iter().map(move |metric| GroupMetricScores {
                                group: label.clone(),
                                intersectional: *inter,
                                metric: *metric,
                                dirty: Vec::with_capacity(n_runs),
                                repaired: Vec::with_capacity(n_runs),
                            })
                        })
                        .collect(),
                };
                for s in 0..scale.n_splits {
                    let Some(output) = &slots[d * scale.n_splits + s] else {
                        continue;
                    };
                    debug_assert_eq!((output.dataset_idx, output.split_idx), (d, s));
                    for (dirty_acc, dirty_disp, per_variant) in &output.runs_by_model[m] {
                        let (rep_acc, rep_disp) = &per_variant[v];
                        cs.dirty_accuracy.push(*dirty_acc);
                        cs.repaired_accuracy.push(*rep_acc);
                        for (slot, f) in cs.fairness.iter_mut().enumerate() {
                            f.dirty.push(dirty_disp[slot]);
                            f.repaired.push(rep_disp[slot]);
                        }
                    }
                }
                if cs.repaired_accuracy.is_empty() {
                    continue;
                }
                configs.push(cs);
            }
        }
    }

    let results = StudyResults {
        error,
        scale: *scale,
        configs,
        failed_tasks,
        journal_hits,
        journal_warnings,
        phases: phases.seconds(),
        repair_side: options.repair_side,
    };
    if options.progress {
        if let Some(summary) = results.degraded_summary() {
            eprintln!("{summary}");
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mislabel_study_on_german_smoke() {
        let results = run_error_type_study(
            ErrorType::Mislabels,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            7,
        )
        .unwrap();
        assert_eq!(results.configs.len(), 1);
        let cs = &results.configs[0];
        let expected_runs = StudyScale::smoke().scores_per_config();
        assert_eq!(cs.dirty_accuracy.len(), expected_runs);
        assert_eq!(cs.repaired_accuracy.len(), expected_runs);
        // 3 groups (age, sex, age*sex) × 6 metrics.
        assert_eq!(cs.fairness.len(), 18);
        let scored = |group: &str, metric| {
            cs.fairness.iter().any(|f| f.group == group && f.metric == metric)
        };
        assert!(scored("sex", FairnessMetric::PredictiveParity));
        assert!(scored("age*sex", FairnessMetric::EqualOpportunity));
        assert!(cs.fairness.iter().any(|f| f.intersectional));
        assert!(results.n_model_evaluations() >= expected_runs * 2);
        assert!(!results.degraded());
        assert_eq!(results.journal_hits, 0);
        // Every phase did some work.
        assert!(results.phases.sample > 0.0);
        assert!(results.phases.prepare > 0.0);
        assert!(results.phases.encode > 0.0);
        assert!(results.phases.train_eval > 0.0);
    }

    /// A model-side repair study runs end-to-end: the dirty baseline is
    /// untouched (identical to the data-side study's baseline) and the
    /// "repaired" scores come from rectified models, with the rectify
    /// phase doing measurable work.
    #[test]
    fn model_side_study_rectifies_trees() {
        let scale = StudyScale::smoke();
        let run = |side: RepairSide| {
            let options = StudyOptions { repair_side: side, ..StudyOptions::default() };
            run_error_type_study_with(
                ErrorType::Mislabels,
                &[DatasetId::German],
                &[ModelKind::DecisionTree],
                &scale,
                7,
                &options,
            )
            .unwrap()
        };
        let data = run(RepairSide::Data);
        let model = run(RepairSide::Model);
        assert_eq!(model.repair_side, RepairSide::Model);
        assert_eq!(data.repair_side, RepairSide::Data);
        // The shared dirty baseline is side-invariant.
        assert_eq!(data.configs[0].dirty_accuracy, model.configs[0].dirty_accuracy);
        // Data-side studies never rectify; model-side studies do.
        assert_eq!(data.phases.rectify, 0.0);
        assert!(model.phases.rectify > 0.0, "rectification phase did no work");
        let runs = scale.scores_per_config();
        assert_eq!(model.configs[0].repaired_accuracy.len(), runs);
    }

    #[test]
    fn heart_skipped_for_missing_values() {
        let results = run_error_type_study(
            ErrorType::MissingValues,
            &[DatasetId::Heart],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            1,
        )
        .unwrap();
        assert!(results.configs.is_empty());
    }

    #[test]
    fn study_is_deterministic() {
        let run = || {
            run_error_type_study(
                ErrorType::Mislabels,
                &[DatasetId::German],
                &[ModelKind::LogReg],
                &StudyScale::smoke(),
                99,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.configs[0].dirty_accuracy, b.configs[0].dirty_accuracy);
        assert_eq!(a.configs[0].repaired_accuracy, b.configs[0].repaired_accuracy);
        let fa = &a.configs[0].fairness[0];
        let fb = &b.configs[0].fairness[0];
        // NaN-aware comparison.
        assert_eq!(fa.dirty.len(), fb.dirty.len());
        for (x, y) in fa.dirty.iter().zip(&fb.dirty) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
    }

    #[test]
    fn missing_study_counts_variants() {
        let results = run_error_type_study(
            ErrorType::MissingValues,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            3,
        )
        .unwrap();
        assert_eq!(results.configs.len(), 6); // six imputation combos
        // All variants share the identical dirty baseline scores.
        let first = &results.configs[0].dirty_accuracy;
        for cs in &results.configs[1..] {
            assert_eq!(&cs.dirty_accuracy, first);
        }
    }

    /// Regression: the dirty side of the evaluation count must reflect the
    /// runs actually present, not `datasets × models × scores_per_config`.
    #[test]
    fn n_model_evaluations_counts_actual_runs() {
        let scale = StudyScale::smoke(); // scores_per_config() == 4
        let mk = |runs: usize, repair: RepairSpec| ConfigScores {
            config: ExperimentConfig {
                dataset: DatasetId::German,
                model: ModelKind::LogReg,
                repair,
            },
            dirty_accuracy: vec![0.7; runs],
            repaired_accuracy: vec![0.8; runs],
            fairness: vec![],
        };
        let variants = RepairSpec::variants_for(ErrorType::MissingValues);
        // A degraded study: only 2 of the 4 grid runs completed.
        let results = StudyResults::new(
            ErrorType::MissingValues,
            scale,
            vec![mk(2, variants[0]), mk(2, variants[1])],
        );
        // 2 repaired runs per variant + 2 shared dirty runs — NOT
        // 4 + 4 (the old dirty_keys × scores_per_config overcount).
        assert_eq!(results.n_model_evaluations(), 2 + 2 + 2);
        assert!(results.n_model_evaluations() < 2 * 2 + scale.scores_per_config());
    }

    /// A deliberately failed task shrinks the evaluation count to what was
    /// actually performed.
    #[test]
    fn failed_task_shrinks_evaluation_count() {
        fn fail_split_one(dataset: &str, split: usize) -> bool {
            dataset == "german" && split == 1
        }
        let options = StudyOptions {
            failure_threshold: 0.5,
            inject_task_failure: Some(fail_split_one),
            ..StudyOptions::default()
        };
        let scale = StudyScale::smoke();
        let results = run_error_type_study_with(
            ErrorType::Mislabels,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &scale,
            7,
            &options,
        )
        .unwrap();
        assert!(results.degraded());
        assert_eq!(results.failed_tasks.len(), 1);
        assert_eq!(results.failed_tasks[0].label(), "german#1");
        // One of two splits failed: half the runs, counted exactly.
        let runs = scale.n_model_seeds; // one surviving split
        assert_eq!(results.configs[0].repaired_accuracy.len(), runs);
        assert_eq!(results.n_model_evaluations(), runs * 2);
    }

    #[test]
    fn failure_threshold_zero_restores_abort_semantics() {
        fn fail_any(_dataset: &str, split: usize) -> bool {
            split == 0
        }
        let options = StudyOptions {
            failure_threshold: 0.0,
            inject_task_failure: Some(fail_any),
            ..StudyOptions::default()
        };
        let err = run_error_type_study_with(
            ErrorType::Mislabels,
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            7,
            &options,
        )
        .unwrap_err();
        assert!(err.to_string().contains("failure threshold"), "{err}");
        assert!(err.to_string().contains("german#0"), "{err}");
    }
}
