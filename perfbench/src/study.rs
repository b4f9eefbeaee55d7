//! The `study` and `data` workloads.
//!
//! Each has an untraced pass through the real runner, which the
//! end-to-end metrics time, and a traced pass that rebuilds the same
//! work from the layers' public functions with a span around every call.
//! The traced pass must reproduce the runner's per-unit scores bit for
//! bit, which is what makes its per-layer split trustworthy.

use crate::stats::{best_of_rounds, BestOf};
use crate::trace::{self, count, span, timed};
use cleaning::detect::DetectorKind;
use cleaning::repair::{CatImpute, LabelRepair, MissingRepair, NumImpute};
use cleaning::DetectionReport;
use datasets::{DatasetId, ErrorType};
use demodq::journal::{self, JournalWriter, StudyFingerprint};
use demodq::rq1::{self, DisparityRow};
use demodq::{export, pipeline, tables};
use demodq::{
    EncodedArm, RectifySpec, RepairSide, RepairSpec, StudyOptions, StudyResults, StudyScale,
};
use fairness::{group_confusions, FairnessMetric, GroupSpec};
use mlcore::{
    accuracy, BinnedMatrix, KnnClassifier, ModelKind, ModelSpec, TunedModel, DEFAULT_N_BINS,
};
use rayon::prelude::*;
use serde_json::{json, Value};
use std::path::Path;
use std::rc::Rc;
use tabular::{
    split::kfold, BlockStore, DataFrame, DenseMatrix, FeatureEncoder, Result, Rng64, TabularError,
};

/// Significance level of the impact tables (the paper's).
const ALPHA: f64 = 0.05;
/// RQ1 pool rows, as `fig1 --scale full` runs it.
pub const RQ1_ROWS: usize = 80_000;

/// What one workload's studies run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub scale: StudyScale,
    pub models: Vec<ModelKind>,
    pub side: RepairSide,
}

/// `study`: the RQ2 grid at smoke scale, the paper's three models, data
/// and model repairs together.
pub fn study_plan() -> Plan {
    Plan {
        scale: StudyScale::smoke(),
        models: ModelKind::all().to_vec(),
        side: RepairSide::Both,
    }
}

/// `data`: million-row pools, 4,000-row samples, log-reg only.
pub fn data_plan() -> Plan {
    Plan {
        scale: StudyScale::large(),
        models: vec![ModelKind::LogReg],
        side: RepairSide::Data,
    }
}

fn options(plan: &Plan, journal_dir: Option<&Path>, resume: bool) -> StudyOptions {
    StudyOptions {
        journal_dir: journal_dir.map(Path::to_path_buf),
        resume,
        repair_side: plan.side,
        ..StudyOptions::default()
    }
}

/// Runs the three error-type studies through the real runner.
pub fn run_studies(
    plan: &Plan,
    seed: u64,
    journal_dir: Option<&Path>,
    resume: bool,
) -> Result<Vec<StudyResults>> {
    let opts = options(plan, journal_dir, resume);
    ErrorType::all()
        .iter()
        .map(|&error| {
            demodq::run_error_type_study_with(
                error,
                &DatasetId::all(),
                &plan.models,
                &plan.scale,
                seed,
                &opts,
            )
        })
        .collect()
}

/// (dataset, split) tasks the runner schedules for one error type.
fn task_count(error: ErrorType, scale: &StudyScale) -> usize {
    DatasetId::all()
        .iter()
        .filter(|id| id.spec().has_error_type(error))
        .count()
        * scale.n_splits
}

pub fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The runner's split-seed derivation, restated.
fn split_seed(study_seed: u64, dataset: DatasetId, split: usize) -> u64 {
    study_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(fnv(dataset.name()))
        .wrapping_add(split as u64 * 0xA24BAED4963EE407)
}

/// The runner's model-seed derivation, restated.
fn model_seed(sseed: u64, model: ModelKind, k: usize) -> u64 {
    sseed
        .wrapping_add(fnv(model.name()))
        .wrapping_add(k as u64 * 0x2545F4914F6CDD1D)
}

fn group_specs(id: DatasetId) -> Vec<GroupSpec> {
    let spec = id.spec();
    let mut specs = spec.single_attribute_specs();
    if let Some(inter) = spec.intersectional_spec() {
        specs.push(inter);
    }
    specs
}

/// Builds the paper's twelve impact tables (3 errors x {PP, EO} x
/// {single, intersectional}) and renders their cells.
pub fn build_tables(results: &[StudyResults]) -> String {
    let mut out = String::new();
    for r in results {
        for metric in [
            FairnessMetric::PredictiveParity,
            FairnessMetric::EqualOpportunity,
        ] {
            for inter in [false, true] {
                let table = timed("core.tables_s", || {
                    tables::build_table(r, metric, inter, ALPHA)
                });
                out.push_str(&export::impact_table_csv(&table));
            }
        }
    }
    out
}

/// Every export of a study set, concatenated: equal strings mean equal
/// scores, bit for bit (scores are written with full precision).
pub fn export_text(results: &[StudyResults]) -> String {
    results
        .iter()
        .map(export::study_results_json)
        .collect::<Vec<_>>()
        .join("\n")
}

fn hex(text: &str) -> String {
    format!("{:016x}", fnv(text))
}

/// Output checks of one pass: (attempted, failed, notes).
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what.into());
        }
    }
}

/// One `study` pass: a fresh journaled run, a resume from that journal
/// (every task must replay), then the twelve impact tables.
pub fn study_pass(seed: u64, dir: &Path) -> Result<Value> {
    let plan = study_plan();
    let fresh = run_studies(&plan, seed, Some(dir), false)?;
    let resumed = run_studies(&plan, seed, Some(dir), true)?;
    let tables = build_tables(&resumed);

    let mut checks = Checks::default();
    let mut tasks = 0;
    let mut failed_tasks = 0;
    for (f, r) in fresh.iter().zip(&resumed) {
        let expected = task_count(f.error, &plan.scale);
        tasks += expected;
        failed_tasks += f.failed_tasks.len() + r.failed_tasks.len();
        checks.check(
            r.journal_hits == expected && r.journal_warnings == 0,
            format!(
                "{}: {} of {expected} tasks replayed",
                f.error.name(),
                r.journal_hits
            ),
        );
    }
    let export = export_text(&fresh);
    checks.check(
        export == export_text(&resumed),
        "resumed scores differ from the fresh run",
    );
    checks.check(
        tables == build_tables(&fresh),
        "tables differ between fresh and resumed",
    );
    let evals: usize = fresh.iter().map(StudyResults::n_model_evaluations).sum();
    Ok(json!({
        "evals": evals,
        "tasks": tasks,
        "attempted": tasks as u64 + checks.attempted,
        "failed": failed_tasks as u64 + checks.failed,
        "notes": Value::from(checks.notes),
        "digest": hex(&export),
        "tables_digest": hex(&tables),
        "vm_hwm_mb": crate::vm_hwm_mb(),
    }))
}

/// RQ1 rows as text with every count and the G² bits.
pub fn rq1_text(rows: &[DisparityRow]) -> String {
    rows.iter()
        .map(|r| {
            let g = r.g_test.map(|t| (t.g2.to_bits(), t.p_value.to_bits()));
            format!(
                "{},{},{},{},{},{},{},{:?}\n",
                r.dataset,
                r.detector,
                r.group,
                r.privileged_flagged,
                r.privileged_total,
                r.disadvantaged_flagged,
                r.disadvantaged_total,
                g
            )
        })
        .collect()
}

/// The digest of a `data` pass: its RQ1 rows and its study export.
fn data_digest(rows: &[DisparityRow], studies: &[StudyResults]) -> String {
    hex(&format!("{}{}", rq1_text(rows), export_text(studies)))
}

/// One `data` pass: RQ1 over 80,000-row pools, then the three
/// error-type studies over million-row pools, journaled to `dir`.
pub fn data_pass(seed: u64, dir: &Path) -> Result<Value> {
    let rows = rq1::analyze_datasets(&DatasetId::all(), RQ1_ROWS, seed)?;
    let plan = data_plan();
    let studies = run_studies(&plan, seed, Some(dir), false)?;
    let tasks: usize = studies
        .iter()
        .map(|s| task_count(s.error, &plan.scale))
        .sum();
    let failed: usize = studies.iter().map(|s| s.failed_tasks.len()).sum();
    let evals: usize = studies.iter().map(StudyResults::n_model_evaluations).sum();
    let mut checks = Checks::default();
    checks.check(
        rows.len() >= DatasetId::all().len(),
        "RQ1 produced too few rows",
    );
    let pool_rows = DatasetId::all().len() * RQ1_ROWS
        + studies
            .iter()
            .map(|s| {
                DatasetId::all()
                    .iter()
                    .filter(|id| id.spec().has_error_type(s.error))
                    .count()
                    * plan.scale.pool_size
            })
            .sum::<usize>();
    Ok(json!({
        "evals": evals,
        "tasks": tasks,
        "pool_rows": pool_rows,
        "rq1_rows": rows.len(),
        "attempted": (tasks + rows.len()) as u64 + checks.attempted,
        "failed": failed as u64 + checks.failed,
        "notes": Value::from(checks.notes),
        "digest": data_digest(&rows, &studies),
        "vm_hwm_mb": crate::vm_hwm_mb(),
    }))
}

/// What each workload does before its first model is fitted. `study`:
/// every pool its three error-type studies generate, then the first
/// task of each (sample, detect and repair, encode). `data`: the five
/// 80,000-row RQ1 pools.
pub fn setup(workload: &str, seed: u64) -> Result<Value> {
    let mut rows = 0;
    if workload == "data" {
        for id in DatasetId::all() {
            rows += id.generate(RQ1_ROWS, seed)?.n_rows();
        }
        return Ok(json!({ "rows": rows }));
    }
    let plan = study_plan();
    for error in ErrorType::all() {
        let datasets: Vec<DatasetId> = DatasetId::all()
            .into_iter()
            .filter(|id| id.spec().has_error_type(error))
            .collect();
        let pools = datasets
            .iter()
            .map(|id| id.generate_store(plan.scale.pool_size, seed ^ fnv(id.name())))
            .collect::<Result<Vec<_>>>()?;
        rows += pools.iter().map(|p| p.n_rows()).sum::<usize>();
        sample_task(&pools[0], datasets[0], error, &plan, seed)?;
    }
    Ok(json!({ "rows": rows }))
}

// ---------------------------------------------------------------------
// Best-of-k item runs: the end-to-end throughput of `study` and `data`.
// ---------------------------------------------------------------------

/// Rounds every item runs at the least, whatever the time budget.
const MIN_ROUNDS: u32 = 5;
/// Rows of each generated store: two of the 2^16-row chunks
/// `generate_store` builds a million-row pool from. Generation is about
/// a third of a `data` pass, and about a third of a round of its items.
const GEN_ITEM_ROWS: usize = 1 << 17;
/// Rows of each RQ1 frame the `data` items detect over.
const RQ1_ITEM_ROWS: usize = 1 << 12;

/// The first dataset with each error type: split 0 of its study is the
/// task the items rebuild.
fn item_tasks() -> Vec<(ErrorType, DatasetId)> {
    ErrorType::all()
        .into_iter()
        .map(|error| {
            let id = DatasetId::all()
                .into_iter()
                .find(|id| id.spec().has_error_type(error))
                .expect("every error type has a dataset");
            (error, id)
        })
        .collect()
}

/// The task `(id, split 0)` of the runner's journal in `dir`, if recorded.
fn journal_task(
    dir: &Path,
    error: ErrorType,
    plan: &Plan,
    seed: u64,
    id: DatasetId,
) -> Option<TaskRuns> {
    let (_, fingerprint) = study_fingerprint(error, plan, seed);
    journal::load(
        &journal::journal_path(dir, error, &fingerprint),
        &fingerprint,
    )
    .tasks
    .remove(&(id.name().to_string(), 0))
    .map(|t| t.runs_by_model)
}

fn bits_digest(acc: f64, disp: &[f64]) -> u64 {
    disp.iter().fold(acc.to_bits(), |h, d| {
        (h ^ d.to_bits()).wrapping_mul(0x100000001b3)
    })
}

/// What the items of one task time: the sample, clean and encode step,
/// then units of its grid through the program's own `fit_unit`,
/// `rectify_unit_model` and `score_unit`. Only the first model seed's
/// units are timed (every model and arm, or with `dirty_only` the dirty
/// arm alone), so that each item runs more rounds in the time.
struct ItemTask {
    error: ErrorType,
    id: DatasetId,
    pool: Rc<BlockStore>,
    task: Task,
    /// (unit in `run_unit` order, its accuracy and disparities from the
    /// first run).
    units: Vec<(usize, Option<UnitScores>)>,
}

type UnitScores = (f64, Vec<f64>);

impl ItemTask {
    fn new(
        error: ErrorType,
        id: DatasetId,
        pool: Rc<BlockStore>,
        plan: &Plan,
        seed: u64,
        dirty_only: bool,
    ) -> Result<ItemTask> {
        let task = sample_task(&pool, id, error, plan, seed)?;
        let n_arms = task.arms.len();
        let arms = if dirty_only { 1 } else { n_arms };
        let units = (0..plan.models.len())
            .flat_map(|m| (0..arms).map(move |a| (m * plan.scale.n_model_seeds * n_arms + a, None)))
            .collect();
        Ok(ItemTask {
            error,
            id,
            pool,
            task,
            units,
        })
    }

    fn n_items(&self) -> usize {
        1 + self.units.len()
    }

    /// Item 0 rebuilds the task from the pool; item `1 + i` runs the
    /// `i`th timed unit.
    fn run(&mut self, item: usize, plan: &Plan, seed: u64) -> Result<u64> {
        if item == 0 {
            let again = sample_task(&self.pool, self.id, self.error, plan, seed)?;
            let x = &again.arms[0].x_train;
            return Ok(x.as_slice().iter().fold(x.n_rows() as u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
            }));
        }
        let (unit, first) = &mut self.units[item - 1];
        let (acc, disp) = run_unit(&self.task, plan, *unit, false);
        let digest = bits_digest(acc, &disp);
        first.get_or_insert((acc, disp));
        Ok(digest)
    }

    /// The timed units' scores against the runner's journal of the task.
    fn matches_journal(&self, dir: &Path, plan: &Plan, seed: u64) -> bool {
        let Some(journal) = journal_task(dir, self.error, plan, seed, self.id) else {
            return false;
        };
        let n_arms = self.task.arms.len();
        let seeds = plan.scale.n_model_seeds;
        self.units.iter().all(|(unit, scores)| {
            let (m, k, a) = (
                unit / (seeds * n_arms),
                (unit / n_arms) % seeds,
                unit % n_arms,
            );
            let Some(cell) = journal.get(m).and_then(|runs| runs.get(k)) else {
                return false;
            };
            let want = if a == 0 {
                Some((cell.0, &cell.1))
            } else {
                cell.2.get(a - 1).map(|(acc, disp)| (*acc, disp))
            };
            match (want, scores) {
                (Some((acc, disp)), Some((got_acc, got_disp))) => {
                    acc.to_bits() == got_acc.to_bits() && same_bits(disp, got_disp)
                }
                _ => false,
            }
        })
    }
}

/// Times `tasks`' items plus `extra` items best-of-k, round after round
/// for `seconds`; `extra(i)` runs extra item `i`.
fn time_items(
    tasks: &mut [ItemTask],
    plan: &Plan,
    seed: u64,
    n_extra: usize,
    mut extra: impl FnMut(usize) -> Result<u64>,
    seconds: f64,
) -> Result<BestOf> {
    let mut index = Vec::new();
    for (t, task) in tasks.iter().enumerate() {
        index.extend((0..task.n_items()).map(|i| (Some(t), i)));
    }
    index.extend((0..n_extra).map(|i| (None, i)));
    best_of_rounds(index.len(), seconds, MIN_ROUNDS, |k| match index[k] {
        (Some(t), i) => tasks[t].run(i, plan, seed),
        (None, i) => extra(i),
    })
}

fn items_report(best: &BestOf, work: f64, mut checks: Checks) -> Value {
    checks.check(
        best.mismatches == 0,
        format!(
            "{} timed runs gave other output than their item's first",
            best.mismatches
        ),
    );
    json!({
        "work": work,
        "best_s": best.total(),
        "item_best_s": Value::from(best.best().to_vec()),
        "items": best.best().len(),
        "rounds": best.rounds(),
        "attempted": best.attempted() + checks.attempted,
        "failed": best.mismatches + checks.failed,
        "notes": Value::from(checks.notes),
        "vm_hwm_mb": crate::vm_hwm_mb(),
    })
}

/// `study`'s end-to-end throughput: split 0 of the first dataset with
/// each error type, its preparation and the units of its first model
/// seed (3 models × every arm) timed best-of-k. Model evaluations per
/// second of the fastest runs. The units' scores must equal the journal
/// the real runner wrote to `journal_dir`.
pub fn study_items(seed: u64, seconds: f64, journal_dir: &Path) -> Result<Value> {
    let plan = study_plan();
    let mut tasks = item_tasks()
        .into_iter()
        .map(|(error, id)| {
            let pool = id.generate_store(plan.scale.pool_size, seed ^ fnv(id.name()))?;
            ItemTask::new(error, id, Rc::new(pool), &plan, seed, false)
        })
        .collect::<Result<Vec<_>>>()?;
    let best = time_items(&mut tasks, &plan, seed, 0, |_| Ok(0), seconds)?;
    let mut checks = Checks::default();
    for t in &tasks {
        checks.check(
            t.matches_journal(journal_dir, &plan, seed),
            format!(
                "{} {}: timed units differ from the runner's journal",
                t.error.name(),
                t.id.name()
            ),
        );
    }
    let evals: usize = tasks.iter().map(|t| t.units.len()).sum();
    Ok(items_report(&best, evals as f64, checks))
}

/// `data`'s end-to-end throughput, rows per second over three kinds of
/// items timed best-of-k: generating a 2^17-row store of each dataset,
/// RQ1's detection and G-tests per (dataset, detector) on 4,096-row
/// frames, and split 0 of the large-scale study of the first dataset
/// with each error type (sampled from a 2^20-row pool, cleaned and
/// encoded, then its dirty-arm unit). The RQ1 rows must equal
/// `rq1::analyze_datasets` at that size, and the units the journal the
/// real runner wrote to `journal_dir`.
pub fn data_items(seed: u64, seconds: f64, journal_dir: &Path) -> Result<Value> {
    let plan = data_plan();
    let mut pools: Vec<(DatasetId, Rc<BlockStore>)> = Vec::new();
    let mut tasks = Vec::new();
    for (error, id) in item_tasks() {
        let pool = match pools.iter().find(|(p, _)| *p == id) {
            Some((_, pool)) => Rc::clone(pool),
            None => Rc::new(id.generate_store(plan.scale.pool_size, seed ^ fnv(id.name()))?),
        };
        pools.push((id, Rc::clone(&pool)));
        tasks.push(ItemTask::new(error, id, pool, &plan, seed, true)?);
    }
    let frames = DatasetId::all()
        .into_iter()
        .map(|id| id.generate(RQ1_ITEM_ROWS, seed))
        .collect::<Result<Vec<_>>>()?;
    let mut rq1_items = Vec::new();
    for (f, frame) in frames.iter().enumerate() {
        for detector in DetectorKind::all() {
            if !(detector == DetectorKind::MissingValues && frame.missing_cells() == 0) {
                rq1_items.push((f, detector));
            }
        }
    }
    let ids = DatasetId::all();
    let mut rq1_rows: Vec<Option<Vec<DisparityRow>>> = vec![None; rq1_items.len()];
    let n_extra = ids.len() + rq1_items.len();
    let best = time_items(
        &mut tasks,
        &plan,
        seed,
        n_extra,
        |i| {
            if i < ids.len() {
                let chunk = ids[i].generate_store(GEN_ITEM_ROWS, seed ^ fnv(ids[i].name()))?;
                return Ok(chunk.n_rows() as u64 ^ (chunk.heap_bytes() as u64) << 20);
            }
            let k = i - ids.len();
            let (f, detector) = rq1_items[k];
            let rows = rq1_detector_rows(ids[f], &frames[f], detector, seed)?;
            let digest = fnv(&rq1_text(&rows));
            rq1_rows[k].get_or_insert(rows);
            Ok(digest)
        },
        seconds,
    )?;

    let mut checks = Checks::default();
    for t in &tasks {
        checks.check(
            t.matches_journal(journal_dir, &plan, seed),
            format!(
                "{} {}: timed units differ from the runner's journal",
                t.error.name(),
                t.id.name()
            ),
        );
    }
    let timed_rows: Vec<DisparityRow> = rq1_rows.into_iter().flatten().flatten().collect();
    checks.check(
        rq1_text(&timed_rows) == rq1_text(&rq1::analyze_datasets(&ids, RQ1_ITEM_ROWS, seed)?),
        "timed RQ1 rows differ from rq1::analyze_datasets",
    );
    let work = ids.len() * GEN_ITEM_ROWS
        + frames.iter().map(|f| f.n_rows()).sum::<usize>()
        + tasks.len() * plan.scale.sample_size;
    Ok(items_report(&best, work as f64, checks))
}

// ---------------------------------------------------------------------
// The traced rebuild.
// ---------------------------------------------------------------------

type SeedScores = (f64, Vec<f64>, Vec<(f64, Vec<f64>)>);
type TaskRuns = Vec<Vec<SeedScores>>;

fn detect_span(kind: DetectorKind) -> &'static str {
    match kind {
        DetectorKind::MissingValues => "cleaning.detect_s.missing_values",
        DetectorKind::OutliersSd { .. } => "cleaning.detect_s.outliers-sd",
        DetectorKind::OutliersIqr { .. } => "cleaning.detect_s.outliers-iqr",
        DetectorKind::OutliersIf { .. } => "cleaning.detect_s.outliers-if",
        DetectorKind::Mislabels => "cleaning.detect_s.mislabels",
    }
}

fn model_span(kind: ModelKind, what: &str) -> &'static str {
    match (what, kind) {
        ("cv", ModelKind::LogReg) => "mlcore.cv_s.log-reg",
        ("cv", ModelKind::Knn) => "mlcore.cv_s.knn",
        ("cv", _) => "mlcore.cv_s.xgboost",
        ("refit", ModelKind::LogReg) => "mlcore.refit_s.log-reg",
        ("refit", ModelKind::Knn) => "mlcore.refit_s.knn",
        ("refit", _) => "mlcore.refit_s.xgboost",
        (_, ModelKind::LogReg) => "mlcore.predict_s.log-reg",
        (_, ModelKind::Knn) => "mlcore.predict_s.knn",
        _ => "mlcore.predict_s.xgboost",
    }
}

/// `DetectorKind::fit` then `detect` on each frame, as the runner does.
fn detect(
    kind: DetectorKind,
    fit_on: &DataFrame,
    seed: u64,
    frames: &[&DataFrame],
) -> Result<Vec<DetectionReport>> {
    let _span = span(detect_span(kind));
    let fitted = kind.fit(fit_on, seed)?;
    let reports = frames
        .iter()
        .map(|f| fitted.detect(f))
        .collect::<Result<Vec<_>>>()?;
    count(
        "cleaning.flagged",
        reports.iter().map(|r| r.flagged_rows() as f64).sum(),
    );
    Ok(reports)
}

fn baseline() -> MissingRepair {
    MissingRepair {
        num: NumImpute::Mean,
        cat: CatImpute::Dummy,
    }
}

fn too_little() -> TabularError {
    TabularError::InvalidArgument(
        "dropping incomplete rows leaves too little training data".to_string(),
    )
}

fn preclean(train: &DataFrame, test: &DataFrame) -> Result<(DataFrame, DataFrame)> {
    let _span = span("cleaning.repair_s");
    if train.missing_cells() == 0 && test.missing_cells() == 0 {
        return Ok((train.clone(), test.clone()));
    }
    let clean_train = train.drop_incomplete_rows()?;
    if clean_train.n_rows() < 10 {
        return Err(too_little());
    }
    let clean_test = baseline().fit(&clean_train)?.apply(test)?;
    Ok((clean_train, clean_test))
}

type Prepared = (DataFrame, DataFrame, Vec<(DataFrame, DataFrame)>);

/// The runner's per-split preparation: the dirty pair and one repaired
/// pair per variant, detecting once per detector.
fn prepare(
    train: &DataFrame,
    test: &DataFrame,
    error: ErrorType,
    variants: &[RepairSpec],
    seed: u64,
) -> Result<Prepared> {
    let mismatch = || TabularError::InvalidArgument("variant/error mismatch".to_string());
    match error {
        ErrorType::MissingValues => {
            let _span = span("cleaning.repair_s");
            let dirty_train = train.drop_incomplete_rows()?;
            if dirty_train.n_rows() < 10 {
                return Err(too_little());
            }
            let dirty_test = baseline().fit(&dirty_train)?.apply(test)?;
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Missing(config) = variant else {
                    return Err(mismatch());
                };
                let fitted = config.fit(train)?;
                repaired.push((fitted.apply(train)?, fitted.apply(test)?));
            }
            Ok((dirty_train, dirty_test, repaired))
        }
        ErrorType::Outliers => {
            let (base_train, base_test) = preclean(train, test)?;
            let mut reports: Vec<(&'static str, Vec<DetectionReport>)> = Vec::new();
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Outliers { detector, repair } = variant else {
                    return Err(mismatch());
                };
                if !reports.iter().any(|(name, _)| *name == detector.name()) {
                    let found = detect(*detector, &base_train, seed, &[&base_train, &base_test])?;
                    reports.push((detector.name(), found));
                }
                let (_, found) = reports
                    .iter()
                    .find(|(name, _)| *name == detector.name())
                    .ok_or_else(mismatch)?;
                let _span = span("cleaning.repair_s");
                let fitted = repair.fit(&base_train, &found[0])?;
                repaired.push((
                    fitted.apply(&base_train, &found[0])?,
                    fitted.apply(&base_test, &found[1])?,
                ));
            }
            Ok((base_train, base_test, repaired))
        }
        ErrorType::Mislabels => {
            let (base_train, base_test) = preclean(train, test)?;
            let found = detect(DetectorKind::Mislabels, &base_train, seed, &[&base_train])?;
            let flipped = timed("cleaning.repair_s", || {
                LabelRepair.apply(&base_train, &found[0])
            })?;
            let repaired = variants
                .iter()
                .map(|_| (flipped.clone(), base_test.clone()))
                .collect();
            Ok((base_train, base_test, repaired))
        }
    }
}

/// `pipeline::encode_arm`, split into the encoder and the group masks.
fn encode(train: &DataFrame, test: &DataFrame, specs: &[GroupSpec]) -> Result<EncodedArm> {
    let (x_train, y_train, x_test, y_test) = timed("tabular.encode_s", || -> Result<_> {
        let y_train = train.labels()?;
        let y_test = test.labels()?;
        let encoder = FeatureEncoder::fit(train, true)?;
        Ok((
            encoder.transform(train)?,
            y_train,
            encoder.transform(test)?,
            y_test,
        ))
    })?;
    let _span = span("fairness.groups_s");
    let mut groups = Vec::with_capacity(specs.len());
    let mut train_groups = Vec::with_capacity(specs.len());
    for spec in specs {
        groups.push((spec.label(), spec.evaluate(test)?));
        train_groups.push((spec.label(), spec.evaluate(train)?));
    }
    Ok(EncodedArm {
        x_train,
        y_train,
        x_test,
        y_test,
        groups,
        train_groups,
    })
}

/// `mlcore::tune_and_fit`, rebuilt from `default_grid`, `kfold`,
/// `BinnedMatrix::from_matrix`, `ModelSpec::fit(_binned)` and
/// `predict_proba_grid` so that binning, cross-validation and the refit
/// are timed apart. Folds run serially here; the original's parallel
/// fold units produce the same per-fold scores and reduce in grid order,
/// so the winner and the refit model are the same.
pub fn tune_and_fit_rebuilt(
    kind: ModelKind,
    x: &DenseMatrix,
    y: &[u8],
    n_folds: usize,
    seed: u64,
) -> TunedModel {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut grid = kind.default_grid();
    rng.shuffle(&mut grid);
    let folds = kfold(x.n_rows(), n_folds, rng.next_u64())
        .expect("the study's splits exceed the fold count");
    let fit_seed = rng.next_u64();
    let binned = kind.is_tree_based().then(|| {
        timed("mlcore.bin_s", || {
            BinnedMatrix::from_matrix(x, DEFAULT_N_BINS)
        })
    });

    let cv = span(model_span(kind, "cv"));
    let fold_data: Vec<_> = folds
        .iter()
        .map(|(train_idx, val_idx)| {
            let x_val = x.take_rows(val_idx);
            let y_val: Vec<u8> = val_idx.iter().map(|&i| y[i]).collect();
            let dense = binned.is_none().then(|| {
                (
                    x.take_rows(train_idx),
                    train_idx.iter().map(|&i| y[i]).collect::<Vec<u8>>(),
                )
            });
            (train_idx, x_val, y_val, dense)
        })
        .collect();
    let n = fold_data.len();
    let fold_scores: Vec<f64> = if kind == ModelKind::Knn {
        let ks: Vec<usize> = grid
            .iter()
            .map(|spec| match spec {
                ModelSpec::Knn { k } => *k,
                _ => unreachable!("knn grid contains only knn specs"),
            })
            .collect();
        let kmax = ks.iter().copied().max().unwrap_or(1);
        let per_fold: Vec<Vec<f64>> = fold_data
            .iter()
            .map(|(_, x_val, y_val, d)| {
                let (x_train, y_train) = dense(d);
                count("mlcore.fits", 1.0);
                KnnClassifier::fit(x_train, y_train, kmax)
                    .predict_proba_grid(x_val, &ks)
                    .iter()
                    .map(|probas| {
                        let preds: Vec<u8> = probas.iter().map(|&p| u8::from(p >= 0.5)).collect();
                        accuracy(y_val, &preds)
                    })
                    .collect()
            })
            .collect();
        (0..grid.len() * n)
            .map(|unit| per_fold[unit % n][unit / n])
            .collect()
    } else {
        (0..grid.len() * n)
            .map(|unit| {
                let spec = &grid[unit / n];
                let (train_idx, x_val, y_val, d) = &fold_data[unit % n];
                count("mlcore.fits", 1.0);
                let model = match &binned {
                    Some(b) => spec.fit_binned(b, x, train_idx, y, fit_seed),
                    None => {
                        let (x_train, y_train) = dense(d);
                        spec.fit(x_train, y_train, fit_seed)
                    }
                };
                accuracy(y_val, &model.predict(x_val))
            })
            .collect()
    };
    let mut best: Option<(f64, ModelSpec)> = None;
    for (k, spec) in grid.iter().enumerate() {
        let scores = &fold_scores[k * n..(k + 1) * n];
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        if best.is_none_or(|(b, _)| mean > b) {
            best = Some((mean, *spec));
        }
    }
    drop(cv);

    let _refit = span(model_span(kind, "refit"));
    let (val_accuracy, best_spec) = best.expect("default grids are non-empty");
    count("mlcore.fits", 1.0);
    let model = match &binned {
        Some(b) => {
            let all_rows: Vec<usize> = (0..x.n_rows()).collect();
            best_spec.fit_binned(b, x, &all_rows, y, fit_seed)
        }
        None => best_spec.fit(x, y, fit_seed),
    };
    let train_accuracy = accuracy(y, &model.predict(x));
    TunedModel {
        model,
        best_spec,
        val_accuracy,
        train_accuracy,
    }
}

fn dense(d: &Option<(DenseMatrix, Vec<u8>)>) -> (&DenseMatrix, &[u8]) {
    let (x_train, y_train) = d
        .as_ref()
        .expect("dense folds exist whenever binning is off");
    (x_train, y_train)
}

/// `pipeline::score_unit`: predictions, then accuracy and the absolute
/// disparity of every (group, metric).
fn score(
    arm: &EncodedArm,
    tuned: &TunedModel,
    labels: &[(String, bool)],
    metrics: &[FairnessMetric],
) -> (f64, Vec<f64>) {
    let preds = timed(model_span(tuned.best_spec.kind(), "predict"), || {
        tuned.model.predict(&arm.x_test)
    });
    let _span = span("fairness.score_s");
    let acc = accuracy(&arm.y_test, &preds);
    let confusions: Vec<_> = arm
        .groups
        .iter()
        .map(|(label, masks)| (label, group_confusions(&arm.y_test, &preds, masks)))
        .collect();
    let mut disp = Vec::with_capacity(labels.len() * metrics.len());
    for (label, _) in labels {
        let gc = confusions
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, gc)| gc);
        for metric in metrics {
            disp.push(
                gc.and_then(|gc| metric.absolute_disparity(gc))
                    .unwrap_or(f64::NAN),
            );
        }
    }
    (acc, disp)
}

/// One (dataset, split) task, prepared as the runner prepares it: the
/// dirty arm first, then one repaired arm per variant.
struct Task {
    arms: Vec<EncodedArm>,
    labels: Vec<(String, bool)>,
    sseed: u64,
}

fn prep_task(
    train: &DataFrame,
    test: &DataFrame,
    error: ErrorType,
    sseed: u64,
    specs: &[GroupSpec],
) -> Result<Task> {
    let variants = RepairSpec::variants_for(error);
    let (dirty_train, dirty_test, repaired) =
        prepare(train, test, error, &variants, sseed ^ 0x5EED)?;
    let mut arms = vec![encode(&dirty_train, &dirty_test, specs)?];
    for (tr, te) in &repaired {
        arms.push(encode(tr, te, specs)?);
    }
    let labels = specs
        .iter()
        .map(|g| (g.label(), g.is_intersectional()))
        .collect();
    Ok(Task {
        arms,
        labels,
        sseed,
    })
}

/// Split 0 of `id`'s study: sampled from `pool`, then prepared.
fn sample_task(
    pool: &BlockStore,
    id: DatasetId,
    error: ErrorType,
    plan: &Plan,
    seed: u64,
) -> Result<Task> {
    let sseed = split_seed(seed, id, 0);
    let (train, test) = pipeline::sample_split(pool, &plan.scale, sseed)?;
    prep_task(&train, &test, error, sseed, &group_specs(id))
}

/// One unit of a task's grid, as the runner runs it: tune and fit on its
/// arm, rectify repaired arms when the plan says so, then score. Units
/// are ordered model, model seed, arm. `rebuilt` swaps the program's
/// `fit_unit` and `score_unit` for the traced rebuilds.
fn run_unit(task: &Task, plan: &Plan, unit: usize, rebuilt: bool) -> (f64, Vec<f64>) {
    let n_arms = task.arms.len();
    let seeds = plan.scale.n_model_seeds;
    let (m, k, a) = (
        unit / (seeds * n_arms),
        (unit / n_arms) % seeds,
        unit % n_arms,
    );
    let model = plan.models[m];
    let mseed = model_seed(task.sseed, model, k);
    let arm = &task.arms[if plan.side.repairs_data() { a } else { 0 }];
    let mut tuned = if rebuilt {
        tune_and_fit_rebuilt(
            model,
            &arm.x_train,
            &arm.y_train,
            plan.scale.cv_folds,
            mseed,
        )
    } else {
        pipeline::fit_unit(arm, model, plan.scale.cv_folds, mseed)
    };
    if a > 0 && plan.side.rectifies() {
        let report = timed("rectify.search_s", || {
            pipeline::rectify_unit_model(tuned.model.as_mut(), arm, mseed, &RectifySpec::default())
        });
        count(
            "rectify.nodes",
            report.map_or(0.0, |r| r.bound.nodes_expanded as f64),
        );
    }
    let metrics = FairnessMetric::all();
    if rebuilt {
        score(arm, &tuned, &task.labels, &metrics)
    } else {
        pipeline::score_unit(arm, &tuned, &task.labels, &metrics)
    }
}

/// A task's unit scores in the journal's shape.
fn task_runs(plan: &Plan, n_arms: usize, units: Vec<(f64, Vec<f64>)>) -> TaskRuns {
    let mut it = units.into_iter();
    plan.models
        .iter()
        .map(|_| {
            (0..plan.scale.n_model_seeds)
                .map(|_| {
                    let (acc, disp) = it.next().expect("one unit per grid cell");
                    let per_variant = (1..n_arms)
                        .map(|_| it.next().expect("one unit per grid cell"))
                        .collect();
                    (acc, disp, per_variant)
                })
                .collect()
        })
        .collect()
}

/// The datasets of one error type's study and its journal fingerprint.
fn study_fingerprint(
    error: ErrorType,
    plan: &Plan,
    seed: u64,
) -> (Vec<DatasetId>, StudyFingerprint) {
    let datasets: Vec<DatasetId> = DatasetId::all()
        .into_iter()
        .filter(|id| id.spec().has_error_type(error))
        .collect();
    let fingerprint = StudyFingerprint::compute(
        error,
        &datasets,
        &plan.models,
        &plan.scale,
        seed,
        &RepairSpec::variants_for(error),
        plan.side,
        &RectifySpec::default(),
    );
    (datasets, fingerprint)
}

/// One traced error-type study: the runner's task and unit grid, with
/// every task journaled through `JournalWriter::record_task`.
fn traced_study(
    error: ErrorType,
    plan: &Plan,
    seed: u64,
    dir: &Path,
) -> Result<Vec<((String, usize), TaskRuns)>> {
    let (datasets, fingerprint) = study_fingerprint(error, plan, seed);
    let mut pools = Vec::new();
    let mut specs = Vec::new();
    for id in &datasets {
        let pool = timed("datasets.generate_s", || {
            id.generate_store(plan.scale.pool_size, seed ^ fnv(id.name()))
        })?;
        count("datasets.rows", pool.n_rows() as f64);
        pools.push(pool);
        specs.push(group_specs(*id));
    }
    let writer = JournalWriter::open(
        &journal::journal_path(dir, error, &fingerprint),
        &fingerprint,
    )?;
    let tasks: Vec<(usize, usize)> = (0..datasets.len())
        .flat_map(|d| (0..plan.scale.n_splits).map(move |s| (d, s)))
        .collect();
    tasks
        .par_iter()
        .map(|&(d, s)| {
            let name = datasets[d].name();
            let sseed = split_seed(seed, datasets[d], s);
            let (train, test) = timed("tabular.sample_s", || {
                pipeline::sample_split(&pools[d], &plan.scale, sseed)
            })?;
            let task = prep_task(&train, &test, error, sseed, &specs[d])?;
            let n_arms = task.arms.len();
            let units: Vec<(f64, Vec<f64>)> =
                (0..plan.models.len() * plan.scale.n_model_seeds * n_arms)
                    .into_par_iter()
                    .map(|unit| run_unit(&task, plan, unit, true))
                    .collect();
            let runs = task_runs(plan, n_arms, units);
            timed("core.journal_write_s", || {
                writer.record_task(name, s, sseed, &runs)
            })?;
            Ok(((name.to_string(), s), runs))
        })
        .collect::<Vec<Result<_>>>()
        .into_iter()
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_runs(a: &TaskRuns, b: &TaskRuns) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ma, mb)| {
            ma.len() == mb.len()
                && ma.iter().zip(mb).all(|(sa, sb)| {
                    sa.0.to_bits() == sb.0.to_bits()
                        && same_bits(&sa.1, &sb.1)
                        && sa.2.len() == sb.2.len()
                        && sa.2.iter().zip(&sb.2).all(|(va, vb)| {
                            va.0.to_bits() == vb.0.to_bits() && same_bits(&va.1, &vb.1)
                        })
                })
        })
}

/// Replays the untraced run's journal and compares every traced task
/// with it, unit by unit. Returns (tasks compared, tasks that differ).
fn compare_with_journal(
    error: ErrorType,
    plan: &Plan,
    seed: u64,
    dir: &Path,
    traced: &[((String, usize), TaskRuns)],
) -> (usize, usize) {
    let (_, fingerprint) = study_fingerprint(error, plan, seed);
    let path = journal::journal_path(dir, error, &fingerprint);
    let replay = timed("core.journal_replay_s", || {
        journal::load(&path, &fingerprint)
    });
    count("core.journal_hits", replay.tasks.len() as f64);
    let differ = traced
        .iter()
        .filter(|(key, runs)| {
            replay
                .tasks
                .get(key)
                .is_none_or(|t| !same_runs(&t.runs_by_model, runs))
        })
        .count();
    (traced.len(), differ)
}

/// The rebuilt `tune_and_fit` against the original on the first split of
/// the first dataset of each error type: same winner, same validation
/// accuracy, same test predictions. Returns (cases, mismatches).
fn check_tune_and_fit(plan: &Plan, seed: u64) -> Result<(usize, usize)> {
    let mut cases = 0;
    let mut bad = 0;
    for error in ErrorType::all() {
        let id = DatasetId::all()
            .into_iter()
            .find(|id| id.spec().has_error_type(error))
            .expect("every error type has a dataset");
        let pool = id.generate_store(plan.scale.pool_size, seed ^ fnv(id.name()))?;
        let sseed = split_seed(seed, id, 0);
        let (train, test) = pipeline::sample_split(&pool, &plan.scale, sseed)?;
        let (dirty_train, dirty_test, _) = prepare(
            &train,
            &test,
            error,
            &RepairSpec::variants_for(error),
            sseed ^ 0x5EED,
        )?;
        let arm = pipeline::encode_arm(&dirty_train, &dirty_test, &group_specs(id))?;
        for &model in &plan.models {
            let mseed = model_seed(sseed, model, 0);
            let original = mlcore::tune_and_fit(
                model,
                &arm.x_train,
                &arm.y_train,
                plan.scale.cv_folds,
                mseed,
            );
            let rebuilt = tune_and_fit_rebuilt(
                model,
                &arm.x_train,
                &arm.y_train,
                plan.scale.cv_folds,
                mseed,
            );
            cases += 1;
            let same = original.best_spec == rebuilt.best_spec
                && original.val_accuracy.to_bits() == rebuilt.val_accuracy.to_bits()
                && original.model.predict(&arm.x_test) == rebuilt.model.predict(&arm.x_test)
                && same_bits(
                    &original.model.predict_proba(&arm.x_test),
                    &rebuilt.model.predict_proba(&arm.x_test),
                );
            if !same {
                bad += 1;
            }
        }
    }
    Ok((cases, bad))
}

/// RQ1's rows for one detector on one dataset's frame, rebuilt from
/// `rq1::analyze_dataset`: detect, then count and G-test every group.
fn rq1_detector_rows(
    id: DatasetId,
    frame: &DataFrame,
    detector: DetectorKind,
    seed: u64,
) -> Result<Vec<DisparityRow>> {
    let report = detect(detector, frame, seed ^ 0xD47A, &[frame])?.remove(0);
    let mut rows = Vec::new();
    for gs in group_specs(id) {
        let groups = timed("fairness.groups_s", || gs.evaluate(frame))?;
        let (pf, pu) = report.counts_within(&groups.privileged);
        let (df, du) = report.counts_within(&groups.disadvantaged);
        let g_test = timed("statskit.g_test_s", || statskit::g_test_2x2(pf, pu, df, du));
        rows.push(DisparityRow {
            dataset: id.name().to_string(),
            detector: detector.name().to_string(),
            group: gs.label(),
            intersectional: gs.is_intersectional(),
            privileged_flagged: pf,
            privileged_total: pf + pu,
            disadvantaged_flagged: df,
            disadvantaged_total: df + du,
            g_test,
        });
    }
    Ok(rows)
}

/// The rebuilt RQ1 analysis of one dataset (`rq1::analyze_dataset`).
fn traced_rq1(id: DatasetId, seed: u64) -> Result<Vec<DisparityRow>> {
    let frame = timed("datasets.generate_s", || id.generate(RQ1_ROWS, seed))?;
    count("datasets.rows", frame.n_rows() as f64);
    let mut rows = Vec::new();
    for detector in DetectorKind::all() {
        if detector == DetectorKind::MissingValues && frame.missing_cells() == 0 {
            continue;
        }
        rows.extend(rq1_detector_rows(id, &frame, detector, seed)?);
    }
    Ok(rows)
}

/// The traced run of a workload: an untraced pass through the real
/// program, then the traced rebuild of the same work, checked against it.
/// Every span is written to `spans_out` as JSON lines at the end.
pub fn traced(workload: &str, seed: u64, dir: &Path, spans_out: &Path) -> Result<Value> {
    let is_study = workload == "study";
    let plan = if is_study { study_plan() } else { data_plan() };
    let untraced_dir = dir.join("untraced");
    let traced_dir = dir.join("traced");

    let t0 = trace::now();
    let rq1_rows = if is_study {
        Vec::new()
    } else {
        rq1::analyze_datasets(&DatasetId::all(), RQ1_ROWS, seed)?
    };
    let untraced_results = run_studies(&plan, seed, Some(&untraced_dir), false)?;
    let untraced_wall = trace::now() - t0;

    trace::start();
    let t1 = trace::now();
    let mut traced_rows = Vec::new();
    if !is_study {
        for id in DatasetId::all() {
            traced_rows.extend(traced_rq1(id, seed)?);
        }
    }
    let mut per_error = Vec::new();
    for error in ErrorType::all() {
        per_error.push((error, traced_study(error, &plan, seed, &traced_dir)?));
    }
    let traced_wall = trace::now() - t1;
    let (mut compared, mut differ) = (0, 0);
    for (error, runs) in &per_error {
        let (c, d) = compare_with_journal(*error, &plan, seed, &untraced_dir, runs);
        compared += c;
        differ += d;
    }
    if is_study {
        build_tables(&untraced_results);
    }
    let (spans, counts) = trace::stop();
    trace::write_spans_file(spans_out, &spans)
        .map_err(|e| TabularError::InvalidArgument(format!("writing spans: {e}")))?;

    let (tune_cases, tune_bad) = check_tune_and_fit(&plan, seed)?;
    let mut checks = Checks::default();
    checks.check(
        differ == 0,
        format!("{differ} of {compared} traced tasks differ from the runner's journal"),
    );
    checks.check(
        tune_bad == 0,
        format!("rebuilt tune_and_fit differs in {tune_bad} of {tune_cases} cases"),
    );
    if !is_study {
        checks.check(
            rq1_text(&rq1_rows) == rq1_text(&traced_rows),
            "traced RQ1 rows differ",
        );
    }
    let threads = rayon::current_num_threads();
    let layers = trace::self_times(&spans);
    let in_study: Vec<trace::Span> = spans
        .iter()
        .filter(|s| s.end <= t1 + traced_wall)
        .cloned()
        .collect();
    let in_study_wall = trace::covered_seconds(&in_study);
    let mut metrics = serde_json::Map::new();
    for (name, lt) in &layers {
        metrics.insert((*name).to_string(), json!(lt.self_s));
        metrics.insert(crate::count_name(name), json!(lt.calls));
    }
    for (name, value) in &counts {
        metrics.insert((*name).to_string(), json!(value));
    }
    let hits = counts.get("core.journal_hits").copied().unwrap_or(0.0);
    metrics.insert(
        "core.journal_hits_frac".into(),
        json!(if compared > 0 {
            hits / compared as f64
        } else {
            0.0
        }),
    );
    metrics.insert(
        "core.pool_idle_frac".into(),
        json!(1.0 - in_study_wall / (traced_wall * threads as f64)),
    );
    metrics.insert(
        "trace.coverage_frac".into(),
        json!(in_study_wall / (traced_wall * threads as f64)),
    );
    metrics.insert("trace.wall_s".into(), json!(traced_wall));
    metrics.insert("trace.untraced_wall_s".into(), json!(untraced_wall));
    metrics.insert(
        "trace.overhead_frac".into(),
        json!(traced_wall / untraced_wall - 1.0),
    );
    Ok(json!({
        "attempted": compared as u64 + tune_cases as u64 + checks.attempted,
        "failed": differ as u64 + tune_bad as u64 + checks.failed,
        "notes": Value::from(checks.notes),
        "threads": threads,
        "layers": metrics,
        "spans": spans.len(),
        "digest": if is_study {
            hex(&export_text(&untraced_results))
        } else {
            data_digest(&rq1_rows, &untraced_results)
        },
    }))
}
