//! Crash-resume integration tests for the durable study runner: a study
//! interrupted mid-run and resumed from its journal must export results
//! byte-for-byte identical to an uninterrupted run, without re-executing
//! completed tasks; damaged or stale journal records must be rejected
//! with warnings and re-run, never silently reused.

use demodq_repro::datasets::{DatasetId, ErrorType};
use demodq_repro::demodq::config::{StudyOptions, StudyScale};
use demodq_repro::demodq::export::study_results_json;
use demodq_repro::demodq::runner::run_error_type_study_with;
use demodq_repro::mlcore::ModelKind;
use demodq_repro::serde_json::{self, Map, Value};
use std::path::PathBuf;

const SEED: u64 = 7;

fn temp_journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("demodq-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(datasets: &[DatasetId], options: &StudyOptions) -> demodq_repro::demodq::StudyResults {
    run_error_type_study_with(
        ErrorType::Mislabels,
        datasets,
        &[ModelKind::LogReg],
        &StudyScale::smoke(),
        SEED,
        options,
    )
    .expect("study should complete")
}

/// The single journal file a run left in `dir`.
fn journal_file(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one journal file: {files:?}");
    files.pop().unwrap()
}

/// `(dataset, split)` keys of every `task` record in the journal.
fn task_keys(path: &PathBuf) -> Vec<(String, u64)> {
    std::fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .filter_map(|v: serde_json::Value| {
            let o = v.as_object()?;
            if o.get("kind")?.as_str()? != "task" {
                return None;
            }
            Some((o.get("dataset")?.as_str()?.to_string(), o.get("split")?.as_u64()?))
        })
        .collect()
}

/// A run interrupted mid-study and resumed from its journal exports
/// byte-identical results, and the journal shows each task was executed
/// exactly once across both runs.
#[test]
fn interrupted_then_resumed_study_is_byte_identical() {
    let datasets = [DatasetId::German, DatasetId::Adult];
    let total_tasks = datasets.len() * StudyScale::smoke().n_splits;

    // Reference: one undisturbed in-memory run.
    let clean = study_results_json(&run(&datasets, &StudyOptions::default()));

    // First run: journal on, halt after 2 executed tasks. On a single
    // worker this reliably interrupts; with many cores the remaining
    // tasks may already be in flight and the run can complete — both
    // leave a valid journal, which is all the resume needs.
    let dir = temp_journal_dir("identical");
    let first = run_error_type_study_with(
        ErrorType::Mislabels,
        &datasets,
        &[ModelKind::LogReg],
        &StudyScale::smoke(),
        SEED,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            on_task_complete: Some(|done, _| done >= 2),
            ..StudyOptions::default()
        },
    );
    if let Err(e) = &first {
        assert!(e.to_string().contains("interrupted"), "{e}");
    }
    let journaled_before = task_keys(&journal_file(&dir));
    assert!(journaled_before.len() >= 2, "at least the halt threshold is journaled");

    // Resume: replay the journal, execute only the remainder.
    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_hits, journaled_before.len(), "every journaled task replays");
    assert_eq!(resumed.journal_warnings, 0);

    // Byte-for-byte identical export (seeds derive from (study seed,
    // dataset, split), never task position, and the export excludes
    // wall-clock fields).
    assert_eq!(study_results_json(&resumed), clean);

    // Each task was journaled exactly once: completed tasks were not
    // re-executed on resume.
    let mut keys = task_keys(&journal_file(&dir));
    keys.sort();
    let n = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), n, "no task may be journaled twice");
    assert_eq!(n, total_tasks);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The same study run on 1, 2 and 8 worker threads exports byte-identical
/// JSON: every evaluation unit's RNG seed derives from its grid position
/// (study seed, dataset, split, model, model-seed index), never from the
/// schedule, and result assembly is order-preserving.
#[test]
fn exports_byte_identical_across_thread_counts() {
    let datasets = [DatasetId::German, DatasetId::Adult];
    let mut exports = [1usize, 2, 8].map(|threads| {
        study_results_json(&run(&datasets, &StudyOptions { threads, ..StudyOptions::default() }))
    });
    let reference = exports[0].clone();
    for (threads, export) in [1usize, 2, 8].iter().zip(&mut exports) {
        assert_eq!(
            *export, reference,
            "{threads}-thread export differs from the serial reference"
        );
    }
}

/// An interrupt-then-resume cycle executed entirely on 8 worker threads
/// matches the undisturbed serial run byte-for-byte: the journal records
/// a task only after every one of its units completed, so replay never
/// observes a half-evaluated task regardless of worker interleaving.
#[test]
fn resume_under_parallel_pool_matches_serial_run() {
    let datasets = [DatasetId::German, DatasetId::Adult];

    // Serial reference.
    let serial = StudyOptions { threads: 1, ..StudyOptions::default() };
    let clean = study_results_json(&run(&datasets, &serial));

    let dir = temp_journal_dir("parallel-resume");
    let first = run_error_type_study_with(
        ErrorType::Mislabels,
        &datasets,
        &[ModelKind::LogReg],
        &StudyScale::smoke(),
        SEED,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            on_task_complete: Some(|done, _| done >= 1),
            threads: 8,
            ..StudyOptions::default()
        },
    );
    if let Err(e) = &first {
        assert!(e.to_string().contains("interrupted"), "{e}");
    }
    // Whatever reached the journal must be complete tasks (exactly-once:
    // a task is recorded only after all its units finish).
    assert!(!task_keys(&journal_file(&dir)).is_empty(), "halt still journals finished tasks");

    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            threads: 8,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_warnings, 0);
    assert_eq!(study_results_json(&resumed), clean);

    let mut keys = task_keys(&journal_file(&dir));
    keys.sort();
    let n = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), n, "no task may be journaled twice");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay is keyed by (dataset, split), never by record position: a
/// journal with its task records reversed resumes to a byte-identical
/// export. Guards the runner's ordered `replayed` map (lint code D001)
/// against regressions to insertion-order-sensitive storage.
#[test]
fn reordered_journal_replays_byte_identical() {
    let datasets = [DatasetId::German, DatasetId::Adult];
    let dir = temp_journal_dir("reordered");
    let complete = run(
        &datasets,
        &StudyOptions { journal_dir: Some(dir.clone()), ..StudyOptions::default() },
    );
    let clean = study_results_json(&complete);
    let path = journal_file(&dir);
    let total_tasks = task_keys(&path).len();
    assert!(total_tasks >= 2, "need multiple tasks to reorder");

    // Reverse every task record while keeping the header (fingerprint)
    // line first.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let tasks_start = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"task\""))
        .expect("journal has task records");
    lines[tasks_start..].reverse();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_warnings, 0, "reordering is not corruption");
    assert_eq!(resumed.journal_hits, total_tasks, "every record still replays");
    assert_eq!(study_results_json(&resumed), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal whose trailing line was truncated by a hard kill mid-write
/// resumes with one warning; the damaged task is re-run and the final
/// export is unaffected.
#[test]
fn truncated_trailing_line_is_rerun_not_fatal() {
    let datasets = [DatasetId::German];
    let dir = temp_journal_dir("truncated");
    let complete = run(
        &datasets,
        &StudyOptions { journal_dir: Some(dir.clone()), ..StudyOptions::default() },
    );
    let clean = study_results_json(&complete);
    let path = journal_file(&dir);
    let total_tasks = task_keys(&path).len();

    // Chop the final record mid-line (no trailing newline), exactly what
    // `kill -9` during a write leaves behind.
    let text = std::fs::read_to_string(&path).unwrap();
    let trimmed = text.trim_end_matches('\n');
    let cut = trimmed.len() - trimmed.len() / 4;
    std::fs::write(&path, &trimmed[..cut]).unwrap();

    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_warnings, 1, "the truncated line warns once");
    assert_eq!(resumed.journal_hits, total_tasks - 1, "intact records still replay");
    assert_eq!(study_results_json(&resumed), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the german study with a journal, rewrites the journal's first
/// task record with `edit` and resumes: the damaged record warns once and
/// its task re-runs, the intact record replays, and the export equals the
/// undisturbed run's bytes.
fn damaged_first_record_is_rerun(name: &str, edit: fn(&mut Map<String, Value>)) {
    let datasets = [DatasetId::German];
    let dir = temp_journal_dir(name);
    let complete = run(
        &datasets,
        &StudyOptions { journal_dir: Some(dir.clone()), ..StudyOptions::default() },
    );
    let clean = study_results_json(&complete);
    let path = journal_file(&dir);
    let total_tasks = task_keys(&path).len();

    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let first = lines.iter().position(|l| l.contains("\"kind\":\"task\"")).expect("a task record");
    let Ok(Value::Object(mut record)) = serde_json::from_str(&lines[first]) else {
        panic!("a task record is a JSON object");
    };
    edit(&mut record);
    lines[first] = serde_json::to_string(&Value::Object(record)).unwrap();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_warnings, 1, "{name}: the damaged record warns once");
    assert_eq!(resumed.journal_hits, total_tasks - 1, "{name}: only the intact records replay");
    assert_eq!(study_results_json(&resumed), clean, "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Applies `edit` to the first run of a task record's grid: `[dirty_acc,
/// [dirty disparities...], [[repaired_acc, [repaired disparities...]],
/// ...]]`.
fn edit_first_run(record: &mut Map<String, Value>, edit: impl FnOnce(&mut Vec<Value>)) {
    let Some(Value::Array(mut models)) = record.remove("runs") else { panic!("runs is an array") };
    let Some(Value::Array(seeds)) = models.first_mut() else { panic!("a model's runs") };
    let Some(Value::Array(run)) = seeds.first_mut() else { panic!("a model seed's run") };
    edit(run);
    record.insert("runs".to_string(), Value::Array(models));
}

/// A run's dirty disparity vector.
fn dirty_disparities(run: &mut [Value]) -> &mut Vec<Value> {
    let Value::Array(disp) = &mut run[1] else { panic!("a disparity vector") };
    disp
}

/// A journal record whose recorded seed does not match the seed derived
/// from (study seed, dataset, split) — seed drift — is rejected with a
/// warning and its task re-executed; results stay byte-identical.
#[test]
fn seed_drift_record_is_rejected_and_rerun() {
    damaged_first_record_is_rerun("drift", |record| {
        record.insert("seed".to_string(), Value::from(1u64));
    });
}

/// A record whose score grid has the wrong shape, though its fingerprint
/// and seed are valid, is rejected and re-run rather than replayed: one
/// disparity too few or too many in a vector, or a run missing its
/// variant pair.
#[test]
fn mismatched_score_grid_record_is_rejected_and_rerun() {
    damaged_first_record_is_rerun("short-disparities", |record| {
        edit_first_run(record, |run| {
            dirty_disparities(run).pop();
        });
    });
    damaged_first_record_is_rerun("long-disparities", |record| {
        edit_first_run(record, |run| dirty_disparities(run).push(Value::from(0u64)));
    });
    damaged_first_record_is_rerun("missing-pair", |record| {
        edit_first_run(record, |run| run[2] = Value::Array(Vec::new()));
    });
}

/// A journal left behind by a pre-rectification (v1 study shape) binary
/// is rejected outright — its version prefix no longer matches the
/// current study shape — with an explicit "versioned study shape"
/// warning; nothing is replayed and the re-run export matches the
/// undisturbed run byte-for-byte.
#[test]
fn pre_rectification_v1_journal_is_rejected_with_versioned_shape_warning() {
    use demodq_repro::demodq::config::RepairSpec;
    use demodq_repro::demodq::journal::{load, StudyFingerprint};

    let datasets = [DatasetId::German];
    let dir = temp_journal_dir("v1-shape");
    let complete = run(
        &datasets,
        &StudyOptions { journal_dir: Some(dir.clone()), ..StudyOptions::default() },
    );
    let clean = study_results_json(&complete);
    let path = journal_file(&dir);
    assert!(!task_keys(&path).is_empty());

    // Rewrite the journal the way a v1-era binary would have left it:
    // version prefix `v1`, no side/rect components in the summary, and
    // the (now stale) v1 hash on every record.
    let options = StudyOptions::default();
    let fp = StudyFingerprint::compute(
        ErrorType::Mislabels,
        &datasets,
        &[ModelKind::LogReg],
        &StudyScale::smoke(),
        SEED,
        &RepairSpec::variants_for(ErrorType::Mislabels),
        options.repair_side,
        &options.rectify,
    );
    let mut v1_summary = fp.summary.replacen("v4|", "v1|", 1);
    if let Some(cut) = v1_summary.find("|side=") {
        v1_summary.truncate(cut);
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let rewritten = text.replace(&fp.hex, "00000000deadbeef").replace(&fp.summary, &v1_summary);
    assert_ne!(rewritten, text, "the rewrite must actually change the journal");
    std::fs::write(&path, rewritten).unwrap();

    // The loader refuses every record and says why.
    let replay = load(&path, &fp);
    assert!(replay.tasks.is_empty(), "no v1 record may replay into a current-shape study");
    assert!(
        replay.warnings.iter().any(|w| w.contains("versioned study shape")),
        "expected a versioned-shape warning, got {:?}",
        replay.warnings
    );
    let warning = replay.warnings.iter().find(|w| w.contains("versioned study shape"));
    assert!(!warning.is_some_and(|w| w.contains("  ")), "run of spaces: {warning:?}");

    // Resuming re-executes the whole study and still matches the
    // undisturbed export.
    let resumed = run(
        &datasets,
        &StudyOptions {
            journal_dir: Some(dir.clone()),
            resume: true,
            ..StudyOptions::default()
        },
    );
    assert_eq!(resumed.journal_hits, 0, "v1 records must never be replayed");
    assert!(resumed.journal_warnings >= 1, "rejection must be surfaced as warnings");
    assert_eq!(study_results_json(&resumed), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rectifying arms (`repair_side: both`) preserve the
/// schedule-independence guarantee: the same study on 1, 2 and 8 worker
/// threads exports byte-identical JSON even though the repaired
/// arms now refit and leaf-rectify the xgboost models inside each unit.
#[test]
fn rectifying_study_exports_byte_identical_across_thread_counts() {
    use demodq_repro::demodq::config::RepairSide;

    let datasets = [DatasetId::German];
    // Half the smoke sample and two CV folds: xgboost's 50-round fits
    // dominate this test's time, and neither changes the units or their
    // schedule.
    let scale = StudyScale { pool_size: 450, sample_size: 225, cv_folds: 2, ..StudyScale::smoke() };
    let run_both = |threads| {
        study_results_json(
            &run_error_type_study_with(
                ErrorType::Mislabels,
                &datasets,
                &[ModelKind::LogReg, ModelKind::Gbdt],
                &scale,
                SEED,
                &StudyOptions {
                    repair_side: RepairSide::Both,
                    threads,
                    ..StudyOptions::default()
                },
            )
            .expect("rectifying study should complete"),
        )
    };
    let mut exports = [1usize, 2, 8].map(run_both);
    assert!(exports[0].contains("\"repair_side\": \"both\""), "{}", exports[0]);
    let reference = exports[0].clone();
    for (threads, export) in [1usize, 2, 8].iter().zip(&mut exports) {
        assert_eq!(
            *export, reference,
            "{threads}-thread rectifying export differs from the serial reference"
        );
    }
}
