//! Append-only JSONL task journal for crash-safe, resumable studies.
//!
//! One line per event, written as tasks finish. Record kinds:
//!
//! * `header` — the study fingerprint plus a human-readable configuration
//!   summary, written once when a journal file is created;
//! * `task` — one completed (dataset, split) task: the task key, its
//!   derived split seed, and every score of the task's run grid. Scores
//!   are stored as IEEE-754 **bit patterns** (u64) so the round-trip is
//!   exact — including NaN disparities — and a resumed run reproduces
//!   byte-identical final results;
//! * `failed` — a task that errored (error string + seed), informational;
//!   failed tasks are re-attempted on resume.
//!
//! Every record carries the study **fingerprint** (study seed, scale,
//! error type, dataset roster, model roster, repair-variant list hashed
//! together); the loader skips — with a warning — any record whose
//! fingerprint or task key does not match the current study, so stale
//! results are never silently reused.
//!
//! Durability: each record is serialised to one newline-terminated line
//! and written with a **single `write_all` + flush** while holding the
//! writer lock, so concurrent runner workers can never interleave records
//! and a `kill -9` can leave at most one truncated trailing line — which
//! the loader tolerates (the affected task is simply re-run).

use crate::config::{RectifySpec, RepairSide, RepairSpec, StudyScale};
use crate::runner::{fnv, SeedScores};
use datasets::{DatasetId, ErrorType};
use mlcore::ModelKind;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tabular::{Result, TabularError};

/// Identity of a study configuration: everything that determines the task
/// grid and its scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyFingerprint {
    /// 16-hex-digit FNV-1a hash of [`StudyFingerprint::summary`]; stored
    /// in every journal record and embedded in the journal file name.
    pub hex: String,
    /// The canonical configuration string the hash covers.
    pub summary: String,
}

impl StudyFingerprint {
    /// Computes the fingerprint of a study configuration.
    ///
    /// The summary's leading `v4` is the **study shape version**: it is
    /// bumped whenever the semantics or the shape of a unit's scores
    /// change (v1 → v2 added the `repair_side` axis and model
    /// rectification; v2 → v3 moved training onto the vectorised kernels
    /// — `f32` histogram statistics, blocked IRLS accumulation and the
    /// division-free split scan shift scores by rounding-level amounts;
    /// v3 → v4 scores the paper's two fairness metrics only, so a unit's
    /// disparity vector holds two scores per group instead of six), so a
    /// journal written by an older binary is rejected with an explicit
    /// versioned-shape warning instead of a bare hash mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        error: ErrorType,
        datasets: &[DatasetId],
        models: &[ModelKind],
        scale: &StudyScale,
        study_seed: u64,
        variants: &[RepairSpec],
        side: RepairSide,
        rectify: &RectifySpec,
    ) -> StudyFingerprint {
        let dataset_names: Vec<&str> = datasets.iter().map(|d| d.name()).collect();
        let model_names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        let variant_names: Vec<String> = variants.iter().map(RepairSpec::name).collect();
        let summary = format!(
            "v4|error={}|seed={study_seed}|pool={}|sample={}|splits={}|mseeds={}|test={}|cv={}|datasets={}|models={}|variants={}|side={}|rect={},{},{}",
            error.name(),
            scale.pool_size,
            scale.sample_size,
            scale.n_splits,
            scale.n_model_seeds,
            scale.test_fraction,
            scale.cv_folds,
            dataset_names.join(","),
            model_names.join(","),
            variant_names.join(","),
            side.name(),
            rectify.metric.name(),
            rectify.epsilon,
            rectify.max_nodes
        );
        StudyFingerprint { hex: format!("{:016x}", fnv(&summary)), summary }
    }
}

/// The journal file path for a study: `dir/study_<error>_<fp>.jsonl`.
/// Embedding the fingerprint keeps journals of different configurations
/// apart; the per-record fingerprint check still guards against renamed
/// or stale files.
pub fn journal_path(dir: &Path, error: ErrorType, fingerprint: &StudyFingerprint) -> PathBuf {
    dir.join(format!("study_{}_{}.jsonl", error.name(), fingerprint.hex))
}

fn io_error(context: &str, e: std::io::Error) -> TabularError {
    TabularError::InvalidArgument(format!("journal {context}: {e}"))
}

/// Appends records to a journal file; safe to share across runner workers.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
    fp_hex: String,
}

impl JournalWriter {
    /// Opens (or creates) the journal at `path` in append mode, writing a
    /// `header` record when the file is new.
    pub fn open(path: &Path, fingerprint: &StudyFingerprint) -> Result<JournalWriter> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| io_error("directory", e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error("open", e))?;
        let is_new = file.metadata().map(|m| m.len() == 0).unwrap_or(false);
        let writer = JournalWriter { file: Mutex::new(file), fp_hex: fingerprint.hex.clone() };
        if is_new {
            writer.write_line(json!({
                "kind": "header",
                "fp": fingerprint.hex,
                "config": fingerprint.summary,
            }))?;
        }
        Ok(writer)
    }

    /// Serialises one record and writes it as a single newline-terminated
    /// `write_all` + flush under the lock (atomic per record).
    fn write_line(&self, record: Value) -> Result<()> {
        let mut line = serde_json::to_string(&record)
            .map_err(|e| TabularError::InvalidArgument(format!("journal serialise: {e}")))?;
        line.push('\n');
        let mut file = self
            .file
            .lock()
            .map_err(|_| TabularError::InvalidArgument("journal lock poisoned".to_string()))?;
        file.write_all(line.as_bytes()).map_err(|e| io_error("write", e))?;
        file.flush().map_err(|e| io_error("flush", e))
    }

    /// Records one completed task with its full run grid.
    pub fn record_task(
        &self,
        dataset: &str,
        split: usize,
        seed: u64,
        runs_by_model: &[Vec<SeedScores>],
    ) -> Result<()> {
        self.write_line(json!({
            "kind": "task",
            "fp": self.fp_hex,
            "dataset": dataset,
            "split": split,
            "seed": seed,
            "runs": encode_runs(runs_by_model),
        }))
    }

    /// Records one failed task (error string + seed).
    pub fn record_failure(&self, dataset: &str, split: usize, seed: u64, error: &str) -> Result<()> {
        self.write_line(json!({
            "kind": "failed",
            "fp": self.fp_hex,
            "dataset": dataset,
            "split": split,
            "seed": seed,
            "error": error,
        }))
    }
}

/// Exact (bit-pattern) encoding of one score.
fn score_value(x: f64) -> Value {
    Value::from(x.to_bits())
}

/// Encodes a task's run grid: per model → per model seed →
/// `[dirty_acc, [dirty_disp...], [[rep_acc, [rep_disp...]], ...]]`,
/// every f64 as its u64 bit pattern.
fn encode_runs(runs_by_model: &[Vec<SeedScores>]) -> Value {
    Value::Array(
        runs_by_model
            .iter()
            .map(|per_seed| {
                Value::Array(
                    per_seed
                        .iter()
                        .map(|(dirty_acc, dirty_disp, per_variant)| {
                            Value::Array(vec![
                                score_value(*dirty_acc),
                                Value::Array(dirty_disp.iter().copied().map(score_value).collect()),
                                Value::Array(
                                    per_variant
                                        .iter()
                                        .map(|(rep_acc, rep_disp)| {
                                            Value::Array(vec![
                                                score_value(*rep_acc),
                                                Value::Array(
                                                    rep_disp
                                                        .iter()
                                                        .copied()
                                                        .map(score_value)
                                                        .collect(),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn decode_score(v: &Value) -> std::result::Result<f64, String> {
    v.as_u64()
        .map(f64::from_bits)
        .ok_or_else(|| "score is not a u64 bit pattern".to_string())
}

fn decode_scores(v: &Value) -> std::result::Result<Vec<f64>, String> {
    v.as_array()
        .ok_or_else(|| "expected a score array".to_string())?
        .iter()
        .map(decode_score)
        .collect()
}

fn decode_runs(v: &Value) -> std::result::Result<Vec<Vec<SeedScores>>, String> {
    let models = v.as_array().ok_or_else(|| "runs is not an array".to_string())?;
    let mut out = Vec::with_capacity(models.len());
    for per_seed in models {
        let seeds = per_seed.as_array().ok_or_else(|| "model runs is not an array".to_string())?;
        let mut decoded_seeds = Vec::with_capacity(seeds.len());
        for run in seeds {
            let parts = run.as_array().ok_or_else(|| "run is not an array".to_string())?;
            if parts.len() != 3 {
                return Err(format!("run has {} parts, expected 3", parts.len()));
            }
            let dirty_acc = decode_score(&parts[0])?;
            let dirty_disp = decode_scores(&parts[1])?;
            let variants = parts[2]
                .as_array()
                .ok_or_else(|| "variant scores is not an array".to_string())?;
            let mut per_variant = Vec::with_capacity(variants.len());
            for pair in variants {
                let pair = pair.as_array().ok_or_else(|| "variant pair is not an array".to_string())?;
                if pair.len() != 2 {
                    return Err(format!("variant pair has {} parts, expected 2", pair.len()));
                }
                per_variant.push((decode_score(&pair[0])?, decode_scores(&pair[1])?));
            }
            decoded_seeds.push((dirty_acc, dirty_disp, per_variant));
        }
        out.push(decoded_seeds);
    }
    Ok(out)
}

/// One replayed `task` record.
#[derive(Debug)]
pub struct ReplayTask {
    /// The split seed recorded at execution time (the runner re-derives
    /// the seed and refuses the record on mismatch — seed-drift guard).
    pub seed: u64,
    /// The task's full run grid.
    pub runs_by_model: Vec<Vec<SeedScores>>,
}

/// Everything salvaged from a journal file.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Valid `task` records keyed by `(dataset name, split)`; a later
    /// record for the same key overrides an earlier one.
    pub tasks: BTreeMap<(String, usize), ReplayTask>,
    /// `failed` records (informational; failed tasks are re-attempted).
    pub failures: Vec<(String, usize, String)>,
    /// Lines or records that could not be used, with the reason.
    pub warnings: Vec<String>,
}

impl JournalReplay {
    fn ingest(&mut self, value: Value, fingerprint: &StudyFingerprint) -> std::result::Result<(), String> {
        let record = value.as_object().ok_or("record is not an object")?;
        let kind = record.get("kind").and_then(Value::as_str).ok_or("record has no kind")?;
        let fp = record.get("fp").and_then(Value::as_str).ok_or("record has no fingerprint")?;
        if fp != fingerprint.hex {
            // A header whose summary carries a different version prefix
            // was written by a binary with a different study shape (e.g.
            // a pre-rectification v1 journal): say so explicitly — the
            // whole file is unusable, not merely one stale record.
            if kind == "header" {
                if let Some(config) = record.get("config").and_then(Value::as_str) {
                    let old_version = config.split('|').next().unwrap_or("");
                    let new_version = fingerprint.summary.split('|').next().unwrap_or("");
                    if old_version != new_version {
                        return Err(format!(
                            "journal uses the {old_version} study shape but this binary \
                             writes the versioned study shape {new_version}; \
                             its records are rejected and the study re-runs"
                        ));
                    }
                }
            }
            return Err(format!(
                "fingerprint mismatch ({fp} vs expected {}); stale record skipped",
                fingerprint.hex
            ));
        }
        match kind {
            "header" => Ok(()),
            "task" => {
                let dataset = record
                    .get("dataset")
                    .and_then(Value::as_str)
                    .ok_or("task record has no dataset")?;
                let split = record
                    .get("split")
                    .and_then(Value::as_u64)
                    .ok_or("task record has no split")? as usize;
                let seed =
                    record.get("seed").and_then(Value::as_u64).ok_or("task record has no seed")?;
                let runs = decode_runs(record.get("runs").ok_or("task record has no runs")?)?;
                self.tasks
                    .insert((dataset.to_string(), split), ReplayTask { seed, runs_by_model: runs });
                Ok(())
            }
            "failed" => {
                let dataset = record
                    .get("dataset")
                    .and_then(Value::as_str)
                    .ok_or("failed record has no dataset")?;
                let split = record
                    .get("split")
                    .and_then(Value::as_u64)
                    .ok_or("failed record has no split")? as usize;
                let error = record
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error");
                self.failures.push((dataset.to_string(), split, error.to_string()));
                Ok(())
            }
            other => Err(format!("unknown record kind '{other}'")),
        }
    }
}

/// Loads a journal file, tolerating a missing file (fresh start) and a
/// truncated trailing line (hard kill mid-write). Records that fail the
/// fingerprint or structural checks are skipped with a warning rather
/// than silently reused.
pub fn load(path: &Path, fingerprint: &StudyFingerprint) -> JournalReplay {
    let mut replay = JournalReplay::default();
    let Ok(text) = std::fs::read_to_string(path) else {
        return replay;
    };
    let complete_tail = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 1;
        let value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                let is_tail = i + 1 == lines.len() && !complete_tail;
                if is_tail {
                    replay.warnings.push(format!(
                        "truncated trailing line {line_no} ignored (hard kill mid-write?): {e}"
                    ));
                } else {
                    replay.warnings.push(format!("unparseable line {line_no}: {e}"));
                }
                continue;
            }
        };
        if let Err(reason) = replay.ingest(value, fingerprint) {
            replay.warnings.push(format!("line {line_no}: {reason}"));
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_fp(seed: u64, datasets: &[DatasetId], side: RepairSide) -> StudyFingerprint {
        StudyFingerprint::compute(
            ErrorType::Mislabels,
            datasets,
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            seed,
            &RepairSpec::variants_for(ErrorType::Mislabels),
            side,
            &RectifySpec::default(),
        )
    }

    fn fingerprint() -> StudyFingerprint {
        compute_fp(7, &[DatasetId::German], RepairSide::Data)
    }

    fn sample_runs() -> Vec<Vec<SeedScores>> {
        vec![vec![
            (0.75, vec![0.1, f64::NAN], vec![(0.8, vec![0.2, 0.3])]),
            (0.5, vec![f64::INFINITY], vec![(0.25, vec![-0.0])]),
        ]]
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("demodq-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let base = fingerprint();
        let other_seed = compute_fp(8, &[DatasetId::German], RepairSide::Data);
        assert_ne!(base.hex, other_seed.hex);
        let other_roster = compute_fp(7, &[DatasetId::German, DatasetId::Adult], RepairSide::Data);
        assert_ne!(base.hex, other_roster.hex);
        let other_side = compute_fp(7, &[DatasetId::German], RepairSide::Both);
        assert_ne!(base.hex, other_side.hex, "repair side must be part of the identity");
        assert_eq!(base.hex.len(), 16);
        assert!(base.summary.starts_with("v4|"));
        assert!(base.summary.contains("error=mislabels"));
        assert!(base.summary.contains("datasets=german"));
        assert!(base.summary.contains("|side=data|"));
        assert!(base.summary.contains("|rect=EO,0.05,20000"));
    }

    #[test]
    fn roundtrip_is_bit_exact_including_nan() {
        let runs = sample_runs();
        let encoded = encode_runs(&runs);
        let text = serde_json::to_string(&encoded).unwrap();
        let decoded = decode_runs(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded.len(), 1);
        let (acc, disp, per_variant) = &decoded[0][0];
        assert_eq!(acc.to_bits(), 0.75f64.to_bits());
        assert_eq!(disp[0].to_bits(), 0.1f64.to_bits());
        assert!(disp[1].is_nan());
        assert_eq!(disp[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(per_variant[0].0.to_bits(), 0.8f64.to_bits());
        let (_, disp2, per_variant2) = &decoded[0][1];
        assert_eq!(disp2[0], f64::INFINITY);
        assert_eq!(per_variant2[0].1[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn write_load_roundtrip_and_dedup() {
        let path = temp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint();
        let writer = JournalWriter::open(&path, &fp).unwrap();
        writer.record_task("german", 0, 11, &sample_runs()).unwrap();
        writer.record_failure("german", 1, 12, "boom").unwrap();
        // A later record for the same key wins.
        writer.record_task("german", 0, 13, &sample_runs()).unwrap();
        let replay = load(&path, &fp);
        assert!(replay.warnings.is_empty(), "{:?}", replay.warnings);
        assert_eq!(replay.tasks.len(), 1);
        assert_eq!(replay.tasks[&("german".to_string(), 0)].seed, 13);
        assert_eq!(replay.failures, vec![("german".to_string(), 1, "boom".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let path = temp_path("truncated.jsonl");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint();
        let writer = JournalWriter::open(&path, &fp).unwrap();
        writer.record_task("german", 0, 11, &sample_runs()).unwrap();
        drop(writer);
        // Simulate a kill mid-write: an incomplete record with no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"kind\":\"task\",\"fp\":\"").unwrap();
        drop(file);
        let replay = load(&path, &fp);
        assert_eq!(replay.tasks.len(), 1, "the complete record must survive");
        assert_eq!(replay.warnings.len(), 1);
        assert!(replay.warnings[0].contains("truncated trailing line"), "{:?}", replay.warnings);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_skipped_with_warning() {
        let path = temp_path("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint();
        let writer = JournalWriter::open(&path, &fp).unwrap();
        writer.record_task("german", 0, 11, &sample_runs()).unwrap();
        drop(writer);
        let other = compute_fp(8, &[DatasetId::German], RepairSide::Data); // different study seed
        let replay = load(&path, &other);
        assert!(replay.tasks.is_empty(), "stale records must not be reused");
        // Header + task both mismatch.
        assert_eq!(replay.warnings.len(), 2, "{:?}", replay.warnings);
        assert!(replay.warnings.iter().all(|w| w.contains("fingerprint mismatch")));
        let _ = std::fs::remove_file(&path);
    }

    /// A journal written by a binary with an older study shape (the
    /// pre-rectification `v1` summary) is rejected with an explicit
    /// versioned-shape warning, never replayed.
    #[test]
    fn older_study_shape_journal_is_rejected_with_versioned_warning() {
        let path = temp_path("v1-shape.jsonl");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint();
        // Hand-write a v1-era journal: same configuration, but the old
        // summary format (no side/rect components) and its old hash.
        let v1_summary = "v1|error=mislabels|seed=7|pool=900|sample=450|splits=2|mseeds=2|test=0.25|cv=3|datasets=german|models=log-reg|variants=flip_labels";
        let v1_hex = format!("{:016x}", fnv(v1_summary));
        let header = serde_json::json!({
            "kind": "header",
            "fp": v1_hex,
            "config": v1_summary,
        });
        let task = serde_json::json!({
            "kind": "task",
            "fp": v1_hex,
            "dataset": "german",
            "split": 0,
            "seed": 11,
            "runs": encode_runs(&sample_runs()),
        });
        std::fs::write(&path, format!("{header}
{task}
")).unwrap();
        let replay = load(&path, &fp);
        assert!(replay.tasks.is_empty(), "v1 records must never replay into a v2 study");
        assert!(
            replay.warnings.iter().any(|w| w.contains("versioned study shape")),
            "{:?}",
            replay.warnings
        );
        let warning = replay.warnings.iter().find(|w| w.contains("versioned study shape"));
        assert!(!warning.is_some_and(|w| w.contains("  ")), "run of spaces: {warning:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let replay = load(Path::new("/nonexistent/journal.jsonl"), &fingerprint());
        assert!(replay.tasks.is_empty());
        assert!(replay.warnings.is_empty());
    }

    #[test]
    fn journal_path_embeds_error_and_fingerprint() {
        let fp = fingerprint();
        let path = journal_path(Path::new("results/journal"), ErrorType::Mislabels, &fp);
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert_eq!(name, format!("study_mislabels_{}.jsonl", fp.hex));
    }
}
