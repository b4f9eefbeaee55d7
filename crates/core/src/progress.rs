//! Progress telemetry and per-phase wall-time accounting for study runs.
//!
//! The study runner hands individual evaluation units — one (model,
//! variant-arm, seed) fit per unit — to its scoped worker threads; both
//! helpers here are lock-free so any worker can report:
//!
//! * [`ProgressTracker`] — atomic done/total + evaluation counters that
//!   emit periodic one-line progress reports (units done, evals/s, ETA)
//!   to stderr, rate-limited to one line per interval. Ticking per unit
//!   instead of per task makes the ETA meaningful again: the smoke grid
//!   has only 10 tasks but hundreds of units, so estimates move smoothly
//!   instead of jumping at task granularity;
//! * [`PhaseAccumulator`] — atomic nanosecond counters for the four
//!   phases of a task (sample / detect+repair / encode / train-eval),
//!   aggregated across tasks into a [`PhaseSeconds`] summary that the
//!   study result carries and `studybench` exports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The five phases of one (dataset, split) task, in execution order
/// (`Rectify` only runs for model-side repair studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyPhase {
    /// Pool sampling and train/test splitting.
    Sample,
    /// Error detection and repair (all variants of the split).
    Prepare,
    /// Feature encoding and group-mask evaluation of every arm.
    Encode,
    /// Model tuning, training and scoring across models and seeds.
    TrainEval,
    /// Post-training fairness rectification of tree-structured models.
    Rectify,
}

impl StudyPhase {
    /// Stable lowercase name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            StudyPhase::Sample => "sample",
            StudyPhase::Prepare => "prepare",
            StudyPhase::Encode => "encode",
            StudyPhase::TrainEval => "train_eval",
            StudyPhase::Rectify => "rectify",
        }
    }

    fn index(self) -> usize {
        match self {
            StudyPhase::Sample => 0,
            StudyPhase::Prepare => 1,
            StudyPhase::Encode => 2,
            StudyPhase::TrainEval => 3,
            StudyPhase::Rectify => 4,
        }
    }
}

/// Cumulative per-phase wall time in seconds, summed over all executed
/// tasks (tasks run in parallel, so the sum can exceed elapsed time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Pool sampling and splitting.
    pub sample: f64,
    /// Detection and repair of every variant.
    pub prepare: f64,
    /// Feature encoding and group masks.
    pub encode: f64,
    /// Model tuning, training and scoring.
    pub train_eval: f64,
    /// Post-training rectification (0 for data-side studies).
    pub rectify: f64,
}

impl PhaseSeconds {
    /// Total time across all five phases.
    pub fn total(&self) -> f64 {
        self.sample + self.prepare + self.encode + self.train_eval + self.rectify
    }

    /// Adds another summary (e.g. when aggregating several studies).
    pub fn accumulate(&mut self, other: &PhaseSeconds) {
        self.sample += other.sample;
        self.prepare += other.prepare;
        self.encode += other.encode;
        self.train_eval += other.train_eval;
        self.rectify += other.rectify;
    }
}

/// Thread-safe accumulator of per-phase nanoseconds.
#[derive(Debug, Default)]
pub struct PhaseAccumulator {
    nanos: [AtomicU64; 5],
}

impl PhaseAccumulator {
    /// Adds `elapsed` to a phase's counter.
    pub fn add(&self, phase: StudyPhase, elapsed: Duration) {
        self.nanos[phase.index()].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot of the accumulated times in seconds.
    pub fn seconds(&self) -> PhaseSeconds {
        let s = |i: usize| self.nanos[i].load(Ordering::Relaxed) as f64 / 1e9;
        PhaseSeconds { sample: s(0), prepare: s(1), encode: s(2), train_eval: s(3), rectify: s(4) }
    }
}

/// A point-in-time view of study progress.
#[derive(Debug, Clone, Copy)]
pub struct ProgressSnapshot {
    /// Evaluation units finished (executed, replayed from a journal, or
    /// skipped because their task failed).
    pub done_units: usize,
    /// Total evaluation units in the study grid.
    pub total_units: usize,
    /// Model evaluations performed so far (excludes journal replays).
    pub evals: usize,
    /// Time since the tracker was created.
    pub elapsed: Duration,
}

impl ProgressSnapshot {
    /// Model evaluations per second of elapsed wall time.
    pub fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.evals as f64 / secs
        } else {
            0.0
        }
    }

    /// Estimated time to completion from the mean unit duration so far.
    /// `None` until at least one unit has finished.
    pub fn eta(&self) -> Option<Duration> {
        if self.done_units == 0 || self.total_units == 0 {
            return None;
        }
        let remaining = self.total_units.saturating_sub(self.done_units);
        Some(self.elapsed.mul_f64(remaining as f64 / self.done_units as f64))
    }

    /// One-line human-readable rendering.
    pub fn line(&self) -> String {
        let eta = match self.eta() {
            Some(d) => format!("{:.0}s", d.as_secs_f64()),
            None => "?".to_string(),
        };
        format!(
            "{}/{} units | {} evals | {:.1} evals/s | ETA {eta}",
            self.done_units,
            self.total_units,
            self.evals,
            self.evals_per_sec()
        )
    }
}

/// Atomic progress tracker; emits rate-limited lines to stderr when
/// enabled (the final task always emits).
#[derive(Debug)]
pub struct ProgressTracker {
    enabled: bool,
    total_units: usize,
    done: AtomicUsize,
    evals: AtomicUsize,
    start: Instant,
    interval: Duration,
    last_emit_nanos: AtomicU64,
}

impl ProgressTracker {
    /// A tracker over `total_units` evaluation units. With
    /// `enabled == false` it only counts (snapshots still work) and
    /// never prints.
    pub fn new(total_units: usize, enabled: bool, interval: Duration) -> ProgressTracker {
        ProgressTracker {
            enabled,
            total_units,
            done: AtomicUsize::new(0),
            evals: AtomicUsize::new(0),
            start: Instant::now(),
            interval,
            last_emit_nanos: AtomicU64::new(0),
        }
    }

    /// Records `units` finished evaluation units and their model
    /// evaluations (`evals` is 0 for journal replays and failed tasks,
    /// whose remaining units tick in one batch), emitting a progress
    /// line when the interval has elapsed.
    pub fn advance(&self, units: usize, evals: usize) {
        if units == 0 {
            return;
        }
        let done = self.done.fetch_add(units, Ordering::Relaxed) + units;
        self.evals.fetch_add(evals, Ordering::Relaxed);
        if !self.enabled {
            return;
        }
        let now = self.start.elapsed().as_nanos() as u64;
        let last = self.last_emit_nanos.load(Ordering::Relaxed);
        let is_final = done == self.total_units;
        let due = now.saturating_sub(last) >= self.interval.as_nanos() as u64;
        if !is_final && !due {
            return;
        }
        // One thread wins the emit; losers skip (the final unit prints
        // unconditionally so the 100% line is never lost).
        let won = self
            .last_emit_nanos
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won || is_final {
            eprintln!("progress: {}", self.snapshot().line());
        }
    }

    /// Current counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            done_units: self.done.load(Ordering::Relaxed),
            total_units: self.total_units,
            evals: self.evals.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accumulator_sums_across_threads() {
        let acc = PhaseAccumulator::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    acc.add(StudyPhase::Sample, Duration::from_millis(10));
                    acc.add(StudyPhase::TrainEval, Duration::from_millis(30));
                });
            }
        });
        let s = acc.seconds();
        assert!((s.sample - 0.04).abs() < 1e-9);
        assert!((s.train_eval - 0.12).abs() < 1e-9);
        assert_eq!(s.prepare, 0.0);
        assert!((s.total() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn phase_seconds_accumulate() {
        let mut a = PhaseSeconds {
            sample: 1.0,
            prepare: 2.0,
            encode: 3.0,
            train_eval: 4.0,
            rectify: 1.0,
        };
        a.accumulate(&PhaseSeconds {
            sample: 0.5,
            prepare: 0.5,
            encode: 0.5,
            train_eval: 0.5,
            rectify: 1.0,
        });
        assert_eq!(a.total(), 14.0);
    }

    #[test]
    fn snapshot_math() {
        let s = ProgressSnapshot {
            done_units: 5,
            total_units: 20,
            evals: 100,
            elapsed: Duration::from_secs(10),
        };
        assert!((s.evals_per_sec() - 10.0).abs() < 1e-9);
        assert_eq!(s.eta().unwrap(), Duration::from_secs(30));
        let line = s.line();
        assert!(line.contains("5/20 units"), "{line}");
        assert!(line.contains("ETA 30s"), "{line}");
    }

    #[test]
    fn snapshot_edge_cases() {
        let s = ProgressSnapshot {
            done_units: 0,
            total_units: 4,
            evals: 0,
            elapsed: Duration::ZERO,
        };
        assert_eq!(s.evals_per_sec(), 0.0);
        assert!(s.eta().is_none());
        assert!(s.line().contains("ETA ?"));
    }

    #[test]
    fn first_tick_line_is_finite_with_unknown_eta() {
        // The very first tick: nothing done, (near-)zero elapsed. The
        // rendered line must contain no NaN/inf from 0/0 rate or ETA math,
        // and the ETA must read as unknown, not garbage.
        let t = ProgressTracker::new(100, false, Duration::from_secs(60));
        let s = t.snapshot();
        assert_eq!(s.done_units, 0);
        assert!(s.eta().is_none(), "ETA must be unknown before the first unit");
        assert!(s.evals_per_sec().is_finite());
        let line = s.line();
        assert!(line.contains("0/100 units"), "{line}");
        assert!(line.contains("ETA ?"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");

        // Evals recorded at exactly zero elapsed must not divide by zero.
        let s = ProgressSnapshot {
            done_units: 0,
            total_units: 100,
            evals: 7,
            elapsed: Duration::ZERO,
        };
        assert_eq!(s.evals_per_sec(), 0.0);
        assert!(s.eta().is_none());
        let line = s.line();
        assert!(line.contains("ETA ?") && !line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn tracker_counts_without_printing() {
        let t = ProgressTracker::new(30, false, Duration::from_secs(60));
        t.advance(1, 10);
        t.advance(4, 0);
        t.advance(0, 99); // a zero-unit tick is a no-op
        let s = t.snapshot();
        assert_eq!(s.done_units, 5);
        assert_eq!(s.evals, 10);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = [
            StudyPhase::Sample,
            StudyPhase::Prepare,
            StudyPhase::Encode,
            StudyPhase::TrainEval,
            StudyPhase::Rectify,
        ]
        .into_iter()
        .map(StudyPhase::name)
        .collect();
        assert_eq!(names, ["sample", "prepare", "encode", "train_eval", "rectify"]);
    }
}
