//! # demodq-bench — the table/figure regeneration harness
//!
//! One binary per paper artifact (see DESIGN.md §3 for the full index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I (dataset inventory) |
//! | `fig1` | Figure 1 (single-attribute detection disparities); `-- --drilldown` adds the §III FP/FN drill-down |
//! | `fig2` | Figure 2 (intersectional detection disparities) |
//! | `tables_missing` | Tables II–V (missing-value cleaning impact) |
//! | `tables_outliers` | Tables VI–IX (outlier cleaning impact) |
//! | `tables_mislabels` | Tables X–XIII (label cleaning impact) |
//! | `table14` | Table XIV (per-model impact) + §VI deep dive |
//! | `run_study` | the full study end-to-end, exporting CleanML-style JSON |
//!
//! All binaries accept `--scale {smoke|default|full}` (default: `default`)
//! and `--seed N` (default: 42). Use `--release` builds for anything above
//! smoke scale. The paper's measured values are printed next to ours by
//! each binary so the shape comparison is immediate; EXPERIMENTS.md records
//! a full run.

use demodq::config::{StudyOptions, StudyScale};

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Study scale preset.
    pub scale: StudyScale,
    /// Study master seed.
    pub seed: u64,
    /// Extra flag (binary-specific, e.g. `--drilldown`).
    pub extra: bool,
    /// Task-journal directory (`--journal DIR`); `None` disables
    /// journaling.
    pub journal: Option<String>,
    /// Resume from the journal instead of re-running completed tasks.
    pub resume: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: StudyScale::default_scale(),
            seed: 42,
            extra: false,
            journal: None,
            resume: false,
        }
    }
}

impl CliOptions {
    /// The durable-execution options these CLI flags select (progress
    /// lines on; the binaries are interactive tools).
    pub fn study_options(&self) -> StudyOptions {
        StudyOptions {
            journal_dir: self.journal.clone().map(std::path::PathBuf::from),
            resume: self.resume,
            progress: true,
            ..StudyOptions::default()
        }
    }
}

/// Parses `--scale`, `--seed`, `--journal DIR`, `--resume` and one
/// optional extra flag from raw args.
///
/// Unknown arguments abort with a usage message (better than silently
/// running hours at the wrong scale).
pub fn parse_args<I: Iterator<Item = String>>(args: I, extra_flag: &str) -> CliOptions {
    let mut opts = CliOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                opts.scale = StudyScale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (expected smoke|default|full)");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                let value = args.next().unwrap_or_default();
                opts.seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed '{value}'");
                    std::process::exit(2);
                });
            }
            "--journal" => {
                let value = args.next().unwrap_or_default();
                if value.is_empty() {
                    eprintln!("--journal needs a directory");
                    std::process::exit(2);
                }
                opts.journal = Some(value);
            }
            "--resume" => opts.resume = true,
            flag if flag == extra_flag && !extra_flag.is_empty() => {
                opts.extra = true;
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: --scale smoke|default|full --seed N \
                     [--journal DIR] [--resume] {extra_flag}"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.resume && opts.journal.is_none() {
        eprintln!("--resume needs --journal DIR (there is no journal to resume from)");
        std::process::exit(2);
    }
    opts
}

/// RQ1 pool size per scale (the disparity analysis needs more rows than a
/// single training run for stable G² statistics).
pub fn rq1_pool_size(scale: &StudyScale) -> usize {
    (scale.pool_size * 2).max(4_000)
}

/// Paper reference values for the 3×3 tables, as `(table, fairness ×
/// accuracy percentages)` with axes ordered worse/insignificant/better.
/// Used by the binaries to print the paper's numbers next to measured
/// ones.
pub fn paper_table_reference(table: &str) -> Option<[[f64; 3]; 3]> {
    match table {
        // Tables II..XIII of the paper.
        "II" => Some([[3.7, 1.9, 16.7], [5.6, 34.3, 7.4], [3.7, 7.4, 19.4]]),
        "III" => Some([[1.9, 15.7, 19.4], [9.3, 25.9, 13.0], [1.9, 1.9, 11.1]]),
        "IV" => Some([[0.0, 0.0, 5.6], [3.7, 27.8, 11.1], [3.7, 14.8, 33.3]]),
        "V" => Some([[0.0, 11.1, 11.1], [7.4, 20.4, 22.2], [0.0, 11.1, 16.7]]),
        "VI" => Some([[21.2, 1.1, 1.6], [21.2, 25.9, 14.3], [5.3, 3.2, 6.3]]),
        "VII" => Some([[28.0, 5.8, 14.8], [15.9, 24.3, 7.4], [3.7, 0.0, 0.0]]),
        "VIII" => Some([[14.8, 0.9, 0.9], [28.7, 25.0, 8.3], [4.6, 2.8, 13.9]]),
        "IX" => Some([[15.7, 0.9, 16.7], [32.4, 26.9, 6.5], [0.0, 0.9, 0.0]]),
        "X" => Some([[14.3, 14.3, 19.0], [9.5, 0.0, 9.5], [0.0, 0.0, 33.3]]),
        "XI" => Some([[0.0, 4.8, 0.0], [0.0, 0.0, 14.3], [23.8, 9.5, 47.6]]),
        "XII" => Some([[25.0, 8.3, 33.3], [0.0, 0.0, 0.0], [0.0, 0.0, 33.3]]),
        "XIII" => Some([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [25.0, 8.3, 66.7]]),
        _ => None,
    }
}

/// Renders the paper's reference matrix in the same layout as
/// [`demodq::report::render_impact_table`] for side-by-side comparison.
pub fn render_paper_reference(table: &str) -> String {
    let Some(reference) = paper_table_reference(table) else {
        return String::new();
    };
    let mut out = format!("Paper Table {table} (reference percentages):\n");
    let labels = ["worse", "insignificant", "better"];
    out.push_str(&format!(
        "{:>14} | {:^10} {:^13} {:^10}\n",
        "fairness\\acc", labels[0], labels[1], labels[2]
    ));
    for (f, row) in reference.iter().enumerate() {
        out.push_str(&format!(
            "{:>14} | {:>9.1}% {:>12.1}% {:>9.1}%\n",
            labels[f], row[0], row[1], row[2]
        ));
    }
    out
}

/// Runs the studies for all three error types over all five datasets and
/// all three models — the shared workhorse of the deep-dive binaries.
pub fn run_all_studies(
    scale: &StudyScale,
    seed: u64,
) -> tabular::Result<Vec<demodq::runner::StudyResults>> {
    run_all_studies_with(scale, seed, &StudyOptions::default())
}

/// [`run_all_studies`] with durable-execution options (journal, resume,
/// progress telemetry, failure threshold).
pub fn run_all_studies_with(
    scale: &StudyScale,
    seed: u64,
    options: &StudyOptions,
) -> tabular::Result<Vec<demodq::runner::StudyResults>> {
    use datasets::{DatasetId, ErrorType};
    use mlcore::ModelKind;
    let mut out = Vec::new();
    for error in ErrorType::all() {
        eprintln!("running {error} study...");
        out.push(demodq::runner::run_error_type_study_with(
            error,
            &DatasetId::all(),
            &ModelKind::all(),
            scale,
            seed,
            options,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &'static [&'static str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| s.to_string())
    }

    #[test]
    fn parses_scale_and_seed() {
        let opts = parse_args(args(&["--scale", "smoke", "--seed", "7"]), "");
        assert_eq!(opts.scale, StudyScale::smoke());
        assert_eq!(opts.seed, 7);
        assert!(!opts.extra);
    }

    #[test]
    fn parses_extra_flag() {
        let opts = parse_args(args(&["--drilldown"]), "--drilldown");
        assert!(opts.extra);
    }

    #[test]
    fn parses_journal_and_resume() {
        let opts =
            parse_args(args(&["--journal", "results/journal", "--resume"]), "");
        assert_eq!(opts.journal.as_deref(), Some("results/journal"));
        assert!(opts.resume);
        let study = opts.study_options();
        assert_eq!(
            study.journal_dir.as_deref(),
            Some(std::path::Path::new("results/journal"))
        );
        assert!(study.resume);
        assert!(study.progress);
    }

    #[test]
    fn default_options() {
        let opts = parse_args(args(&[]), "");
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn paper_references_cover_all_impact_tables() {
        for table in ["II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII", "XIII"]
        {
            let reference = paper_table_reference(table).unwrap();
            let sum: f64 = reference.iter().flatten().sum();
            assert!((sum - 100.0).abs() < 1.0, "table {table} sums to {sum}");
            let rendered = render_paper_reference(table);
            assert!(rendered.contains(&format!("Table {table}")));
        }
        assert!(paper_table_reference("I").is_none());
        assert_eq!(render_paper_reference("nope"), "");
    }

    #[test]
    fn rq1_pool_size_scales() {
        assert!(rq1_pool_size(&StudyScale::smoke()) >= 4_000);
        assert!(rq1_pool_size(&StudyScale::full()) >= StudyScale::full().pool_size);
    }
}
