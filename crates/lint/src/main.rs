//! `demodq-lint` CLI: runs the token lints and the flow analyses over
//! the workspace in one walk, compares the whole report against the
//! committed baseline and exits nonzero on any drift.
//!
//! ```text
//! demodq-lint [--root DIR] [--baseline FILE] [--format human|json]
//!             [--write-baseline] [--no-baseline] [--codes]
//! ```
//!
//! Exit codes: `0` clean (tree matches the baseline exactly), `1` new
//! findings or stale baseline entries, `2` usage or I/O error.

use demodq_lint::output::{print_human, print_json};
use demodq_lint::{compare, lint_tree, Baseline, Code, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: PathBuf,
    baseline: Option<PathBuf>,
    format: Format,
    write_baseline: bool,
    no_baseline: bool,
    codes: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Human,
    Json,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        baseline: None,
        format: Format::Human,
        write_baseline: false,
        no_baseline: false,
        codes: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                cli.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                cli.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a file")?));
            }
            "--format" => match args.next().as_deref() {
                Some("human") => cli.format = Format::Human,
                Some("json") => cli.format = Format::Json,
                other => return Err(format!("--format must be human|json, got {other:?}")),
            },
            "--write-baseline" => cli.write_baseline = true,
            "--no-baseline" => cli.no_baseline = true,
            "--codes" => cli.codes = true,
            "--help" | "-h" => {
                return Err("usage: demodq-lint [--root DIR] [--baseline FILE] \
                            [--format human|json] [--write-baseline] [--no-baseline] [--codes]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if cli.codes {
        for code in Code::ALL {
            println!("{}  {}", code.name(), code.describe());
        }
        return ExitCode::SUCCESS;
    }

    let config = Config::demodq();
    let report = match lint_tree(&cli.root, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("demodq-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = cli.baseline.clone().unwrap_or_else(|| cli.root.join("lint-baseline.txt"));
    if cli.write_baseline {
        let baseline = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&baseline_path, baseline.render()) {
            eprintln!("demodq-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} ({} entries, {} grandfathered findings)",
            baseline_path.display(),
            baseline.counts.len(),
            baseline.counts.values().sum::<usize>()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if cli.no_baseline {
        Baseline::default()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(baseline) => baseline,
                Err(e) => {
                    eprintln!("demodq-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!(
                    "demodq-lint: cannot read baseline {} ({e}); run with --write-baseline \
                     to create it or --no-baseline to compare against empty",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        }
    };

    let verdict = compare(&report, &baseline);
    match cli.format {
        Format::Human => print_human(&report, &verdict),
        Format::Json => print_json(&report, &verdict),
    }
    if verdict.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
