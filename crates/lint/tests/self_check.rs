//! Self-check: lint the real workspace (token lints and flow analyses)
//! and require an exact match with the committed baseline — no new
//! findings *and* no stale entries, so the baseline can only ever shrink.

use demodq_lint::{compare, lint_tree, Baseline, Config};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn workspace_matches_committed_baseline_exactly() {
    let root = workspace_root();
    let report = lint_tree(root, &Config::demodq()).expect("lint workspace");
    assert!(report.files_scanned > 100, "scanned only {} files", report.files_scanned);

    let baseline_path = root.join("lint-baseline.txt");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", baseline_path.display()));
    let baseline = Baseline::parse(&text).expect("valid baseline");
    let verdict = compare(&report, &baseline);
    assert!(
        verdict.new.is_empty(),
        "new lint findings not in baseline (fix them or suppress with a reason): {:?}",
        verdict.new
    );
    assert!(
        verdict.stale.is_empty(),
        "stale baseline entries (regenerate with --write-baseline to lock in fixes): {:?}",
        verdict.stale
    );
}

#[test]
fn every_suppression_in_the_tree_carries_a_reason() {
    let root = workspace_root();
    let report = lint_tree(root, &Config::demodq()).expect("lint workspace");
    for finding in report.findings.iter().filter(|f| f.suppressed) {
        let reason = finding.reason.as_deref().unwrap_or("");
        assert!(
            !reason.trim().is_empty(),
            "{}:{} suppressed without a reason",
            finding.file,
            finding.line
        );
    }
}
