//! Integration tests for the flow analyses: each analysis code has a
//! seeded-violation case that fails without the analysis and passes
//! with it, plus allowlist/suppression behavior and the committed
//! fixture tree (the same tree `ci.sh` drives through the binary).

use demodq_lint::analyze::analyze_sources;
use demodq_lint::{compare, lint_tree, Baseline, Code, Config, Finding};
use std::path::Path;

/// The five flow-analysis codes.
const FLOW: [Code; 5] = [Code::T001, Code::L001, Code::E001, Code::K001, Code::U001];

fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    analyze_sources(&sources, &Config::demodq())
}

fn active_of(findings: &[Finding], code: Code) -> Vec<&Finding> {
    findings.iter().filter(|f| f.code == code && !f.suppressed).collect()
}

// -- T001 -------------------------------------------------------------------

#[test]
fn t001_catches_taint_three_calls_away() {
    let findings = analyze(&[
        (
            "crates/core/src/export.rs",
            "pub fn export_rows() { shape::helper_a(); }",
        ),
        ("crates/core/src/shape.rs", "pub fn helper_a() { timeutil::helper_b(); }"),
        (
            "crates/core/src/timeutil.rs",
            "pub fn helper_b() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }",
        ),
    ]);
    let t001 = active_of(&findings, Code::T001);
    assert_eq!(t001.len(), 1, "{findings:?}");
    assert_eq!(t001[0].file, "crates/core/src/export.rs");
    assert!(t001[0].message.contains("export_rows -> helper_a -> helper_b"), "{}", t001[0].message);
    assert!(t001[0].message.contains("Instant::now()"), "{}", t001[0].message);
}

#[test]
fn t001_is_silent_without_a_sink_path() {
    // The same taint chain rooted outside the determinism-critical
    // files is not reported (D002 still covers the source lexically).
    let findings = analyze(&[
        ("crates/core/src/misc.rs", "pub fn caller() { timeutil::helper_b(); }"),
        (
            "crates/core/src/timeutil.rs",
            "pub fn helper_b() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }",
        ),
    ]);
    assert!(active_of(&findings, Code::T001).is_empty(), "{findings:?}");
}

#[test]
fn t001_stops_at_the_telemetry_allowlist() {
    // progress.rs is allowlisted: it may read the clock, and callers
    // must not inherit taint from it.
    let findings = analyze(&[
        ("crates/core/src/runner.rs", "pub fn run_study() { progress::tick(); }"),
        (
            "crates/core/src/progress.rs",
            "pub fn tick() { let _ = std::time::Instant::now(); }",
        ),
    ]);
    assert!(active_of(&findings, Code::T001).is_empty(), "{findings:?}");
}

#[test]
fn t001_honors_reasoned_lexical_allows_and_own_suppressions() {
    // A source the D002 lint excused with a reason does not seed taint.
    let excused = analyze(&[(
        "crates/core/src/journal.rs",
        "pub fn stamp() -> u64 {\n\
         // lint:allow(D002, telemetry-only timing; never feeds exports)\n\
         std::time::Instant::now().elapsed().as_nanos() as u64\n\
         }",
    )]);
    assert!(active_of(&excused, Code::T001).is_empty(), "{excused:?}");

    // A T001 suppression on the reported line works like any other.
    let suppressed = analyze(&[
        (
            "crates/core/src/export.rs",
            "pub fn export_rows() {\n\
             // lint:allow(T001, fixture: chain adjudicated in this test)\n\
             shape::helper_a();\n\
             }",
        ),
        (
            "crates/core/src/shape.rs",
            "pub fn helper_a() { let _ = std::time::Instant::now(); }",
        ),
    ]);
    let t001: Vec<_> = suppressed.iter().filter(|f| f.code == Code::T001).collect();
    assert_eq!(t001.len(), 1, "{suppressed:?}");
    assert!(t001[0].suppressed, "{suppressed:?}");
}

// -- L001 -------------------------------------------------------------------

const LOCK_STRUCT: &str = "pub struct S { a: std::sync::Mutex<u64>, b: std::sync::Mutex<u64> }\n";

#[test]
fn l001_detects_ab_ba_cycle() {
    let findings = analyze(&[(
        "crates/serve/src/registry.rs",
        &format!(
            "{LOCK_STRUCT}\
             impl S {{\n\
                 pub fn ab(&self) {{ let x = self.a.lock(); let y = self.b.lock(); drop((x, y)); }}\n\
                 pub fn ba(&self) {{ let y = self.b.lock(); let x = self.a.lock(); drop((y, x)); }}\n\
             }}"
        ),
    )]);
    assert!(!active_of(&findings, Code::L001).is_empty(), "{findings:?}");
}

#[test]
fn l001_consistent_order_is_clean() {
    let findings = analyze(&[(
        "crates/serve/src/registry.rs",
        &format!(
            "{LOCK_STRUCT}\
             impl S {{\n\
                 pub fn ab(&self) {{ let x = self.a.lock(); let y = self.b.lock(); drop((x, y)); }}\n\
                 pub fn ab2(&self) {{ let x = self.a.lock(); let y = self.b.lock(); drop((x, y)); }}\n\
             }}"
        ),
    )]);
    assert!(active_of(&findings, Code::L001).is_empty(), "{findings:?}");
}

#[test]
fn l001_sees_the_cycle_through_one_call_level() {
    let findings = analyze(&[(
        "crates/serve/src/registry.rs",
        &format!(
            "{LOCK_STRUCT}\
             impl S {{\n\
                 pub fn ab(&self) {{ let x = self.a.lock(); self.take_b(); drop(x); }}\n\
                 pub fn take_b(&self) {{ let _ = self.b.lock(); }}\n\
                 pub fn ba(&self) {{ let y = self.b.lock(); self.take_a(); drop(y); }}\n\
                 pub fn take_a(&self) {{ let _ = self.a.lock(); }}\n\
             }}"
        ),
    )]);
    assert!(!active_of(&findings, Code::L001).is_empty(), "{findings:?}");
}

#[test]
fn l001_sibling_callees_do_not_fabricate_an_order() {
    // take_a and take_b are called back-to-back; neither holds the
    // other's lock, so no A->B or B->A edge may appear even when
    // another fn orders them the other way.
    let findings = analyze(&[(
        "crates/serve/src/registry.rs",
        &format!(
            "{LOCK_STRUCT}\
             impl S {{\n\
                 pub fn seq(&self) {{ self.take_a(); self.take_b(); }}\n\
                 pub fn take_b(&self) {{ let _ = self.b.lock(); }}\n\
                 pub fn take_a(&self) {{ let _ = self.a.lock(); }}\n\
                 pub fn ba(&self) {{ let y = self.b.lock(); let x = self.a.lock(); drop((y, x)); }}\n\
             }}"
        ),
    )]);
    assert!(active_of(&findings, Code::L001).is_empty(), "{findings:?}");
}

// -- E001 -------------------------------------------------------------------

#[test]
fn e001_catches_sleep_two_calls_deep() {
    let findings = analyze(&[
        ("crates/serve/src/event.rs", "pub fn handle_readable() { util::retry(); }"),
        (
            "crates/serve/src/util.rs",
            "pub fn retry() { nap(); }\n\
             fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }",
        ),
    ]);
    let e001 = active_of(&findings, Code::E001);
    assert_eq!(e001.len(), 1, "{findings:?}");
    assert_eq!(e001[0].file, "crates/serve/src/util.rs");
    assert!(e001[0].message.contains("handle_readable -> retry -> nap"), "{}", e001[0].message);
}

#[test]
fn e001_catches_lock_held_across_predict_batch() {
    let findings = analyze(&[(
        "crates/serve/src/event.rs",
        "pub struct L { registry: std::sync::Mutex<u64> }\n\
         impl L {\n\
             pub fn flush(&self) {\n\
                 let g = self.registry.lock();\n\
                 let _ = predict_batch(&[1.0]);\n\
                 drop(g);\n\
             }\n\
         }\n\
         pub fn predict_batch(rows: &[f64]) -> usize { rows.len() }",
    )]);
    let e001 = active_of(&findings, Code::E001);
    assert_eq!(e001.len(), 1, "{findings:?}");
    assert!(e001[0].message.contains("predict_batch"), "{}", e001[0].message);
}

#[test]
fn e001_ignores_unreachable_code() {
    let findings = analyze(&[
        ("crates/serve/src/event.rs", "pub fn run() {}"),
        // Blocking code nobody reaches from event.rs is not flagged.
        (
            "crates/serve/src/warmup.rs",
            "pub fn warm() { std::thread::sleep(std::time::Duration::from_millis(1)); }",
        ),
    ]);
    assert!(active_of(&findings, Code::E001).is_empty(), "{findings:?}");
}

// -- K001 -------------------------------------------------------------------

#[test]
fn k001_flags_every_allocation_shape_in_kernels_only() {
    let kernel_src = "pub fn score(xs: &[f64]) -> Vec<f64> {\n\
                      let mut out = Vec::new();\n\
                      out.push(1.0);\n\
                      let s = format!(\"n={}\", xs.len());\n\
                      let c = xs.to_vec();\n\
                      let v = vec![0.0; 4];\n\
                      drop((s, c, v));\n\
                      out\n\
                      }";
    let findings = analyze(&[
        ("crates/mlcore/src/kernels.rs", kernel_src),
        // Identical code outside the kernel files is not K001's business.
        ("crates/mlcore/src/train.rs", kernel_src),
    ]);
    let k001 = active_of(&findings, Code::K001);
    assert_eq!(k001.len(), 5, "{findings:?}");
    assert!(k001.iter().all(|f| f.file == "crates/mlcore/src/kernels.rs"));
}

#[test]
fn k001_suppression_with_reason_is_honored() {
    let findings = analyze(&[(
        "crates/mlcore/src/kernels.rs",
        "pub fn score() -> Vec<f64> {\n\
         // lint:allow(K001, reference kernel kept off the hot path)\n\
         let out = Vec::new();\n\
         out\n\
         }",
    )]);
    let k001: Vec<_> = findings.iter().filter(|f| f.code == Code::K001).collect();
    assert_eq!(k001.len(), 1);
    assert!(k001[0].suppressed);
}

// -- U001 -------------------------------------------------------------------

/// The display names of the active U001 findings, sorted.
fn unreached(findings: &[Finding]) -> Vec<String> {
    let mut names: Vec<String> = active_of(findings, Code::U001)
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn u001_follows_value_references() {
    let findings = analyze(&[
        (
            "crates/bench/src/main.rs",
            "fn main() {\n\
                 let record = Some(export::failed_task_record);\n\
                 let n: usize = results().iter().map(StudyResults::n_model_evaluations).sum();\n\
                 drop((record, n));\n\
             }",
        ),
        ("crates/core/src/export.rs", "pub fn failed_task_record(id: u64) -> u64 { id }"),
        (
            "crates/core/src/runner.rs",
            "pub struct StudyResults;\n\
             impl StudyResults {\n\
                 pub fn n_model_evaluations(&self) -> usize { 0 }\n\
             }\n\
             pub fn results() -> Vec<StudyResults> { Vec::new() }\n\
             pub fn run_unreached() {}",
        ),
    ]);
    assert_eq!(unreached(&findings), ["run_unreached"], "{findings:?}");
}

#[test]
fn u001_bare_value_paths_name_only_free_fns() {
    // A local that shares a method's name does not reach the method.
    let findings = analyze(&[
        (
            "crates/bench/src/main.rs",
            "fn main() { let bias = 0.5; let weights = [bias]; println!(\"{weights:?}\"); }",
        ),
        (
            "crates/mlcore/src/logreg.rs",
            "pub struct LogReg;\n\
             impl LogReg {\n\
                 pub fn bias(&self) -> f64 { 0.0 }\n\
                 pub fn weights(&self) -> &[f64] { &[] }\n\
             }",
        ),
    ]);
    assert_eq!(unreached(&findings), ["LogReg::bias", "LogReg::weights"], "{findings:?}");
}

#[test]
fn u001_reports_fns_that_only_tests_call() {
    let findings = analyze(&[
        ("crates/bench/src/main.rs", "fn main() { ttest::paired_t_test(); }"),
        (
            "crates/statskit/src/ttest.rs",
            "pub fn paired_t_test() {}\n\
             pub fn unpaired_t_test() {}\n\
             pub fn gamma_p() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn unpaired_matches() { super::unpaired_t_test(); }\n\
             }",
        ),
        ("tests/closed_forms.rs", "#[test]\nfn gamma() { statskit::ttest::gamma_p(); }"),
    ]);
    assert_eq!(unreached(&findings), ["gamma_p", "unpaired_t_test"], "{findings:?}");
}

#[test]
fn u001_never_reports_restricted_or_trait_impl_fns() {
    let findings = analyze(&[(
        "crates/core/src/report.rs",
        "pub(crate) fn crate_only() {}\n\
         pub(super) fn parent_only() {}\n\
         fn private() {}\n\
         pub struct Table;\n\
         impl std::fmt::Display for Table {\n\
             fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
         }\n\
         pub trait Render { fn render(&self) -> String { String::new() } }\n\
         pub fn render_markdown() {}",
    )]);
    assert_eq!(unreached(&findings), ["render_markdown"], "{findings:?}");
}

#[test]
fn u001_counts_a_perfbench_only_caller() {
    let findings = analyze(&[
        ("perfbench/src/main.rs", "fn main() { study::traced_run(); }"),
        (
            "perfbench/src/study.rs",
            "pub fn traced_run() { demodq::runner::run_configuration_once(); }",
        ),
        (
            "crates/core/src/runner.rs",
            "pub fn run_configuration_once() {}\npub fn run_nothing() {}",
        ),
    ]);
    // perfbench's own `pub fn`s are not library API.
    assert_eq!(unreached(&findings), ["run_nothing"], "{findings:?}");
}

#[test]
fn u001_suppression_names_the_test_that_needs_the_fn() {
    let findings = analyze(&[(
        "crates/statskit/src/special.rs",
        "// lint:allow(U001, gamma_p_q_sum_to_one checks gamma_q against it)\n\
         pub fn gamma_p() -> f64 { 1.0 }",
    )]);
    let u001: Vec<_> = findings.iter().filter(|f| f.code == Code::U001).collect();
    assert_eq!(u001.len(), 1, "{findings:?}");
    assert!(u001[0].suppressed);
}

// -- Fixture tree (the ci.sh self-check target) -----------------------------

#[test]
fn seeded_fixture_tree_fails_an_empty_baseline_with_all_codes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyze/ws");
    let report = lint_tree(&root, &Config::demodq()).expect("lint fixture tree");
    let fired: std::collections::BTreeSet<Code> =
        report.active().map(|f| f.code).collect();
    for code in FLOW {
        assert!(fired.contains(&code), "{} did not fire on the fixture tree", code.name());
    }
    let verdict = compare(&report, &Baseline::default());
    assert!(!verdict.clean(), "fixture tree must fail an empty baseline");
    assert!(verdict.stale.is_empty());
}

#[test]
fn fixture_taint_chain_crosses_module_boundaries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyze/ws");
    let report = lint_tree(&root, &Config::demodq()).expect("lint fixture tree");
    let t001: Vec<_> = report.active().filter(|f| f.code == Code::T001).collect();
    assert!(
        t001.iter().any(|f| f.message.contains("export_summary -> stamp_helper -> entropy_leak")),
        "{t001:?}"
    );
}
