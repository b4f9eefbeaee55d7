//! Fixture-based tests: one synthetic source per lint code, exercised in
//! three flavours — positive (the finding fires), suppressed (a
//! `lint:allow` neutralises it) and exempt (allowlisted module, test
//! region or file class where the code does not apply).

use demodq_lint::{compare, lint_source, lint_tree, Baseline, Code, Config, Finding};

fn active(rel: &str, source: &str, code: Code) -> usize {
    let config = Config::demodq();
    lint_source(rel, source, &config)
        .iter()
        .filter(|f| f.code == code && !f.suppressed)
        .count()
}

fn suppressed(rel: &str, source: &str, code: Code) -> usize {
    let config = Config::demodq();
    lint_source(rel, source, &config)
        .iter()
        .filter(|f| f.code == code && f.suppressed)
        .count()
}

// --- D001: nondeterministically ordered collections in export paths ----

const D001_SRC: &str = "use std::collections::HashMap;\n";

#[test]
fn d001_positive_in_export_path() {
    assert_eq!(active("crates/core/src/export.rs", D001_SRC, Code::D001), 1);
}

#[test]
fn d001_suppressed() {
    let src = "// lint:allow(D001, sorted at the boundary before serialisation)\n\
               use std::collections::HashMap;\n";
    assert_eq!(active("crates/core/src/export.rs", src, Code::D001), 0);
    assert_eq!(suppressed("crates/core/src/export.rs", src, Code::D001), 1);
}

#[test]
fn d001_exempt_outside_export_paths() {
    assert_eq!(active("crates/cleaning/src/lib.rs", D001_SRC, Code::D001), 0);
}

// --- D002: wall-clock/entropy outside telemetry modules ----------------

const D002_SRC: &str = "fn f() { let _t = std::time::Instant::now(); }\n";

#[test]
fn d002_positive_in_library() {
    assert_eq!(active("crates/core/src/runner.rs", D002_SRC, Code::D002), 1);
}

#[test]
fn d002_suppressed() {
    let src = "fn f() {\n\
               // lint:allow(D002, telemetry only; never feeds seeds)\n\
               let _t = std::time::Instant::now(); }\n";
    assert_eq!(active("crates/core/src/runner.rs", src, Code::D002), 0);
    assert_eq!(suppressed("crates/core/src/runner.rs", src, Code::D002), 1);
}

#[test]
fn d002_exempt_in_allowlisted_module() {
    assert_eq!(active("crates/core/src/progress.rs", D002_SRC, Code::D002), 0);
    assert_eq!(active("crates/serve/src/metrics.rs", D002_SRC, Code::D002), 0);
}

// --- D003: RNG seeded from a bare literal ------------------------------

const D003_SRC: &str = "fn f() { let _rng = Rng64::seed_from_u64(42); }\n";

#[test]
fn d003_positive_on_literal_seed() {
    assert_eq!(active("crates/core/src/runner.rs", D003_SRC, Code::D003), 1);
}

#[test]
fn d003_derived_seed_passes() {
    let src = "fn f(seed: u64) { let _rng = Rng64::seed_from_u64(seed ^ 0xAD01); }\n";
    assert_eq!(active("crates/core/src/runner.rs", src, Code::D003), 0);
}

#[test]
fn d003_suppressed() {
    let src = "fn f() {\n\
               // lint:allow(D003, documented fallback seed for the demo binary)\n\
               let _rng = Rng64::seed_from_u64(42); }\n";
    assert_eq!(active("crates/core/src/runner.rs", src, Code::D003), 0);
    assert_eq!(suppressed("crates/core/src/runner.rs", src, Code::D003), 1);
}

#[test]
fn d003_exempt_in_test_region() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _rng = Rng64::seed_from_u64(42); }\n}\n";
    assert_eq!(active("crates/core/src/runner.rs", src, Code::D003), 0);
}

// --- S001: unsafe block without a SAFETY comment -----------------------

const S001_SRC: &str = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";

#[test]
fn s001_positive_without_safety_comment() {
    assert_eq!(active("crates/mlcore/src/scratch.rs", S001_SRC, Code::S001), 1);
}

#[test]
fn s001_exempt_with_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               // SAFETY: caller guarantees p is valid.\n\
               unsafe { *p } }\n";
    assert_eq!(active("crates/mlcore/src/scratch.rs", src, Code::S001), 0);
}

#[test]
fn s001_suppressed() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               // lint:allow(S001, justified in the module docs)\n\
               unsafe { *p } }\n";
    assert_eq!(active("crates/mlcore/src/scratch.rs", src, Code::S001), 0);
    assert_eq!(suppressed("crates/mlcore/src/scratch.rs", src, Code::S001), 1);
}

// --- P001: unwrap/expect/panic! in library code ------------------------

const P001_SRC: &str = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";

#[test]
fn p001_positive_in_library() {
    assert_eq!(active("crates/core/src/lib.rs", P001_SRC, Code::P001), 1);
}

#[test]
fn p001_suppressed() {
    let src = "fn f(x: Option<u8>) -> u8 {\n\
               // lint:allow(P001, x is Some by construction)\n\
               x.unwrap() }\n";
    assert_eq!(active("crates/core/src/lib.rs", src, Code::P001), 0);
    assert_eq!(suppressed("crates/core/src/lib.rs", src, Code::P001), 1);
}

#[test]
fn p001_exempt_in_binaries_and_tests() {
    assert_eq!(active("crates/core/src/main.rs", P001_SRC, Code::P001), 0);
    assert_eq!(active("tests/study_resume.rs", P001_SRC, Code::P001), 0);
    let in_test_mod =
        "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
    assert_eq!(active("crates/core/src/lib.rs", in_test_mod, Code::P001), 0);
}

// --- F001: float == / != comparison ------------------------------------

const F001_SRC: &str = "fn f(x: f64) -> bool { x == 0.0 }\n";

#[test]
fn f001_positive_in_library() {
    assert_eq!(active("crates/core/src/lib.rs", F001_SRC, Code::F001), 1);
}

#[test]
fn f001_suppressed() {
    let src = "fn f(x: f64) -> bool {\n\
               // lint:allow(F001, exact-zero sentinel)\n\
               x == 0.0 }\n";
    assert_eq!(active("crates/core/src/lib.rs", src, Code::F001), 0);
    assert_eq!(suppressed("crates/core/src/lib.rs", src, Code::F001), 1);
}

#[test]
fn f001_exempt_in_tests() {
    assert_eq!(active("crates/core/tests/golden.rs", F001_SRC, Code::F001), 0);
}

// --- patterns inside strings and comments never fire -------------------

#[test]
fn strings_and_comments_are_inert() {
    let src = "fn f() -> &'static str {\n\
               // HashMap Instant::now() unsafe unwrap() 1.0 == 2.0\n\
               \"HashMap seed_from_u64(42) .unwrap() x == 0.0\" }\n";
    let config = Config::demodq();
    assert!(lint_source("crates/core/src/export.rs", src, &config).is_empty());
}

// --- allow without a reason is ignored ---------------------------------

#[test]
fn allow_without_reason_does_not_suppress() {
    let src = "fn f(x: Option<u8>) -> u8 {\n\
               // lint:allow(P001)\n\
               x.unwrap() }\n";
    assert_eq!(active("crates/core/src/lib.rs", src, Code::P001), 1);
}

// --- end-to-end: a seeded tree of one violation per code fails ---------

#[test]
fn seeded_violations_fail_against_empty_baseline() {
    let root = std::env::temp_dir().join(format!("demodq-lint-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    let seeded: &[(&str, &str)] = &[
        ("export.rs", "use std::collections::HashMap;\n"),
        ("d002.rs", "fn f() { let _t = std::time::Instant::now(); }\n"),
        ("d003.rs", "fn f() { let _r = Rng64::seed_from_u64(7); }\n"),
        ("s001.rs", "fn f(p: *const u8) -> u8 { unsafe { *p } }\n"),
        ("p001.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
        ("f001.rs", "fn f(x: f64) -> bool { x != 1.0 }\n"),
    ];
    for (name, source) in seeded {
        std::fs::write(src_dir.join(name), source).expect("write fixture");
    }
    let report = lint_tree(&root, &Config::demodq()).expect("lint fixture tree");
    let fired: std::collections::BTreeSet<Code> =
        report.active().map(|f: &Finding| f.code).collect();
    // The token lints only — T001/L001/E001/K001 have their own seeded
    // fixture tree (tests/analyzer.rs).
    for code in [Code::D001, Code::D002, Code::D003, Code::S001, Code::P001, Code::F001] {
        assert!(fired.contains(&code), "{} did not fire on its seeded violation", code.name());
    }
    // Against an empty baseline every finding is new → the CLI exits 1.
    let verdict = compare(&report, &Baseline::default());
    assert!(!verdict.clean());
    assert_eq!(verdict.stale, vec![]);
    std::fs::remove_dir_all(&root).ok();
}
