//! End-to-end checks of the `demodq-bench` command line: every
//! study-running subcommand honours `--journal`, and a flag the
//! subcommand does not take is a usage error instead of being ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn demodq_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_demodq-bench")).args(args).output().expect("demodq-bench runs")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("demodq-bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tables_writes_the_journal_it_is_given() {
    let dir = temp_dir("journal");
    let journal = dir.to_str().expect("utf-8 temp path");
    let out =
        demodq_bench(&["tables", "--error", "mislabels", "--scale", "smoke", "--journal", journal]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let journals: Vec<u64> = std::fs::read_dir(&dir)
        .expect("--journal DIR was created")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("study_mislabels_") && name.ends_with(".jsonl")
        })
        .map(|path| std::fs::metadata(path).expect("journal metadata").len())
        .collect();
    assert_eq!(journals.len(), 1, "one mislabels journal expected");
    assert!(journals[0] > 0, "the journal is empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_a_subcommand_does_not_take_exit_2_with_usage() {
    let cases: [&[&str]; 5] = [
        &["fig1", "--journal", "unused-journal-dir"],
        &["table1", "--resume"],
        &["tables", "--scale", "smoke"],
        &["no-such-subcommand"],
        &["fig2", "--scale", "huge"],
    ];
    for args in cases {
        let out = demodq_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: demodq-bench"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed an artifact");
    }
    assert!(!std::path::Path::new("unused-journal-dir").exists());
}
