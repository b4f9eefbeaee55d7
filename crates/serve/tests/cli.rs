//! End-to-end checks of the `demodq-serve` command line: a bad flag value
//! is a usage error that exits 2 before any model is trained.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `demodq-serve --addr 127.0.0.1:0 ARGS` and returns its exit code
/// and stderr. A server still running after 10 s accepted the flags,
/// trained its registry and is serving: it is killed and the test fails.
fn demodq_serve(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_demodq-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("demodq-serve starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll demodq-serve") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?}: demodq-serve still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("read stderr");
    (status.code(), stderr)
}

#[test]
fn bad_flag_values_exit_2_with_usage() {
    let cases: [&[&str]; 9] = [
        &["--models", "decision-tree"],
        &["--models", "random-forest"],
        &["--models", "gbdt"],
        &["--drift-threshold", "nan"],
        &["--drift-threshold", "-0.5"],
        &["--scale", "huge"],
        &["--batch-max-rows", "0"],
        &["--max-connections", "0"],
        &["--drift-window", "0"],
    ];
    for args in cases {
        let (code, stderr) = demodq_serve(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: demodq-serve"), "{args:?}: {stderr}");
        assert!(stderr.contains("smoke|default|full|large"), "{args:?}: {stderr}");
    }
}
