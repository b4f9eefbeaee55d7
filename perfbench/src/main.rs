//! `perfbench`: the workload processes `run.py` launches and times.
//!
//! Every subcommand prints one JSON object as its last line of standard
//! output:
//!
//! ```text
//! perfbench study-pass --seed N --dir DIR    fresh + resumed study grid, 12 tables
//! perfbench data-pass --seed N --dir DIR      RQ1 on 80k-row pools + large studies
//! perfbench study-items --seed N --seconds S --dir DIR
//! perfbench data-items --seed N --seconds S --dir DIR
//!                                             best-of-k timing of the workload's
//!                                             items, checked against the pass's
//!                                             journal in DIR
//! perfbench setup --workload W --seed N       generate the workload's pools, exit
//! perfbench trace --workload W --seed N --dir DIR --spans FILE
//!                                             untraced pass, then the traced rebuild
//! perfbench serve-load --addr A --seed N --seconds S --ladder 0|1 --probes 0|1
//!                                             open-loop load against demodq-serve
//! perfbench serve-throughput --seed N --seconds S --rows-per-batch M
//!                                             the server's request path in-process,
//!                                             untraced, each batch timed best-of-k
//! perfbench serve-replay --seed N --rows-per-batch M --requests R --spans FILE
//!                                             traced in-process replay of serve's requests
//! ```

mod load;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The call-count metric that goes with a `*_s` span name:
/// `mlcore.cv_s.knn` counts as `mlcore.cv_n.knn`.
pub fn count_name(span: &str) -> String {
    span.replacen("_s", "_n", 1)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <study-pass|data-pass|study-items|data-items|setup|trace|serve-load|\
         serve-throughput|serve-replay> \
         [--flag value]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage()
        };
        let value = args.next().unwrap_or_else(|| usage());
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags.get(name).cloned().unwrap_or_else(|| {
            eprintln!("{command} needs --{name}");
            usage()
        })
    };
    let num = |name: &str| -> u64 { get(name).parse().unwrap_or_else(|_| usage()) };
    let fnum = |name: &str| -> f64 { get(name).parse().unwrap_or_else(|_| usage()) };

    let result = match command.as_str() {
        "study-pass" => {
            study::study_pass(num("seed"), &PathBuf::from(get("dir"))).map_err(|e| e.to_string())
        }
        "data-pass" => {
            study::data_pass(num("seed"), &PathBuf::from(get("dir"))).map_err(|e| e.to_string())
        }
        "study-items" => {
            study::study_items(num("seed"), fnum("seconds"), &PathBuf::from(get("dir")))
                .map_err(|e| e.to_string())
        }
        "data-items" => study::data_items(num("seed"), fnum("seconds"), &PathBuf::from(get("dir")))
            .map_err(|e| e.to_string()),
        "setup" => study::setup(&get("workload"), num("seed")).map_err(|e| e.to_string()),
        "trace" => study::traced(
            &get("workload"),
            num("seed"),
            &PathBuf::from(get("dir")),
            &PathBuf::from(get("spans")),
        )
        .map_err(|e| e.to_string()),
        "serve-load" => load::serve_load(
            &get("addr"),
            num("seed"),
            fnum("seconds"),
            num("ladder") == 1,
            num("probes") == 1,
        ),
        "serve-replay" => load::serve_replay(
            num("seed"),
            fnum("rows-per-batch"),
            num("requests") as usize,
            &PathBuf::from(get("spans")),
        ),
        "serve-throughput" => {
            load::serve_throughput(num("seed"), fnum("seconds"), fnum("rows-per-batch"))
        }
        _ => usage(),
    };
    match result {
        Ok(value) => println!("{value}"),
        Err(e) => {
            eprintln!("perfbench {command}: {e}");
            std::process::exit(1);
        }
    }
}
