//! Tracked performance benchmark for the study pipeline.
//!
//! Sections, written as JSON (default `BENCH_study.json`):
//!
//! * **substrate** — the columnar block store at the large tier: one
//!   dataset generated chunk by chunk into a million-row store, the pool
//!   `--scale large` samples from. Reports generation rows/s
//!   (`gen_rows_per_sec`) and the process peak RSS (`VmHWM`). This
//!   section runs **first** in the process so the peak-RSS reading
//!   reflects only the substrate; it is also an absolute memory gate:
//!   peak RSS must stay under 2× the store's own heap footprint plus a
//!   64 MiB process allowance, sized from the narrow store: the german
//!   pool is ~17 MiB, generation peaks at ~38–40 MiB and the limit is
//!   ~97.5 MiB, so holding the pool once more as a whole `DataFrame`
//!   (~112 MiB at 8 B per cell) fails the gate.
//! * **micro** — GBDT training on encoded Adult data (best of three
//!   runs), one training run per model kind, and one leaf-rectification
//!   run of the xgboost model (`rectify_ms`). The exact splitter GBDT
//!   was once timed against is now only the reference of
//!   `tests/hist_parity.rs`; a baseline's leftover `gbdt_exact_ms` and
//!   `gbdt_speedup` fields are ignored.
//! * **micro.kernels** — each vectorised per-unit kernel
//!   (`hist` / `knn_block` / `logreg_batch`) against the reference loop
//!   it replaced, on the same encoded Adult data: `naive_ms`,
//!   `kernel_ms` and `speedup` per kernel. The regression gate compares
//!   **speedups**, not wall times — naive and kernel run back to back in
//!   the same process, so their ratio cancels the machine's thermal
//!   state, which raw milliseconds do not.
//! * **study** — the end-to-end error-type study over all datasets,
//!   models and error types at the chosen scale, with
//!   `repair_side: both` so the repaired arms also leaf-rectify the
//!   xgboost models, reported as wall time and model evaluations per second,
//!   plus cumulative per-phase wall time (sample / prepare / encode /
//!   train_eval / rectify, the last also surfaced as
//!   `study.rectify_seconds`) and the failed-task count. This section
//!   always runs on **one worker thread** so the numbers are the serial
//!   reference and stay comparable across machines and baselines.
//!
//! With `--baseline PATH` the run is also a regression gate: it exits
//! non-zero if the baseline or current report is missing required
//! fields, if end-to-end throughput dropped below 75% of the
//! baseline's serial (1-thread) numbers, if substrate generation rows/s
//! dropped below 75% of the baseline's, or if any per-kernel speedup
//! in `micro.kernels` fell below 75% of its baseline value. CI runs
//! `studybench --smoke --baseline BENCH_study.json` against the
//! committed baseline.
//!
//! ```text
//! cargo run --release -p demodq-bench --bin studybench -- --smoke
//! ```

use datasets::{DatasetId, ErrorType};
use demodq::config::{RepairSide, StudyOptions, StudyScale};
use demodq::progress::PhaseSeconds;
use demodq_rectify::{rectify_classifier, RectifySpec};
use fairness::Groups;
use mlcore::kernels::{self, HistF32, QUERY_BLOCK, TRAIN_BLOCK};
use mlcore::{BinnedMatrix, GbdtClassifier, ModelKind, DEFAULT_N_BINS};
use serde_json::{json, Value};
use std::time::Instant;
use tabular::{DenseMatrix, FeatureEncoder, Rng64};

struct Options {
    scale: StudyScale,
    scale_name: &'static str,
    seed: u64,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: StudyScale::smoke(),
        scale_name: "smoke",
        seed: 42,
        out: "BENCH_study.json".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                opts.scale = StudyScale::smoke();
                opts.scale_name = "smoke";
            }
            "--default" => {
                opts.scale = StudyScale::default_scale();
                opts.scale_name = "default";
            }
            "--seed" => {
                let value = args.next().unwrap_or_default();
                opts.seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed '{value}'");
                    std::process::exit(2);
                });
            }
            "--out" => opts.out = args.next().unwrap_or_default(),
            "--baseline" => opts.baseline = args.next(),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: \
                     [--smoke|--default] [--seed N] [--out PATH] [--baseline PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.out.is_empty() {
        eprintln!("--out needs a path");
        std::process::exit(2);
    }
    opts
}

/// Rows in the substrate bench store (one full block).
const SUBSTRATE_ROWS: usize = 1 << 20;

/// Peak-RSS ceiling: the store's own heap, doubled, plus a fixed
/// allowance for the binary, allocator slack and transient generation
/// chunks (one 65,536-row chunk frame is 4.5–7 MB). For german's ~17 MiB
/// store that is ~97.5 MiB against a ~38–40 MiB peak: a whole-pool
/// `DataFrame` (~112 MiB) held beyond the store exceeds it.
const SUBSTRATE_RSS_ALLOWANCE: u64 = 64 * 1024 * 1024;

/// Process peak resident set (`VmHWM`) in bytes; `None` off-Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Large-tier substrate bench: chunked generation of a million-row
/// store. Must be the first work the process does (see the module docs).
/// Exits non-zero when the peak-RSS gate fails.
fn substrate_section(seed: u64) -> Value {
    let t = Instant::now();
    let store =
        DatasetId::German.generate_store(SUBSTRATE_ROWS, seed ^ 0xB10C).expect("generate store");
    let gen_seconds = t.elapsed().as_secs_f64();
    let rows = store.n_rows();
    let gen_rows_per_sec = rows as f64 / gen_seconds;
    eprintln!(
        "substrate: generated {rows} rows in {} block(s), {gen_seconds:.2}s \
         ({gen_rows_per_sec:.0} rows/s)",
        store.n_blocks(),
    );

    let store_heap = store.heap_bytes() as u64;
    let peak = peak_rss_bytes();
    let (peak_bytes, rss_ratio) = match peak {
        Some(p) => (p, p as f64 / store_heap as f64),
        None => (0, 0.0),
    };
    eprintln!(
        "substrate: store heap {:.0} MiB, peak RSS {:.0} MiB ({rss_ratio:.2}x heap)",
        store_heap as f64 / (1 << 20) as f64,
        peak_bytes as f64 / (1 << 20) as f64,
    );
    if let Some(p) = peak {
        let limit = 2 * store_heap + SUBSTRATE_RSS_ALLOWANCE;
        if p > limit {
            eprintln!(
                "MEMORY REGRESSION: peak RSS {p} bytes exceeds the substrate gate \
                 {limit} (2x store heap {store_heap} + allowance {SUBSTRATE_RSS_ALLOWANCE})"
            );
            std::process::exit(1);
        }
        eprintln!("substrate: peak-RSS gate OK ({p} <= {limit} bytes)");
    } else {
        eprintln!("substrate: /proc/self/status unavailable, peak-RSS gate skipped");
    }

    json!({
        "rows": rows,
        "n_blocks": store.n_blocks(),
        "gen_seconds": gen_seconds,
        "gen_rows_per_sec": gen_rows_per_sec,
        "store_heap_bytes": store_heap,
        "peak_rss_bytes": peak_bytes,
        "rss_ratio": rss_ratio,
    })
}

/// Best-of-`repeats` wall time of `f`, in milliseconds.
fn time_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Adult at a fixed microbench size, encoded once, with the dataset's
/// first fairness group membership (for the rectification microbench).
fn adult_encoded(seed: u64) -> (DenseMatrix, Vec<u8>, Groups) {
    let pool = DatasetId::Adult.generate(4_000, seed).expect("generate adult pool");
    let encoder = FeatureEncoder::fit(&pool, true).expect("fit encoder");
    let groups = DatasetId::Adult.spec().single_attribute_specs()[0]
        .evaluate(&pool)
        .expect("evaluate adult groups");
    (encoder.transform(&pool).expect("encode adult"), pool.labels().expect("labels"), groups)
}

fn micro_section(seed: u64) -> Value {
    let (x, y, groups) = adult_encoded(seed);
    eprintln!("micro: adult encoded {} x {}", x.n_rows(), x.n_cols());

    let gbdt_hist_ms = time_ms(3, || {
        std::hint::black_box(GbdtClassifier::fit(&x, &y, 3, 50, 0.3, 1.0, 7));
    });
    eprintln!("micro: gbdt hist {gbdt_hist_ms:.1}ms");

    let mut train_ms = serde_json::Map::new();
    for kind in ModelKind::all() {
        let spec = kind.default_grid().into_iter().next().expect("non-empty grid");
        let ms = time_ms(1, || {
            std::hint::black_box(spec.fit(&x, &y, 7));
        });
        eprintln!("micro: {} train {ms:.1}ms", kind.name());
        train_ms.insert(kind.name().to_string(), json!(ms));
    }

    // Leaf rectification of the one tree family: fit once, then time one
    // branch-and-bound repair pass against the default constraint (once
    // only — rectification mutates the leaves, and a second pass on an
    // already-fair model would time a no-op).
    let opts = RectifySpec::default();
    let kind = ModelKind::Gbdt;
    let mut model = kind.default_grid()[0].fit(&x, &y, 7);
    let ms = time_ms(1, || {
        std::hint::black_box(rectify_classifier(model.as_mut(), &x, &y, &groups, &opts));
    });
    eprintln!("micro: {} rectify {ms:.1}ms", kind.name());
    let mut rectify_ms = serde_json::Map::new();
    rectify_ms.insert(kind.name().to_string(), json!(ms));

    json!({
        "gbdt_hist_ms": gbdt_hist_ms,
        "train_ms": train_ms,
        "rectify_ms": rectify_ms,
    })
}

/// One kernel's bench entry: reference loop vs vectorised kernel, both
/// best-of-`repeats` on the same data in the same process.
fn kernel_entry(name: &str, naive_ms: f64, kernel_ms: f64) -> Value {
    eprintln!(
        "micro.kernels: {name} naive {naive_ms:.3}ms vs kernel {kernel_ms:.3}ms \
         ({:.2}x)",
        naive_ms / kernel_ms
    );
    json!({
        "naive_ms": naive_ms,
        "kernel_ms": kernel_ms,
        "speedup": naive_ms / kernel_ms,
    })
}

/// Benches each vectorised per-unit kernel against the reference loop it
/// replaced, on encoded Adult data (the study's dominant workload shape).
fn kernels_section(seed: u64) -> Value {
    let (x, y, _) = adult_encoded(seed);
    let n = x.n_rows();
    let d = x.n_cols();

    // Histogram accumulation on a boosting round's real node shape: the
    // 80% stochastic row subsample GBDT draws each round, with the
    // logistic gradients/hessians a first round would see. The subsample
    // matters — it makes the per-row statistic reads strided, the access
    // pattern the row-major kernel was built for (on a dense 0..n row
    // set both loops degenerate to sequential scans).
    let binned = BinnedMatrix::from_matrix(&x, DEFAULT_N_BINS);
    let all_rows: Vec<usize> = (0..n).collect();
    let scores = vec![0.0f64; n];
    let mut grad = vec![0.0f64; n];
    let mut hess = vec![0.0f64; n];
    kernels::logistic_grad_hess(&all_rows, &scores, &y, &mut grad, &mut hess);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x4157);
    let rows = rng.sample_indices(n, (n * 4) / 5);
    // One untimed pass per side first: the kernel's first call pays
    // scratch-pool allocation and page faults that later calls (and the
    // study itself, which runs thousands of them) never see again.
    std::hint::black_box(kernels::hist_naive(&binned, &rows, &grad, &hess));
    std::hint::black_box(HistF32::accumulate(&binned, &rows, &grad, &hess));
    let hist_naive_ms = time_ms(9, || {
        std::hint::black_box(kernels::hist_naive(&binned, &rows, &grad, &hess));
    });
    let hist_kernel_ms = time_ms(9, || {
        std::hint::black_box(HistF32::accumulate(&binned, &rows, &grad, &hess));
    });

    // Blocked kNN distances: a query block's worth of rows against the
    // whole pool, naive per-row scan vs transposed tile kernel.
    let n_queries = 4 * QUERY_BLOCK;
    let mut dist = Vec::new();
    let mut qt = Vec::new();
    let mut tile = vec![0.0f64; TRAIN_BLOCK * QUERY_BLOCK];
    let knn_naive_ms = time_ms(9, || {
        for q in 0..n_queries {
            kernels::sq_dist_naive(&x, x.row(q), &mut dist);
            std::hint::black_box(&dist);
        }
    });
    let knn_kernel_ms = time_ms(9, || {
        for q0 in (0..n_queries).step_by(QUERY_BLOCK) {
            kernels::transpose_queries(&x, q0, QUERY_BLOCK, &mut qt);
            for t0 in (0..n).step_by(TRAIN_BLOCK) {
                let tb = TRAIN_BLOCK.min(n - t0);
                kernels::sq_dist_block(&x, t0, tb, &qt, &mut tile);
                std::hint::black_box(&tile);
            }
        }
    });

    // Batched linear scoring: full-matrix decision values, per-row loop
    // vs the four-row interleaved kernel.
    let weights: Vec<f64> = (0..d).map(|j| (j % 7) as f64 * 0.1 - 0.3).collect();
    let mut out = Vec::new();
    let logreg_naive_ms = time_ms(9, || {
        kernels::decision_naive(&x, &weights, 0.25, &mut out);
        std::hint::black_box(&out);
    });
    let logreg_kernel_ms = time_ms(9, || {
        kernels::decision_batch(&x, &weights, 0.25, &mut out);
        std::hint::black_box(&out);
    });

    json!({
        "hist": kernel_entry("hist", hist_naive_ms, hist_kernel_ms),
        "knn_block": kernel_entry("knn_block", knn_naive_ms, knn_kernel_ms),
        "logreg_batch": kernel_entry("logreg_batch", logreg_naive_ms, logreg_kernel_ms),
    })
}

/// Runs the full study on one worker thread, the serial reference
/// configuration, and returns the section JSON.
fn study_section(scale: &StudyScale, seed: u64) -> Value {
    // `both` exercises the full repair surface: data repairs on the
    // variant arms plus post-training leaf rectification of the xgboost
    // models.
    let options = StudyOptions {
        progress: true,
        repair_side: RepairSide::Both,
        threads: 1,
        ..StudyOptions::default()
    };
    let t = Instant::now();
    let mut evals = 0usize;
    let mut failed_tasks = 0usize;
    let mut phases = PhaseSeconds::default();
    for error in ErrorType::all() {
        eprintln!("study: running {error}...");
        let results = demodq::runner::run_error_type_study_with(
            error,
            &DatasetId::all(),
            &ModelKind::all(),
            scale,
            seed,
            &options,
        )
        .expect("study failed");
        evals += results.n_model_evaluations();
        failed_tasks += results.failed_tasks.len();
        phases.accumulate(&results.phases);
    }
    let wall = t.elapsed().as_secs_f64();
    let evals_per_sec = evals as f64 / wall;
    eprintln!(
        "study: {wall:.2}s, {evals} evals, {evals_per_sec:.2} evals/s \
         (phase seconds: sample {:.2}, prepare {:.2}, encode {:.2}, train_eval {:.2}, \
         rectify {:.2})",
        phases.sample, phases.prepare, phases.encode, phases.train_eval, phases.rectify
    );
    json!({
        "threads": 1,
        "wall_seconds": wall,
        "model_evaluations": evals,
        "evals_per_sec": evals_per_sec,
        "failed_tasks": failed_tasks,
        "rectify_seconds": phases.rectify,
        "phase_seconds": json!({
            "sample": phases.sample,
            "prepare": phases.prepare,
            "encode": phases.encode,
            "train_eval": phases.train_eval,
            "rectify": phases.rectify,
            "total": phases.total(),
        }),
    })
}

/// Fields every report (current or baseline) must carry to be comparable.
const REQUIRED: &[&[&str]] = &[
    &["schema_version"],
    &["scale"],
    &["substrate", "rows"],
    &["substrate", "gen_rows_per_sec"],
    &["substrate", "store_heap_bytes"],
    &["substrate", "peak_rss_bytes"],
    &["substrate", "rss_ratio"],
    &["micro", "gbdt_hist_ms"],
    &["micro", "train_ms"],
    &["micro", "rectify_ms"],
    &["micro", "kernels", "hist", "naive_ms"],
    &["micro", "kernels", "hist", "kernel_ms"],
    &["micro", "kernels", "hist", "speedup"],
    &["micro", "kernels", "knn_block", "naive_ms"],
    &["micro", "kernels", "knn_block", "kernel_ms"],
    &["micro", "kernels", "knn_block", "speedup"],
    &["micro", "kernels", "logreg_batch", "naive_ms"],
    &["micro", "kernels", "logreg_batch", "kernel_ms"],
    &["micro", "kernels", "logreg_batch", "speedup"],
    &["study", "threads"],
    &["study", "wall_seconds"],
    &["study", "model_evaluations"],
    &["study", "evals_per_sec"],
    &["study", "failed_tasks"],
    &["study", "rectify_seconds"],
    &["study", "phase_seconds", "sample"],
    &["study", "phase_seconds", "prepare"],
    &["study", "phase_seconds", "encode"],
    &["study", "phase_seconds", "train_eval"],
    &["study", "phase_seconds", "rectify"],
    &["study", "phase_seconds", "total"],
];

fn lookup<'a>(report: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(report, |v, key| v.get(key))
}

/// Checks required fields on `label`/`report`; returns false and prints
/// what is missing on failure.
fn check_fields(label: &str, report: &Value) -> bool {
    let mut ok = true;
    for path in REQUIRED {
        if lookup(report, path).is_none() {
            eprintln!("{label}: missing required field {}", path.join("."));
            ok = false;
        }
    }
    ok
}

fn main() {
    let opts = parse_args();

    // The substrate section must run before anything else allocates: its
    // peak-RSS reading (VmHWM) is process-wide and monotone.
    let substrate = substrate_section(opts.seed);

    let mut micro = micro_section(opts.seed);
    if let Value::Object(map) = &mut micro {
        map.insert("kernels".to_string(), kernels_section(opts.seed));
    }
    let study = study_section(&opts.scale, opts.seed);

    let report = json!({
        "schema_version": 1,
        "scale": opts.scale_name,
        "seed": opts.seed,
        "substrate": substrate,
        "micro": micro,
        "study": study,
    });

    let rendered = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&opts.out, rendered + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    eprintln!("wrote {}", opts.out);

    if !check_fields("current report", &report) {
        std::process::exit(1);
    }

    let Some(baseline_path) = opts.baseline else { return };
    let raw = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let baseline: Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    if !check_fields("baseline", &baseline) {
        std::process::exit(1);
    }
    let current = lookup(&report, &["study", "evals_per_sec"]).and_then(Value::as_f64).unwrap();
    let reference =
        lookup(&baseline, &["study", "evals_per_sec"]).and_then(Value::as_f64).unwrap_or(0.0);
    let floor = 0.75 * reference;
    let mut failed = false;
    if current < floor {
        eprintln!(
            "PERF REGRESSION: {current:.2} evals/s is below 75% of the \
             baseline {reference:.2} evals/s (floor {floor:.2})"
        );
        failed = true;
    } else {
        eprintln!(
            "perf gate OK: {current:.2} evals/s vs baseline {reference:.2} (floor {floor:.2})"
        );
    }
    // Substrate throughput gate: chunked generation must keep 75% of the
    // baseline's rows/s.
    {
        let path = ["substrate", "gen_rows_per_sec"];
        let current = lookup(&report, &path).and_then(Value::as_f64).unwrap();
        let reference = lookup(&baseline, &path).and_then(Value::as_f64).unwrap_or(0.0);
        let floor = 0.75 * reference;
        if current < floor {
            eprintln!(
                "PERF REGRESSION: substrate {current:.0} rows/s is below 75% of the \
                 baseline {reference:.0} rows/s (floor {floor:.0})"
            );
            failed = true;
        } else {
            eprintln!(
                "perf gate OK: substrate {current:.0} rows/s vs baseline {reference:.0} \
                 (floor {floor:.0})"
            );
        }
    }
    // Per-kernel gate on the naive/kernel *speedup* (a within-run ratio,
    // stable across thermal states): each kernel must keep at least 75%
    // of its baseline advantage over the reference loop.
    for kernel in ["hist", "knn_block", "logreg_batch"] {
        let path = ["micro", "kernels", kernel, "speedup"];
        let current = lookup(&report, &path).and_then(Value::as_f64).unwrap();
        let reference = lookup(&baseline, &path).and_then(Value::as_f64).unwrap_or(0.0);
        let floor = 0.75 * reference;
        if current < floor {
            eprintln!(
                "PERF REGRESSION: kernel {kernel} speedup {current:.2}x is below \
                 75% of the baseline {reference:.2}x (floor {floor:.2}x)"
            );
            failed = true;
        } else {
            eprintln!(
                "perf gate OK: kernel {kernel} speedup {current:.2}x vs baseline \
                 {reference:.2}x (floor {floor:.2}x)"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
