//! The `demodq-serve` binary: train the registry, serve until SIGTERM or
//! ctrl-c, then drain gracefully.

use demodq::StudyScale;
use demodq_serve::{App, DriftConfig, Registry, Server, ServerConfig};
use datasets::DatasetId;
use mlcore::ModelKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag, let main drain.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // SIG_ERR would leave the default handler in place; the server still
    // works, it just dies non-gracefully, so ignore the return value.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is async-signal-safe (a single atomic store)
    // and the handler address stays valid for the process lifetime, so
    // installing it via libc `signal` cannot invoke UB later.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

struct Args {
    addr: String,
    scale_name: String,
    seed: u64,
    datasets: Vec<DatasetId>,
    models: Vec<ModelKind>,
    quiet: bool,
    batch_wait_us: Option<u64>,
    batch_max_rows: Option<usize>,
    max_connections: Option<usize>,
    drift_threshold: Option<f64>,
    drift_window: Option<usize>,
    addr_file: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: demodq-serve [--addr HOST:PORT] [--scale smoke|default|full|large] \
         [--seed N] [--datasets a,b] [--models a,b] [--quiet] \
         [--batch-wait-us N] [--batch-max-rows N] [--max-connections N] \
         [--drift-threshold X] [--drift-window N] [--addr-file PATH]"
    );
    std::process::exit(2);
}

/// A count flag's value: anything but a positive integer is a usage
/// error.
fn positive(flag: &str, value: String) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} must be a positive integer");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8080".to_string(),
        scale_name: "smoke".to_string(),
        seed: 7,
        datasets: DatasetId::all().to_vec(),
        models: ModelKind::all().to_vec(),
        quiet: false,
        batch_wait_us: None,
        batch_max_rows: None,
        max_connections: None,
        drift_threshold: None,
        drift_window: None,
        addr_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--scale" => args.scale_name = value("--scale"),
            "--seed" => {
                args.seed = value("--seed").parse().unwrap_or_else(|_| usage());
            }
            "--datasets" => {
                args.datasets = value("--datasets")
                    .split(',')
                    .map(|name| {
                        DatasetId::parse(name.trim()).unwrap_or_else(|| {
                            eprintln!("unknown dataset {name:?}");
                            usage()
                        })
                    })
                    .collect();
            }
            "--models" => {
                args.models = value("--models")
                    .split(',')
                    .map(|name| {
                        ModelKind::parse(name.trim()).unwrap_or_else(|| {
                            eprintln!("unknown model {name:?}");
                            usage()
                        })
                    })
                    .collect();
            }
            "--quiet" => args.quiet = true,
            "--batch-wait-us" => {
                args.batch_wait_us =
                    Some(value("--batch-wait-us").parse().unwrap_or_else(|_| usage()));
            }
            "--batch-max-rows" => {
                args.batch_max_rows = Some(positive(&flag, value(&flag)));
            }
            "--max-connections" => {
                args.max_connections = Some(positive(&flag, value(&flag)));
            }
            "--drift-threshold" => {
                // NaN would switch every alert off and a negative value
                // would alert on every window; `inf` means never alert.
                let threshold: f64 =
                    value("--drift-threshold").parse().unwrap_or_else(|_| usage());
                if threshold.is_nan() || threshold < 0.0 {
                    eprintln!("--drift-threshold must be a non-negative number");
                    usage();
                }
                args.drift_threshold = Some(threshold);
            }
            "--drift-window" => {
                args.drift_window = Some(positive(&flag, value(&flag)));
            }
            "--addr-file" => args.addr_file = Some(value("--addr-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scale = StudyScale::parse(&args.scale_name).unwrap_or_else(|| {
        eprintln!("unknown scale {:?} (smoke|default|full|large)", args.scale_name);
        usage()
    });
    install_signal_handlers();

    eprintln!(
        "training {} models ({} datasets x {} model kinds) at scale {:?}...",
        args.datasets.len() * args.models.len(),
        args.datasets.len(),
        args.models.len(),
        args.scale_name,
    );
    let started = std::time::Instant::now();
    let registry =
        Registry::train(&args.datasets, &args.models, &scale, &args.scale_name, args.seed)
            .unwrap_or_else(|e| {
                eprintln!("training failed: {e}");
                std::process::exit(1);
            });
    for model in registry.entries() {
        eprintln!(
            "  {}/{}: val {:.3}, test {:.3} ({})",
            model.dataset.name(),
            model.model.name(),
            model.val_accuracy,
            model.test_accuracy,
            model.best_params,
        );
    }
    eprintln!("registry ready in {:.1}s", started.elapsed().as_secs_f64());

    let mut config =
        ServerConfig { addr: args.addr, log_requests: !args.quiet, ..Default::default() };
    if let Some(us) = args.batch_wait_us {
        config.batch_wait = Duration::from_micros(us);
    }
    if let Some(rows) = args.batch_max_rows {
        config.batch_max_rows = rows;
    }
    if let Some(conns) = args.max_connections {
        config.max_connections = conns;
    }
    let mut drift = DriftConfig::default();
    if let Some(threshold) = args.drift_threshold {
        drift.alert_threshold = threshold;
    }
    if let Some(window) = args.drift_window {
        drift.window = window;
    }
    let app = Arc::new(App::with_drift(registry, drift));
    let server = Server::spawn(Arc::clone(&app), config).unwrap_or_else(|e| {
        eprintln!("cannot start the server: {e}");
        std::process::exit(1);
    });
    eprintln!("listening on http://{}", server.local_addr());
    if let Some(path) = &args.addr_file {
        // Scripts (ci.sh, loadgen drivers) poll this file to learn the
        // bound ephemeral port.
        if let Err(e) = std::fs::write(path, server.local_addr().to_string()) {
            eprintln!("cannot write --addr-file {path}: {e}");
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!(
        "shutdown signal received; draining ({} requests served)",
        app.metrics().total_requests()
    );
    server.shutdown();
    eprintln!("bye");
}
