//! Event-loop serving tests: keep-alive pipelining, micro-batch
//! bit-identity, hostile-client robustness (slow loris, half-written
//! bodies, unread responses), and hot-swap correctness under load.
//!
//! Every test spawns a real `Server` (the epoll event loop on Linux) on
//! an ephemeral port and talks raw TCP, because the behaviors under test
//! — partial writes, pipelined parsing, backpressure — live below any
//! HTTP client library.

use datasets::DatasetId;
use demodq::StudyScale;
use demodq_serve::codec::rows_from_frame;
use demodq_serve::{App, Registry, Server, ServerConfig};
use mlcore::ModelKind;
use serde_json::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn train_registry(models: &[ModelKind], seed: u64) -> Registry {
    Registry::train(&[DatasetId::German], models, &StudyScale::smoke(), "smoke", seed)
        .expect("train test registry")
}

fn spawn_server(app: &Arc<App>, read_timeout: Duration) -> Server {
    Server::spawn(
        Arc::clone(app),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout,
            write_timeout: Duration::from_secs(5),
            log_requests: false,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server")
}

fn sample_rows(n: usize) -> Vec<Value> {
    let frame = DatasetId::German.generate(n, 12345).expect("generate sample rows");
    rows_from_frame(&frame)
}

fn http_request(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request per fresh connection; returns (status, body bytes).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&http_request(method, path, body, false)).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    parse_one_response(&raw).expect("one full response")
}

/// Splits one HTTP response off the front of `raw`; returns
/// ((status, body), bytes consumed) on success.
fn split_response(raw: &[u8]) -> Option<((u16, Vec<u8>), usize)> {
    let text = String::from_utf8_lossy(raw);
    let header_end = text.find("\r\n\r\n")?;
    let head = &text[..header_end];
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::trim).map(String::from))
        .and_then(|v| v.parse().ok())?;
    let body_start = header_end + 4;
    if raw.len() < body_start + content_length {
        return None;
    }
    let body = raw[body_start..body_start + content_length].to_vec();
    Some(((status, body), body_start + content_length))
}

fn parse_one_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    split_response(raw).map(|(r, _)| r)
}

/// Reads exactly `n` pipelined responses off one stream.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u16, Vec<u8>)> {
    stream.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let mut raw = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while out.len() < n {
        while let Some((response, used)) = split_response(&raw) {
            out.push(response);
            raw.drain(..used);
            if out.len() == n {
                return out;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("peer closed after {} of {n} responses", out.len()),
            Ok(read) => raw.extend_from_slice(&chunk[..read]),
            Err(e) => panic!("read failed after {} of {n} responses: {e}", out.len()),
        }
    }
    out
}

fn predict_body(rows: &[Value]) -> String {
    serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "log-reg",
        "rows": Value::Array(rows.to_vec()),
    }))
    .unwrap()
}

#[test]
fn keep_alive_pipelining_answers_in_request_order() {
    let app = Arc::new(App::new(train_registry(&[ModelKind::LogReg], 7)));
    let server = spawn_server(&app, Duration::from_secs(5));
    let addr = server.local_addr();

    // Three requests written back-to-back before reading a byte; the mix
    // of immediate (healthz, metrics) and batched (predict) paths must
    // still answer strictly in request order.
    let rows = sample_rows(2);
    let mut wire = Vec::new();
    wire.extend_from_slice(&http_request("GET", "/healthz", "", true));
    wire.extend_from_slice(&http_request("POST", "/v1/predict", &predict_body(&rows), true));
    wire.extend_from_slice(&http_request("GET", "/metrics", "", true));
    wire.extend_from_slice(&http_request("POST", "/v1/predict", &predict_body(&rows), false));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&wire).expect("write pipeline");
    let responses = read_responses(&mut stream, 4);

    assert!(responses.iter().all(|(status, _)| *status == 200), "all four succeed");
    let healthz: Value = serde_json::from_slice(&responses[0].1).unwrap();
    assert_eq!(healthz.get("status").and_then(Value::as_str), Some("ok"));
    let predict: Value = serde_json::from_slice(&responses[1].1).unwrap();
    assert_eq!(predict.get("n_rows").and_then(Value::as_u64), Some(2));
    assert!(responses[2].1.starts_with(b"#"), "third response is the metrics text");
    let tail: Value = serde_json::from_slice(&responses[3].1).unwrap();
    assert_eq!(tail.get("n_rows").and_then(Value::as_u64), Some(2));

    // The connection closes after the final `Connection: close` response.
    let mut rest = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);

    // Pipelined predicts coalesced through the batched scorer.
    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains("demodq_batches_total"), "{metrics}");
}

#[test]
fn batched_scoring_is_bit_identical_to_single_row() {
    let app = Arc::new(App::new(train_registry(&[ModelKind::LogReg, ModelKind::Gbdt], 7)));
    let server = spawn_server(&app, Duration::from_secs(5));
    let addr = server.local_addr();
    let rows = sample_rows(16);

    for model in ["log-reg", "xgboost"] {
        // One 16-row batch...
        let body = serde_json::to_string(&serde_json::json!({
            "dataset": "german",
            "model": model,
            "rows": Value::Array(rows.clone()),
        }))
        .unwrap();
        let (status, batch_body) = exchange(addr, "POST", "/v1/predict", &body);
        assert_eq!(status, 200);
        let batch: Value = serde_json::from_slice(&batch_body).unwrap();

        // ...versus 16 single-row requests, all on one pipelined
        // connection so the event loop coalesces them into micro-batches.
        let mut wire = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let body = serde_json::to_string(&serde_json::json!({
                "dataset": "german",
                "model": model,
                "row": row.clone(),
            }))
            .unwrap();
            wire.extend_from_slice(&http_request("POST", "/v1/predict", &body, i + 1 < rows.len()));
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&wire).expect("write singles");
        let responses = read_responses(&mut stream, rows.len());

        let batch_preds = batch.get("predictions").and_then(Value::as_array).unwrap();
        let batch_probas = batch.get("probabilities").and_then(Value::as_array).unwrap();
        for (i, (status, body)) in responses.iter().enumerate() {
            assert_eq!(*status, 200, "row {i}");
            let single: Value = serde_json::from_slice(body).unwrap();
            let p = single.get("prediction").and_then(Value::as_u64).expect("prediction");
            let q = single.get("probability").and_then(Value::as_f64).expect("probability");
            assert_eq!(Some(p), batch_preds[i].as_u64(), "{model} row {i}: prediction differs");
            let batch_q = batch_probas[i].as_f64().unwrap();
            assert_eq!(
                q.to_bits(),
                batch_q.to_bits(),
                "{model} row {i}: probability must be bit-identical ({q} vs {batch_q})"
            );
        }
    }
}

#[test]
fn fairness_drift_gauges_are_always_finite() {
    // Labeled predict traffic fills the sliding drift windows; every
    // exported fairness gauge must parse as a finite f64 — a NaN or inf
    // in /metrics breaks scrapers and means a disparity leaked through
    // an undefined-metric path instead of being withheld.
    let app = Arc::new(App::new(train_registry(&[ModelKind::LogReg], 7)));
    let server = spawn_server(&app, Duration::from_secs(5));
    let addr = server.local_addr();

    // Before any traffic: the gauge family is discoverable, values absent.
    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains("# TYPE serve_fairness_drift gauge"), "{metrics}");

    for chunk in sample_rows(24).chunks(8) {
        let (status, _) = exchange(addr, "POST", "/v1/predict", &predict_body(chunk));
        assert_eq!(status, 200);
    }

    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    let mut fairness_gauges = 0;
    for line in metrics.lines().filter(|l| l.starts_with("serve_fairness_")) {
        let value = line.rsplit(' ').next().expect("gauge value");
        let parsed: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable gauge value in {line:?}: {e}");
        });
        assert!(parsed.is_finite(), "non-finite fairness gauge: {line:?}");
        fairness_gauges += 1;
    }
    // At minimum the threshold, per-group alert bits, and window sizes.
    assert!(fairness_gauges >= 5, "expected fairness gauges after labeled traffic:\n{metrics}");
    assert!(
        metrics.contains("serve_fairness_window_size"),
        "windows must have filled from labeled rows:\n{metrics}"
    );
}

#[test]
fn hostile_clients_do_not_wedge_the_loop() {
    let app = Arc::new(App::new(train_registry(&[ModelKind::LogReg], 7)));
    // Short read timeout so the idle sweep reaps stragglers quickly.
    let server = spawn_server(&app, Duration::from_millis(600));
    let addr = server.local_addr();

    // Slow loris: a partial request head, never completed.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"GET /healthz HTTP/1.1\r\nHost: te").expect("partial head");

    // Half-written body: full head, body cut off mid-JSON.
    let mut half = TcpStream::connect(addr).expect("connect half");
    half.write_all(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 500\r\n\r\n{\"data")
        .expect("partial body");

    // A client that never reads its responses: pipeline a pile of
    // predict requests and leave them unread so the server's write
    // buffer (not the loop) absorbs the backlog.
    let rows = sample_rows(50);
    let mut unread = TcpStream::connect(addr).expect("connect unread");
    let mut wire = Vec::new();
    for _ in 0..20 {
        wire.extend_from_slice(&http_request("POST", "/v1/predict", &predict_body(&rows), true));
    }
    unread.write_all(&wire).expect("write unread pipeline");

    // Through all of that, well-behaved clients keep getting served.
    for _ in 0..5 {
        let (status, _) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "server wedged behind hostile clients");
    }

    // The stragglers are reaped once they exceed the read timeout.
    let deadline = Instant::now() + Duration::from_secs(10);
    loris.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let mut buf = [0u8; 256];
    let reaped = loop {
        match loris.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() > deadline {
                    break false;
                }
            }
            Err(_) => break true, // reset also counts as closed
        }
    };
    assert!(reaped, "slow-loris connection must be closed by the idle sweep");

    // And the loop is still fine afterwards.
    let (status, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // The unread client can still drain its (buffered) responses.
    let responses = read_responses(&mut unread, 20);
    assert!(responses.iter().all(|(status, _)| *status == 200));

    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    let idle_closed = metrics
        .lines()
        .find_map(|l| l.strip_prefix("demodq_connections_idle_closed_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("idle-closed counter exported");
    assert!(idle_closed >= 1, "sweep must count reaped connections: {metrics}");
}

#[test]
fn hot_swap_under_predict_load_keeps_generations_coherent() {
    let registry_a = train_registry(&[ModelKind::LogReg], 7);
    let registry_b = Arc::new(registry_a.retrain(8).expect("retrain generation B"));
    let app = Arc::new(App::new(registry_a));
    let server = spawn_server(&app, Duration::from_secs(5));
    let addr = server.local_addr();
    let rows = sample_rows(2);
    let body = predict_body(&rows);

    // Hammer predict from several threads while the registry swaps
    // underneath them. Every response must be a 200 carrying a coherent
    // generation tag, and generations seen by any one thread must be
    // monotonic (each request starts after the previous one resolved).
    const SWAPS: u64 = 8;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut served = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let (status, reply) = exchange(addr, "POST", "/v1/predict", &body);
                    assert_eq!(status, 200, "predict failed mid-swap");
                    let reply: Value = serde_json::from_slice(&reply).unwrap();
                    let generation =
                        reply.get("generation").and_then(Value::as_u64).expect("generation tag");
                    assert!(
                        generation >= last_generation,
                        "generation went backwards: {last_generation} -> {generation}"
                    );
                    assert!(generation <= SWAPS + 1, "generation beyond final swap");
                    last_generation = generation;
                    served += 1;
                }
                (served, last_generation)
            })
        })
        .collect();

    let shared = app.shared_registry();
    for _ in 0..SWAPS {
        std::thread::sleep(Duration::from_millis(30));
        shared.swap(Arc::clone(&registry_b));
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total = 0;
    for hammer in hammers {
        let (served, _) = hammer.join().expect("hammer thread");
        total += served;
    }
    assert!(total > 0, "hammers must have served requests");
    assert_eq!(shared.generation(), SWAPS + 1);
    assert_eq!(shared.swaps(), SWAPS);

    // The swap counters are exported.
    let (_, metrics) = exchange(addr, "GET", "/metrics", "");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains(&format!("serve_registry_generation {}", SWAPS + 1)), "{metrics}");
    assert!(metrics.contains(&format!("serve_registry_swaps_total {SWAPS}")), "{metrics}");
}

#[test]
fn reload_endpoint_retrains_and_swaps_in_background() {
    let app = Arc::new(App::new(train_registry(&[ModelKind::LogReg], 7)));
    let server = spawn_server(&app, Duration::from_secs(5));
    let addr = server.local_addr();

    let (status, reply) = exchange(addr, "POST", "/v1/reload", "{\"seed\": 21}");
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&reply));
    let reply: Value = serde_json::from_slice(&reply).unwrap();
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("retraining"));

    // The swap lands once the background retrain finishes.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, health) = exchange(addr, "GET", "/healthz", "");
        let health: Value = serde_json::from_slice(&health).unwrap();
        if health.get("generation").and_then(Value::as_u64) == Some(2) {
            assert_eq!(health.get("swaps").and_then(Value::as_u64), Some(1));
            break;
        }
        assert!(Instant::now() < deadline, "retrain never swapped: {health}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Predictions now carry the new generation.
    let rows = sample_rows(1);
    let (status, reply) = exchange(addr, "POST", "/v1/predict", &predict_body(&rows));
    assert_eq!(status, 200);
    let reply: Value = serde_json::from_slice(&reply).unwrap();
    assert_eq!(reply.get("generation").and_then(Value::as_u64), Some(2));
}
