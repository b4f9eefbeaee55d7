//! End-to-end test of the serving subsystem: a real `Server` on an
//! ephemeral port, exercised over actual TCP sockets with a minimal
//! in-test HTTP client.
//!
//! The registry is trained once (German credit, logistic regression plus
//! xgboost, at smoke scale) and shared across the assertions, because
//! startup training dominates the test's runtime. The xgboost model
//! exercises the pre-serving leaf rectification path end to end.

use datasets::DatasetId;
use demodq::StudyScale;
use demodq_serve::codec::rows_from_frame;
use demodq_serve::{App, Registry, Server, ServerConfig};
use mlcore::ModelKind;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One HTTP exchange on a fresh connection (`Connection: close`).
/// Returns the status code and the raw body bytes.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let header_end = text.find("\r\n\r\n").expect("response has header terminator");
    (status, raw[header_end + 4..].to_vec())
}

fn exchange_json(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let (status, body) = exchange(addr, method, path, body);
    let value = serde_json::from_slice(&body)
        .unwrap_or_else(|e| panic!("non-JSON body ({e}): {:?}", String::from_utf8_lossy(&body)));
    (status, value)
}

/// JSON rows drawn from a freshly generated German-credit frame, so the
/// column names and categories always match the served schema.
fn sample_rows(n: usize) -> Vec<Value> {
    let frame = DatasetId::German.generate(n, 12345).expect("generate sample rows");
    rows_from_frame(&frame)
}

#[test]
fn serves_predict_clean_audit_over_tcp() {
    let registry = Registry::train(
        &[DatasetId::German],
        &[ModelKind::LogReg, ModelKind::Gbdt],
        &StudyScale::smoke(),
        "smoke",
        7,
    )
    .expect("train test registry");
    let app = Arc::new(App::new(registry));
    let server = Server::spawn(
        Arc::clone(&app),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            log_requests: false,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.local_addr();

    // --- /healthz reports the registry ---
    let (status, health) = exchange_json(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    let models = health.get("models").and_then(Value::as_array).expect("models array");
    assert_eq!(models.len(), 2);
    assert_eq!(models[0].get("dataset").and_then(Value::as_str), Some("german"));

    // --- /v1/predict on a batch of 3 rows ---
    let rows = sample_rows(3);
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "log-reg",
        "rows": Value::Array(rows.clone()),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/predict", Some(&body));
    assert_eq!(status, 200, "predict failed: {reply}");
    let predictions = reply.get("predictions").and_then(Value::as_array).expect("predictions");
    assert_eq!(predictions.len(), 3);
    for p in predictions {
        let p = p.as_u64().expect("binary prediction");
        assert!(p <= 1);
    }
    let probabilities =
        reply.get("probabilities").and_then(Value::as_array).expect("probabilities");
    assert_eq!(probabilities.len(), 3);
    for p in probabilities {
        let p = p.as_f64().expect("probability");
        assert!((0.0..=1.0).contains(&p));
    }
    // In-vocabulary rows carry no unseen categories.
    assert_eq!(reply.get("unseen_category_rows").and_then(Value::as_u64), Some(0));

    // --- /v1/predict surfaces rows with categories unseen at fit time ---
    let mut rows = sample_rows(3);
    for i in [0, 2] {
        if let Value::Object(map) = &mut rows[i] {
            map.insert("purpose".to_string(), Value::String("hovercraft".to_string()));
        }
    }
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "log-reg",
        "rows": Value::Array(rows),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/predict", Some(&body));
    assert_eq!(status, 200, "predict with unseen category failed: {reply}");
    assert_eq!(
        reply.get("unseen_category_rows").and_then(Value::as_u64),
        Some(2),
        "unseen-category rows must be tallied, not silently zero-encoded: {reply}"
    );

    // --- /v1/audit on a labeled batch ---
    let rows = sample_rows(40);
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "log-reg",
        "rows": Value::Array(rows),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/audit", Some(&body));
    assert_eq!(status, 200, "audit failed: {reply}");
    assert_eq!(reply.get("n_rows").and_then(Value::as_u64), Some(40));
    let accuracy = reply.get("accuracy").and_then(Value::as_f64).expect("accuracy");
    assert!((0.0..=1.0).contains(&accuracy));
    let groups = reply.get("groups").and_then(Value::as_array).expect("groups");
    assert!(!groups.is_empty(), "audit must report at least one group");
    for group in groups {
        for side in ["privileged", "disadvantaged"] {
            let confusion = group.get(side).expect("group side");
            assert!(confusion.get("n").and_then(Value::as_u64).is_some());
        }
        assert!(group.get("disparities").and_then(|d| d.get("predictive_parity")).is_some());
        assert!(group.get("disparities").and_then(|d| d.get("equal_opportunity")).is_some());
    }

    // --- /v1/audit on the rectified xgboost model reports pre/post gaps ---
    let rows = sample_rows(40);
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "xgboost",
        "rows": Value::Array(rows),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/audit", Some(&body));
    assert_eq!(status, 200, "tree audit failed: {reply}");
    let rect = reply.get("rectification").expect("rectification field present");
    assert!(!rect.is_null(), "tree models must carry a rectification summary");
    assert_eq!(rect.get("metric").and_then(Value::as_str), Some("EO"));
    assert!(rect.get("epsilon").and_then(Value::as_f64).is_some());
    assert!(rect.get("constraint_met").and_then(Value::as_bool).is_some());
    let gaps = rect.get("gaps").and_then(Value::as_array).expect("gaps array");
    assert!(!gaps.is_empty(), "rectification must report per-group gaps");
    for gap in gaps {
        assert!(gap.get("group").and_then(Value::as_str).is_some());
        for phase in ["pre", "post"] {
            let v = gap.get(phase).expect("gap phase present");
            assert!(v.is_null() || (0.0..=1.0).contains(&v.as_f64().unwrap()), "{gap}");
        }
    }

    // --- while the linear model's audit reports no rectification ---
    let rows = sample_rows(10);
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "model": "log-reg",
        "rows": Value::Array(rows),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/audit", Some(&body));
    assert_eq!(status, 200);
    assert!(
        reply.get("rectification").is_some_and(Value::is_null),
        "linear models must report null rectification: {reply}"
    );

    // --- /v1/clean flags and repairs submitted rows ---
    let rows = sample_rows(25);
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "detector": "outliers-sd",
        "rows": Value::Array(rows),
    }))
    .unwrap();
    let (status, reply) = exchange_json(addr, "POST", "/v1/clean", Some(&body));
    assert_eq!(status, 200, "clean failed: {reply}");
    assert_eq!(reply.get("detector").and_then(Value::as_str), Some("outliers-sd"));
    assert!(reply.get("flagged_cells").and_then(Value::as_array).is_some());
    assert!(reply.get("repairs").and_then(Value::as_array).is_some());

    // --- the isolation forest cleans too; a repeated request, same bytes ---
    let body = serde_json::to_string(&serde_json::json!({
        "dataset": "german",
        "detector": "outliers-if",
        "rows": Value::Array(sample_rows(25)),
    }))
    .unwrap();
    let (status, first) = exchange(addr, "POST", "/v1/clean", Some(&body));
    let reply: Value = serde_json::from_slice(&first).expect("clean replies with JSON");
    assert_eq!(status, 200, "outliers-if clean failed: {reply}");
    assert_eq!(reply.get("detector").and_then(Value::as_str), Some("outliers-if"));
    let (status, second) = exchange(addr, "POST", "/v1/clean", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(first, second, "an identical outliers-if request must get an identical body");

    // --- malformed JSON is a 400, and the worker survives it ---
    let (status, reply) = exchange_json(addr, "POST", "/v1/predict", Some("{not json"));
    assert_eq!(status, 400, "malformed body must be rejected: {reply}");
    let (status, _) = exchange_json(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "server must keep serving after a bad request");

    // --- unknown routes and wrong methods ---
    let (status, _) = exchange_json(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = exchange_json(addr, "GET", "/v1/predict", None);
    assert_eq!(status, 405);

    // --- metrics counted everything above ---
    let (status, metrics) = exchange(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("metrics are text");
    assert!(metrics.contains("demodq_requests_total{endpoint=\"/v1/predict\"}"));
    assert!(metrics.contains("demodq_request_seconds_bucket"));
    assert!(
        metrics.contains("demodq_unseen_category_rows_total 2"),
        "the unseen-category tally from the predict above must be exported: {metrics}"
    );

    // --- startup training time is exported per served model ---
    assert!(metrics.contains("# TYPE serve_startup_train_seconds gauge"));
    let gauge = metrics
        .lines()
        .find(|l| l.starts_with("serve_startup_train_seconds{dataset=\"german\",model=\"log-reg\"}"))
        .expect("startup gauge for the served (dataset, model) pair");
    let value: f64 = gauge.split_whitespace().last().unwrap().parse().unwrap();
    assert!(value > 0.0, "training took measurable time: {gauge}");

    // --- rectification gaps are exported per (dataset, model, group, phase) ---
    assert!(metrics.contains("# TYPE serve_rectification_gap gauge"), "{metrics}");
    let gap_line = metrics
        .lines()
        .find(|l| l.starts_with("serve_rectification_gap{dataset=\"german\",model=\"xgboost\""))
        .expect("rectification gauge for the served tree");
    assert!(gap_line.contains("phase=\"pre\"") || gap_line.contains("phase=\"post\""), "{gap_line}");

    // --- graceful shutdown: joins cleanly, then refuses connections ---
    server.shutdown();
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "listener must be closed after shutdown");
}
