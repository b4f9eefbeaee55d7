//! Differential test of `/v1/predict`'s one-pass decoder.
//!
//! Request bodies are built from generated dataset rows
//! (`codec::rows_from_frame`) and then mutated the ways clients write
//! JSON: keys in any order (`"row"` before `"dataset"` included),
//! duplicate keys, absent and `null` cells, booleans in numeric columns,
//! numbers as `39`, `39.0`, `3.9e1`, `-0` or `18446744073709551615`,
//! `\u`-escaped strings, unseen categories and multi-row `rows`. Each body
//! goes through `App::route_or_defer` and one shared `App::predict_batch`;
//! its reply must carry exactly the predictions, probabilities (compared
//! bit for bit) and unseen-category count of the reference path
//! `frame_from_rows` → `transform_with_report` → `predict_with_proba` on
//! the body's `Value` tree. Faulty bodies must get the status the tree
//! path gives them.

use datasets::DatasetId;
use demodq::serving::ServingModel;
use demodq::StudyScale;
use demodq_serve::codec::{frame_from_rows, rows_from_frame};
use demodq_serve::routes::Routed;
use demodq_serve::{App, Registry, Request, Response};
use mlcore::ModelKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde_json::{Map, Number, Value};
use std::sync::OnceLock;
use tabular::{ColumnKind, ColumnRole, FieldMeta, Rng64};

/// Rows per dataset the bodies draw from.
const POOL_ROWS: usize = 24;

struct Fixture {
    app: App,
    /// Per dataset: generated rows as JSON objects.
    pools: Vec<(DatasetId, Vec<Value>)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let registry = Registry::train(
            &DatasetId::all(),
            &ModelKind::all(),
            &StudyScale::smoke(),
            "smoke",
            21,
        )
        .expect("train the registry");
        let pools = DatasetId::all()
            .into_iter()
            .map(|id| {
                let frame = id.generate(POOL_ROWS, 77).expect("generate rows");
                (id, rows_from_frame(&frame))
            })
            .collect();
        Fixture {
            app: App::new(registry),
            pools,
        }
    })
}

fn pool(id: DatasetId) -> &'static [Value] {
    &fixture()
        .pools
        .iter()
        .find(|(d, _)| *d == id)
        .expect("pool")
        .1
}

fn pairs() -> Vec<(DatasetId, ModelKind)> {
    DatasetId::all()
        .into_iter()
        .flat_map(|d| ModelKind::all().into_iter().map(move |m| (d, m)))
        .collect()
}

fn request(body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/v1/predict".to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Routes every body, then scores all the deferred ones in one batch, as
/// the event loop does. Returns one response per body.
fn serve(app: &App, bodies: &[String]) -> Vec<Response> {
    let mut replies: Vec<Option<Response>> = Vec::new();
    let mut jobs = Vec::new();
    let mut deferred = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        match app.route_or_defer(&request(body)) {
            Routed::Immediate(response) => replies.push(Some(response)),
            Routed::Predict(job) => {
                replies.push(None);
                jobs.push(*job);
                deferred.push(i);
            }
        }
    }
    for (i, response) in deferred.into_iter().zip(app.predict_batch(&jobs)) {
        replies[i] = Some(response);
    }
    replies
        .into_iter()
        .map(|r| r.expect("every body answered"))
        .collect()
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&Value::String(s.to_string())).expect("serialise a string")
}

/// `s` as a JSON string whose first character is `\u`-escaped.
fn escaped_string(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if (c as u32) < 0x10000 => {
            let rest = json_string(chars.as_str());
            format!("\"\\u{:04x}{}", c as u32, &rest[1..])
        }
        _ => json_string(s),
    }
}

/// A cell written the way a client might, keeping its value; `None`
/// leaves the key out.
fn write_cell(rng: &mut Rng64, field: &FieldMeta, value: &Value) -> Option<String> {
    if rng.bernoulli(0.08) {
        return None;
    }
    if rng.bernoulli(0.08) {
        return Some("null".to_string());
    }
    Some(match (field.kind, value) {
        (_, Value::Null) => "null".to_string(),
        (ColumnKind::Numeric, Value::Number(n)) if field.role == ColumnRole::Label => {
            let one = n.as_f64() > 0.5;
            let forms: [&str; 4] = if one {
                ["1", "1.0", "1e0", "true"]
            } else {
                ["0", "0.0", "-0", "false"]
            };
            forms[rng.below(forms.len())].to_string()
        }
        (ColumnKind::Numeric, Value::Number(n)) => {
            let x = n.as_f64();
            match rng.below(8) {
                0 if x.fract() == 0.0 && x.abs() < 1e15 => format!("{}", x as i64),
                1 => format!("{x:e}"),
                2 => "-0".to_string(),
                3 => "18446744073709551615".to_string(),
                4 => rng.bernoulli(0.5).to_string(),
                _ => n.to_string(),
            }
        }
        (ColumnKind::Categorical, Value::String(s)) => match rng.below(6) {
            0 => escaped_string(s),
            1 => json_string(&format!("unseen-{}", rng.below(3))),
            _ => json_string(s),
        },
        (_, other) => other.to_string(),
    })
}

/// A value no column accepts, for decoy duplicates that a later key
/// overrides.
fn decoy(rng: &mut Rng64) -> &'static str {
    [
        "\"decoy\"",
        "12345",
        "[1, {\"a\": null}]",
        "{\"x\": true}",
        "0.3",
    ][rng.below(5)]
}

fn write_row(rng: &mut Rng64, schema: &[FieldMeta], row: &Value) -> String {
    let object = row.as_object().expect("rows are objects");
    let mut members = Vec::new();
    for field in schema {
        let value = object.get(&field.name).unwrap_or(&Value::Null);
        let Some(text) = write_cell(rng, field, value) else {
            continue;
        };
        let key = if rng.bernoulli(0.1) {
            escaped_string(&field.name)
        } else {
            json_string(&field.name)
        };
        members.push((key, text));
    }
    rng.shuffle(&mut members);
    let mut out = String::from("{");
    for (i, (key, text)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if rng.bernoulli(0.1) {
            out.push_str(&format!("{key}: {}, ", decoy(rng)));
        }
        out.push_str(&format!("{key}:{text}"));
    }
    out.push('}');
    out
}

/// A valid body for (`dataset`, `model`) with 1–4 mutated rows.
fn write_body(rng: &mut Rng64, pools: &[(DatasetId, Vec<Value>)], served: &ServingModel) -> String {
    let schema = served.train.schema().fields();
    let rows = &pools
        .iter()
        .find(|(id, _)| *id == served.dataset)
        .expect("pool")
        .1;
    let n = 1 + rng.below(4);
    let written: Vec<String> = (0..n)
        .map(|_| {
            let row = &rows[rng.below(rows.len())];
            write_row(rng, schema, row)
        })
        .collect();
    let rows_member = if n == 1 && rng.bernoulli(0.5) {
        format!("\"row\": {}", written[0])
    } else {
        format!("\"rows\": [{}]", written.join(", "))
    };
    let mut members = vec![
        format!("\"dataset\": {}", json_string(served.dataset.name())),
        format!("\"model\": {}", json_string(served.model.name())),
        rows_member,
    ];
    if rng.bernoulli(0.3) {
        members.push("\"note\": [1, {\"k\": \"v\"}, null, -2.5e-3]".to_string());
    }
    rng.shuffle(&mut members);
    if rng.bernoulli(0.2) {
        // Overridden by the real member, which comes later.
        members.insert(0, "\"model\": \"no-such-model\"".to_string());
    }
    format!("{{{}}}", members.join(",\n "))
}

/// The reference path on the body's `Value` tree: (predictions,
/// probability bits, unseen-category rows).
fn reference(app: &App, body: &str) -> (Vec<u8>, Vec<u64>, u64) {
    let tree = serde_json::from_str(body).expect("body is JSON");
    let registry = app.registry();
    let served = registry
        .get(
            tree.get("dataset")
                .and_then(Value::as_str)
                .expect("dataset"),
            tree.get("model").and_then(Value::as_str).expect("model"),
        )
        .expect("served model");
    let rows = match tree.get("rows") {
        Some(rows) => rows.as_array().expect("rows array").clone(),
        None => vec![tree.get("row").expect("row").clone()],
    };
    let frame = frame_from_rows(served.train.schema(), &rows, false).expect("reference frame");
    let (x, report) = served
        .encoder
        .transform_with_report(&frame)
        .expect("reference encode");
    let (labels, probas) = served.classifier.predict_with_proba(&x);
    (
        labels,
        probas.iter().map(|p| p.to_bits()).collect(),
        report.unseen_category_rows,
    )
}

fn check_reply(app: &App, body: &str, reply: &Response) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(&reply.body);
    prop_assert_eq!(reply.status, 200, "{}\n-> {}", body, text);
    let parsed = serde_json::from_slice(&reply.body).expect("reply is JSON");
    let predictions: Vec<u8> = parsed
        .get("predictions")
        .and_then(Value::as_array)
        .expect("predictions")
        .iter()
        .map(|p| p.as_u64().expect("0/1") as u8)
        .collect();
    let probabilities: Vec<u64> = parsed
        .get("probabilities")
        .and_then(Value::as_array)
        .expect("probabilities")
        .iter()
        .map(|p| p.as_f64().expect("probability").to_bits())
        .collect();
    let unseen = parsed
        .get("unseen_category_rows")
        .and_then(Value::as_u64)
        .expect("unseen");
    let (want_predictions, want_probabilities, want_unseen) = reference(app, body);
    prop_assert_eq!(predictions, want_predictions, "{}", body);
    prop_assert_eq!(probabilities, want_probabilities, "{}", body);
    prop_assert_eq!(unseen, want_unseen, "{}", body);
    Ok(())
}

#[test]
fn every_pair_decodes_like_the_reference() {
    let fixture = fixture();
    let registry = fixture.app.registry();
    for (k, (dataset, model)) in pairs().into_iter().enumerate() {
        let served = registry.get(dataset.name(), model.name()).expect("served");
        let mut rng = Rng64::seed_from_u64(1000 + k as u64);
        let bodies: Vec<String> = (0..6)
            .map(|_| write_body(&mut rng, &fixture.pools, served))
            .collect();
        for (body, reply) in bodies.iter().zip(serve(&fixture.app, &bodies)) {
            check_reply(&fixture.app, body, &reply)
                .unwrap_or_else(|e| panic!("{dataset}/{model:?}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches across the 15 models: jobs of one model share a
    /// matrix, and every reply still equals its own reference.
    #[test]
    fn batched_bodies_decode_like_the_reference(
        picks in prop::collection::vec((0usize..15, any::<u64>()), 1..=6),
    ) {
        let fixture = fixture();
        let registry = fixture.app.registry();
        let pairs = pairs();
        let bodies: Vec<String> = picks
            .iter()
            .map(|&(p, seed)| {
                let (dataset, model) = pairs[p];
                let served = registry.get(dataset.name(), model.name()).expect("served");
                write_body(&mut Rng64::seed_from_u64(seed), &fixture.pools, served)
            })
            .collect();
        for (body, reply) in bodies.iter().zip(serve(&fixture.app, &bodies)) {
            check_reply(&fixture.app, body, &reply)?;
        }
    }
}

/// A plain single-row body for `dataset`/`model` with `edit` applied to
/// the row object.
fn body_with(dataset: &str, model: &str, edit: impl FnOnce(&mut Map<String, Value>)) -> String {
    let mut row = pool(DatasetId::parse(dataset).expect("dataset"))[0].clone();
    if let Value::Object(object) = &mut row {
        edit(object);
    }
    format!(
        "{{\"dataset\": {}, \"model\": {}, \"row\": {}}}",
        json_string(dataset),
        json_string(model),
        serde_json::to_string(&row).expect("row")
    )
}

#[test]
fn faulty_bodies_get_the_tree_paths_status() {
    let good = body_with("german", "log-reg", |_| {});
    let set = |key: &'static str, value: Value| {
        move |row: &mut Map<String, Value>| {
            row.insert(key.to_string(), value);
        }
    };
    let german_row = serde_json::to_string(&pool(DatasetId::German)[0]).expect("row");
    let cases: Vec<(&str, String, u16)> = vec![
        (
            "unknown column",
            body_with("german", "log-reg", set("aeg", Value::from(30u64))),
            400,
        ),
        (
            "string in a numeric column",
            body_with("german", "knn", set("age", Value::from("old"))),
            400,
        ),
        (
            "number in a categorical column",
            body_with("adult", "xgboost", set("sex", Value::from(1u64))),
            400,
        ),
        (
            "array in a numeric column",
            body_with("heart", "log-reg", set("age", Value::from(vec![1u64]))),
            400,
        ),
        (
            "non-object row",
            "{\"dataset\":\"german\",\"model\":\"log-reg\",\"row\":5}".to_string(),
            400,
        ),
        (
            "null row",
            "{\"dataset\":\"german\",\"model\":\"log-reg\",\"row\":null}".to_string(),
            400,
        ),
        (
            "non-object element",
            format!("{{\"dataset\":\"german\",\"model\":\"log-reg\",\"rows\":[{german_row},[1]]}}"),
            400,
        ),
        (
            "empty rows",
            "{\"dataset\":\"german\",\"model\":\"log-reg\",\"rows\":[]}".to_string(),
            400,
        ),
        (
            "rows not an array",
            format!("{{\"dataset\":\"german\",\"model\":\"log-reg\",\"rows\":{german_row}}}"),
            400,
        ),
        (
            "no rows",
            "{\"dataset\":\"german\",\"model\":\"log-reg\"}".to_string(),
            400,
        ),
        (
            "missing dataset",
            format!("{{\"model\":\"log-reg\",\"row\":{german_row}}}"),
            400,
        ),
        (
            "dataset not a string",
            format!("{{\"dataset\":7,\"model\":\"log-reg\",\"row\":{german_row}}}"),
            400,
        ),
        (
            "missing model",
            format!("{{\"dataset\":\"german\",\"row\":{german_row}}}"),
            400,
        ),
        ("not an object", "[1, 2, 3]".to_string(), 400),
        (
            "unknown model",
            body_with("german", "perceptron", |_| {}),
            404,
        ),
        (
            "unknown dataset",
            format!("{{\"dataset\":\"mnist\",\"model\":\"knn\",\"row\":{german_row}}}"),
            404,
        ),
        (
            "unknown model, empty rows",
            "{\"dataset\":\"german\",\"model\":\"svm\",\"rows\":[]}".to_string(),
            404,
        ),
        ("truncated", good[..good.len() - 3].to_string(), 400),
        ("trailing bytes", format!("{good} x"), 400),
        (
            "bad literal",
            good.replacen("\"row\"", "\"row\": nul, \"x\"", 1),
            400,
        ),
        (
            "unpaired surrogate",
            good.replacen("\"row\"", "\"x\": \"\\ud800\", \"row\"", 1),
            400,
        ),
        ("empty body", String::new(), 400),
        // Labels are 0, 1, true or false; anything else is a 400 rather
        // than a positive.
        (
            "label 0.3",
            body_with("german", "log-reg", set("credit", Value::from(0.3))),
            400,
        ),
        (
            "label -1",
            body_with("german", "xgboost", set("credit", Value::from(-1i64))),
            400,
        ),
        (
            "label 2",
            body_with("heart", "knn", set("cardio", Value::from(2u64))),
            400,
        ),
        (
            "label as a string",
            body_with("german", "log-reg", set("credit", Value::from("1"))),
            400,
        ),
        (
            "null label",
            body_with("german", "log-reg", set("credit", Value::Null)),
            200,
        ),
        (
            "boolean label",
            body_with("german", "log-reg", set("credit", Value::from(true))),
            200,
        ),
    ];
    // All in one batch: a faulty job must not spoil its neighbours.
    let mut bodies: Vec<String> = cases.iter().map(|(_, body, _)| body.clone()).collect();
    bodies.push(good.clone());
    let fixture = fixture();
    let replies = serve(&fixture.app, &bodies);
    for ((name, body, want), reply) in cases.iter().zip(&replies) {
        assert_eq!(
            reply.status,
            *want,
            "{name}: {body}\n-> {}",
            String::from_utf8_lossy(&reply.body)
        );
    }
    check_reply(&fixture.app, &good, &replies[cases.len()]).expect("the good job in the batch");
}

#[test]
fn bytes_that_are_not_utf8_are_a_400() {
    let fixture = fixture();
    let mut body = body_with("german", "log-reg", |_| {}).into_bytes();
    let at = body.len() - 4;
    body[at] = 0xff;
    let request = Request {
        body,
        ..request("")
    };
    match fixture.app.route_or_defer(&request) {
        Routed::Immediate(reply) => assert_eq!(reply.status, 400),
        Routed::Predict(_) => panic!("invalid UTF-8 was deferred"),
    }
}

#[test]
fn labelled_rows_without_a_sensitive_attribute_skip_that_window() {
    // A fresh app: the drift windows start empty.
    let registry = Registry::train(
        &[DatasetId::German],
        &[ModelKind::LogReg],
        &StudyScale::smoke(),
        "smoke",
        21,
    )
    .expect("train");
    let app = App::new(registry);
    let rows = pool(DatasetId::German);
    let mut bodies = Vec::new();
    // 4 complete rows, 3 without `sex` (absent or null), 2 without `age`.
    for (i, row) in rows.iter().take(9).enumerate() {
        let mut row = row.as_object().expect("object").clone();
        match i {
            4 | 5 => {
                row.remove("sex");
            }
            6 => {
                row.insert("sex".to_string(), Value::Null);
            }
            7 | 8 => {
                row.insert("age".to_string(), Value::Null);
            }
            _ => {}
        }
        bodies.push(format!(
            "{{\"dataset\":\"german\",\"model\":\"log-reg\",\"row\":{}}}",
            serde_json::to_string(&Value::Object(row)).expect("row")
        ));
    }
    for reply in serve(&app, &bodies) {
        assert_eq!(reply.status, 200);
    }
    let windows: Vec<(String, usize)> = app
        .drift()
        .snapshot()
        .into_iter()
        .map(|e| (e.group, e.window_len))
        .collect();
    let size = |group: &str| windows.iter().find(|(g, _)| g == group).map(|(_, n)| *n);
    assert_eq!(size("sex"), Some(9 - 3), "{windows:?}");
    assert_eq!(size("age"), Some(9 - 2), "{windows:?}");
    // The intersectional spec reads both attributes: 4 complete rows at
    // most, fewer when a complete row is in neither group.
    if let Some(n) = size("sex*age") {
        assert!(n <= 4, "{windows:?}");
    }
}

#[test]
fn numbers_keep_the_u64_i64_f64_rule() {
    // `-0` is an integer zero (not -0.0) and u64::MAX reads as its f64.
    let fixture = fixture();
    let body = body_with("german", "log-reg", |row| {
        row.insert("age".to_string(), Value::Number(Number::I64(0)));
        row.insert("duration".to_string(), Value::Number(Number::U64(u64::MAX)));
    })
    .replace("\"age\":0", "\"age\":-0");
    assert!(body.contains("\"age\":-0"), "{body}");
    let reply = serve(&fixture.app, std::slice::from_ref(&body))
        .pop()
        .expect("reply");
    check_reply(&fixture.app, &body, &reply).expect("same as the tree path");
}
