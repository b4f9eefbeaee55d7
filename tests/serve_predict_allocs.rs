//! Heap allocations of one warmed single-row `/v1/predict`
//! (`App::route_or_defer` + `App::predict_batch`), counted on the calling
//! thread by a counting global allocator. The count is pinned for every
//! dataset and model, with and without a label, and must not grow with
//! the number of columns a row carries.

use datasets::DatasetId;
use demodq::StudyScale;
use demodq_serve::codec::rows_from_frame;
use demodq_serve::routes::Routed;
use demodq_serve::{App, Registry, Request};
use mlcore::ModelKind;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one single-row predict may make.
const MAX_ALLOCS: u64 = 24;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the thread-local counter allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn request(body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/v1/predict".to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Allocations of one predict of `body`, after warm-up runs of the same
/// body (thread-local scratch pools and the drift windows settle).
fn predict_allocs(app: &App, body: &str) -> u64 {
    let request = request(body);
    let run = || {
        let Routed::Predict(job) = app.route_or_defer(&request) else {
            panic!("predict was not deferred: {body}");
        };
        let replies = app.predict_batch(&[*job]);
        assert_eq!(
            replies[0].status,
            200,
            "{}",
            String::from_utf8_lossy(&replies[0].body)
        );
    };
    for _ in 0..3 {
        run();
    }
    let before = allocs();
    run();
    allocs() - before
}

#[test]
fn single_row_predict_allocations_are_bounded_and_column_free() {
    let registry = Registry::train(
        &DatasetId::all(),
        &ModelKind::all(),
        &StudyScale::smoke(),
        "smoke",
        5,
    )
    .expect("train the registry");
    let app = App::new(registry);
    for dataset in DatasetId::all() {
        let frame = dataset.generate(3, 11).expect("generate rows");
        let label = frame.schema().label().expect("label column").name.clone();
        let row = rows_from_frame(&frame).swap_remove(0);
        let Value::Object(full) = row else {
            panic!("rows are objects")
        };
        let mut unlabelled = full.clone();
        unlabelled.remove(&label);
        // The label and half the remaining columns: fewer cells to decode.
        let mut sparse = serde_json::Map::new();
        for (k, (name, value)) in full.iter().enumerate() {
            if *name == label || k % 2 == 0 {
                sparse.insert(name.clone(), value.clone());
            }
        }
        for model in ModelKind::all() {
            let body = |row: &serde_json::Map<String, Value>| {
                serde_json::to_string(&serde_json::json!({
                    "dataset": dataset.name(),
                    "model": model.name(),
                    "row": Value::Object(row.clone()),
                }))
                .expect("body")
            };
            let labelled = predict_allocs(&app, &body(&full));
            let without = predict_allocs(&app, &body(&unlabelled));
            let fewer_columns = predict_allocs(&app, &body(&sparse));
            let pair = format!("{}/{}", dataset.name(), model.name());
            assert!(
                labelled <= MAX_ALLOCS,
                "{pair} labelled: {labelled} allocations"
            );
            assert!(
                without <= MAX_ALLOCS,
                "{pair} unlabelled: {without} allocations"
            );
            assert_eq!(
                fewer_columns,
                labelled,
                "{pair}: {} columns cost {labelled} allocations, {} cost {fewer_columns}",
                full.len(),
                sparse.len()
            );
        }
    }
}
