//! Endpoint handlers: routing, JSON body handling, the model endpoints
//! (`/v1/predict`, `/v1/clean`, `/v1/audit`), and the batched predict
//! scorer the event loop drives.
//!
//! Prediction is *always* scored through the batched path: the blocking
//! route wraps a request into a one-job batch, the event loop coalesces
//! concurrent requests into larger ones. [`App::route_or_defer`] reads a
//! predict body once, checking that it is valid JSON with a dataset, a
//! model and rows, and records where the rows are; it builds no `Value`
//! tree. A batch snapshots the registry exactly once, so every response
//! in it reflects one generation; jobs are grouped by (dataset, model),
//! their rows decoded from the request bytes straight into the group's
//! matrix by the model's [`RowPlan`], and each group scored with a single
//! batched classifier call. Feature encoding and scoring are
//! row-independent, so batched results are bit-identical to scoring each
//! request alone.

use crate::codec::{cell_to_json, frame_from_rows, DecodedRows, RowPlan};
use crate::drift::{DriftConfig, DriftEntry, DriftStore};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::registry::{Registry, SharedRegistry};
use cleaning::detect::{DetectorKind, FittedDetector};
use cleaning::repair::{LabelRepair, MissingRepair, OutlierRepair};
use datasets::DatasetId;
use demodq::serving::ServingModel;
use fairness::{group_confusions, ConfusionMatrix, FairnessMetric, GroupConfusions};
use mlcore::ModelKind;
use serde_json::{json, Event, Reader, Value};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Shared application state: the hot-swappable registry, the metrics, the
/// drift windows, and the clock.
pub struct App {
    registry: Arc<SharedRegistry>,
    drift: DriftStore,
    metrics: Metrics,
    started: Instant,
}

/// Handler-internal error: already a rendered response.
type Handled = Result<Response, Response>;

/// A validated `/v1/predict` request waiting to be scored. The event
/// loop collects these across connections and scores them together via
/// [`App::predict_batch`].
pub struct PredictJob {
    /// The request body; the spans below index into it.
    body: Vec<u8>,
    /// The named dataset and model, `None` when a name is unknown.
    dataset: Option<DatasetId>,
    model: Option<ModelKind>,
    /// The `"dataset"` and `"model"` string tokens, for the 404 reply.
    names: [Range<usize>; 2],
    /// The `"rows"` array, or the `"row"` value when `single`.
    rows: Range<usize>,
    n_rows: usize,
    single: bool,
    started: Instant,
}

impl PredictJob {
    /// Rows this job contributes to a micro-batch.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// When the request was parsed (for latency accounting by the caller).
    pub fn started(&self) -> Instant {
        self.started
    }
}

/// What the event loop should do with a parsed request.
pub enum Routed {
    /// Handled synchronously; metrics already recorded.
    Immediate(Response),
    /// A predict job to coalesce into the current micro-batch. The caller
    /// records `/v1/predict` metrics when the batch resolves.
    Predict(Box<PredictJob>),
}

impl App {
    /// Wraps a trained registry with default drift telemetry.
    pub fn new(registry: Registry) -> App {
        App::with_drift(registry, DriftConfig::default())
    }

    /// Wraps a trained registry with explicit drift-telemetry knobs.
    pub fn with_drift(registry: Registry, drift: DriftConfig) -> App {
        App {
            registry: Arc::new(SharedRegistry::new(registry)),
            drift: DriftStore::new(drift),
            metrics: Metrics::new(),
            started: Instant::now(),
        }
    }

    /// The metrics registry (shared with the server loop).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The drift-telemetry store.
    pub fn drift(&self) -> &DriftStore {
        &self.drift
    }

    /// The hot-swappable registry handle (for `/v1/reload` driving and
    /// tests that swap generations directly).
    pub fn shared_registry(&self) -> &Arc<SharedRegistry> {
        &self.registry
    }

    /// A snapshot of the current registry generation.
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.snapshot().0
    }

    /// Handles one parsed request: routes it, converts a handler panic
    /// into a 500, and records the outcome in [`App::metrics`]. The event
    /// loop reaches it through [`App::route_or_defer`] for every request
    /// that is not a predict; it is also callable directly for
    /// in-process serving.
    pub fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        // A handler panic must cost one 500, not the calling thread.
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.route(request)))
                .unwrap_or_else(|_| Response::error(500, "internal error"));
        self.metrics.observe(&request.path, response.status, started.elapsed());
        response
    }

    /// Routes one request for the event loop: predict requests become
    /// deferred jobs (metrics recorded by the caller at batch
    /// resolution), everything else is answered inline via
    /// [`App::handle`].
    pub fn route_or_defer(&self, request: &Request) -> Routed {
        if request.method == "POST" && request.path == "/v1/predict" {
            let started = Instant::now();
            match parse_predict(request) {
                Ok(job) => Routed::Predict(Box::new(job)),
                Err(response) => {
                    self.metrics.observe("/v1/predict", response.status, started.elapsed());
                    Routed::Immediate(response)
                }
            }
        } else {
            Routed::Immediate(self.handle(request))
        }
    }

    /// Scores a micro-batch of predict jobs with one registry snapshot
    /// and one batched classifier call per (dataset, model) group.
    /// Returns exactly one response per job, in order; a panic anywhere
    /// in scoring costs the whole batch a 500 each, never the serving
    /// thread.
    pub fn predict_batch(&self, jobs: &[PredictJob]) -> Vec<Response> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.predict_batch_inner(jobs)))
            .unwrap_or_else(|_| {
                jobs.iter().map(|_| Response::error(500, "internal error")).collect()
            })
    }

    fn predict_batch_inner(&self, jobs: &[PredictJob]) -> Vec<Response> {
        // One snapshot per batch: every job in it sees one generation.
        let (registry, generation) = self.registry.snapshot();

        // Group jobs by model: each group's rows are decoded into one
        // matrix and scored with a single batched call. Rows are scored
        // independently by every model family, so splitting the result
        // reproduces per-job scoring bit for bit.
        struct Group<'r> {
            served: &'r ServingModel,
            plan: &'r RowPlan,
            rows: DecodedRows,
            scores: (Vec<u8>, Vec<f64>),
        }
        enum Outcome {
            Failed(Response),
            /// Rows `start..start + n` of group `group`.
            Decoded { group: usize, start: usize, n: usize, unseen: u64 },
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let Some((served, plan)) = job.dataset.zip(job.model).and_then(|(d, m)| registry.planned(d, m))
            else {
                let [dataset, model] = job.names.clone().map(|span| String::from_utf8_lossy(&job.body[span]));
                let message = format!("no model for dataset {dataset} and model {model}");
                outcomes.push(Outcome::Failed(Response::error(404, &message)));
                continue;
            };
            let group = match groups.iter().position(|g| std::ptr::eq(g.served, served)) {
                Some(g) => g,
                None => {
                    groups.push(Group { served, plan, rows: DecodedRows::default(), scores: Default::default() });
                    groups.len() - 1
                }
            };
            let rows = &mut groups[group].rows;
            let start = rows.n_rows();
            outcomes.push(
                match plan.decode_rows(&served.encoder, &job.body[job.rows.clone()], job.single, rows) {
                    Ok(unseen) => Outcome::Decoded { group, start, n: rows.n_rows() - start, unseen },
                    Err(e) => Outcome::Failed(Response::error(400, &e)),
                },
            );
        }
        let mut scored_rows = 0u64;
        for group in &mut groups {
            if let Some(x) = group.rows.take_matrix() {
                scored_rows += x.n_rows() as u64;
                group.scores = group.served.classifier.predict_with_proba(&x);
            }
        }
        self.metrics.observe_batch(jobs.len() as u64, scored_rows);

        // Per-job responses, in job order; labeled rows feed the drift
        // windows.
        let mut responses = Vec::with_capacity(jobs.len());
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let (group, start, n, unseen) = match outcome {
                Outcome::Failed(response) => {
                    responses.push(response);
                    continue;
                }
                Outcome::Decoded { group, start, n, unseen } => (&groups[group], start, n, unseen),
            };
            let rows = start..start + n;
            let (predictions, probabilities) =
                (&group.scores.0[rows.clone()], &group.scores.1[rows.clone()]);
            self.metrics.observe_unseen_category_rows(unseen);
            let labels = &group.rows.labels()[rows];
            if labels.iter().any(Option::is_some) {
                self.drift.observe_rows(group.served, labels, predictions, |i, attribute| {
                    group.plan.group_cell(&group.rows, start + i, attribute)
                });
            }
            responses.push(predict_reply(
                group.served,
                generation,
                unseen,
                predictions,
                probabilities,
                job.single,
            ));
        }
        responses
    }

    /// Routes one parsed request to its handler.
    fn route(&self, request: &Request) -> Response {
        let result = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Ok(self.healthz()),
            ("GET", "/metrics") => Ok(Response::text(200, self.render_metrics())),
            ("POST", "/v1/predict") => parse_predict(request).map(|job| {
                let mut responses = self.predict_batch(&[job]);
                responses.pop().unwrap_or_else(|| Response::error(500, "empty batch result"))
            }),
            ("POST", "/v1/clean") => self.json_body(request).and_then(|b| self.clean(&b)),
            ("POST", "/v1/audit") => self.json_body(request).and_then(|b| self.audit(&b)),
            ("POST", "/v1/reload") => self.json_body_or_empty(request).and_then(|b| self.reload(&b)),
            (_, "/healthz" | "/metrics" | "/v1/predict" | "/v1/clean" | "/v1/audit" | "/v1/reload") => {
                Err(Response::error(405, "method not allowed"))
            }
            _ => Err(Response::error(404, "no such endpoint")),
        };
        result.unwrap_or_else(|error| error)
    }

    /// The request-level metrics plus registry and drift gauges.
    fn render_metrics(&self) -> String {
        let (registry, generation) = self.registry.snapshot();
        let mut out = self.metrics.render();
        out.push_str("# HELP serve_registry_generation Current model registry generation (bumped by each hot swap).\n");
        out.push_str("# TYPE serve_registry_generation gauge\n");
        out.push_str(&format!("serve_registry_generation {generation}\n"));
        out.push_str("# HELP serve_registry_swaps_total Completed registry hot swaps.\n");
        out.push_str("# TYPE serve_registry_swaps_total counter\n");
        out.push_str(&format!("serve_registry_swaps_total {}\n", self.registry.swaps()));
        out.push_str("# HELP serve_registry_retrain_in_flight Whether a background retrain is running.\n");
        out.push_str("# TYPE serve_registry_retrain_in_flight gauge\n");
        out.push_str(&format!(
            "serve_registry_retrain_in_flight {}\n",
            u8::from(self.registry.retrain_in_flight())
        ));
        out.push_str("# HELP serve_startup_train_seconds Wall-clock seconds spent training each served model at startup.\n");
        out.push_str("# TYPE serve_startup_train_seconds gauge\n");
        for (dataset, model, seconds) in registry.startup_train_seconds() {
            out.push_str(&format!(
                "serve_startup_train_seconds{{dataset=\"{dataset}\",model=\"{model}\"}} {seconds:.6}\n"
            ));
        }
        let mut gap_lines = String::new();
        for served in registry.entries() {
            let Some(rect) = &served.rectification else { continue };
            for gap in &rect.gaps {
                for (phase, value) in [("pre", gap.pre), ("post", gap.post)] {
                    let Some(value) = value else { continue };
                    gap_lines.push_str(&format!(
                        "serve_rectification_gap{{dataset=\"{}\",model=\"{}\",group=\"{}\",phase=\"{phase}\"}} {value:.6}\n",
                        served.dataset.name(),
                        served.model.name(),
                        gap.group,
                    ));
                }
            }
        }
        if !gap_lines.is_empty() {
            out.push_str("# HELP serve_rectification_gap Absolute fairness disparity of served tree models on the held-out test split, before and after leaf rectification.\n");
            out.push_str("# TYPE serve_rectification_gap gauge\n");
            out.push_str(&gap_lines);
        }
        self.render_drift_metrics(&mut out);
        out
    }

    /// Sliding-window fairness gauges: windowed disparity, drift against
    /// the training-time baseline, and the alert bit, per (dataset,
    /// model, group). HELP/TYPE lines are emitted even before labeled
    /// traffic arrives so scrapers can discover the gauge family.
    fn render_drift_metrics(&self, out: &mut String) {
        out.push_str("# HELP serve_fairness_drift_alert_threshold Absolute drift beyond which a window alerts.\n");
        out.push_str("# TYPE serve_fairness_drift_alert_threshold gauge\n");
        out.push_str(&format!(
            "serve_fairness_drift_alert_threshold {:.6}\n",
            self.drift.alert_threshold()
        ));
        out.push_str("# HELP serve_fairness_window_disparity Sliding-window absolute fairness disparity over labeled serving traffic.\n");
        out.push_str("# TYPE serve_fairness_window_disparity gauge\n");
        out.push_str("# HELP serve_fairness_drift Windowed disparity minus the model's training-time test-split baseline.\n");
        out.push_str("# TYPE serve_fairness_drift gauge\n");
        out.push_str("# HELP serve_fairness_drift_alert 1 when any metric's |drift| exceeds the alert threshold.\n");
        out.push_str("# TYPE serve_fairness_drift_alert gauge\n");
        out.push_str("# HELP serve_fairness_window_size Observations currently inside each drift window.\n");
        out.push_str("# TYPE serve_fairness_window_size gauge\n");
        for e in self.drift.snapshot() {
            let labels =
                format!("dataset=\"{}\",model=\"{}\",group=\"{}\"", e.dataset, e.model, e.group);
            for (metric, window, drift) in [
                ("predictive_parity", e.predictive_parity, e.drift_predictive_parity),
                ("equal_opportunity", e.equal_opportunity, e.drift_equal_opportunity),
            ] {
                if let Some(w) = window {
                    out.push_str(&format!(
                        "serve_fairness_window_disparity{{{labels},metric=\"{metric}\"}} {w:.6}\n"
                    ));
                }
                if let Some(d) = drift {
                    out.push_str(&format!(
                        "serve_fairness_drift{{{labels},metric=\"{metric}\"}} {d:.6}\n"
                    ));
                }
            }
            out.push_str(&format!(
                "serve_fairness_drift_alert{{{labels}}} {}\n",
                u8::from(e.alert)
            ));
            out.push_str(&format!(
                "serve_fairness_window_size{{{labels}}} {}\n",
                e.window_len
            ));
        }
    }

    fn healthz(&self) -> Response {
        let (registry, generation) = self.registry.snapshot();
        let models: Vec<Value> = registry
            .entries()
            .map(|m| {
                json!({
                    "dataset": m.dataset.name(),
                    "model": m.model.name(),
                    "best_params": m.best_params,
                    "val_accuracy": m.val_accuracy,
                    "test_accuracy": m.test_accuracy,
                })
            })
            .collect();
        Response::json(
            200,
            &json!({
                "status": "ok",
                "scale": registry.scale_name(),
                "seed": registry.seed(),
                "generation": generation,
                "swaps": self.registry.swaps(),
                "retrain_in_flight": self.registry.retrain_in_flight(),
                "uptime_seconds": self.started.elapsed().as_secs(),
                "models": Value::Array(models),
            }),
        )
    }

    fn json_body(&self, request: &Request) -> Result<Value, Response> {
        serde_json::from_slice(&request.body)
            .map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))
    }

    /// Like [`App::json_body`], but an empty body reads as `{}` (for
    /// endpoints whose parameters are all optional).
    fn json_body_or_empty(&self, request: &Request) -> Result<Value, Response> {
        if request.body.is_empty() {
            return Ok(json!({}));
        }
        self.json_body(request)
    }

    /// `POST /v1/reload`: kick off a background retrain of the current
    /// roster and atomically swap it in when done. Body may carry
    /// `{"seed": N}`; the default is the current seed + 1. Answers 202
    /// immediately, or 409 while a retrain is already in flight.
    fn reload(&self, body: &Value) -> Handled {
        let (registry, generation) = self.registry.snapshot();
        let seed = match body.get("seed") {
            None | Some(Value::Null) => registry.seed().wrapping_add(1),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| Response::error(400, "\"seed\" must be an unsigned integer"))?,
        };
        match self.registry.begin_retrain(seed) {
            Ok(()) => Ok(Response::json(
                202,
                &json!({
                    "status": "retraining",
                    "seed": seed,
                    "current_generation": generation,
                }),
            )),
            Err(message) => Err(Response::error(409, message)),
        }
    }

    fn clean(&self, body: &Value) -> Handled {
        let (registry, _) = self.registry.snapshot();
        let dataset = require_str(body, "dataset")?;
        let served = registry
            .any_for_dataset(dataset)
            .ok_or_else(|| Response::error(404, &format!("no models for dataset {dataset:?}")))?;
        let detector = parse_detector(require_str(body, "detector")?)?;
        let (rows, _) = request_rows(body)?;
        // Mislabel detection inspects the submitted labels; everything else
        // runs fully unlabeled.
        let needs_labels = matches!(detector, DetectorKind::Mislabels);
        let frame = frame_from_rows(served.train.schema(), rows, needs_labels)
            .map_err(|e| Response::error(400, &e))?;
        // Fit on the training split ("fit on train, detect anywhere") so
        // thresholds reflect train-time statistics — except mislabels,
        // whose label model must see the submitted labels themselves.
        let fit_frame = if needs_labels { &frame } else { &served.train };
        let fitted = detector
            .fit(fit_frame, served.dataset as u64 ^ 0xC1EA)
            .map_err(|e| Response::error(400, &format!("detector fit failed: {e}")))?;
        let report =
            fitted.detect(&frame).map_err(|e| Response::error(400, &format!("detection failed: {e}")))?;

        let flagged_cells: Vec<Value> = report
            .cell_flags
            .iter()
            .flat_map(|(column, flags)| {
                flags
                    .iter()
                    .enumerate()
                    .filter(|(_, &flagged)| flagged)
                    .map(|(row, _)| json!({ "row": row, "column": column }))
                    .collect::<Vec<_>>()
            })
            .collect();

        let (repair_name, repaired) = self.apply_repair(body, served, &fitted, &frame, &report)?;
        let mut repairs = Vec::new();
        for field in frame.schema().fields() {
            for row in 0..frame.n_rows() {
                let original = cell_to_json(&frame, row, &field.name);
                let new = cell_to_json(&repaired, row, &field.name);
                if original != new {
                    repairs.push(json!({
                        "row": row,
                        "column": field.name,
                        "original": original,
                        "repaired": new,
                    }));
                }
            }
        }

        Ok(Response::json(
            200,
            &json!({
                "dataset": served.dataset.name(),
                "detector": report.detector,
                "repair": repair_name,
                "n_rows": frame.n_rows(),
                "flagged_rows": report.flagged_rows(),
                "flagged_cells": Value::Array(flagged_cells),
                "repairs": Value::Array(repairs),
            }),
        ))
    }

    /// Repairs `frame` with the requested (or detector-default) repair.
    /// `fitted` is the request's detector, fitted on the training split
    /// unless it is the mislabel detector.
    fn apply_repair(
        &self,
        body: &Value,
        served: &ServingModel,
        fitted: &FittedDetector,
        frame: &tabular::DataFrame,
        report: &cleaning::DetectionReport,
    ) -> Result<(String, tabular::DataFrame), Response> {
        let requested = body.get("repair").and_then(Value::as_str);
        match fitted {
            FittedDetector::Missing => {
                let repair = match requested {
                    None => MissingRepair::all()
                        .into_iter()
                        .find(|r| r.name() == "impute_mean_dummy")
                        .ok_or_else(|| {
                            Response::error(500, "default repair impute_mean_dummy unavailable")
                        })?,
                    Some(name) => MissingRepair::all()
                        .into_iter()
                        .find(|r| r.name() == name)
                        .ok_or_else(|| unknown_repair(name, MissingRepair::all().iter().map(|r| r.name())))?,
                };
                let fitted = repair
                    .fit(&served.train)
                    .map_err(|e| Response::error(400, &format!("repair fit failed: {e}")))?;
                let repaired = fitted
                    .apply(frame)
                    .map_err(|e| Response::error(400, &format!("repair failed: {e}")))?;
                Ok((repair.name(), repaired))
            }
            FittedDetector::Mislabels(_) => {
                let repair = LabelRepair;
                if let Some(name) = requested {
                    if name != repair.name() {
                        return Err(unknown_repair(name, std::iter::once(repair.name().to_string())));
                    }
                }
                let repaired = repair
                    .apply(frame, report)
                    .map_err(|e| Response::error(400, &format!("repair failed: {e}")))?;
                Ok((repair.name().to_string(), repaired))
            }
            _ => {
                let repair = match requested {
                    None => OutlierRepair::all()[0],
                    Some(name) => OutlierRepair::all()
                        .iter()
                        .find(|r| r.name() == name)
                        .cloned()
                        .ok_or_else(|| unknown_repair(name, OutlierRepair::all().iter().map(|r| r.name())))?,
                };
                // The replacement statistics come from the *training*
                // split's unflagged values.
                let train_report = fitted
                    .detect(&served.train)
                    .map_err(|e| Response::error(400, &format!("train detection failed: {e}")))?;
                let fitted = repair
                    .fit(&served.train, &train_report)
                    .map_err(|e| Response::error(400, &format!("repair fit failed: {e}")))?;
                let repaired = fitted
                    .apply(frame, report)
                    .map_err(|e| Response::error(400, &format!("repair failed: {e}")))?;
                Ok((repair.name(), repaired))
            }
        }
    }

    fn audit(&self, body: &Value) -> Handled {
        let (registry, generation) = self.registry.snapshot();
        let served = lookup_model(&registry, body)?;
        let (rows, _) = request_rows(body)?;
        let frame = frame_from_rows(served.train.schema(), rows, true)
            .map_err(|e| Response::error(400, &e))?;
        let y_true = frame.labels().map_err(|e| Response::error(400, &e.to_string()))?;
        let y_pred =
            served.predict_frame(&frame).map_err(|e| Response::error(400, &e.to_string()))?;
        let accuracy = mlcore::accuracy(&y_true, &y_pred);

        // Audited batches are labeled by construction, so they also feed
        // the sliding drift windows.
        let labels: Vec<Option<u8>> = y_true.iter().copied().map(Some).collect();
        self.drift.observe(served, &frame, &labels, &y_pred);

        let mut groups = Vec::with_capacity(served.groups.len());
        for spec in &served.groups {
            let masks = spec
                .evaluate(&frame)
                .map_err(|e| Response::error(400, &format!("group evaluation failed: {e}")))?;
            let confusions = group_confusions(&y_true, &y_pred, &masks);
            groups.push(json!({
                "group": spec.label(),
                "privileged": confusion_json(&confusions.privileged),
                "disadvantaged": confusion_json(&confusions.disadvantaged),
                "disparities": disparities_json(&confusions),
            }));
        }

        // Startup-time rectification summary: how the served classifier's
        // leaves were edited and what it did to the test-split gaps. Null
        // for model families without editable decision regions.
        let rectification = served.rectification.as_ref().map_or(Value::Null, |r| {
            let gaps: Vec<Value> = r
                .gaps
                .iter()
                .map(|g| {
                    json!({
                        "group": g.group,
                        "pre": option_json(g.pre),
                        "post": option_json(g.post),
                    })
                })
                .collect();
            json!({
                "metric": r.metric.name(),
                "epsilon": r.epsilon,
                "n_edits": r.n_edits,
                "constraint_met": r.constraint_met,
                "pre_test_accuracy": r.pre_test_accuracy,
                "gaps": Value::Array(gaps),
            })
        });

        // Live drift telemetry for this (dataset, model): windowed
        // disparities vs the training-time baseline, with alert bits.
        let windows: Vec<Value> = self
            .drift
            .snapshot()
            .iter()
            .filter(|e| e.dataset == served.dataset.name() && e.model == served.model.name())
            .map(drift_entry_json)
            .collect();

        Ok(Response::json(
            200,
            &json!({
                "dataset": served.dataset.name(),
                "model": served.model.name(),
                "generation": generation,
                "n_rows": y_true.len(),
                "accuracy": accuracy,
                "groups": Value::Array(groups),
                "rectification": rectification,
                "drift": {
                    "alert_threshold": self.drift.alert_threshold(),
                    "windows": Value::Array(windows),
                },
            }),
        ))
    }
}

fn lookup_model<'a>(registry: &'a Registry, body: &Value) -> Result<&'a ServingModel, Response> {
    let dataset = require_str(body, "dataset")?;
    let model = require_str(body, "model")?;
    registry.get(dataset, model).ok_or_else(|| {
        Response::error(
            404,
            &format!("no model for dataset {dataset:?} and model {model:?}"),
        )
    })
}

/// Builds the `/v1/predict` success payload by direct string assembly.
/// This is the hottest serialization in the server, so it skips the
/// intermediate `Value` tree; float formatting mirrors the JSON
/// encoder's (`Display`, with a trailing `.0` for integral values), so
/// the payload is identical to the tree-built equivalent.
fn predict_reply(
    served: &ServingModel,
    generation: u64,
    unseen: u64,
    predictions: &[u8],
    probabilities: &[f64],
    single: bool,
) -> Response {
    use std::fmt::Write as _;
    let mut body = String::with_capacity(160 + probabilities.len() * 22);
    let _ = write!(
        body,
        "{{\"dataset\":\"{}\",\"model\":\"{}\",\"generation\":{generation},\"n_rows\":{},\
         \"unseen_category_rows\":{unseen},\"predictions\":[",
        served.dataset.name(),
        served.model.name(),
        predictions.len(),
    );
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{p}");
    }
    body.push_str("],\"probabilities\":[");
    for (i, &q) in probabilities.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_json_f64(&mut body, q);
    }
    body.push(']');
    if single {
        if let (Some(&p0), Some(&q0)) = (predictions.first(), probabilities.first()) {
            let _ = write!(body, ",\"prediction\":{p0},\"probability\":");
            push_json_f64(&mut body, q0);
        }
    }
    body.push('}');
    Response { status: 200, content_type: "application/json", body: body.into_bytes() }
}

/// Appends `v` formatted exactly as the JSON encoder would (`null` for
/// non-finite, `Display` plus a `.0` suffix for integral values).
fn push_json_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn drift_entry_json(e: &DriftEntry) -> Value {
    json!({
        "group": e.group,
        "window_len": e.window_len,
        "observed": e.observed,
        "predictive_parity": {
            "window": option_json(e.predictive_parity),
            "baseline": option_json(e.baseline_predictive_parity),
            "drift": option_json(e.drift_predictive_parity),
        },
        "equal_opportunity": {
            "window": option_json(e.equal_opportunity),
            "baseline": option_json(e.baseline_equal_opportunity),
            "drift": option_json(e.drift_equal_opportunity),
        },
        "alert": e.alert,
    })
}

/// Borrows `rows` (array) or `row` (single object); the bool is true for
/// the single-row form.
fn request_rows(body: &Value) -> Result<(&[Value], bool), Response> {
    if let Some(rows) = body.get("rows") {
        let rows = rows.as_array().ok_or_else(rows_not_array)?;
        return Ok((rows, false));
    }
    if let Some(row) = body.get("row") {
        return Ok((std::slice::from_ref(row), true));
    }
    Err(no_rows())
}

fn rows_not_array() -> Response {
    Response::error(400, "\"rows\" must be an array of objects")
}

fn no_rows() -> Response {
    Response::error(400, "body must contain \"rows\" (array) or \"row\" (object)")
}

fn missing_field(key: &str) -> Response {
    Response::error(400, &format!("missing required string field {key:?}"))
}

/// Reads a `/v1/predict` body in one pass without building a tree: it
/// must be valid JSON with string fields `dataset` and `model` and a
/// `rows` array or a `row`. Records the names and where the rows are;
/// decoding the rows needs the registry generation, so it waits for
/// [`App::predict_batch`]. As in a `Value` tree, the last of duplicate
/// keys wins.
fn parse_predict(request: &Request) -> Result<PredictJob, Response> {
    let body = request.body.as_slice();
    let invalid = |e: serde_json::Error| Response::error(400, &format!("invalid JSON body: {e}"));
    let mut reader = Reader::new(body);
    // The last value of each member read here, by its span: a string's
    // names (`None` when not a string), an array's item count (`None`
    // when not an array).
    let mut dataset: Option<(Range<usize>, Option<DatasetId>)> = None;
    let mut model: Option<(Range<usize>, Option<ModelKind>)> = None;
    let mut rows: Option<(Range<usize>, Option<usize>)> = None;
    let mut row: Option<Range<usize>> = None;
    if reader.next_event().map_err(invalid)? == Some(Event::StartObject) {
        while let Some(Event::Key(key)) = reader.next_event().map_err(invalid)? {
            let member = ["dataset", "model", "rows", "row"].iter().position(|m| *m == key);
            let value = reader.next_event().map_err(invalid)?;
            let names = match value {
                Some(Event::Str(s)) => Some((DatasetId::parse(s), ModelKind::parse(s))),
                _ => None,
            };
            let (array, object) =
                (value == Some(Event::StartArray), value == Some(Event::StartObject));
            let start = reader.token_start();
            let items = if array { Some(count_items(&mut reader).map_err(invalid)?) } else { None };
            if object {
                reader.skip_container().map_err(invalid)?;
            }
            let span = start..reader.offset();
            match member {
                Some(0) => dataset = names.map(|(d, _)| (span, d)),
                Some(1) => model = names.map(|(_, m)| (span, m)),
                Some(2) => rows = Some((span, items)),
                Some(3) => row = Some(span),
                _ => {}
            }
        }
    } else {
        // Not an object: read on only to tell bad JSON from a bad shape.
        reader.skip_container().map_err(invalid)?;
    }
    reader.next_event().map_err(invalid)?;

    let (dataset_token, dataset) = dataset.ok_or_else(|| missing_field("dataset"))?;
    let (model_token, model) = model.ok_or_else(|| missing_field("model"))?;
    let (rows, n_rows, single) = match (rows, row) {
        (Some((span, Some(n))), _) => (span, n, false),
        (Some((_, None)), _) => return Err(rows_not_array()),
        (None, Some(span)) => (span, 1, true),
        (None, None) => return Err(no_rows()),
    };
    Ok(PredictJob {
        body: body.to_vec(),
        dataset,
        model,
        names: [dataset_token, model_token],
        rows,
        n_rows,
        single,
        started: Instant::now(),
    })
}

/// After a `StartArray` event, consumes the array and counts its items.
fn count_items(reader: &mut Reader<'_>) -> serde_json::Result<usize> {
    let mut items = 0usize;
    loop {
        match reader.next_event()? {
            None | Some(Event::EndArray) => return Ok(items),
            Some(Event::StartObject | Event::StartArray) => reader.skip_container()?,
            Some(_) => {}
        }
        items += 1;
    }
}

fn require_str<'a>(body: &'a Value, key: &str) -> Result<&'a str, Response> {
    body.get(key).and_then(Value::as_str).ok_or_else(|| missing_field(key))
}

/// Parses a paper-style detector name with the paper's default parameters.
fn parse_detector(name: &str) -> Result<DetectorKind, Response> {
    DetectorKind::all()
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = DetectorKind::all().iter().map(|d| d.name()).collect();
            Response::error(
                400,
                &format!("unknown detector {name:?}; expected one of: {}", known.join(", ")),
            )
        })
}

fn unknown_repair(name: &str, known: impl Iterator<Item = String>) -> Response {
    Response::error(
        400,
        &format!(
            "unknown repair {name:?}; expected one of: {}",
            known.collect::<Vec<_>>().join(", ")
        ),
    )
}

fn confusion_json(cm: &ConfusionMatrix) -> Value {
    json!({
        "tp": cm.tp,
        "fp": cm.fp,
        "tn": cm.tn,
        "fn": cm.fn_,
        "n": cm.total(),
        "precision": option_json(cm.precision()),
        "recall": option_json(cm.recall()),
    })
}

fn disparities_json(gc: &GroupConfusions) -> Value {
    let mut out = serde_json::Map::new();
    for metric in [FairnessMetric::PredictiveParity, FairnessMetric::EqualOpportunity] {
        let key = match metric {
            FairnessMetric::PredictiveParity => "predictive_parity",
            _ => "equal_opportunity",
        };
        out.insert(
            key.to_string(),
            json!({
                "signed": option_json(metric.signed_disparity(gc)),
                "absolute": option_json(metric.absolute_disparity(gc)),
            }),
        );
    }
    Value::Object(out)
}

/// `None` (undefined metric, e.g. empty group) renders as JSON null.
fn option_json(x: Option<f64>) -> Value {
    x.map_or(Value::Null, |v| json!(v))
}
