//! Live fairness-drift telemetry: per-(dataset, model, group) sliding
//! windows over labeled serving traffic, compared against each model's
//! training-time test-split baseline
//! ([`demodq::serving::BaselineDisparity`]).
//!
//! Labeled rows reaching `/v1/predict` or `/v1/audit` are pushed through
//! [`DriftStore::observe_rows`] (or [`DriftStore::observe`] for a
//! frame); `/metrics` and `/v1/audit` read [`DriftStore::snapshot`]. A
//! row adds an observation to a group spec's window only when it carries
//! a label and every attribute the spec reads: a row without `sex` says
//! nothing about the `sex` window, so it must not count as disadvantaged
//! there. Windows are count-based and read no clock, so the whole drift
//! pipeline replays deterministically in tests. Windows survive a
//! registry hot swap — the traffic is the same traffic — but the baseline
//! is re-read from the serving model on every observation, so a swap
//! immediately re-anchors the drift.

use demodq::serving::ServingModel;
use fairness::{disparity_drift, FairnessMetric, GroupPredicate, GroupSpec, SlidingGroupWindow};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use tabular::{Cell, DataFrame};

/// Tuning knobs for the drift store.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Observations each (dataset, model, group) window retains.
    pub window: usize,
    /// Absolute drift (|window − baseline|) beyond which a gauge alerts.
    pub alert_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig { window: 512, alert_threshold: 0.15 }
    }
}

/// One group spec's window plus the baseline it was last compared
/// against.
struct GroupState {
    /// The spec's label, e.g. `sex` or `sex*age`.
    group: String,
    window: SlidingGroupWindow,
    baseline_predictive_parity: Option<f64>,
    baseline_equal_opportunity: Option<f64>,
}

/// A point-in-time reading of one (dataset, model, group) window, as
/// exported by `/metrics` and `/v1/audit`.
#[derive(Debug, Clone)]
pub struct DriftEntry {
    /// Dataset name (paper naming).
    pub dataset: &'static str,
    /// Model-kind name.
    pub model: &'static str,
    /// Group spec label, e.g. `sex` or `sex*age`.
    pub group: String,
    /// Observations currently inside the window.
    pub window_len: usize,
    /// Total observations ever pushed through the window.
    pub observed: u64,
    /// Windowed absolute predictive-parity disparity.
    pub predictive_parity: Option<f64>,
    /// Windowed absolute equal-opportunity disparity.
    pub equal_opportunity: Option<f64>,
    /// Training-time baseline for predictive parity.
    pub baseline_predictive_parity: Option<f64>,
    /// Training-time baseline for equal opportunity.
    pub baseline_equal_opportunity: Option<f64>,
    /// `window − baseline` for predictive parity.
    pub drift_predictive_parity: Option<f64>,
    /// `window − baseline` for equal opportunity.
    pub drift_equal_opportunity: Option<f64>,
    /// True when either |drift| exceeds the configured threshold.
    pub alert: bool,
}

/// The serving tier's drift accounting: one [`SlidingGroupWindow`] per
/// (dataset, model, group-spec) triple, created lazily as labeled traffic
/// arrives. Each (dataset, model) holds its windows in the order of the
/// model's group specs, which every registry generation shares.
pub struct DriftStore {
    states: Mutex<BTreeMap<(&'static str, &'static str), Vec<GroupState>>>,
    config: DriftConfig,
}

impl DriftStore {
    /// An empty store with the given knobs.
    pub fn new(config: DriftConfig) -> DriftStore {
        DriftStore { states: Mutex::new(BTreeMap::new()), config }
    }

    /// The configured alert threshold.
    pub fn alert_threshold(&self) -> f64 {
        self.config.alert_threshold
    }

    /// Feeds one labeled, scored batch of `frame` rows into the windows
    /// of every group spec of `served`; see [`DriftStore::observe_rows`].
    pub fn observe(
        &self,
        served: &ServingModel,
        frame: &DataFrame,
        labels: &[Option<u8>],
        y_pred: &[u8],
    ) -> usize {
        let n = labels.len().min(y_pred.len()).min(frame.n_rows());
        self.observe_rows(served, &labels[..n], &y_pred[..n], |i, attribute| {
            frame.column(attribute).map_or(Cell::Missing, |c| c.cell(i))
        })
    }

    /// Feeds one labeled, scored batch into the windows of every group
    /// spec of `served`; `cell(i, attribute)` is row `i`'s value of a
    /// sensitive attribute. `labels[i]` is `None` for rows whose label
    /// was absent — those rows are skipped. A row is also skipped for a
    /// spec when any attribute the spec reads is missing, or when it
    /// falls outside both groups (intersectional exclusion). Returns the
    /// number of (row, group) observations pushed.
    pub fn observe_rows<'c>(
        &self,
        served: &ServingModel,
        labels: &[Option<u8>],
        y_pred: &[u8],
        cell: impl Fn(usize, &str) -> Cell<'c>,
    ) -> usize {
        let n = labels.len().min(y_pred.len());
        if n == 0 {
            return 0;
        }
        let mut pushed = 0usize;
        let mut states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        let windows = states
            .entry((served.dataset.name(), served.model.name()))
            .or_insert_with(|| {
                served
                    .groups
                    .iter()
                    .map(|spec| GroupState {
                        group: spec.label(),
                        window: SlidingGroupWindow::new(self.config.window),
                        baseline_predictive_parity: None,
                        baseline_equal_opportunity: None,
                    })
                    .collect()
            });
        for (spec, state) in served.groups.iter().zip(windows.iter_mut()) {
            // Re-anchor the baseline on every batch so a hot-swapped
            // registry's fresh test-split disparities take effect at once.
            if let Some(b) = served.baseline_disparities.iter().find(|b| b.group == state.group) {
                state.baseline_predictive_parity = b.predictive_parity;
                state.baseline_equal_opportunity = b.equal_opportunity;
            }
            for i in 0..n {
                let Some(y_true) = labels[i] else { continue };
                let Some(privileged) = side(spec, |attribute| cell(i, attribute)) else {
                    continue;
                };
                state.window.push(privileged, y_true, y_pred[i]);
                pushed += 1;
            }
        }
        pushed
    }

    /// A deterministic-order reading of every window the store has seen
    /// traffic for.
    pub fn snapshot(&self) -> Vec<DriftEntry> {
        let states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<DriftEntry> = states
            .iter()
            .flat_map(|(&(dataset, model), windows)| {
                windows.iter().map(move |state| (dataset, model, state))
            })
            .map(|(dataset, model, state)| {
                let pp = state.window.absolute_disparity(FairnessMetric::PredictiveParity);
                let eo = state.window.absolute_disparity(FairnessMetric::EqualOpportunity);
                let drift_pp = disparity_drift(pp, state.baseline_predictive_parity);
                let drift_eo = disparity_drift(eo, state.baseline_equal_opportunity);
                let alert = [drift_pp, drift_eo]
                    .into_iter()
                    .flatten()
                    .any(|d| d.abs() > self.config.alert_threshold);
                DriftEntry {
                    dataset,
                    model,
                    group: state.group.clone(),
                    window_len: state.window.len(),
                    observed: state.window.observed(),
                    predictive_parity: pp,
                    equal_opportunity: eo,
                    baseline_predictive_parity: state.baseline_predictive_parity,
                    baseline_equal_opportunity: state.baseline_equal_opportunity,
                    drift_predictive_parity: drift_pp,
                    drift_equal_opportunity: drift_eo,
                    alert,
                }
            })
            .collect();
        entries.sort_by(|a, b| (a.dataset, a.model, &a.group).cmp(&(b.dataset, b.model, &b.group)));
        entries
    }
}

/// Which group of `spec` a row falls in: `Some(true)` privileged,
/// `Some(false)` disadvantaged, `None` when an attribute the spec reads
/// is missing (or of the wrong kind), or when an intersectional row
/// belongs to neither group. `cell` gives the row's value of an
/// attribute.
fn side<'c>(spec: &GroupSpec, cell: impl Fn(&str) -> Cell<'c>) -> Option<bool> {
    let hit = |p: &GroupPredicate| match cell(&p.attribute) {
        Cell::Missing => None,
        value => p.matches(value).ok(),
    };
    match spec {
        GroupSpec::SingleAttribute(p) => hit(p),
        GroupSpec::Intersectional(ps) => {
            let (mut all, mut none) = (!ps.is_empty(), !ps.is_empty());
            for p in ps {
                let h = hit(p)?;
                all &= h;
                none &= !h;
            }
            if all {
                Some(true)
            } else if none {
                Some(false)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demodq::serving::train_serving_model;
    use demodq::StudyScale;
    use datasets::DatasetId;
    use mlcore::ModelKind;

    #[test]
    fn windows_fill_from_labeled_batches_and_alert_on_drift() {
        let served =
            train_serving_model(DatasetId::German, ModelKind::LogReg, &StudyScale::smoke(), 7)
                .unwrap();
        let store = DriftStore::new(DriftConfig { window: 64, alert_threshold: 0.0 });
        assert!(store.snapshot().is_empty());
        assert!((store.alert_threshold()).abs() < 1e-12);
        assert_eq!(store.config.window, 64);

        let batch = DatasetId::German.generate(40, 99).unwrap();
        let y_pred = served.predict_frame(&batch).unwrap();
        let labels: Vec<Option<u8>> =
            batch.labels().unwrap().into_iter().map(Some).collect();
        let pushed = store.observe(&served, &batch, &labels, &y_pred);
        assert!(pushed > 0, "german single-attribute specs partition the data");

        let snap = store.snapshot();
        assert_eq!(snap.len(), served.groups.len());
        for entry in &snap {
            assert_eq!(entry.dataset, "german");
            assert_eq!(entry.model, "log-reg");
            assert!(entry.window_len > 0 && entry.window_len <= 64);
            assert_eq!(entry.observed, entry.window_len as u64);
            // Baselines were re-anchored from the serving model.
            let baseline = served
                .baseline_disparities
                .iter()
                .find(|b| b.group == entry.group)
                .unwrap();
            assert_eq!(entry.baseline_predictive_parity, baseline.predictive_parity);
            assert_eq!(entry.baseline_equal_opportunity, baseline.equal_opportunity);
            // With a zero threshold, any defined nonzero drift alerts.
            if let Some(d) = entry.drift_predictive_parity {
                assert_eq!(entry.alert, d.abs() > 0.0 || entry
                    .drift_equal_opportunity
                    .map(|e| e.abs() > 0.0)
                    .unwrap_or(false));
            }
        }

        // Rows with missing labels are skipped, not mis-tallied.
        let none_labels: Vec<Option<u8>> = vec![None; batch.n_rows()];
        assert_eq!(store.observe(&served, &batch, &none_labels, &y_pred), 0);
        let snap2 = store.snapshot();
        for (a, b) in snap.iter().zip(&snap2) {
            assert_eq!(a.window_len, b.window_len);
        }
    }

    #[test]
    fn rows_missing_a_sensitive_attribute_add_no_observation_to_its_windows() {
        let served =
            train_serving_model(DatasetId::German, ModelKind::LogReg, &StudyScale::smoke(), 7)
                .unwrap();
        let mut batch = DatasetId::German.generate(40, 99).unwrap();
        let sex = batch.column_mut("sex").unwrap().as_categorical_mut().unwrap();
        for i in 0..10 {
            sex.set_code(i, None);
        }
        let age = batch.column_mut("age").unwrap().as_numeric_mut().unwrap();
        for x in &mut age[8..15] {
            *x = f64::NAN;
        }
        let y_pred = served.predict_frame(&batch).unwrap();
        let labels: Vec<Option<u8>> = batch.labels().unwrap().into_iter().map(Some).collect();
        let store = DriftStore::new(DriftConfig { window: 64, alert_threshold: 0.15 });
        store.observe(&served, &batch, &labels, &y_pred);
        let size = |group: &str| {
            store.snapshot().into_iter().find(|e| e.group == group).map(|e| e.window_len)
        };
        assert_eq!(size("sex"), Some(40 - 10));
        assert_eq!(size("age"), Some(40 - 7));
        // The intersectional spec needs both: rows 0..15 are out.
        let both = size("age*sex").unwrap();
        assert!(both <= 40 - 15, "{both}");
    }

    #[test]
    fn deterministic_replay_produces_identical_snapshots() {
        let served =
            train_serving_model(DatasetId::German, ModelKind::LogReg, &StudyScale::smoke(), 7)
                .unwrap();
        let batch = DatasetId::German.generate(30, 5).unwrap();
        let y_pred = served.predict_frame(&batch).unwrap();
        let labels: Vec<Option<u8>> =
            batch.labels().unwrap().into_iter().map(Some).collect();
        let run = || {
            let store = DriftStore::new(DriftConfig::default());
            store.observe(&served, &batch, &labels, &y_pred);
            store.observe(&served, &batch, &labels, &y_pred);
            store.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.group, y.group);
            assert_eq!(x.window_len, y.window_len);
            assert_eq!(x.predictive_parity, y.predictive_parity);
            assert_eq!(x.drift_equal_opportunity, y.drift_equal_opportunity);
        }
    }
}
