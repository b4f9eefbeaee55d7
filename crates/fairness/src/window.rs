//! Sliding-window group accounting for live fairness-drift telemetry.
//!
//! A [`SlidingGroupWindow`] holds the last `capacity` labeled
//! observations of one (privileged/disadvantaged) group spec and keeps
//! the pair of confusion matrices incrementally up to date, so a serving
//! tier can compute windowed disparities in O(1) per observation instead
//! of re-tallying the window on every scrape.
//!
//! Determinism: the window is **count-based** — it never reads a clock,
//! so drift accounting replays identically in tests.

use crate::confusion::GroupConfusions;
use crate::metrics::FairnessMetric;
use std::collections::VecDeque;

/// One labeled, group-attributed observation, packed to a byte.
#[derive(Debug, Clone, Copy)]
struct Observation {
    /// bit 0: privileged, bit 1: y_true, bit 2: y_pred.
    bits: u8,
}

impl Observation {
    fn new(privileged: bool, y_true: bool, y_pred: bool) -> Observation {
        let bits =
            u8::from(privileged) | (u8::from(y_true) << 1) | (u8::from(y_pred) << 2);
        Observation { bits }
    }

    fn privileged(self) -> bool {
        self.bits & 1 != 0
    }

    fn y_true(self) -> bool {
        self.bits & 2 != 0
    }

    fn y_pred(self) -> bool {
        self.bits & 4 != 0
    }
}

/// A bounded sliding window of labeled predictions for one group spec,
/// with incrementally maintained group confusion matrices.
#[derive(Debug, Clone)]
pub struct SlidingGroupWindow {
    capacity: usize,
    entries: VecDeque<Observation>,
    counts: GroupConfusions,
    /// Total observations ever pushed (not capped by the window).
    observed: u64,
}

impl SlidingGroupWindow {
    /// A window holding at most `capacity` observations (min 1).
    pub fn new(capacity: usize) -> SlidingGroupWindow {
        let capacity = capacity.max(1);
        SlidingGroupWindow {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(4096)),
            counts: GroupConfusions::default(),
            observed: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Observations currently inside the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations ever pushed through the window.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Adds one labeled observation, evicting the oldest entry when the
    /// window is full. Nonzero labels count as positive.
    pub fn push(&mut self, privileged: bool, y_true: u8, y_pred: u8) {
        if self.entries.len() == self.capacity {
            if let Some(old) = self.entries.pop_front() {
                Self::tally(&mut self.counts, old, false);
            }
        }
        let obs = Observation::new(privileged, y_true != 0, y_pred != 0);
        Self::tally(&mut self.counts, obs, true);
        self.entries.push_back(obs);
        self.observed += 1;
    }

    /// Windowed signed disparity of `metric`; `None` while the metric is
    /// undefined on the window (e.g. a group with no positives yet).
    pub fn signed_disparity(&self, metric: FairnessMetric) -> Option<f64> {
        metric.signed_disparity(&self.counts)
    }

    /// Windowed absolute disparity of `metric`.
    pub fn absolute_disparity(&self, metric: FairnessMetric) -> Option<f64> {
        metric.absolute_disparity(&self.counts)
    }

    fn tally(counts: &mut GroupConfusions, obs: Observation, add: bool) {
        let cm = if obs.privileged() { &mut counts.privileged } else { &mut counts.disadvantaged };
        let cell = match (obs.y_true(), obs.y_pred()) {
            (false, false) => &mut cm.tn,
            (false, true) => &mut cm.fp,
            (true, false) => &mut cm.fn_,
            (true, true) => &mut cm.tp,
        };
        if add {
            *cell += 1;
        } else {
            *cell = cell.saturating_sub(1);
        }
    }
}

/// Drift of a windowed disparity against a training-time baseline:
/// `window - baseline`, defined only when both sides are.
pub fn disparity_drift(window: Option<f64>, baseline: Option<f64>) -> Option<f64> {
    match (window, baseline) {
        (Some(w), Some(b)) => Some(w - b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confusion::group_confusions;
    use crate::groups::Groups;

    /// Reference: re-tally the window contents from scratch.
    fn brute_force(entries: &[(bool, u8, u8)]) -> GroupConfusions {
        let y_true: Vec<u8> = entries.iter().map(|e| e.1).collect();
        let y_pred: Vec<u8> = entries.iter().map(|e| e.2).collect();
        let groups = Groups {
            privileged: entries.iter().map(|e| e.0).collect(),
            disadvantaged: entries.iter().map(|e| !e.0).collect(),
        };
        group_confusions(&y_true, &y_pred, &groups)
    }

    #[test]
    fn incremental_counts_match_brute_force_through_eviction() {
        let mut window = SlidingGroupWindow::new(8);
        let mut log: Vec<(bool, u8, u8)> = Vec::new();
        // A deterministic pseudo-stream of 50 observations.
        let mut state = 0x9E3779B97F4A7C15u64;
        for tick in 0..50u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let privileged = state & 1 == 0;
            let y_true = u8::from(state & 2 != 0);
            let y_pred = u8::from(state & 4 != 0);
            window.push(privileged, y_true, y_pred);
            log.push((privileged, y_true, y_pred));
            let tail = &log[log.len().saturating_sub(8)..];
            assert_eq!(window.counts, brute_force(tail), "tick {tick}");
            assert_eq!(window.len(), tail.len());
        }
        assert_eq!(window.observed(), 50);
        assert_eq!(window.capacity(), 8);
    }

    #[test]
    fn disparities_follow_the_window_not_the_history() {
        let mut window = SlidingGroupWindow::new(4);
        assert!(window.is_empty());
        assert!(window.signed_disparity(FairnessMetric::EqualOpportunity).is_none());
        // Fill with perfect parity: both groups get a recalled positive.
        window.push(true, 1, 1);
        window.push(false, 1, 1);
        window.push(true, 1, 1);
        window.push(false, 1, 1);
        assert_eq!(window.signed_disparity(FairnessMetric::EqualOpportunity), Some(0.0));
        // Push 4 unfair observations: privileged positives recalled, the
        // disadvantaged missed; the fair prefix must be fully evicted.
        window.push(true, 1, 1);
        window.push(false, 1, 0);
        window.push(true, 1, 1);
        window.push(false, 1, 0);
        let eo = window.signed_disparity(FairnessMetric::EqualOpportunity);
        assert_eq!(eo, Some(1.0), "window must forget the fair history");
        assert_eq!(window.absolute_disparity(FairnessMetric::EqualOpportunity), Some(1.0));
        assert_eq!(window.len(), 4);
    }

    /// Every gauge a scrape could export from `window`: either undefined
    /// (`None`) or a finite number — a NaN/inf in telemetry is a bug.
    fn assert_gauges_finite(window: &SlidingGroupWindow, context: &str) {
        for metric in FairnessMetric::all() {
            for gauge in
                [window.signed_disparity(metric), window.absolute_disparity(metric)]
            {
                if let Some(v) = gauge {
                    assert!(v.is_finite(), "{context}: {metric:?} produced {v}");
                }
                let drift = disparity_drift(gauge, Some(0.25));
                if let Some(v) = drift {
                    assert!(v.is_finite(), "{context}: {metric:?} drift produced {v}");
                }
            }
        }
    }

    #[test]
    fn empty_window_gauges_are_undefined_not_nan() {
        let window = SlidingGroupWindow::new(16);
        assert!(window.is_empty());
        for metric in FairnessMetric::all() {
            assert_eq!(window.signed_disparity(metric), None);
            assert_eq!(window.absolute_disparity(metric), None);
        }
        assert_gauges_finite(&window, "empty window");
    }

    #[test]
    fn single_group_traffic_never_yields_nan() {
        // Only privileged observations: every cross-group difference is
        // undefined, and nothing may leak a NaN from the empty side.
        let mut window = SlidingGroupWindow::new(8);
        for tick in 0..12u64 {
            window.push(true, u8::from(tick & 1 == 0), u8::from(tick & 2 == 0));
            assert_gauges_finite(&window, "privileged-only traffic");
        }
        for metric in FairnessMetric::all() {
            assert_eq!(
                window.signed_disparity(metric),
                None,
                "{metric:?} must be undefined with an empty disadvantaged side"
            );
        }
    }

    #[test]
    fn window_of_size_one_stays_finite_across_every_observation_shape() {
        // Capacity clamps to 1; each push fully replaces the window, so
        // the gauges flip between None and single-observation values —
        // all of which must be finite.
        let mut window = SlidingGroupWindow::new(0);
        assert_eq!(window.capacity(), 1);
        for privileged in [false, true] {
            for y_true in [0u8, 1] {
                for y_pred in [0u8, 1] {
                    window.push(privileged, y_true, y_pred);
                    assert_eq!(window.len(), 1);
                    assert_gauges_finite(
                        &window,
                        &format!("size-1 window ({privileged}, {y_true}, {y_pred})"),
                    );
                }
            }
        }
        assert_eq!(window.observed(), 8);
    }

    #[test]
    fn drift_is_defined_only_when_both_sides_are() {
        assert_eq!(disparity_drift(Some(0.4), Some(0.1)), Some(0.30000000000000004));
        assert_eq!(disparity_drift(None, Some(0.1)), None);
        assert_eq!(disparity_drift(Some(0.4), None), None);
    }
}
