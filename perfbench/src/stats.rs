//! Order statistics, best-of-k timing, the capacity rule and
//! schedule-lateness accounting.

use std::time::Instant;

/// Best-of-k timing of a fixed list of items. Co-tenants of a shared box
/// slow the program in bursts of milliseconds, in spells of seconds: an
/// average over a run carries the share of it that was contended, while
/// a short item run many times, spread over the run, is almost always
/// seen at least once at full speed. Each item's cost is the fastest of
/// its runs, and the sum of those is the cost of one round of all items.
#[derive(Debug, Clone, PartialEq)]
pub struct BestOf {
    best: Vec<f64>,
    runs: Vec<u32>,
    digests: Vec<Option<u64>>,
    /// Runs whose digest differed from the item's first run.
    pub mismatches: u64,
}

impl BestOf {
    pub fn new(items: usize) -> BestOf {
        BestOf {
            best: vec![f64::INFINITY; items],
            runs: vec![0; items],
            digests: vec![None; items],
            mismatches: 0,
        }
    }

    /// Records one run of `item` that took `seconds` and produced `digest`.
    pub fn record(&mut self, item: usize, seconds: f64, digest: u64) {
        self.best[item] = self.best[item].min(seconds);
        self.runs[item] += 1;
        match self.digests[item] {
            None => self.digests[item] = Some(digest),
            Some(first) if first != digest => self.mismatches += 1,
            Some(_) => {}
        }
    }

    /// The fastest run of each item.
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// Seconds one round of every item takes at each item's best.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Runs of the least-run item.
    pub fn rounds(&self) -> u32 {
        self.runs.iter().copied().min().unwrap_or(0)
    }

    /// Every run recorded.
    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|&r| u64::from(r)).sum()
    }
}

/// Runs items `0..n` in order, round after round, until `seconds` have
/// passed and every item has run at least `min_rounds` times, timing
/// each run. `run` returns a digest of the item's output, which must be
/// the same on every round.
pub fn best_of_rounds<E>(
    n: usize,
    seconds: f64,
    min_rounds: u32,
    mut run: impl FnMut(usize) -> Result<u64, E>,
) -> Result<BestOf, E> {
    let mut best = BestOf::new(n);
    let start = Instant::now();
    while n > 0 && (best.rounds() < min_rounds || start.elapsed().as_secs_f64() < seconds) {
        for item in 0..n {
            let t = Instant::now();
            let digest = run(item)?;
            best.record(item, t.elapsed().as_secs_f64(), digest);
        }
    }
    Ok(best)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// Latency percentiles of one measured step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// The 99th percentile, or `None` when fewer than ten samples lie
    /// beyond it.
    pub p99: Option<f64>,
    pub max: f64,
}

impl Latency {
    pub fn of(samples: &mut [f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Some(Latency {
            n,
            p50: nearest_rank(samples, 50.0),
            p99: supported(n, 99.0).then(|| nearest_rank(samples, 99.0)),
            max: samples[n - 1],
        })
    }
}

/// How far a generator ran behind its schedule: each send is late by
/// `max(0, issued - scheduled)`.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    late: Vec<f64>,
}

impl Lateness {
    pub fn record(&mut self, scheduled: f64, issued: f64) {
        self.late.push((issued - scheduled).max(0.0));
    }

    /// (p50, p99 or max when p99 is unsupported, max) in the unit recorded.
    pub fn summary(&self) -> (f64, f64, f64) {
        if self.late.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut v = self.late.clone();
        v.sort_by(f64::total_cmp);
        let max = v[v.len() - 1];
        let p99 = if supported(v.len(), 99.0) {
            nearest_rank(&v, 99.0)
        } else {
            max
        };
        (nearest_rank(&v, 50.0), p99, max)
    }
}

/// What one rate step of the capacity ladder showed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    pub rate: f64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// p99 latency in ms, timed from each request's scheduled send time;
    /// `None` when the step had too few samples to support it.
    pub p99_ms: Option<f64>,
    /// Requests still unanswered when the step's sending window closed.
    pub backlog: u64,
    /// p99 of the generator's own lateness against its schedule, in ms.
    pub gen_late_p99_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The generator, not the server, fell behind: the step says nothing
    /// about the server.
    Invalid,
}

/// The capacity rule's fixed limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    pub p99_ms: f64,
    /// Generator lateness beyond this marks the step invalid.
    pub gen_late_ms: f64,
}

/// A step passes when nothing failed, p99 stays under the limit and the
/// backlog at the end of sending is no more than the limit's worth of
/// requests at that rate (a queue that keeps growing exceeds it).
pub fn verdict(step: &StepOutcome, limits: &Limits) -> Verdict {
    if step.gen_late_p99_ms > limits.gen_late_ms {
        return Verdict::Invalid;
    }
    let backlog_bound = (step.rate * limits.p99_ms / 1000.0).max(1.0);
    let ok = step.failed == 0
        && step.ok == step.sent
        && step.p99_ms.is_some_and(|p| p < limits.p99_ms)
        && (step.backlog as f64) <= backlog_bound;
    if ok {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// Capacity from an ascending ladder walk of (rate, verdict, p99 ms):
/// the highest rate that passed before the first failure (invalid steps
/// neither pass nor end the walk), refined toward the failing rate by
/// interpolating log p99 to where it crosses the limit. `None` when no
/// step passed.
pub fn capacity(walk: &[(f64, Verdict, Option<f64>)], limit_ms: f64) -> Option<f64> {
    let mut best: Option<(f64, Option<f64>)> = None;
    for &(rate, v, p99) in walk {
        match v {
            Verdict::Pass => best = Some((rate, p99)),
            Verdict::Invalid => {}
            Verdict::Fail => {
                let (r0, p0) = best?;
                return Some(match (p0, p99) {
                    (Some(p0), Some(p1)) if p0 > 0.0 && p1 > limit_ms => {
                        let t = (limit_ms / p0).ln() / (p1 / p0).ln();
                        r0 + t.clamp(0.0, 1.0) * (rate - r0)
                    }
                    _ => r0,
                });
            }
        }
    }
    best.map(|(rate, _)| rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_each_items_fastest_run() {
        let mut b = BestOf::new(3);
        for (item, secs) in [(0, 3.0), (1, 1.0), (2, 2.0), (0, 1.0), (1, 2.0), (2, 3.0)] {
            b.record(item, secs, 7);
        }
        assert_eq!(b.best(), &[1.0, 1.0, 2.0]);
        assert_eq!(b.total(), 4.0);
        assert_eq!((b.rounds(), b.attempted(), b.mismatches), (2, 6, 0));
        // A run whose output differs from the item's first is counted.
        b.record(2, 0.5, 8);
        assert_eq!((b.mismatches, b.best()[2]), (1, 0.5));
        let mut uneven = BestOf::new(2);
        uneven.record(0, 1.0, 0);
        assert_eq!(uneven.rounds(), 0);
        assert!(uneven.total().is_infinite());
    }

    #[test]
    fn rounds_run_every_item_at_least_the_minimum() {
        let mut calls = vec![0u32; 4];
        let b = best_of_rounds(4, 0.0, 3, |i| {
            calls[i] += 1;
            Ok::<u64, ()>(i as u64)
        })
        .expect("items succeed");
        assert_eq!(calls, vec![3; 4]);
        assert_eq!((b.rounds(), b.mismatches), (3, 0));
        assert!(b.best().iter().all(|&s| s >= 0.0 && s.is_finite()));
        // An item that fails stops the measurement with its error.
        assert_eq!(
            best_of_rounds(2, 0.0, 1, |i| if i == 1 { Err("boom") } else { Ok(0) }),
            Err("boom")
        );
        // Output that changes between rounds is a mismatch.
        let mut round = 0;
        let b = best_of_rounds(1, 0.0, 3, |_| {
            round += 1;
            Ok::<u64, ()>(u64::from(round == 2))
        })
        .expect("items succeed");
        assert_eq!(b.mismatches, 1);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        // Ranks round up: the 50th percentile of 5 samples is the 3rd.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
        let mut few: Vec<f64> = (0..500).map(f64::from).collect();
        let lat = Latency::of(&mut few).expect("samples present");
        assert_eq!(lat.p99, None);
        assert_eq!(lat.p50, 249.0);
        let mut many: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        assert_eq!(
            Latency::of(&mut many).expect("samples present").p99,
            Some(1979.0)
        );
    }

    /// An M/M/1-shaped server: p99 sojourn time grows as 1/(1 - rho).
    fn synthetic_step(rate: f64, service_capacity: f64, gen_limit: f64) -> StepOutcome {
        let rho = rate / service_capacity;
        let (p99_ms, backlog) = if rho < 1.0 {
            (4.6 / (service_capacity * (1.0 - rho)) * 1000.0, 0)
        } else {
            (1e6, ((rate - service_capacity) * 1.0) as u64)
        };
        let gen_late_p99_ms = if rate > gen_limit { 50.0 } else { 0.05 };
        StepOutcome {
            rate,
            sent: rate as u64,
            ok: rate as u64,
            failed: 0,
            p99_ms: Some(p99_ms),
            backlog,
            gen_late_p99_ms,
        }
    }

    #[test]
    fn capacity_search_on_a_synthetic_latency_curve() {
        let limits = Limits {
            p99_ms: 5.0,
            gen_late_ms: 1.0,
        };
        let ladder: Vec<f64> = (1..=20).map(|i| f64::from(i) * 5_000.0).collect();
        // With capacity 50k/s, p99 < 5 ms needs 4.6/(50k - r) < 5e-3,
        // i.e. r < 49,080: the last passing ladder rate is 45k, and 50k
        // saturates. Interpolating log p99 lands inside that bracket.
        let walk = |gen_limit: f64| -> Vec<(f64, Verdict, Option<f64>)> {
            ladder
                .iter()
                .map(|&r| {
                    let step = synthetic_step(r, 50_000.0, gen_limit);
                    (r, verdict(&step, &limits), step.p99_ms)
                })
                .collect()
        };
        let c = capacity(&walk(f64::INFINITY), limits.p99_ms).expect("low rates pass");
        assert!((45_000.0..50_000.0).contains(&c), "capacity {c}");
        let t = (5.0f64 / 0.92).ln() / (1e6f64 / 0.92).ln();
        assert!((c - (45_000.0 + t * 5_000.0)).abs() < 1.0);
        // A generator that falls behind above 30k makes those steps
        // invalid: they neither pass nor end the walk.
        let slow_generator = walk(30_000.0);
        assert_eq!(slow_generator[6].1, Verdict::Invalid);
        assert_eq!(capacity(&slow_generator, limits.p99_ms), Some(30_000.0));
        // A failure for a reason other than latency keeps the last pass.
        let walk_err = [
            (5_000.0, Verdict::Pass, Some(1.0)),
            (10_000.0, Verdict::Fail, Some(2.0)),
        ];
        assert_eq!(capacity(&walk_err, limits.p99_ms), Some(5_000.0));
        // One failed request fails a step however fast it was.
        let mut step = synthetic_step(5_000.0, 50_000.0, f64::INFINITY);
        step.failed = 1;
        step.ok -= 1;
        assert_eq!(verdict(&step, &limits), Verdict::Fail);
        // A backlog beyond the limit's worth of requests fails the step.
        let mut step = synthetic_step(10_000.0, 50_000.0, f64::INFINITY);
        step.backlog = 51;
        assert_eq!(verdict(&step, &limits), Verdict::Fail);
        assert_eq!(
            capacity(
                &[
                    (5_000.0, Verdict::Fail, None),
                    (10_000.0, Verdict::Pass, None)
                ],
                5.0
            ),
            None
        );
    }

    #[test]
    fn lateness_counts_a_stall_against_every_send_it_delays() {
        // A 1 ms schedule; the generator stalls from t = 10 ms to 15 ms,
        // then issues the delayed sends all at once.
        let mut late = Lateness::default();
        for i in 0..100 {
            let scheduled = f64::from(i);
            let issued = if (10.0..15.0).contains(&scheduled) {
                15.0
            } else {
                scheduled + 0.01
            };
            late.record(scheduled, issued);
        }
        let (p50, p99, max) = late.summary();
        assert!((p50 - 0.01).abs() < 1e-12);
        // Fewer than 1000 sends: the tail falls back to the maximum.
        assert_eq!(p99, 5.0);
        assert_eq!(max, 5.0);
        // Early sends never count as negative lateness.
        let mut early = Lateness::default();
        early.record(5.0, 4.0);
        assert_eq!(early.summary(), (0.0, 0.0, 0.0));
    }
}
