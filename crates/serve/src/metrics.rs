//! Lock-free request metrics with Prometheus text rendering.
//!
//! One [`EndpointMetrics`] per route: request counter, 4xx/5xx error
//! counters, and a fixed-bucket latency histogram. Everything is atomics,
//! so the hot path never takes a lock and `/metrics` renders a consistent
//! enough snapshot for scraping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds in seconds (plus an implicit +Inf).
const BUCKET_BOUNDS: [f64; 12] =
    [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// The routes tracked individually; anything else lands in `other`.
const ENDPOINTS: [&str; 6] =
    ["/healthz", "/metrics", "/v1/predict", "/v1/clean", "/v1/audit", "other"];

/// A fixed-bucket latency histogram.
#[derive(Default)]
struct Histogram {
    /// Cumulative-style counts are computed at render time; these are
    /// per-bucket counts, the last slot being +Inf.
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, latency: Duration) {
        let secs = latency.as_secs_f64();
        let slot = BUCKET_BOUNDS.iter().position(|&b| secs <= b).unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counters for one endpoint.
#[derive(Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    latency: Histogram,
}

/// Micro-batch size histogram bucket upper bounds (rows per flushed
/// batch), plus an implicit +Inf.
const BATCH_BUCKET_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The service's metrics registry.
#[derive(Default)]
pub struct Metrics {
    endpoints: [EndpointMetrics; ENDPOINTS.len()],
    rejected_queue_full: AtomicU64,
    unseen_category_rows: AtomicU64,
    // Event-loop / micro-batching counters.
    batches_total: AtomicU64,
    batched_requests_total: AtomicU64,
    batched_rows_total: AtomicU64,
    batch_size_buckets: [AtomicU64; BATCH_BUCKET_BOUNDS.len() + 1],
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    connections_idle_closed: AtomicU64,
    read_paused_total: AtomicU64,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn slot(&self, path: &str) -> &EndpointMetrics {
        let i = ENDPOINTS.iter().position(|&e| e == path).unwrap_or(ENDPOINTS.len() - 1);
        &self.endpoints[i]
    }

    /// Records one finished request.
    pub fn observe(&self, path: &str, status: u16, latency: Duration) {
        let slot = self.slot(path);
        slot.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            400..=499 => {
                slot.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            500..=599 => {
                slot.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        slot.latency.observe(latency);
    }

    /// Records a connection shed with a 503 at accept time because the
    /// event loop already holds `max_connections` open connections.
    pub fn observe_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records prediction rows that carried a category the model's
    /// encoder never saw at fit time (one-hot encoded as all zeros).
    pub fn observe_unseen_category_rows(&self, rows: u64) {
        self.unseen_category_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Total prediction rows with unseen categories so far.
    pub fn unseen_category_rows(&self) -> u64 {
        self.unseen_category_rows.load(Ordering::Relaxed)
    }

    /// Records one flushed prediction micro-batch: how many coalesced
    /// requests it carried and how many rows were scored together.
    pub fn observe_batch(&self, requests: u64, rows: u64) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batched_requests_total.fetch_add(requests, Ordering::Relaxed);
        self.batched_rows_total.fetch_add(rows, Ordering::Relaxed);
        let slot = BATCH_BUCKET_BOUNDS
            .iter()
            .position(|&b| rows <= b)
            .unwrap_or(BATCH_BUCKET_BOUNDS.len());
        self.batch_size_buckets[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Total flushed micro-batches.
    pub fn batches_total(&self) -> u64 {
        self.batches_total.load(Ordering::Relaxed)
    }

    /// Total requests that went through a micro-batch.
    pub fn batched_requests_total(&self) -> u64 {
        self.batched_requests_total.load(Ordering::Relaxed)
    }

    /// Records a newly accepted connection.
    pub fn observe_connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub fn observe_connection_closed(&self) {
        // Saturating: a close without a matching open (can only be a
        // bookkeeping bug) must not wrap the gauge to u64::MAX.
        let _ = self.connections_active.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(1)),
        );
    }

    /// Records a connection reaped by the idle/slow-loris sweep.
    pub fn observe_idle_closed(&self) {
        self.connections_idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a read-side backpressure pause (slow reader with a full
    /// write buffer).
    pub fn observe_read_paused(&self) {
        self.read_paused_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints.iter().map(|e| e.requests.load(Ordering::Relaxed)).sum()
    }

    /// Renders the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP demodq_requests_total Requests handled per endpoint.\n");
        out.push_str("# TYPE demodq_requests_total counter\n");
        for (name, e) in ENDPOINTS.iter().zip(&self.endpoints) {
            out.push_str(&format!(
                "demodq_requests_total{{endpoint=\"{name}\"}} {}\n",
                e.requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP demodq_errors_total Error responses per endpoint and class.\n");
        out.push_str("# TYPE demodq_errors_total counter\n");
        for (name, e) in ENDPOINTS.iter().zip(&self.endpoints) {
            out.push_str(&format!(
                "demodq_errors_total{{endpoint=\"{name}\",class=\"4xx\"}} {}\n",
                e.client_errors.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "demodq_errors_total{{endpoint=\"{name}\",class=\"5xx\"}} {}\n",
                e.server_errors.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP demodq_rejected_total Connections refused with 503 at accept time (connection cap reached).\n");
        out.push_str("# TYPE demodq_rejected_total counter\n");
        out.push_str(&format!(
            "demodq_rejected_total {}\n",
            self.rejected_queue_full.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP demodq_unseen_category_rows_total Prediction rows with categories unseen at fit time.\n",
        );
        out.push_str("# TYPE demodq_unseen_category_rows_total counter\n");
        out.push_str(&format!(
            "demodq_unseen_category_rows_total {}\n",
            self.unseen_category_rows.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_batches_total Prediction micro-batches flushed by the event loop.\n");
        out.push_str("# TYPE demodq_batches_total counter\n");
        out.push_str(&format!("demodq_batches_total {}\n", self.batches_total.load(Ordering::Relaxed)));
        out.push_str("# HELP demodq_batched_requests_total Requests scored inside a micro-batch.\n");
        out.push_str("# TYPE demodq_batched_requests_total counter\n");
        out.push_str(&format!(
            "demodq_batched_requests_total {}\n",
            self.batched_requests_total.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_batched_rows_total Prediction rows scored inside a micro-batch.\n");
        out.push_str("# TYPE demodq_batched_rows_total counter\n");
        out.push_str(&format!(
            "demodq_batched_rows_total {}\n",
            self.batched_rows_total.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_batch_rows Rows per flushed micro-batch.\n");
        out.push_str("# TYPE demodq_batch_rows histogram\n");
        let mut cumulative = 0u64;
        for (bound, bucket) in BATCH_BUCKET_BOUNDS.iter().zip(&self.batch_size_buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(&format!("demodq_batch_rows_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        cumulative += self.batch_size_buckets[BATCH_BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("demodq_batch_rows_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "demodq_batch_rows_sum {}\n",
            self.batched_rows_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("demodq_batch_rows_count {}\n", self.batches_total.load(Ordering::Relaxed)));
        out.push_str("# HELP demodq_connections_total Connections accepted since startup.\n");
        out.push_str("# TYPE demodq_connections_total counter\n");
        out.push_str(&format!(
            "demodq_connections_total {}\n",
            self.connections_total.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_connections_active Currently open connections.\n");
        out.push_str("# TYPE demodq_connections_active gauge\n");
        out.push_str(&format!(
            "demodq_connections_active {}\n",
            self.connections_active.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_connections_idle_closed_total Connections reaped by the idle/slow-loris sweep.\n");
        out.push_str("# TYPE demodq_connections_idle_closed_total counter\n");
        out.push_str(&format!(
            "demodq_connections_idle_closed_total {}\n",
            self.connections_idle_closed.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_read_paused_total Read-side backpressure pauses (slow readers).\n");
        out.push_str("# TYPE demodq_read_paused_total counter\n");
        out.push_str(&format!(
            "demodq_read_paused_total {}\n",
            self.read_paused_total.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP demodq_request_seconds Request latency per endpoint.\n");
        out.push_str("# TYPE demodq_request_seconds histogram\n");
        for (name, e) in ENDPOINTS.iter().zip(&self.endpoints) {
            let mut cumulative = 0u64;
            for (bound, bucket) in BUCKET_BOUNDS.iter().zip(&e.latency.buckets) {
                cumulative += bucket.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "demodq_request_seconds_bucket{{endpoint=\"{name}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            cumulative += e.latency.buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "demodq_request_seconds_bucket{{endpoint=\"{name}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "demodq_request_seconds_sum{{endpoint=\"{name}\"}} {}\n",
                e.latency.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "demodq_request_seconds_count{{endpoint=\"{name}\"}} {}\n",
                e.latency.count.load(Ordering::Relaxed)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_counters() {
        let m = Metrics::new();
        m.observe("/v1/predict", 200, Duration::from_micros(800));
        m.observe("/v1/predict", 400, Duration::from_micros(100));
        m.observe("/v1/predict", 500, Duration::from_millis(40));
        m.observe("/nope", 404, Duration::from_micros(10));
        m.observe_queue_full();
        assert_eq!(m.total_requests(), 4);

        let text = m.render();
        assert!(text.contains("demodq_requests_total{endpoint=\"/v1/predict\"} 3"));
        assert!(text.contains("demodq_errors_total{endpoint=\"/v1/predict\",class=\"4xx\"} 1"));
        assert!(text.contains("demodq_errors_total{endpoint=\"/v1/predict\",class=\"5xx\"} 1"));
        // The unknown path is rolled into `other`.
        assert!(text.contains("demodq_requests_total{endpoint=\"other\"} 1"));
        assert!(text.contains("demodq_rejected_total 1"));

        m.observe_unseen_category_rows(3);
        m.observe_unseen_category_rows(2);
        assert_eq!(m.unseen_category_rows(), 5);
        assert!(m.render().contains("demodq_unseen_category_rows_total 5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let m = Metrics::new();
        // 800µs lands in le=0.001; 40ms lands in le=0.05; 10s lands in +Inf.
        m.observe("/v1/audit", 200, Duration::from_micros(800));
        m.observe("/v1/audit", 200, Duration::from_millis(40));
        m.observe("/v1/audit", 200, Duration::from_secs(10));
        let text = m.render();
        assert!(text.contains("demodq_request_seconds_bucket{endpoint=\"/v1/audit\",le=\"0.001\"} 1"));
        assert!(text.contains("demodq_request_seconds_bucket{endpoint=\"/v1/audit\",le=\"0.05\"} 2"));
        assert!(text.contains("demodq_request_seconds_bucket{endpoint=\"/v1/audit\",le=\"+Inf\"} 3"));
        assert!(text.contains("demodq_request_seconds_count{endpoint=\"/v1/audit\"} 3"));
        // Sum is ~10.0408s.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("demodq_request_seconds_sum{endpoint=\"/v1/audit\"}"))
            .unwrap();
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - 10.0408).abs() < 1e-3, "sum = {sum}");
    }
}
