//! # demodq-serve — HTTP model serving for the demodq reproduction
//!
//! A dependency-free (std::net + `serde_json`) HTTP/1.1 service that
//! trains one tuned model per (dataset, model-kind) pair at startup and
//! serves them from a read-only registry:
//!
//! * `POST /v1/predict` — single rows or batches through the
//!   training-time feature encoder;
//! * `POST /v1/clean` — run a paper detector (+ repair) over submitted
//!   rows, returning flagged cells and repaired values;
//! * `POST /v1/audit` — group-wise confusion matrices and predictive-
//!   parity / equal-opportunity disparities on a labeled batch;
//! * `GET /healthz` — registry summary;
//! * `GET /metrics` — Prometheus counters and latency histograms.
//!
//! The server is one epoll event loop and runs on Linux only
//! ([`Server::spawn`] returns `ErrorKind::Unsupported` elsewhere). The
//! binary (`demodq-serve`) adds SIGTERM/SIGINT handling with graceful
//! drain; the library pieces ([`Server::spawn`] on an ephemeral port) are
//! designed for in-process integration tests and examples.

pub mod codec;
pub mod drift;
pub mod event;
pub mod http;
pub mod metrics;
pub mod nb;
pub mod registry;
pub mod routes;
pub mod server;

pub use drift::{DriftConfig, DriftEntry, DriftStore};
pub use http::{Request, Response};
pub use metrics::Metrics;
pub use registry::{Registry, SharedRegistry};
pub use routes::App;
pub use server::{Server, ServerConfig};
