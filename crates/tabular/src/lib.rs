//! # tabular — tabular data substrate
//!
//! A small, dependency-free DataFrame implementation that plays the role
//! pandas plays for the original (Python) demodq / CleanML codebase:
//! dictionary-encoded categorical columns, NaN-as-missing numeric columns,
//! deterministic splitting and sampling, column statistics, and feature
//! encoding (standardisation + one-hot + missing indicators) into dense
//! matrices consumed by the `mlcore` models. Large dataset pools are kept
//! in a compact columnar [`BlockStore`], from which [`BlockStore::take`]
//! gathers sampled rows back into a frame.
//!
//! Everything is deterministic: all randomised operations take an explicit
//! seed and use the crate's own [`rng::Rng64`] generator, so results are
//! reproducible across platforms and dependency versions (the paper makes a
//! point of reproducibility after discovering a reshuffling bug in CleanML).
//!
//! ```
//! use tabular::{ColumnRole, DataFrame, FeatureEncoder};
//!
//! let frame = DataFrame::builder()
//!     .numeric("income", ColumnRole::Feature, vec![30_000.0, f64::NAN, 52_000.0])
//!     .categorical("job", ColumnRole::Feature, &[Some("clerk"), Some("engineer"), None])
//!     .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 1.0])
//!     .build()
//!     .unwrap();
//! assert_eq!(frame.missing_cells(), 2);
//!
//! // Standardised + one-hot + missing-indicator matrix for the models:
//! let encoder = FeatureEncoder::fit(&frame, true).unwrap();
//! let matrix = encoder.transform(&frame).unwrap();
//! assert_eq!(matrix.n_rows(), 3);
//! assert_eq!(matrix.n_cols(), encoder.n_output_cols());
//! ```

pub mod block;
pub mod column;
pub mod csv;
pub mod encode;
pub mod error;
pub mod frame;
pub mod matrix;
pub mod rng;
pub mod schema;
pub mod split;
pub mod stats;

pub use block::{BlockStore, BlockWriter, ROWS_PER_BLOCK};
pub use column::{CatColumn, Cell, Column};
pub use encode::{FeatureEncoder, RowCell};
pub use error::TabularError;
pub use frame::DataFrame;
pub use matrix::DenseMatrix;
pub use rng::Rng64;
pub use schema::{ColumnKind, ColumnRole, FieldMeta, Schema};
pub use stats::ColumnStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TabularError>;
