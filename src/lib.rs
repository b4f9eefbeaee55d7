//! Umbrella crate for the demodq reproduction: re-exports the public API of
//! every workspace crate so examples and integration tests can use a single
//! dependency.

pub use cleaning;
pub use datasets;
pub use demodq;
pub use demodq_rectify;
pub use demodq_serve;
pub use fairness;
pub use mlcore;
pub use serde_json;
pub use statskit;
pub use tabular;
