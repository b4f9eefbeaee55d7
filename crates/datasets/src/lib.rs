//! # datasets — the five benchmark datasets of the study
//!
//! The original study uses five public person-level datasets (paper
//! Table I): **adult** and **folk** (census), **credit** and **german**
//! (finance), and **heart** (healthcare). Shipping the raw person-level
//! data is neither possible in this offline environment nor desirable;
//! instead each dataset is reproduced as a **seeded generative model**
//! calibrated to the published structural facts that drive the study's
//! phenomena:
//!
//! * the schema (which columns exist, numeric vs categorical),
//! * the sensitive attributes and their privileged-group definitions,
//! * group proportions and per-group base rates of the positive class,
//! * the missingness mechanism (which columns go missing, at what rate,
//!   and how the rate depends on group membership — e.g. folk's
//!   occupation/class-of-worker are structurally N/A for minors, adult's
//!   `workclass`/`occupation` missingness skews towards disadvantaged
//!   groups, heart has no missing values at all),
//! * heavy-tailed numeric columns and data-entry corruption that produce
//!   natural outliers (e.g. heart's blood-pressure misrecordings, credit's
//!   96/98 sentinel values),
//! * group-dependent label noise.
//!
//! Every generator is deterministic given `(n, seed)`. The declarative
//! [`spec::DatasetSpec`] mirrors the paper's Listing 1 (data location →
//! generator, `error_types`, `drop_variables`, `label`,
//! `privileged_groups`).

pub mod adult;
pub mod credit;
pub mod folk;
pub mod gen;
pub mod german;
pub mod heart;
pub mod registry;
pub mod spec;

pub use registry::{all_specs, default_size, DatasetId};
pub use spec::{DatasetSpec, ErrorType, SensitiveAttribute};
