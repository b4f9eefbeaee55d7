//! # fairness — group fairness substrate
//!
//! Implements the paper's group machinery (Section II):
//!
//! * **group predicates** — declarative membership tests on sensitive
//!   attributes (`("age", >, 25)`, `("sex", ==, "male")`), mirroring the
//!   `privileged_groups` entries of the declarative dataset definitions;
//! * **single-attribute groups** — a predicate partitions the data into a
//!   privileged and a disadvantaged group;
//! * **intersectional groups** — the conjunction of several predicates;
//!   tuples privileged along one axis and disadvantaged along another are
//!   *excluded* (the paper's intersectional definitions deliberately do not
//!   partition the data);
//! * **group-wise confusion matrices** and the paper's two fairness
//!   metrics computed from them: predictive parity (precision parity) and
//!   equal opportunity (recall parity).
//!
//! ```
//! use fairness::{group_confusions, CmpOp, FairnessMetric, GroupPredicate, GroupSpec};
//! use tabular::{ColumnRole, DataFrame};
//!
//! let test = DataFrame::builder()
//!     .categorical("sex", ColumnRole::Sensitive,
//!         &[Some("male"), Some("male"), Some("female"), Some("female")])
//!     .numeric("label", ColumnRole::Label, vec![1.0, 0.0, 1.0, 0.0])
//!     .build()
//!     .unwrap();
//! let spec = GroupSpec::SingleAttribute(GroupPredicate::cat("sex", CmpOp::Eq, "male"));
//! let groups = spec.evaluate(&test).unwrap();
//!
//! let y_true = [1, 0, 1, 0];
//! let y_pred = [1, 0, 0, 0]; // misses the female positive
//! let gc = group_confusions(&y_true, &y_pred, &groups);
//! let eo = FairnessMetric::EqualOpportunity.signed_disparity(&gc).unwrap();
//! assert_eq!(eo, 1.0); // male recall 1.0, female recall 0.0
//! ```

pub mod confusion;
pub mod groups;
pub mod leaf;
pub mod metrics;
pub mod window;

pub use confusion::{group_confusions, ConfusionMatrix, GroupConfusions};
pub use groups::{CmpOp, GroupPredicate, GroupSpec, Groups, PredicateValue};
pub use leaf::{per_leaf_accounting, LeafAccounting};
pub use metrics::FairnessMetric;
pub use window::{disparity_drift, SlidingGroupWindow};
