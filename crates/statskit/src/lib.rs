//! # statskit — statistical substrate
//!
//! Implements the statistics the study depends on, from scratch:
//!
//! * special functions (log-gamma, regularised incomplete gamma and beta)
//!   via standard series / continued-fraction expansions,
//! * the χ² survival function and the **G² log-likelihood-ratio test** the
//!   paper uses to certify demographically disparate error-detection rates
//!   (Section III, Figures 1–2),
//! * **paired-sample t-tests** with Bonferroni correction — the CleanML
//!   protocol the paper adopts to classify a cleaning configuration's impact
//!   as worse / insignificant / better (Section V),
//! * descriptive statistics helpers.
//!
//! All p-values are two-sided unless documented otherwise, and the numeric
//! routines are validated against published reference values in the tests.
//!
//! ```
//! // Does an error detector flag the two groups at different rates?
//! let result = statskit::g_test_2x2(90, 910, 150, 850).unwrap();
//! assert!(result.significant(0.05));
//!
//! // Did cleaning change the paired accuracy scores?
//! let dirty =    [0.71, 0.70, 0.72, 0.69, 0.71];
//! let repaired = [0.74, 0.73, 0.75, 0.73, 0.74];
//! let t = statskit::paired_t_test(&dirty, &repaired).unwrap();
//! assert!(t.significant(statskit::bonferroni_alpha(0.05, 6)));
//! assert!(t.mean_diff > 0.0);
//! ```

pub mod chi2;
pub mod correction;
pub mod describe;
pub mod special;
pub mod ttest;

pub use chi2::{chi2_survival, g_test_2x2, GTestResult};
pub use correction::bonferroni_alpha;
pub use describe::Description;
pub use ttest::{paired_t_test, TTestResult};
