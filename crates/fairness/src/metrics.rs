//! The paper's two group fairness metrics for binary classification.
//!
//! Each metric is a *signed disparity* `metric(privileged) −
//! metric(disadvantaged)`; 0 means the metric is satisfied. The study's
//! impact classification uses the **absolute** disparity (a cleaning
//! technique worsens fairness when it increases |disparity|), accessible
//! via [`FairnessMetric::absolute_disparity`].

use crate::confusion::GroupConfusions;

/// The group fairness metrics the paper reports: predictive parity
/// (precision parity, the vendor's interest) and equal opportunity
/// (recall parity, the applicant's interest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FairnessMetric {
    /// Precision difference: TPpriv/(TPpriv+FPpriv) − TPdis/(TPdis+FPdis).
    PredictiveParity,
    /// Recall difference: TPpriv/(TPpriv+FNpriv) − TPdis/(TPdis+FNdis).
    EqualOpportunity,
}

impl FairnessMetric {
    /// Both metrics, in table order.
    pub fn all() -> [FairnessMetric; 2] {
        [FairnessMetric::PredictiveParity, FairnessMetric::EqualOpportunity]
    }

    /// Short name used in tables and result keys.
    pub fn name(&self) -> &'static str {
        match self {
            FairnessMetric::PredictiveParity => "PP",
            FairnessMetric::EqualOpportunity => "EO",
        }
    }

    /// The signed disparity (privileged − disadvantaged).
    ///
    /// `None` when the metric is undefined for either group (e.g. precision
    /// with no positive predictions in a group).
    pub fn signed_disparity(&self, gc: &GroupConfusions) -> Option<f64> {
        let p = &gc.privileged;
        let d = &gc.disadvantaged;
        match self {
            FairnessMetric::PredictiveParity => Some(p.precision()? - d.precision()?),
            FairnessMetric::EqualOpportunity => Some(p.recall()? - d.recall()?),
        }
    }

    /// The absolute disparity — the quantity whose growth/shrinkage the
    /// impact classification tests.
    pub fn absolute_disparity(&self, gc: &GroupConfusions) -> Option<f64> {
        self.signed_disparity(gc).map(f64::abs)
    }
}

impl std::fmt::Display for FairnessMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfusionMatrix;

    fn gc(p: ConfusionMatrix, d: ConfusionMatrix) -> GroupConfusions {
        GroupConfusions { privileged: p, disadvantaged: d }
    }

    #[test]
    fn predictive_parity_is_precision_gap() {
        // priv precision 0.8 (8/10), dis precision 0.5 (5/10).
        let g = gc(
            ConfusionMatrix { tn: 10, fp: 2, fn_: 3, tp: 8 },
            ConfusionMatrix { tn: 10, fp: 5, fn_: 3, tp: 5 },
        );
        let pp = FairnessMetric::PredictiveParity.signed_disparity(&g).unwrap();
        assert!((pp - 0.3).abs() < 1e-12);
        assert!((FairnessMetric::PredictiveParity.absolute_disparity(&g).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn equal_opportunity_is_recall_gap() {
        // priv recall 8/11, dis recall 5/8.
        let g = gc(
            ConfusionMatrix { tn: 10, fp: 2, fn_: 3, tp: 8 },
            ConfusionMatrix { tn: 10, fp: 5, fn_: 3, tp: 5 },
        );
        let eo = FairnessMetric::EqualOpportunity.signed_disparity(&g).unwrap();
        assert!((eo - (8.0 / 11.0 - 5.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn perfect_parity_is_zero_for_all_metrics() {
        let cm = ConfusionMatrix { tn: 10, fp: 2, fn_: 3, tp: 8 };
        let g = gc(cm, cm);
        for metric in FairnessMetric::all() {
            let s = metric.signed_disparity(&g).unwrap();
            assert!(s.abs() < 1e-12, "{metric}: {s}");
        }
    }

    #[test]
    fn undefined_when_group_metric_undefined() {
        // Disadvantaged group has no positive predictions: precision undefined.
        let g = gc(
            ConfusionMatrix { tn: 5, fp: 1, fn_: 1, tp: 3 },
            ConfusionMatrix { tn: 5, fp: 0, fn_: 4, tp: 0 },
        );
        assert!(FairnessMetric::PredictiveParity.signed_disparity(&g).is_none());
        // Recall is defined (4 actual positives).
        assert!(FairnessMetric::EqualOpportunity.signed_disparity(&g).is_some());
    }

    #[test]
    fn names_are_the_table_labels() {
        assert_eq!(FairnessMetric::all().map(|m| m.name()), ["PP", "EO"]);
        assert!(FairnessMetric::PredictiveParity < FairnessMetric::EqualOpportunity);
    }
}
