//! Property-based tests for groups and fairness metrics.

use fairness::{
    group_confusions, CmpOp, ConfusionMatrix, FairnessMetric, GroupConfusions, GroupPredicate,
    GroupSpec, Groups,
};
use proptest::prelude::*;
use tabular::{ColumnRole, DataFrame};

fn arb_confusion() -> impl Strategy<Value = ConfusionMatrix> {
    (0u64..500, 0u64..500, 0u64..500, 0u64..500)
        .prop_map(|(tn, fp, fn_, tp)| ConfusionMatrix { tn, fp, fn_, tp })
}

proptest! {
    #[test]
    fn single_attribute_always_partitions(
        ages in prop::collection::vec(prop_oneof![9 => 0.0..100.0f64, 1 => Just(f64::NAN)], 1..100),
        threshold in 0.0..100.0f64,
    ) {
        let df = DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, ages)
            .build()
            .unwrap();
        let spec = GroupSpec::SingleAttribute(GroupPredicate::num("age", CmpOp::Gt, threshold));
        let groups = spec.evaluate(&df).unwrap();
        prop_assert_eq!(groups.n_excluded(), 0);
        prop_assert_eq!(groups.n_privileged() + groups.n_disadvantaged(), df.n_rows());
    }

    #[test]
    fn intersectional_trichotomy(
        ages in prop::collection::vec(0.0..100.0f64, 1..100),
        incomes in prop::collection::vec(0.0..100.0f64, 1..100),
        t1 in 10.0..90.0f64,
        t2 in 10.0..90.0f64,
    ) {
        let n = ages.len().min(incomes.len());
        let df = DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, ages[..n].to_vec())
            .numeric("income", ColumnRole::Sensitive, incomes[..n].to_vec())
            .build()
            .unwrap();
        let spec = GroupSpec::Intersectional(vec![
            GroupPredicate::num("age", CmpOp::Gt, t1),
            GroupPredicate::num("income", CmpOp::Gt, t2),
        ]);
        let groups = spec.evaluate(&df).unwrap();
        // Privileged and disadvantaged never overlap.
        for i in 0..n {
            prop_assert!(!(groups.privileged[i] && groups.disadvantaged[i]));
        }
        prop_assert_eq!(
            groups.n_privileged() + groups.n_disadvantaged() + groups.n_excluded(),
            n
        );
    }

    #[test]
    fn confusion_counts_conserved(
        y in prop::collection::vec(0u8..2, 1..200),
        seed in any::<u64>(),
    ) {
        let n = y.len();
        let mut rng = tabular::Rng64::seed_from_u64(seed);
        let y_pred: Vec<u8> = (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect();
        let priv_mask: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        let dis_mask: Vec<bool> = priv_mask.iter().map(|&b| !b).collect();
        let groups = Groups { privileged: priv_mask, disadvantaged: dis_mask };
        let gc = group_confusions(&y, &y_pred, &groups);
        prop_assert_eq!(gc.total() as usize, n);
    }

    #[test]
    fn disparities_are_bounded(p in arb_confusion(), d in arb_confusion()) {
        let gc = GroupConfusions { privileged: p, disadvantaged: d };
        for metric in FairnessMetric::all() {
            if let Some(v) = metric.signed_disparity(&gc) {
                prop_assert!((-1.0..=1.0).contains(&v), "{metric}: {v}");
                let abs = metric.absolute_disparity(&gc).unwrap();
                prop_assert!((0.0..=1.0).contains(&abs));
                prop_assert!((abs - v.abs()).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn identical_groups_have_zero_disparity(cm in arb_confusion()) {
        let gc = GroupConfusions { privileged: cm, disadvantaged: cm };
        for metric in FairnessMetric::all() {
            if let Some(v) = metric.signed_disparity(&gc) {
                prop_assert!(v.abs() < 1e-12, "{metric}: {v}");
            }
        }
    }

    #[test]
    fn swapping_groups_negates_signed_disparity(p in arb_confusion(), d in arb_confusion()) {
        let gc = GroupConfusions { privileged: p, disadvantaged: d };
        let swapped = GroupConfusions { privileged: d, disadvantaged: p };
        for metric in [
            FairnessMetric::PredictiveParity,
            FairnessMetric::EqualOpportunity,
            FairnessMetric::DemographicParity,
            FairnessMetric::FprParity,
            FairnessMetric::AccuracyParity,
        ] {
            match (metric.signed_disparity(&gc), metric.signed_disparity(&swapped)) {
                (Some(a), Some(b)) => prop_assert!((a + b).abs() < 1e-12, "{metric}"),
                (None, None) => {}
                _ => prop_assert!(false, "{metric}: definedness must be symmetric"),
            }
        }
        // EqualizedOdds is symmetric (absolute form) rather than odd.
        match (
            FairnessMetric::EqualizedOdds.signed_disparity(&gc),
            FairnessMetric::EqualizedOdds.signed_disparity(&swapped),
        ) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12),
            (None, None) => {}
            _ => prop_assert!(false),
        }
    }

    #[test]
    fn ratio_metrics_are_scale_invariant(p in arb_confusion(), d in arb_confusion()) {
        let gc = GroupConfusions { privileged: p, disadvantaged: d };
        let twice = |m: ConfusionMatrix| ConfusionMatrix {
            tn: 2 * m.tn,
            fp: 2 * m.fp,
            fn_: 2 * m.fn_,
            tp: 2 * m.tp,
        };
        let doubled = GroupConfusions { privileged: twice(p), disadvantaged: twice(d) };
        prop_assert_eq!(doubled.total(), gc.total() * 2);
        // Ratio metrics are invariant under uniform scaling of counts.
        for metric in FairnessMetric::all() {
            match (metric.signed_disparity(&gc), metric.signed_disparity(&doubled)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12, "{metric}"),
                (None, None) => {}
                _ => prop_assert!(false, "{metric}: definedness changed under scaling"),
            }
        }
    }
}
