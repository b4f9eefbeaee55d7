//! Data valuation: exact kNN-Shapley (Jia et al., VLDB 2019 — the paper's
//! reference \[36\]) and a fairness-influence variant (the §VII starting
//! point: "the identification of input tuples with negative impact on
//! fairness, which would then need to be cleaned in a fairness-enhancing
//! manner", cf. Karlaš et al. \[38\]).
//!
//! For a k-NN utility, the Shapley value of every training point has a
//! closed form per test point: sort training points by distance to the
//! test point, then recurse from the farthest to the nearest:
//!
//! ```text
//! s_(N)  = 1[y_(N) = y_test] / N
//! s_(i)  = s_(i+1) + (1[y_(i) = y_test] − 1[y_(i+1) = y_test]) / K · min(K, i) / i
//! ```
//!
//! Averaging over test points gives each training tuple's exact
//! contribution to k-NN test accuracy in O(N log N) per test point —
//! no Monte-Carlo needed.

use fairness::{group_confusions, FairnessMetric, Groups};
use tabular::DenseMatrix;

/// kNN-Shapley restricted to the test points where `test_mask` is true —
/// the building block for group-wise valuation. Returns zeros when the
/// mask selects no test point.
pub fn knn_shapley_masked(
    x_train: &DenseMatrix,
    y_train: &[u8],
    x_test: &DenseMatrix,
    y_test: &[u8],
    k: usize,
    test_mask: &[bool],
) -> Vec<f64> {
    assert_eq!(x_train.n_rows(), y_train.len(), "train shape mismatch");
    assert_eq!(x_test.n_rows(), y_test.len(), "test shape mismatch");
    assert_eq!(x_test.n_rows(), test_mask.len(), "mask shape mismatch");
    assert!(k > 0, "k must be positive");
    let n = x_train.n_rows();
    let mut values = vec![0.0; n];
    if n == 0 {
        return values;
    }
    let mut n_used = 0usize;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut dist: Vec<f64> = vec![0.0; n];
    for t in 0..x_test.n_rows() {
        if !test_mask[t] {
            continue;
        }
        n_used += 1;
        let point = x_test.row(t);
        for (i, d) in dist.iter_mut().enumerate() {
            *d = x_train.row_distance_sq(i, point);
        }
        order.clear();
        order.extend(0..n);
        // Stable tie-break by index for determinism.
        order.sort_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
        // Recursion from farthest to nearest.
        let y_t = y_test[t];
        let matches = |i: usize| f64::from(y_train[order[i]] == y_t);
        let mut s_next = matches(n - 1) / n as f64;
        values[order[n - 1]] += s_next;
        for i in (0..n - 1).rev() {
            let rank = i + 1; // 1-based position of x_(i)
            let s_i = s_next
                + (matches(i) - matches(i + 1)) / k as f64 * (k.min(rank) as f64 / rank as f64);
            values[order[i]] += s_i;
            s_next = s_i;
        }
    }
    if n_used > 0 {
        for v in &mut values {
            *v /= n_used as f64;
        }
    }
    values
}

/// Fairness influence of every training point on the recall disparity
/// (equal opportunity) between a privileged and a disadvantaged group.
///
/// Decomposition: kNN-Shapley over the privileged group's *positive* test
/// points measures each training tuple's contribution to privileged
/// recall; the same over the disadvantaged positives measures its
/// contribution to disadvantaged recall. The influence on the signed
/// disparity `recall_priv − recall_dis` is the difference of the two;
/// multiplied by the sign of the current disparity it becomes the
/// influence on the *absolute* disparity:
///
/// * **positive influence = the tuple widens the unfairness** — the
///   tuples a fairness-aware cleaning method should inspect first;
/// * negative influence = the tuple narrows it.
///
/// `groups` holds the test rows' (disjoint) group masks.
pub fn fairness_influence(
    x_train: &DenseMatrix,
    y_train: &[u8],
    x_test: &DenseMatrix,
    y_test: &[u8],
    k: usize,
    groups: &Groups,
) -> Vec<f64> {
    assert_eq!(x_test.n_rows(), groups.privileged.len(), "privileged mask mismatch");
    assert_eq!(x_test.n_rows(), groups.disadvantaged.len(), "disadvantaged mask mismatch");
    let positives = |mask: &[bool]| -> Vec<bool> {
        (0..x_test.n_rows()).map(|i| mask[i] && y_test[i] == 1).collect()
    };
    let to_priv =
        knn_shapley_masked(x_train, y_train, x_test, y_test, k, &positives(&groups.privileged));
    let to_dis =
        knn_shapley_masked(x_train, y_train, x_test, y_test, k, &positives(&groups.disadvantaged));
    // Current signed disparity via the k-NN predictions themselves. An
    // undefined one takes the +1 sign convention, and so does a tie: equal
    // recalls subtract to +0.0, whose signum is +1.
    let knn = mlcore::KnnClassifier::fit(x_train, y_train, k);
    let preds = mlcore::model::Classifier::predict(&knn, x_test);
    let gc = group_confusions(y_test, &preds, groups);
    let sign = FairnessMetric::EqualOpportunity.signed_disparity(&gc).map_or(1.0, f64::signum);
    to_priv
        .iter()
        .zip(&to_dis)
        .map(|(p, d)| sign * (p - d))
        .collect()
}

/// Ranks training rows by descending fairness influence — the inspection
/// order for fairness-aware cleaning.
pub fn rank_by_influence(influence: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..influence.len()).collect();
    // `unwrap_or(Equal)` rather than `total_cmp`: influence values mix
    // +0.0/-0.0 (sign * 0.0), which must stay ties for the index
    // tie-break to decide, exactly as `partial_cmp` treats them.
    order.sort_by(|&a, &b| {
        influence[b].partial_cmp(&influence[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Rng64;

    /// Two well-separated clusters; `poison` marks training points whose
    /// label is flipped. Returns `(x, clean_labels, train_labels)`.
    fn clustered(n_per: usize, poison: &[usize]) -> (DenseMatrix, Vec<u8>, Vec<u8>) {
        let mut data = Vec::new();
        let mut y = Vec::new();
        let mut rng = Rng64::seed_from_u64(3);
        for i in 0..2 * n_per {
            let cluster = u8::from(i >= n_per);
            data.push(f64::from(cluster) * 10.0 + rng.normal() * 0.3);
            data.push(f64::from(cluster) * 10.0 + rng.normal() * 0.3);
            y.push(cluster);
        }
        let mut y_train = y.clone();
        for &i in poison {
            y_train[i] = 1 - y_train[i];
        }
        (DenseMatrix::from_vec(2 * n_per, 2, data), y, y_train)
    }

    #[test]
    fn correct_points_have_positive_value() {
        let (x, y, y_train) = clustered(15, &[]);
        let values = knn_shapley_masked(&x, &y_train, &x, &y, 3, &vec![true; x.n_rows()]);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(mean > 0.0, "mean value {mean}");
        assert!(values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mislabeled_point_gets_lowest_value() {
        // Valuation against *clean* test labels, as in Jia et al.
        let (x, y, y_train) = clustered(15, &[4]);
        let values = knn_shapley_masked(&x, &y_train, &x, &y, 3, &vec![true; x.n_rows()]);
        let min_idx = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(min_idx, 4, "the poisoned point should be least valuable");
        // Its value sits far below the average clean point's value (the
        // absolute sign depends on how central the point is to its
        // cluster, so only the relative ordering is asserted).
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(values[4] < mean / 2.0, "poisoned {} vs mean {mean}", values[4]);
    }

    #[test]
    fn efficiency_totals_are_bounded() {
        // Sum over training points of per-test Shapley is at most 1 per
        // test point (utility is 0/1), so averaged totals lie in [-1, 1].
        let (x, y, y_train) = clustered(10, &[2]);
        let values = knn_shapley_masked(&x, &y_train, &x, &y, 3, &vec![true; x.n_rows()]);
        let total: f64 = values.iter().sum();
        assert!((-1.0..=1.0).contains(&total), "total {total}");
    }

    #[test]
    fn empty_mask_yields_zeros() {
        let (x, y, _) = clustered(5, &[]);
        let mask = vec![false; x.n_rows()];
        let values = knn_shapley_masked(&x, &y, &x, &y, 3, &mask);
        assert!(values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn group_restriction_changes_attribution() {
        let (x, y, _) = clustered(10, &[]);
        let first_half: Vec<bool> = (0..x.n_rows()).map(|i| i < 10).collect();
        let second_half: Vec<bool> = first_half.iter().map(|&b| !b).collect();
        let v1 = knn_shapley_masked(&x, &y, &x, &y, 3, &first_half);
        let v2 = knn_shapley_masked(&x, &y, &x, &y, 3, &second_half);
        assert_ne!(v1, v2);
        // Cluster-0 training points matter for cluster-0 test points.
        let cluster0_value: f64 = v1[..10].iter().sum();
        let cluster1_value: f64 = v1[10..].iter().sum();
        assert!(cluster0_value > cluster1_value);
    }

    /// Synthetic fairness setup: disadvantaged positives sit near a region
    /// poisoned with wrong-label training points.
    #[test]
    fn fairness_influence_flags_points_that_widen_the_gap() {
        let mut data = Vec::new();
        let mut y = Vec::new();
        let mut rng = Rng64::seed_from_u64(5);
        // 20 privileged positives at (0,0); 20 disadvantaged positives at
        // (10,10); 20 negatives at (5,5).
        for i in 0..60 {
            let (cx, label) = match i / 20 {
                0 => (0.0, 1u8),
                1 => (10.0, 1),
                _ => (5.0, 0),
            };
            data.push(cx + rng.normal() * 0.4);
            data.push(cx + rng.normal() * 0.4);
            y.push(label);
        }
        // Poison: three training points at the disadvantaged cluster with
        // label 0 — they suppress disadvantaged recall only.
        let mut y_train = y.clone();
        for &i in &[20usize, 21, 22] {
            y_train[i] = 0;
        }
        let x = DenseMatrix::from_vec(60, 2, data);
        let groups = Groups {
            privileged: (0..60).map(|i| i < 20).collect(),
            disadvantaged: (0..60).map(|i| (20..40).contains(&i)).collect(),
        };
        let influence = fairness_influence(&x, &y_train, &x, &y, 3, &groups);
        let ranking = rank_by_influence(&influence);
        // The three poisoned points must rank among the top widening
        // influences.
        let top: Vec<usize> = ranking[..6].to_vec();
        let hits = [20, 21, 22].iter().filter(|i| top.contains(i)).count();
        assert!(hits >= 2, "poisoned points not ranked high: top = {top:?}");
    }

    #[test]
    fn rank_is_descending_and_deterministic() {
        let influence = [0.1, -0.5, 0.7, 0.0, 0.7];
        let order = rank_by_influence(&influence);
        assert_eq!(order, vec![2, 4, 0, 3, 1]); // ties broken by index
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (x, y, _) = clustered(3, &[]);
        knn_shapley_masked(&x, &y, &x, &y, 0, &vec![true; x.n_rows()]);
    }
}
