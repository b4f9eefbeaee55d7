//! Group-wise confusion matrices.
//!
//! The framework's design decision (paper Section IV): record the *raw*
//! per-group confusion counts for every cleaning technique, so any group
//! fairness metric can be computed afterwards without re-running models.

use crate::groups::Groups;
use crate::ConfusionMatrix;

/// The pair of confusion matrices a fairness metric compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupConfusions {
    /// Confusion counts over the privileged group.
    pub privileged: ConfusionMatrix,
    /// Confusion counts over the disadvantaged group.
    pub disadvantaged: ConfusionMatrix,
}

/// Tallies group-wise confusion matrices for a prediction vector.
///
/// Rows excluded from both groups (possible under intersectional specs)
/// are counted in neither matrix.
///
/// Panics when the input lengths disagree.
pub fn group_confusions(y_true: &[u8], y_pred: &[u8], groups: &Groups) -> GroupConfusions {
    assert_eq!(y_true.len(), y_pred.len(), "prediction length mismatch");
    assert_eq!(y_true.len(), groups.privileged.len(), "group mask length mismatch");
    let mut out = GroupConfusions::default();
    for i in 0..y_true.len() {
        let cm = if groups.privileged[i] {
            &mut out.privileged
        } else if groups.disadvantaged[i] {
            &mut out.disadvantaged
        } else {
            continue;
        };
        match (y_true[i], y_pred[i]) {
            (0, 0) => cm.tn += 1,
            (0, _) => cm.fp += 1,
            (_, 0) => cm.fn_ += 1,
            _ => cm.tp += 1,
        }
    }
    out
}

impl GroupConfusions {
    /// Total number of tallied rows across both groups.
    pub fn total(&self) -> u64 {
        self.privileged.total() + self.disadvantaged.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(privileged: Vec<bool>, disadvantaged: Vec<bool>) -> Groups {
        Groups { privileged, disadvantaged }
    }

    #[test]
    fn tallies_by_group() {
        let y_true = [1, 0, 1, 0];
        let y_pred = [1, 1, 0, 0];
        let g = groups(vec![true, true, false, false], vec![false, false, true, true]);
        let gc = group_confusions(&y_true, &y_pred, &g);
        assert_eq!(gc.privileged, ConfusionMatrix { tn: 0, fp: 1, fn_: 0, tp: 1 });
        assert_eq!(gc.disadvantaged, ConfusionMatrix { tn: 1, fp: 0, fn_: 1, tp: 0 });
        assert_eq!(gc.total(), 4);
    }

    #[test]
    fn excluded_rows_are_skipped() {
        let y_true = [1, 1];
        let y_pred = [1, 1];
        let g = groups(vec![true, false], vec![false, false]);
        let gc = group_confusions(&y_true, &y_pred, &g);
        assert_eq!(gc.total(), 1);
        assert_eq!(gc.privileged.tp, 1);
        assert_eq!(gc.disadvantaged.total(), 0);
    }

    #[test]
    fn conservation_of_counts() {
        // Counts in priv + dis == total rows for a partitioning spec.
        let y_true: Vec<u8> = (0..50).map(|i| (i % 2) as u8).collect();
        let y_pred: Vec<u8> = (0..50).map(|i| ((i / 2) % 2) as u8).collect();
        let priv_mask: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let dis_mask: Vec<bool> = priv_mask.iter().map(|&b| !b).collect();
        let gc = group_confusions(&y_true, &y_pred, &groups(priv_mask, dis_mask));
        assert_eq!(gc.total(), 50);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        group_confusions(&[1], &[1, 0], &groups(vec![true], vec![false]));
    }
}
