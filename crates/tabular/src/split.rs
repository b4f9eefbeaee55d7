//! Deterministic dataset splitting and sampling.
//!
//! CleanML makes every randomised decision depend on globally specifiable
//! seeds; we mirror that discipline here. All functions return *row index
//! vectors* rather than materialised frames so the same split can be applied
//! to the dirty and the repaired version of a dataset (the paper re-uses the
//! identical split for both arms of every configuration).

use crate::error::TabularError;
use crate::rng::Rng64;
use crate::Result;

/// Train/test split of `n` rows with the given test fraction.
///
/// Returns `(train_indices, test_indices)`, each sorted ascending.
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> Result<(Vec<usize>, Vec<usize>)> {
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(TabularError::InvalidArgument(format!(
            "test_fraction must be in [0,1), got {test_fraction}"
        )));
    }
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let n_test = n_test.min(n.saturating_sub(1));
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    rng.shuffle(&mut order);
    let mut test: Vec<usize> = order[..n_test].to_vec();
    let mut train: Vec<usize> = order[n_test..].to_vec();
    test.sort_unstable();
    train.sort_unstable();
    Ok((train, test))
}

/// K-fold cross-validation index sets.
///
/// Returns `k` pairs of `(train_indices, validation_indices)`. Every row
/// appears in exactly one validation fold.
pub fn kfold(n: usize, k: usize, seed: u64) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    if k < 2 {
        return Err(TabularError::InvalidArgument(format!("k must be >= 2, got {k}")));
    }
    if n < k {
        return Err(TabularError::InvalidArgument(format!("n ({n}) must be >= k ({k})")));
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    rng.shuffle(&mut order);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &row) in order.iter().enumerate() {
        folds[i % k].push(row);
    }
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let mut val = folds[i].clone();
        val.sort_unstable();
        let mut train: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        train.sort_unstable();
        out.push((train, val));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_rows() {
        let (train, test) = train_test_split(100, 0.3, 42).unwrap();
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic() {
        let a = train_test_split(50, 0.2, 7).unwrap();
        let b = train_test_split(50, 0.2, 7).unwrap();
        assert_eq!(a, b);
        let c = train_test_split(50, 0.2, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        assert!(train_test_split(10, 1.0, 0).is_err());
        assert!(train_test_split(10, -0.1, 0).is_err());
    }

    #[test]
    fn split_never_empties_train() {
        let (train, test) = train_test_split(2, 0.9, 0).unwrap();
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn kfold_covers_every_row_once() {
        let folds = kfold(23, 5, 11).unwrap();
        assert_eq!(folds.len(), 5);
        let mut seen = [0usize; 23];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            for &i in val {
                seen[i] += 1;
            }
            // Train and validation are disjoint.
            let val_set: std::collections::HashSet<_> = val.iter().collect();
            assert!(train.iter().all(|i| !val_set.contains(i)));
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn kfold_rejects_bad_args() {
        assert!(kfold(10, 1, 0).is_err());
        assert!(kfold(3, 5, 0).is_err());
    }
}
