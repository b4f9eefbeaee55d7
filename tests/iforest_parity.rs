//! Parity of the isolation forest against the recursive build and
//! row-at-a-time scoring it replaced.
//!
//! The reference below restates that algorithm from public pieces: the
//! same encoding and seeding, one `sample_indices(n, ψ)` per tree, a
//! recursive pre-order build that partitions into two fresh `Vec`s on `<`
//! (a leaf when either side is empty), a walk that adds
//! `average_path_length(size)` at the leaf, a row-at-a-time
//! `.sum::<f64>()` over the trees, and the `(1 − contamination)`
//! percentile as the threshold. The forest must reproduce its score bits
//! and row flags exactly.

use cleaning::detect::isolation_forest::average_path_length;
use cleaning::detect::{DetectorKind, FittedDetector};
use datasets::DatasetId;
use tabular::stats::percentile;
use tabular::{ColumnRole, DataFrame, DenseMatrix, FeatureEncoder, Rng64};

/// `DetectorKind::fit`'s subsample size.
const PSI: usize = 256;
const CONTAMINATION: f64 = 0.01;

enum Node {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { size: usize },
}

fn build(
    nodes: &mut Vec<Node>,
    x: &DenseMatrix,
    rows: &[usize],
    depth: usize,
    max_depth: usize,
    rng: &mut Rng64,
) -> usize {
    if depth >= max_depth || rows.len() <= 1 {
        nodes.push(Node::Leaf { size: rows.len() });
        return nodes.len() - 1;
    }
    let mut chosen = None;
    for _ in 0..8 {
        let feature = rng.below(x.n_cols());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in rows {
            lo = lo.min(x.get(i, feature));
            hi = hi.max(x.get(i, feature));
        }
        if hi > lo {
            chosen = Some((feature, lo, hi));
            break;
        }
    }
    let Some((feature, lo, hi)) = chosen else {
        nodes.push(Node::Leaf { size: rows.len() });
        return nodes.len() - 1;
    };
    let threshold = lo + rng.next_f64() * (hi - lo);
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&i| x.get(i, feature) < threshold);
    if left_rows.is_empty() || right_rows.is_empty() {
        nodes.push(Node::Leaf { size: rows.len() });
        return nodes.len() - 1;
    }
    let idx = nodes.len();
    nodes.push(Node::Leaf { size: 0 });
    let left = build(nodes, x, &left_rows, depth + 1, max_depth, rng);
    let right = build(nodes, x, &right_rows, depth + 1, max_depth, rng);
    nodes[idx] = Node::Split { feature, threshold, left, right };
    idx
}

fn path_length(nodes: &[Node], row: &[f64]) -> f64 {
    let mut idx = 0;
    let mut depth = 0.0;
    loop {
        match nodes[idx] {
            Node::Leaf { size } => return depth + average_path_length(size),
            Node::Split { feature, threshold, left, right } => {
                idx = if row[feature] < threshold { left } else { right };
                depth += 1.0;
            }
        }
    }
}

/// The reference forest: its encoder, trees, `c(ψ)` and threshold.
struct Reference {
    encoder: FeatureEncoder,
    trees: Vec<Vec<Node>>,
    c_psi: f64,
    threshold: f64,
}

impl Reference {
    fn fit(train: &DataFrame, n_trees: usize, seed: u64) -> Reference {
        let encoder = FeatureEncoder::fit(train, true).expect("encoder fits");
        let x = encoder.transform(train).expect("train encodes");
        let n = x.n_rows();
        let psi = PSI.min(n).max(2);
        let max_depth = (psi as f64).log2().ceil() as usize;
        let mut rng = Rng64::seed_from_u64(seed);
        let trees = (0..n_trees)
            .map(|_| {
                let rows = rng.sample_indices(n, psi);
                let mut nodes = Vec::new();
                build(&mut nodes, &x, &rows, 0, max_depth, &mut rng);
                nodes
            })
            .collect();
        let mut forest =
            Reference { encoder, trees, c_psi: average_path_length(psi), threshold: f64::INFINITY };
        let scores = forest.scores(train);
        forest.threshold = percentile(&scores, 1.0 - CONTAMINATION).unwrap_or(f64::INFINITY);
        forest
    }

    fn scores(&self, frame: &DataFrame) -> Vec<f64> {
        let x = self.encoder.transform(frame).expect("frame encodes");
        (0..x.n_rows())
            .map(|i| {
                let row = x.row(i);
                let mean_path = self.trees.iter().map(|t| path_length(t, row)).sum::<f64>()
                    / self.trees.len() as f64;
                let exponent = if self.c_psi > 0.0 { -mean_path / self.c_psi } else { 0.0 };
                2f64.powf(exponent)
            })
            .collect()
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Fits both forests on `train` and compares score bits and row flags on
/// `train` and on `other` (the study fits on train and detects on test).
fn assert_parity(label: &str, train: &DataFrame, other: &DataFrame, n_trees: usize, seed: u64) {
    let reference = Reference::fit(train, n_trees, seed);
    let fitted = DetectorKind::OutliersIf { contamination: CONTAMINATION, n_trees }
        .fit(train, seed)
        .expect("detector fits");
    let FittedDetector::IsolationForest(forest) = &fitted else {
        panic!("{label}: outliers-if fitted something other than a forest");
    };
    for (side, frame) in [("train", train), ("other", other)] {
        let want = reference.scores(frame);
        let got = forest.scores(frame).expect("forest scores");
        assert_eq!(bits(&got), bits(&want), "{label} {side}: score bits moved");
        let flags: Vec<bool> = want.iter().map(|&s| s > reference.threshold).collect();
        let report = fitted.detect(frame).expect("forest detects");
        assert_eq!(report.row_flags, flags, "{label} {side}: row flags moved");
    }
}

/// Every size × seed of one dataset, with the paper's 100 trees and with
/// a single tree.
fn dataset_parity(id: DatasetId) {
    for n in [2usize, 3, 255, 256, 257, 4096] {
        for seed in [1u64, 7, 42] {
            let train = id.generate(n, seed).expect("train frame");
            let other = id.generate(97, seed ^ 0x5EED).expect("other frame");
            for n_trees in [1usize, 100] {
                let label = format!("{} n={n} seed={seed} trees={n_trees}", id.name());
                assert_parity(&label, &train, &other, n_trees, seed ^ 0xD47A);
            }
        }
    }
}

#[test]
fn adult_matches_the_recursive_reference() {
    dataset_parity(DatasetId::Adult);
}

#[test]
fn credit_matches_the_recursive_reference() {
    dataset_parity(DatasetId::Credit);
}

#[test]
fn folk_matches_the_recursive_reference() {
    dataset_parity(DatasetId::Folk);
}

#[test]
fn german_matches_the_recursive_reference() {
    dataset_parity(DatasetId::German);
}

#[test]
fn heart_matches_the_recursive_reference() {
    dataset_parity(DatasetId::Heart);
}

/// A constant column never splits, and an all-constant frame makes every
/// tree a single leaf at the root.
#[test]
fn constant_columns_match_the_recursive_reference() {
    let n = 300;
    let mut rng = Rng64::seed_from_u64(3);
    let mixed = DataFrame::builder()
        .numeric("c", ColumnRole::Feature, vec![5.0; n])
        .numeric("z", ColumnRole::Feature, (0..n).map(|_| rng.normal()).collect())
        .build()
        .expect("mixed frame");
    let constant = DataFrame::builder()
        .numeric("c", ColumnRole::Feature, vec![5.0; n])
        .build()
        .expect("constant frame");
    for seed in [1u64, 7, 42] {
        for n_trees in [1usize, 100] {
            assert_parity("constant+normal", &mixed, &mixed, n_trees, seed);
            assert_parity("all-constant", &constant, &constant, n_trees, seed);
        }
    }
}

/// Values a few ulps apart after encoding: a threshold drawn between two
/// of them often rounds onto the upper one, so rows equal to a threshold
/// are common and must go right, as `<` sends them.
#[test]
fn thresholds_that_land_on_values_match_the_recursive_reference() {
    let n = 400;
    let x: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 0.0 } else { 1e6 * (1.0 + (i % 7) as f64 * f64::EPSILON) })
        .collect();
    let frame = DataFrame::builder()
        .numeric("x", ColumnRole::Feature, x)
        .build()
        .expect("ulp frame");
    for seed in [1u64, 7, 42] {
        for n_trees in [1usize, 100] {
            assert_parity("ulp-clusters", &frame, &frame, n_trees, seed);
        }
    }
}
