//! Property-based tests for the tabular substrate.

use proptest::prelude::*;
use proptest::TestRng;
use tabular::stats::{percentile, percentile_sorted};
use tabular::{
    split, BlockWriter, Column, ColumnRole, ColumnStats, DataFrame, FeatureEncoder, Rng64, Schema,
};

fn arb_numeric_column() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            8 => -1e6..1e6f64,
            1 => Just(f64::NAN),
        ],
        1..200,
    )
}

/// Pieces CSV labels are built from: the metacharacters, every line
/// break, non-ASCII text and a doubled quote.
const PIECES: &[&str] = &[",", "\"", "\r", "\n", "\r\n", "\"\"", "a", " ", "é", "中", "😀"];

/// Numeric cells at the edges of `f64` formatting.
const EDGE_NUMBERS: &[f64] = &[
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    5e-324,
    -2.5e-310,
    1e300,
    -1e300,
    f64::MAX,
    f64::NAN,
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn label(rng: &mut TestRng) -> Option<String> {
    match rng.below(6) {
        0 => None,
        1 => Some(String::new()),
        _ => Some((0..1 + rng.below(4)).map(|_| pick(rng, PIECES)).collect()),
    }
}

fn number(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => pick(rng, EDGE_NUMBERS),
        1 => (rng.below(2001) as f64 - 1000.0) / 8.0,
        // Any bit pattern: subnormals, huge magnitudes, NaN payloads.
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// Frames of one to four numeric or categorical columns and up to ten
/// rows, built from [`label`] and [`number`] cells.
struct ArbFrame;

impl Strategy for ArbFrame {
    type Value = DataFrame;

    fn generate(&self, rng: &mut TestRng) -> DataFrame {
        let rows = rng.below(11) as usize;
        let mut builder = DataFrame::builder();
        for c in 0..1 + rng.below(4) {
            let name = format!("c{c}");
            builder = if rng.below(2) == 0 {
                let cells: Vec<Option<String>> = (0..rows).map(|_| label(rng)).collect();
                builder.categorical(name, ColumnRole::Feature, &cells)
            } else {
                builder.numeric(name, ColumnRole::Feature, (0..rows).map(|_| number(rng)).collect())
            };
        }
        builder.build().unwrap()
    }
}

/// CSV syntax, line breaks and multi-byte UTF-8, for hostile inputs.
const HOSTILE_BYTES: &[u8] = b",\"\r\n a1.e-\xc3\xa9\xff";

/// A generated frame's schema with either arbitrary bytes or the frame's
/// own CSV text with a few bytes flipped, inserted or removed.
struct HostileCsv;

impl Strategy for HostileCsv {
    type Value = (Vec<u8>, Schema);

    fn generate(&self, rng: &mut TestRng) -> (Vec<u8>, Schema) {
        let frame = ArbFrame.generate(rng);
        let mut bytes = tabular::csv::to_csv_string(&frame).into_bytes();
        if rng.below(3) == 0 {
            bytes = (0..rng.below(64)).map(|_| pick(rng, HOSTILE_BYTES)).collect();
        } else {
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 if at < bytes.len() => bytes[at] = pick(rng, HOSTILE_BYTES),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, pick(rng, HOSTILE_BYTES)),
                }
            }
        }
        (bytes, frame.schema().clone())
    }
}

/// Integers at the block store's lane edges, narrowest width first: the
/// bounds of `i8`, `i16` and `i32` and the ends of the exact `i64` range.
const LANE_EDGES: &[f64] = &[
    127.0,
    -128.0,
    128.0,
    -129.0,
    32_767.0,
    -32_768.0,
    32_768.0,
    -32_769.0,
    2_147_483_647.0,
    -2_147_483_648.0,
    2_147_483_648.0,
    -2_147_483_649.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
];

/// Numbers no integer lane holds exactly.
const FLOAT_EDGES: &[f64] = &[9_007_199_254_740_994.0, -0.0, 0.5];

/// One to five same-schema chunks of up to 64 rows each. Each numeric
/// column of a chunk mixes small integers, missing cells and a prefix of
/// [`LANE_EDGES`] drawn per chunk, so chunks land on every lane width;
/// one in three also takes [`FLOAT_EDGES`] and [`number`] cells.
/// Categorical columns draw from 300 labels, so store codes can pass 127.
struct ArbChunks;

impl Strategy for ArbChunks {
    type Value = Vec<DataFrame>;

    fn generate(&self, rng: &mut TestRng) -> Vec<DataFrame> {
        let numeric: Vec<bool> = (0..1 + rng.below(3)).map(|_| rng.below(2) == 0).collect();
        (0..1 + rng.below(5))
            .map(|_| {
                let rows = rng.below(65) as usize;
                let mut builder = DataFrame::builder();
                for (c, &is_numeric) in numeric.iter().enumerate() {
                    let name = format!("c{c}");
                    builder = if is_numeric {
                        let top = rng.below(LANE_EDGES.len() as u64 + 1);
                        let kinds = if rng.below(3) == 0 { 10 } else { 8 };
                        let cells = (0..rows)
                            .map(|_| match rng.below(kinds) {
                                0 => f64::NAN,
                                1..=3 if top > 0 => LANE_EDGES[rng.below(top) as usize],
                                8 => pick(rng, FLOAT_EDGES),
                                9 => number(rng),
                                _ => rng.below(200) as f64 - 100.0,
                            })
                            .collect();
                        builder.numeric(name, ColumnRole::Feature, cells)
                    } else {
                        let cells: Vec<Option<String>> = (0..rows)
                            .map(|_| (rng.below(8) != 0).then(|| format!("l{}", rng.below(300))))
                            .collect();
                        builder.categorical(name, ColumnRole::Feature, &cells)
                    };
                }
                builder.build().unwrap()
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn stats_mean_between_min_and_max(data in arb_numeric_column()) {
        if let Some(stats) = ColumnStats::compute(&data) {
            prop_assert!(stats.min <= stats.mean + 1e-9);
            prop_assert!(stats.mean <= stats.max + 1e-9);
            prop_assert!(stats.p25 <= stats.median + 1e-9);
            prop_assert!(stats.median <= stats.p75 + 1e-9);
            prop_assert!(stats.std_dev >= 0.0);
            prop_assert_eq!(stats.count + stats.missing, data.len());
        } else {
            prop_assert!(data.iter().all(|x| x.is_nan()));
        }
    }

    #[test]
    fn percentile_is_monotone_in_q(mut data in prop::collection::vec(-1e3..1e3f64, 2..100)) {
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let values: Vec<f64> = qs.iter().map(|&q| percentile_sorted(&data, q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert_eq!(values[0], data[0]);
        prop_assert_eq!(values[6], *data.last().unwrap());
    }

    #[test]
    fn percentile_of_unsorted_matches_sorted(data in prop::collection::vec(-1e3..1e3f64, 1..100), q in 0.0..=1.0f64) {
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(percentile(&data, q).unwrap(), percentile_sorted(&sorted, q));
    }

    #[test]
    fn train_test_split_partitions(n in 2usize..500, frac in 0.05..0.95f64, seed in any::<u64>()) {
        let (train, test) = split::train_test_split(n, frac, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), n);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n);
        prop_assert!(!train.is_empty());
    }

    #[test]
    fn kfold_covers_each_row_exactly_once(n in 5usize..300, k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(n >= k);
        let folds = split::kfold(n, k, seed).unwrap();
        let mut seen = vec![0usize; n];
        for (train, val) in &folds {
            prop_assert_eq!(train.len() + val.len(), n);
            for &i in val {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn rng_below_is_in_range(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = Rng64::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_sample_indices_distinct_sorted(seed in any::<u64>(), n in 1usize..300, frac in 0.0..=1.0f64) {
        let m = ((n as f64) * frac) as usize;
        let mut rng = Rng64::seed_from_u64(seed);
        let s = rng.sample_indices(n, m);
        prop_assert_eq!(s.len(), m);
        for w in s.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn take_preserves_values(values in prop::collection::vec(-1e3..1e3f64, 1..50), seed in any::<u64>()) {
        let n = values.len();
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, values.clone())
            .build()
            .unwrap();
        let mut rng = Rng64::seed_from_u64(seed);
        let indices: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        let taken = df.take(&indices).unwrap();
        let col = taken.numeric("x").unwrap();
        for (slot, &src) in col.iter().zip(&indices) {
            prop_assert_eq!(*slot, values[src]);
        }
    }

    #[test]
    fn filter_then_count_matches_mask(values in prop::collection::vec(-10.0..10.0f64, 1..60), seed in any::<u64>()) {
        let n = values.len();
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, values)
            .build()
            .unwrap();
        let mut rng = Rng64::seed_from_u64(seed);
        let mask: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        let kept = df.filter(&mask).unwrap();
        prop_assert_eq!(kept.n_rows(), mask.iter().filter(|&&b| b).count());
    }

    #[test]
    fn encoder_output_is_finite(
        data in prop::collection::vec(prop_oneof![9 => -1e5..1e5f64, 1 => Just(f64::NAN)], 2..80),
    ) {
        let labels: Vec<f64> = (0..data.len()).map(|i| f64::from(i % 2 == 0)).collect();
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, data)
            .numeric("y", ColumnRole::Label, labels)
            .build()
            .unwrap();
        let m = FeatureEncoder::fit(&df, true).unwrap().transform(&df).unwrap();
        for v in m.as_slice() {
            prop_assert!(v.is_finite(), "encoder produced {v}");
        }
    }

    #[test]
    fn csv_round_trip(frame in ArbFrame) {
        let text = tabular::csv::to_csv_string(&frame);
        let back = tabular::csv::from_csv_str(&text, frame.schema().clone()).unwrap();
        prop_assert_eq!(tabular::csv::to_csv_string(&back), text.as_str());
        // Cell by cell: a present "" stays present, missing stays missing.
        prop_assert_eq!(back.n_rows(), frame.n_rows());
        for field in frame.schema().fields() {
            let name = field.name.as_str();
            if let Ok(want) = frame.categorical(name) {
                let got = back.categorical(name).unwrap();
                for i in 0..frame.n_rows() {
                    prop_assert_eq!(got.label(i), want.label(i), "{name}[{i}]");
                }
            } else {
                let bits = |f: &DataFrame| -> Vec<Option<u64>> {
                    let col = f.numeric(name).unwrap();
                    col.iter().map(|x| (!x.is_nan()).then(|| x.to_bits())).collect()
                };
                prop_assert_eq!(bits(&back), bits(&frame), "{name}");
            }
        }
    }

    #[test]
    fn csv_reader_never_panics(input in HostileCsv) {
        let (bytes, schema) = input;
        let text = String::from_utf8_lossy(&bytes);
        // Any verdict is fine; reaching it without a panic is the property.
        let _ = tabular::csv::from_csv_str(&text, schema);
        if let Ok(inferred) = tabular::csv::infer_schema(&text) {
            let _ = tabular::csv::from_csv_str(&text, inferred);
        }
    }
}

proptest! {
    // Each case is small, and the lane edges are sparse among the cells.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_store_round_trips_appended_chunks(chunks in ArbChunks, seed in any::<u64>()) {
        let mut writer = BlockWriter::new();
        for chunk in &chunks {
            writer.append_frame(chunk).unwrap();
        }
        let store = writer.finish();
        let whole = chunks[1..].iter().try_fold(chunks[0].clone(), |acc, f| acc.concat(f)).unwrap();
        prop_assert_eq!(store.n_rows(), whole.n_rows());
        let mut rng = Rng64::seed_from_u64(seed);
        let n = whole.n_rows();
        let indices: Vec<usize> = (0..2 * n).map(|i| if i < n { i } else { rng.below(n) }).collect();
        let (got, want) = (store.take(&indices).unwrap(), whole.take(&indices).unwrap());
        for c in 0..whole.n_cols() {
            match (got.column_at(c), want.column_at(c)) {
                (Column::Numeric(x), Column::Numeric(y)) => {
                    // A missing slot reads back as NaN, whatever its payload.
                    let bits = |v: &[f64]| -> Vec<Option<u64>> {
                        v.iter().map(|x| (!x.is_nan()).then(|| x.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(x), bits(y), "c{}", c);
                }
                (Column::Categorical(x), Column::Categorical(y)) => {
                    prop_assert_eq!(x.codes(), y.codes(), "c{}", c);
                    prop_assert_eq!(x.categories(), y.categories(), "c{}", c);
                }
                _ => prop_assert!(false, "c{} changed kind", c),
            }
        }
    }
}
