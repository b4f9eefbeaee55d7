//! Property-based tests over the dataset generators: every dataset, at any
//! size and seed, must satisfy the structural invariants the study relies
//! on.

use datasets::{DatasetId, ErrorType};
use proptest::prelude::*;
use tabular::{BlockStore, ColumnKind, ColumnRole};

fn arb_dataset() -> impl Strategy<Value = DatasetId> {
    prop::sample::select(DatasetId::all().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generators_satisfy_contracts(id in arb_dataset(), n in 50usize..400, seed in any::<u64>()) {
        let df = id.generate(n, seed).unwrap();
        prop_assert_eq!(df.n_rows(), n);
        let spec = id.spec();
        // Declared label column exists with Label role and is binary.
        prop_assert_eq!(
            df.schema().field(spec.label).unwrap().role,
            ColumnRole::Label
        );
        let labels = df.labels().unwrap();
        prop_assert!(labels.iter().all(|&l| l <= 1));
        // Every sensitive attribute exists with Sensitive role and is
        // never missing (group membership must always be decidable).
        for attr in &spec.sensitive_attributes {
            let field = df.schema().field(attr.name).unwrap();
            prop_assert_eq!(field.role, ColumnRole::Sensitive);
            let idx = df.schema().index_of(attr.name).unwrap();
            prop_assert_eq!(df.column_at(idx).missing_count(), 0);
        }
        // Heart never has missing values; others may.
        if id == DatasetId::Heart {
            prop_assert_eq!(df.missing_cells(), 0);
        }
        // Declared drop variables exist with Dropped role.
        for name in &spec.drop_variables {
            prop_assert_eq!(df.schema().field(name).unwrap().role, ColumnRole::Dropped);
        }
    }

    #[test]
    fn generation_is_pure(id in arb_dataset(), n in 20usize..120, seed in any::<u64>()) {
        let a = tabular::csv::to_csv_string(&id.generate(n, seed).unwrap());
        let b = tabular::csv::to_csv_string(&id.generate(n, seed).unwrap());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn group_specs_always_evaluable(id in arb_dataset(), seed in any::<u64>()) {
        let df = id.generate(300, seed).unwrap();
        let spec = id.spec();
        for gs in spec.single_attribute_specs() {
            let groups = gs.evaluate(&df).unwrap();
            prop_assert_eq!(groups.n_excluded(), 0);
            prop_assert_eq!(groups.n_privileged() + groups.n_disadvantaged(), 300);
        }
        if let Some(inter) = spec.intersectional_spec() {
            let groups = inter.evaluate(&df).unwrap();
            prop_assert_eq!(
                groups.n_privileged() + groups.n_disadvantaged() + groups.n_excluded(),
                300
            );
        }
    }

    #[test]
    fn block_store_round_trips_every_dataset(
        id in arb_dataset(),
        n in 50usize..400,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<usize>(), 0..48),
    ) {
        let frame = id.generate(n, seed).unwrap();
        let store = BlockStore::from_frame(&frame).unwrap();
        prop_assert_eq!(store.n_rows(), n);

        // The chunked generator must build the same store as converting
        // the monolithic frame (n here always fits one generation chunk).
        let generated = id.generate_store(n, seed).unwrap();
        prop_assert_eq!(&generated, &store);

        // blocks → frame: the rebuilt frame serialises byte-identically.
        let back = store.to_frame().unwrap();
        prop_assert_eq!(
            tabular::csv::to_csv_string(&back),
            tabular::csv::to_csv_string(&frame)
        );

        // take, the one read path the runner uses, gathers exactly what
        // DataFrame::take gathers: the same CSV text, category order and
        // float bits. The picks run forwards then backwards, so every
        // index list repeats rows out of order; the empty list is checked
        // too.
        let idx: Vec<usize> = picks.iter().chain(picks.iter().rev()).map(|&p| p % n).collect();
        let empty: &[usize] = &[];
        for rows in [idx.as_slice(), empty] {
            let (got, want) = (store.take(rows).unwrap(), frame.take(rows).unwrap());
            prop_assert_eq!(got.n_rows(), rows.len());
            prop_assert_eq!(
                tabular::csv::to_csv_string(&got),
                tabular::csv::to_csv_string(&want)
            );
            for field in frame.schema().fields() {
                match field.kind {
                    ColumnKind::Numeric => {
                        let bits = |f: &tabular::DataFrame| -> Vec<u64> {
                            f.numeric(&field.name).unwrap().iter().map(|x| x.to_bits()).collect()
                        };
                        prop_assert_eq!(bits(&got), bits(&want), "{} bits", field.name);
                    }
                    ColumnKind::Categorical => prop_assert_eq!(
                        got.categorical(&field.name).unwrap().categories(),
                        want.categorical(&field.name).unwrap().categories(),
                        "{} categories", field.name
                    ),
                }
            }
        }
    }

    #[test]
    fn error_types_reflect_data(id in arb_dataset(), seed in any::<u64>()) {
        let df = id.generate(400, seed).unwrap();
        // Datasets declaring missing values must (at sufficient size)
        // actually have some; heart declares none and has none.
        if id.spec().has_error_type(ErrorType::MissingValues) {
            prop_assert!(df.missing_cells() > 0, "{} declares missing values", id);
        } else {
            prop_assert_eq!(df.missing_cells(), 0);
        }
    }
}
