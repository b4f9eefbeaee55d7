//! Registry of the five study datasets.

use crate::spec::DatasetSpec;
use crate::{adult, credit, folk, german, heart};
use tabular::{BlockStore, BlockWriter, DataFrame, Result, TabularError};

/// Rows generated per chunk when filling a [`BlockStore`]. Keeps the
/// transient `DataFrame` scratch to ~a few MB regardless of total size;
/// the first chunk reuses the base seed so that any request that fits in
/// one chunk is bit-identical to [`DatasetId::generate`].
pub const GEN_CHUNK_ROWS: usize = 1 << 16;

/// Identifier for a study dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// adult (census; sex, race).
    Adult,
    /// folk (census; sex, race).
    Folk,
    /// credit (finance; age).
    Credit,
    /// german (finance; age, sex).
    German,
    /// heart (healthcare; sex, age).
    Heart,
}

impl DatasetId {
    /// All datasets in the paper's Table I order.
    pub fn all() -> [DatasetId; 5] {
        [DatasetId::Adult, DatasetId::Folk, DatasetId::Credit, DatasetId::German, DatasetId::Heart]
    }

    /// The dataset's name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Adult => "adult",
            DatasetId::Folk => "folk",
            DatasetId::Credit => "credit",
            DatasetId::German => "german",
            DatasetId::Heart => "heart",
        }
    }

    /// Parses a dataset name.
    pub fn parse(name: &str) -> Option<DatasetId> {
        match name {
            "adult" => Some(DatasetId::Adult),
            "folk" => Some(DatasetId::Folk),
            "credit" => Some(DatasetId::Credit),
            "german" => Some(DatasetId::German),
            "heart" => Some(DatasetId::Heart),
            _ => None,
        }
    }

    /// The declarative spec.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetId::Adult => adult::spec(),
            DatasetId::Folk => folk::spec(),
            DatasetId::Credit => credit::spec(),
            DatasetId::German => german::spec(),
            DatasetId::Heart => heart::spec(),
        }
    }

    /// Generates `n` rows with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> Result<DataFrame> {
        if n == 0 {
            return Err(TabularError::InvalidArgument("n must be positive".to_string()));
        }
        match self {
            DatasetId::Adult => adult::generate(n, seed),
            DatasetId::Folk => folk::generate(n, seed),
            DatasetId::Credit => credit::generate(n, seed),
            DatasetId::German => german::generate(n, seed),
            DatasetId::Heart => heart::generate(n, seed),
        }
    }

    /// Generates `n` rows straight into a columnar [`BlockStore`],
    /// chunking the synthesis so peak transient memory is one
    /// [`GEN_CHUNK_ROWS`]-row frame rather than the whole dataset. Chunk 0
    /// uses `seed` verbatim, so `n <= GEN_CHUNK_ROWS` stores exactly the
    /// frame [`DatasetId::generate`] would build; later chunks derive
    /// their seed from the chunk index.
    pub fn generate_store(&self, n: usize, seed: u64) -> Result<BlockStore> {
        if n == 0 {
            return Err(TabularError::InvalidArgument("n must be positive".to_string()));
        }
        let mut writer = BlockWriter::new();
        let mut produced = 0usize;
        let mut chunk = 0u64;
        while produced < n {
            let take = GEN_CHUNK_ROWS.min(n - produced);
            let chunk_seed = if chunk == 0 {
                seed
            } else {
                seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk)
            };
            writer.append_frame(&self.generate(take, chunk_seed)?)?;
            produced += take;
            chunk += 1;
        }
        Ok(writer.finish())
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// All five specs (paper Table I).
pub fn all_specs() -> Vec<DatasetSpec> {
    DatasetId::all().iter().map(DatasetId::spec).collect()
}

/// Tuple count of the original dataset (paper Table I).
pub fn default_size(id: DatasetId) -> usize {
    id.spec().full_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_round_trip() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::parse(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(DatasetId::parse("nope"), None);
    }

    #[test]
    fn table1_sizes() {
        assert_eq!(default_size(DatasetId::Adult), 48_844);
        assert_eq!(default_size(DatasetId::Folk), 378_817);
        assert_eq!(default_size(DatasetId::Credit), 150_000);
        assert_eq!(default_size(DatasetId::German), 1_000);
        assert_eq!(default_size(DatasetId::Heart), 70_000);
    }

    #[test]
    fn every_dataset_generates_and_validates() {
        for id in DatasetId::all() {
            let df = id.generate(400, 5).unwrap();
            assert_eq!(df.n_rows(), 400, "{id}");
            let spec = id.spec();
            // Every declared sensitive attribute exists with Sensitive role.
            for attr in &spec.sensitive_attributes {
                let field = df.schema().field(attr.name).unwrap();
                assert_eq!(field.role, tabular::ColumnRole::Sensitive, "{id}/{}", attr.name);
            }
            // The label column exists with Label role.
            assert_eq!(
                df.schema().field(spec.label).unwrap().role,
                tabular::ColumnRole::Label,
                "{id}"
            );
            // Group specs evaluate without error and find both groups.
            for gs in spec.single_attribute_specs() {
                let groups = gs.evaluate(&df).unwrap();
                assert!(groups.n_privileged() > 0, "{id}/{}", gs.label());
                assert!(groups.n_disadvantaged() > 0, "{id}/{}", gs.label());
            }
        }
    }

    #[test]
    fn generate_by_name_and_errors() {
        assert!(DatasetId::parse("adult").expect("known name").generate(100, 1).is_ok());
        assert!(DatasetId::parse("nope").is_none());
        assert!(DatasetId::Adult.generate(0, 1).is_err());
    }

    #[test]
    fn generate_store_matches_generate_for_single_chunk() {
        for id in DatasetId::all() {
            let frame = id.generate(500, 77).unwrap();
            let store = id.generate_store(500, 77).unwrap();
            assert_eq!(store.n_rows(), 500);
            assert_eq!(
                tabular::csv::to_csv_string(&store.to_frame().unwrap()),
                tabular::csv::to_csv_string(&frame),
                "{id}"
            );
        }
    }

    #[test]
    fn generate_store_chunks_past_chunk_boundary() {
        let n = GEN_CHUNK_ROWS + 123;
        let store = DatasetId::German.generate_store(n, 9).unwrap();
        assert_eq!(store.n_rows(), n);
        // First chunk is bit-identical to a direct generate of the same size.
        let head = store.take(&(0..64).collect::<Vec<_>>()).unwrap();
        let direct =
            DatasetId::German.generate(GEN_CHUNK_ROWS, 9).unwrap().take(&(0..64).collect::<Vec<_>>()).unwrap();
        assert_eq!(tabular::csv::to_csv_string(&head), tabular::csv::to_csv_string(&direct));
        // Rows past the boundary exist and validate against the schema.
        let tail = store.take(&[n - 1]).unwrap();
        assert_eq!(tail.n_rows(), 1);
        assert!(DatasetId::German.generate_store(0, 9).is_err());
    }

    #[test]
    fn two_chunk_stores_hold_at_most_32_bytes_per_row() {
        // Ages, counts, 0/1 labels and small-dictionary codes take one
        // byte per row in the store's integer lanes (17-28 B/row over the
        // five datasets). `i64` integers and `u32` codes take 61-94, so
        // the bound fails as soon as the lanes stop narrowing.
        let n = 2 * GEN_CHUNK_ROWS;
        for id in DatasetId::all() {
            let store = id.generate_store(n, 7).unwrap();
            let per_row = store.heap_bytes() as f64 / n as f64;
            assert!(per_row <= 32.0, "{id}: {per_row:.2} B/row");
        }
    }

    #[test]
    fn specs_enumerate_all_datasets() {
        let specs = all_specs();
        assert_eq!(specs.len(), 5);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["adult", "folk", "credit", "german", "heart"]);
    }
}
