//! Typed columnar block storage: the compact pool the study samples from.
//!
//! A [`BlockStore`] holds a table as a sequence of fixed-size row blocks
//! ([`ROWS_PER_BLOCK`] rows each). Within a block every column is a typed
//! vector paired with a validity bitmap — missing values cost one bit, not
//! a NaN/Option per cell — and categorical dictionaries live once at store
//! level, shared by all blocks. That layout is private to this module:
//! generators fill a store chunk by chunk through a [`BlockWriter`], and
//! readers get rows back only as a [`DataFrame`], through
//! [`BlockStore::take`] (a sampled split) or [`BlockStore::to_frame`].
//! Cleaning, encoding and training all run on that frame.
//!
//! Small frames round-trip exactly: for a store built from one frame,
//! [`BlockStore::take`] returns bit-identical gathers to
//! [`DataFrame::take`] (same codes, same dictionary, same float bits),
//! which is what keeps small-scale study exports byte-identical after the
//! runner's pools moved onto the store.

use crate::column::{CatColumn, Column};
use crate::error::TabularError;
use crate::frame::DataFrame;
use crate::schema::{ColumnKind, Schema};
use crate::Result;

/// Rows per block (1M): one block is the unit the writer seals and the
/// unit the large-tier memory gate is expressed in.
pub const ROWS_PER_BLOCK: usize = 1 << 20;

/// A validity bitmap: bit `i` set means row `i` holds a present value.
#[derive(Debug, Clone, PartialEq, Default)]
struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of unset (missing) bits.
    fn count_unset(&self) -> usize {
        self.len - self.words.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Typed column payload of one block. Missing rows keep a default payload
/// (`0` / `0.0` / code `0`); the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    /// Integer-exact numeric values (every present value round-trips
    /// through `i64` bit-exactly; promoted to `Float` otherwise).
    Int(Vec<i64>),
    /// General numeric values.
    Float(Vec<f64>),
    /// Dictionary codes into the store-level dictionary of the column.
    Enum(Vec<u32>),
}

impl ColumnData {
    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.capacity() * std::mem::size_of::<i64>(),
            ColumnData::Float(v) => v.capacity() * std::mem::size_of::<f64>(),
            ColumnData::Enum(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }
}

/// True when `v` stores exactly as `i64` (bit-exact round-trip; excludes
/// NaN, infinities, fractions, out-of-range magnitudes and `-0.0`).
#[inline]
fn int_exact(v: f64) -> bool {
    v >= -(2f64.powi(53)) && v <= 2f64.powi(53) && ((v as i64) as f64).to_bits() == v.to_bits()
}

/// One fixed-size row block: typed columns plus per-column validity, all
/// of the same length.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    columns: Vec<ColumnData>,
    validity: Vec<Bitmap>,
}

impl Block {
    /// Numeric value at `(c, i)` with missing mapped to NaN.
    #[inline]
    fn numeric(&self, c: usize, i: usize) -> f64 {
        if !self.validity[c].get(i) {
            return f64::NAN;
        }
        match &self.columns[c] {
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Float(v) => v[i],
            ColumnData::Enum(_) => unreachable!("column {c} is not numeric"),
        }
    }

    /// Dictionary code at `(c, i)` (`None` when missing).
    #[inline]
    fn code(&self, c: usize, i: usize) -> Option<u32> {
        if !self.validity[c].get(i) {
            return None;
        }
        match &self.columns[c] {
            ColumnData::Enum(v) => Some(v[i]),
            _ => unreachable!("column {c} is not enum-coded"),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::heap_bytes).sum::<usize>()
            + self.validity.iter().map(Bitmap::heap_bytes).sum::<usize>()
    }
}

/// A columnar, block-based table with store-level dictionaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStore {
    schema: Schema,
    /// Per-column dictionary (empty for non-categorical columns).
    dicts: Vec<Vec<String>>,
    blocks: Vec<Block>,
    rows: usize,
}

impl BlockStore {
    /// Converts a frame into a (possibly multi-block) store.
    ///
    /// Dictionaries are copied verbatim, so gathers through the store are
    /// bit-identical to gathers through the frame.
    pub fn from_frame(frame: &DataFrame) -> Result<BlockStore> {
        let mut w = BlockWriter::new();
        w.append_frame(frame)?;
        Ok(w.finish())
    }

    /// Number of rows across all blocks.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total missing cells across all columns and blocks (bitmap popcount;
    /// no per-cell scan).
    pub fn missing_cells(&self) -> usize {
        self.blocks
            .iter()
            .map(|blk| blk.validity.iter().map(Bitmap::count_unset).sum::<usize>())
            .sum()
    }

    /// Materialises the whole store as one frame.
    pub fn to_frame(&self) -> Result<DataFrame> {
        self.take(&(0..self.rows).collect::<Vec<_>>())
    }

    /// New frame with only the given rows, in the given order — the store
    /// equivalent of [`DataFrame::take`], bit-identical to it for stores
    /// built from a single frame.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        for &i in indices {
            if i >= self.rows {
                return Err(TabularError::RowOutOfBounds { index: i, rows: self.rows });
            }
        }
        let block = |i: usize| &self.blocks[i / ROWS_PER_BLOCK];
        let columns = (0..self.n_cols())
            .map(|c| match self.schema.fields()[c].kind {
                ColumnKind::Numeric => {
                    let data =
                        indices.iter().map(|&i| block(i).numeric(c, i % ROWS_PER_BLOCK)).collect();
                    Ok(Column::Numeric(data))
                }
                ColumnKind::Categorical => {
                    let codes =
                        indices.iter().map(|&i| block(i).code(c, i % ROWS_PER_BLOCK)).collect();
                    CatColumn::from_codes(codes, self.dicts[c].clone()).map(Column::Categorical)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        DataFrame::new(self.schema.clone(), columns)
    }

    /// Heap footprint of the store in bytes (blocks + dictionaries).
    pub fn heap_bytes(&self) -> usize {
        self.blocks.iter().map(Block::heap_bytes).sum::<usize>()
            + self
                .dicts
                .iter()
                .map(|d| {
                    d.capacity() * std::mem::size_of::<String>()
                        + d.iter().map(String::capacity).sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Streaming writer: appends chunk frames, sealing a block every
/// [`ROWS_PER_BLOCK`] rows. Scratch never exceeds the open block.
#[derive(Debug, Default)]
pub struct BlockWriter {
    schema: Option<Schema>,
    dicts: Vec<Vec<String>>,
    blocks: Vec<Block>,
    cur_cols: Vec<ColumnData>,
    cur_valid: Vec<Bitmap>,
    cur_rows: usize,
    rows: usize,
}

impl BlockWriter {
    /// An empty writer; the first appended frame fixes the schema.
    pub fn new() -> BlockWriter {
        BlockWriter::default()
    }

    /// Appends every row of `frame`.
    ///
    /// The first append fixes the schema and copies categorical
    /// dictionaries verbatim; later appends must match the schema and get
    /// their codes re-interned into the store dictionaries.
    pub fn append_frame(&mut self, frame: &DataFrame) -> Result<()> {
        let first = self.schema.is_none();
        if first {
            self.schema = Some(frame.schema().clone());
            self.dicts = frame
                .schema()
                .fields()
                .iter()
                .enumerate()
                .map(|(c, f)| match f.kind {
                    ColumnKind::Categorical => frame
                        .column_at(c)
                        .as_categorical()
                        .map(|cat| cat.categories().to_vec()),
                    ColumnKind::Numeric => Ok(Vec::new()),
                })
                .collect::<Result<Vec<_>>>()?;
            self.start_block();
        } else if self.schema.as_ref() != Some(frame.schema()) {
            return Err(TabularError::Parse(
                "schema mismatch in BlockWriter::append_frame".to_string(),
            ));
        }

        // Per-categorical-column code remaps from the frame's dictionary
        // into the store dictionary (identity for the first frame).
        let remaps: Vec<Option<Vec<u32>>> = frame
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| match f.kind {
                ColumnKind::Numeric => Ok(None),
                ColumnKind::Categorical => {
                    let cat = frame.column_at(c).as_categorical()?;
                    if first {
                        return Ok(Some((0..cat.categories().len() as u32).collect()));
                    }
                    let dict = &mut self.dicts[c];
                    let remap = cat
                        .categories()
                        .iter()
                        .map(|label| match dict.iter().position(|d| d == label) {
                            Some(idx) => idx as u32,
                            None => {
                                dict.push(label.clone());
                                (dict.len() - 1) as u32
                            }
                        })
                        .collect();
                    Ok(Some(remap))
                }
            })
            .collect::<Result<Vec<_>>>()?;

        let n = frame.n_rows();
        let mut row = 0usize;
        while row < n {
            if self.cur_rows == ROWS_PER_BLOCK {
                self.seal_block();
            }
            let len = (n - row).min(ROWS_PER_BLOCK - self.cur_rows);
            for (c, remap) in remaps.iter().enumerate() {
                match frame.column_at(c) {
                    Column::Numeric(values) => {
                        Self::append_numeric(
                            &mut self.cur_cols[c],
                            &mut self.cur_valid[c],
                            &values[row..row + len],
                        );
                    }
                    Column::Categorical(cat) => {
                        // lint:allow(P001, remap is Some for every categorical column by construction above)
                        let remap = remap.as_ref().expect("categorical remap");
                        let (ColumnData::Enum(codes), valid) =
                            (&mut self.cur_cols[c], &mut self.cur_valid[c])
                        else {
                            unreachable!("categorical columns build Enum data");
                        };
                        for code in &cat.codes()[row..row + len] {
                            match code {
                                Some(k) => {
                                    codes.push(remap[*k as usize]);
                                    valid.push(true);
                                }
                                None => {
                                    codes.push(0);
                                    valid.push(false);
                                }
                            }
                        }
                    }
                }
            }
            self.cur_rows += len;
            self.rows += len;
            row += len;
        }
        Ok(())
    }

    fn append_numeric(col: &mut ColumnData, valid: &mut Bitmap, values: &[f64]) {
        for &v in values {
            if v.is_nan() {
                valid.push(false);
                match col {
                    ColumnData::Int(ints) => ints.push(0),
                    ColumnData::Float(floats) => floats.push(0.0),
                    _ => unreachable!("numeric columns are Int or Float"),
                }
                continue;
            }
            valid.push(true);
            // Promote Int → Float on the first value that cannot store as
            // an exact i64.
            if let ColumnData::Int(ints) = col {
                if int_exact(v) {
                    ints.push(v as i64);
                    continue;
                }
                let mut floats: Vec<f64> = Vec::with_capacity(ints.len() + 1);
                floats.extend(ints.iter().map(|&x| x as f64));
                *col = ColumnData::Float(floats);
            }
            match col {
                ColumnData::Float(floats) => floats.push(v),
                _ => unreachable!("promoted above"),
            }
        }
    }

    fn start_block(&mut self) {
        // lint:allow(P001, start_block only runs after append_frame has fixed the schema)
        let schema = self.schema.as_ref().expect("schema fixed before start_block");
        self.cur_cols = schema
            .fields()
            .iter()
            .map(|f| match f.kind {
                ColumnKind::Numeric => ColumnData::Int(Vec::new()),
                ColumnKind::Categorical => ColumnData::Enum(Vec::new()),
            })
            .collect();
        self.cur_valid = schema.fields().iter().map(|_| Bitmap::default()).collect();
        self.cur_rows = 0;
    }

    /// Moves the open block into the store. `append_frame` grows every
    /// open column by the same row count, so the block is rectangular.
    fn seal_block(&mut self) {
        let columns = std::mem::take(&mut self.cur_cols);
        let validity = std::mem::take(&mut self.cur_valid);
        self.blocks.push(Block { columns, validity });
        self.start_block();
    }

    /// Finalises the store (sealing any open block).
    pub fn finish(mut self) -> BlockStore {
        if self.cur_rows > 0 {
            self.seal_block();
        }
        BlockStore {
            schema: self.schema.unwrap_or_default(),
            dicts: self.dicts,
            blocks: self.blocks,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnRole;

    fn demo_frame() -> DataFrame {
        DataFrame::builder()
            .numeric("age", ColumnRole::Sensitive, vec![25.0, 40.0, 31.0, 19.0])
            .numeric("income", ColumnRole::Feature, vec![30_000.5, f64::NAN, 52_000.0, 12_000.0])
            .categorical(
                "job",
                ColumnRole::Feature,
                &[Some("clerk"), Some("engineer"), None, Some("clerk")],
            )
            .numeric("label", ColumnRole::Label, vec![0.0, 1.0, 1.0, 0.0])
            .build()
            .unwrap()
    }

    fn frames_equivalent(a: &DataFrame, b: &DataFrame) -> bool {
        // NaN-tolerant equality via CSV text (NaN serialises as empty).
        crate::csv::to_csv_string(a) == crate::csv::to_csv_string(b)
    }

    #[test]
    fn round_trip_single_block() {
        let df = demo_frame();
        let store = BlockStore::from_frame(&df).unwrap();
        assert_eq!(store.n_rows(), 4);
        assert_eq!(store.n_blocks(), 1);
        assert_eq!(store.missing_cells(), df.missing_cells());
        assert!(frames_equivalent(&store.to_frame().unwrap(), &df));
    }

    #[test]
    fn take_matches_frame_take_bit_exactly() {
        let df = demo_frame();
        let store = BlockStore::from_frame(&df).unwrap();
        let idx = [3usize, 0, 2];
        let via_store = store.take(&idx).unwrap();
        let via_frame = df.take(&idx).unwrap();
        assert!(frames_equivalent(&via_store, &via_frame));
        // Dictionary preserved verbatim (including order).
        assert_eq!(
            via_store.categorical("job").unwrap().categories(),
            via_frame.categorical("job").unwrap().categories()
        );
        // Float bits exact.
        for (a, b) in via_store
            .numeric("income")
            .unwrap()
            .iter()
            .zip(via_frame.numeric("income").unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(store.take(&[99]).is_err());
    }

    #[test]
    fn integral_columns_store_as_int() {
        let df = demo_frame();
        let store = BlockStore::from_frame(&df).unwrap();
        let block = &store.blocks[0];
        assert!(matches!(block.columns[0], ColumnData::Int(_))); // age
        assert!(matches!(block.columns[1], ColumnData::Float(_))); // income has .5
        assert!(matches!(block.columns[2], ColumnData::Enum(_))); // job
        assert_eq!(block.numeric(0, 1), 40.0);
        assert!(block.numeric(1, 1).is_nan());
        assert_eq!(block.code(2, 0), Some(0));
        assert_eq!(block.code(2, 2), None);
    }

    #[test]
    fn int_promotion_mid_column() {
        let df = DataFrame::builder()
            .numeric("x", ColumnRole::Feature, vec![1.0, 2.0, 2.5, -0.0])
            .build()
            .unwrap();
        let store = BlockStore::from_frame(&df).unwrap();
        assert!(matches!(store.blocks[0].columns[0], ColumnData::Float(_)));
        let out = store.to_frame().unwrap();
        let xs = out.numeric("x").unwrap();
        assert_eq!(xs[2], 2.5);
        // -0.0 must keep its sign bit (it is not int-exact).
        assert_eq!(xs[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn multi_chunk_append_merges_dictionaries() {
        let a = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("x"), Some("y")])
            .build()
            .unwrap();
        let b = DataFrame::builder()
            .categorical("c", ColumnRole::Feature, &[Some("z"), Some("x"), None])
            .build()
            .unwrap();
        let mut w = BlockWriter::new();
        w.append_frame(&a).unwrap();
        w.append_frame(&b).unwrap();
        let store = w.finish();
        assert_eq!(store.n_rows(), 5);
        assert_eq!(store.dicts[0], ["x", "y", "z"]);
        let frame = store.to_frame().unwrap();
        let cat = frame.categorical("c").unwrap();
        assert_eq!(cat.label(2), Some("z"));
        assert_eq!(cat.label(3), Some("x"));
        assert_eq!(cat.label(4), None);
        // Equivalent to concat through frames.
        assert!(frames_equivalent(&frame, &a.concat(&b).unwrap()));
    }

    #[test]
    fn writer_rejects_schema_mismatch() {
        let a = demo_frame();
        let b = DataFrame::builder()
            .numeric("other", ColumnRole::Feature, vec![1.0])
            .build()
            .unwrap();
        let mut w = BlockWriter::new();
        w.append_frame(&a).unwrap();
        assert!(w.append_frame(&b).is_err());
    }

    #[test]
    fn bitmap_push_get_counts() {
        let mut bm = Bitmap::default();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len, 130);
        assert!(bm.get(0));
        assert!(!bm.get(1));
        assert!(bm.get(129));
        assert_eq!(bm.count_unset(), (0..130).filter(|i| i % 3 != 0).count());
    }

    #[test]
    fn heap_bytes_counts_payload() {
        let store = BlockStore::from_frame(&demo_frame()).unwrap();
        // 4 rows: at least the numeric payloads.
        assert!(store.heap_bytes() >= 4 * 8 * 2);
    }

    #[test]
    fn empty_writer_finishes_empty() {
        let store = BlockWriter::new().finish();
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.n_blocks(), 0);
    }
}
