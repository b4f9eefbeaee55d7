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
//! Integer-exact numeric columns and dictionary codes share one payload,
//! an integer lane of `i8`, `i16`, `i32` or `i64`. Each block's lane
//! starts at `i8` and widens in place when an appended chunk's least or
//! greatest value (or code) needs it, so only the data picks a width:
//! ages, counts, 0/1 labels and the codes of small dictionaries cost one
//! byte per row. A chunk holding a numeric value no lane stores exactly
//! (a fraction, `-0.0`, |v| > 2^53, ±∞) turns the block's column into
//! `f64`, as a wider lane would not help.
//!
//! Gathers are exact: [`BlockStore::take`] on a store built from a
//! sequence of chunks returns what [`DataFrame::take`] returns on their
//! concatenation (same codes, same dictionary order, same float bits; a
//! missing numeric slot reads back as NaN), which is what keeps study
//! exports byte-identical after the runner's pools moved onto the store.

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

    /// Appends one bit per item, `valid(item)`, packing whole words once
    /// the bitmap is word-aligned.
    fn extend<T>(&mut self, items: &[T], valid: impl Fn(&T) -> bool) {
        let head = ((64 - self.len % 64) % 64).min(items.len());
        for item in &items[..head] {
            self.push(valid(item));
        }
        let mut words = items[head..].chunks_exact(64);
        for chunk in &mut words {
            let word =
                chunk.iter().enumerate().fold(0u64, |w, (b, item)| w | u64::from(valid(item)) << b);
            self.words.push(word);
            self.len += 64;
        }
        for item in words.remainder() {
            self.push(valid(item));
        }
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

/// Width of an integer [`Lane`], narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Width {
    W8,
    W16,
    W32,
    W64,
}

impl Width {
    /// The narrowest width that holds `v`.
    fn of(v: i64) -> Width {
        if i8::try_from(v).is_ok() {
            Width::W8
        } else if i16::try_from(v).is_ok() {
            Width::W16
        } else if i32::try_from(v).is_ok() {
            Width::W32
        } else {
            Width::W64
        }
    }

    fn bytes(self) -> usize {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }
}

/// One block column's integers at the narrowest signed width that has
/// held them so far. A lane starts at `i8` and only ever widens.
#[derive(Debug, Clone, PartialEq)]
enum Lane {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

impl Lane {
    fn width(&self) -> Width {
        match self {
            Lane::I8(_) => Width::W8,
            Lane::I16(_) => Width::W16,
            Lane::I32(_) => Width::W32,
            Lane::I64(_) => Width::W64,
        }
    }

    fn len(&self) -> usize {
        match self {
            Lane::I8(v) => v.len(),
            Lane::I16(v) => v.len(),
            Lane::I32(v) => v.len(),
            Lane::I64(v) => v.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Lane::I8(v) => v.capacity(),
            Lane::I16(v) => v.capacity(),
            Lane::I32(v) => v.capacity(),
            Lane::I64(v) => v.capacity(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Lane::I8(v) => i64::from(v[i]),
            Lane::I16(v) => i64::from(v[i]),
            Lane::I32(v) => i64::from(v[i]),
            Lane::I64(v) => v[i],
        }
    }

    /// Appends `values`; the lane must already be wide enough for each
    /// (see [`Lane::widen`]), so the casts are exact.
    fn extend(&mut self, values: impl Iterator<Item = i64>) {
        match self {
            Lane::I8(v) => v.extend(values.map(|x| x as i8)),
            Lane::I16(v) => v.extend(values.map(|x| x as i16)),
            Lane::I32(v) => v.extend(values.map(|x| x as i32)),
            Lane::I64(v) => v.extend(values),
        }
    }

    /// Re-stores the lane at `width` when that is wider than its own,
    /// keeping its length and capacity.
    fn widen(&mut self, width: Width) {
        if width <= self.width() {
            return;
        }
        let cap = self.capacity();
        let mut wide = match width {
            Width::W8 => Lane::I8(Vec::with_capacity(cap)),
            Width::W16 => Lane::I16(Vec::with_capacity(cap)),
            Width::W32 => Lane::I32(Vec::with_capacity(cap)),
            Width::W64 => Lane::I64(Vec::with_capacity(cap)),
        };
        wide.extend((0..self.len()).map(|i| self.get(i)));
        *self = wide;
    }

    fn heap_bytes(&self) -> usize {
        self.capacity() * self.width().bytes()
    }
}

/// Typed column payload of one block. Missing rows keep a default payload
/// (`0` / `0.0` / code `0`); the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    /// Integer-exact numeric values (every present value round-trips
    /// through `i64` bit-exactly; promoted to `Float` otherwise).
    Int(Lane),
    /// General numeric values.
    Float(Vec<f64>),
    /// Dictionary codes into the store-level dictionary of the column.
    Enum(Lane),
}

impl ColumnData {
    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(lane) | ColumnData::Enum(lane) => lane.heap_bytes(),
            ColumnData::Float(v) => v.capacity() * std::mem::size_of::<f64>(),
        }
    }
}

/// True when `v` stores exactly as `i64` (bit-exact round-trip; excludes
/// NaN, infinities, fractions, out-of-range magnitudes and `-0.0`).
#[inline]
fn int_exact(v: f64) -> bool {
    v >= -(2f64.powi(53)) && v <= 2f64.powi(53) && ((v as i64) as f64).to_bits() == v.to_bits()
}

/// The least and greatest present value of `values` (missing slots count
/// as the `0` they store), or `None` when a present value is not
/// [`int_exact`].
fn int_range(values: &[f64]) -> Option<(i64, i64)> {
    values.iter().filter(|v| !v.is_nan()).try_fold((0i64, 0i64), |(lo, hi), &v| {
        int_exact(v).then(|| (lo.min(v as i64), hi.max(v as i64)))
    })
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
            ColumnData::Int(lane) => lane.get(i) as f64,
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
            ColumnData::Enum(lane) => Some(lane.get(i) as u32),
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
    /// equivalent of [`DataFrame::take`], bit-identical to it on the
    /// concatenation of the frames the store was built from.
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
                        let ColumnData::Enum(lane) = &mut self.cur_cols[c] else {
                            unreachable!("categorical columns build Enum data");
                        };
                        let codes = &cat.codes()[row..row + len];
                        let code = |k: &Option<u32>| k.map_or(0, |k| i64::from(remap[k as usize]));
                        lane.widen(Width::of(codes.iter().map(code).max().unwrap_or(0)));
                        lane.extend(codes.iter().map(code));
                        self.cur_valid[c].extend(codes, Option::is_some);
                    }
                }
            }
            self.cur_rows += len;
            self.rows += len;
            row += len;
        }
        Ok(())
    }

    /// Appends one block's slice of a numeric column: bulk-extends the
    /// lane after widening it at most once, or turns the block's column
    /// into `Float` when some present value is not int-exact.
    fn append_numeric(col: &mut ColumnData, valid: &mut Bitmap, values: &[f64]) {
        valid.extend(values, |v| !v.is_nan());
        if let ColumnData::Int(lane) = col {
            match int_range(values) {
                Some((lo, hi)) => {
                    lane.widen(Width::of(lo).max(Width::of(hi)));
                    lane.extend(values.iter().map(|&v| if v.is_nan() { 0 } else { v as i64 }));
                    return;
                }
                None => {
                    let mut floats = Vec::with_capacity(lane.capacity());
                    floats.extend((0..lane.len()).map(|i| lane.get(i) as f64));
                    *col = ColumnData::Float(floats);
                }
            }
        }
        let ColumnData::Float(floats) = col else {
            unreachable!("numeric columns are Int or Float");
        };
        floats.extend(values.iter().map(|&v| if v.is_nan() { 0.0 } else { v }));
    }

    fn start_block(&mut self) {
        // lint:allow(P001, start_block only runs after append_frame has fixed the schema)
        let schema = self.schema.as_ref().expect("schema fixed before start_block");
        self.cur_cols = schema
            .fields()
            .iter()
            .map(|f| match f.kind {
                ColumnKind::Numeric => ColumnData::Int(Lane::I8(Vec::new())),
                ColumnKind::Categorical => ColumnData::Enum(Lane::I8(Vec::new())),
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
        let heap = |scale: f64| {
            let values = (0..1024).map(|i| f64::from(i % 100) * scale).collect();
            let df = DataFrame::builder().numeric("x", ColumnRole::Feature, values).build().unwrap();
            BlockStore::from_frame(&df).unwrap().heap_bytes()
        };
        // 1,024 rows: the payload plus 16 validity words.
        assert_eq!(heap(1.0), 1024 + 16 * 8); // 0..=99 in i8
        assert_eq!(heap(1000.0), 1024 * 4 + 16 * 8); // up to 99,000 in i32
        assert_eq!(heap(0.5), 1024 * 8 + 16 * 8); // fractions in f64
    }

    /// Checks `store.take(indices)` against [`DataFrame::take`] on the
    /// concatenated `chunks`: the same float bits (any NaN for a missing
    /// slot), the same codes and the same dictionaries in the same order.
    fn assert_take_matches(store: &BlockStore, chunks: &[DataFrame], indices: &[usize]) {
        let whole = chunks[1..].iter().try_fold(chunks[0].clone(), |acc, f| acc.concat(f)).unwrap();
        let (got, want) = (store.take(indices).unwrap(), whole.take(indices).unwrap());
        for (c, field) in whole.schema().fields().iter().enumerate() {
            match (got.column_at(c), want.column_at(c)) {
                (Column::Numeric(x), Column::Numeric(y)) => {
                    let bits = |v: &[f64]| -> Vec<Option<u64>> {
                        v.iter().map(|x| (!x.is_nan()).then(|| x.to_bits())).collect()
                    };
                    assert_eq!(bits(x), bits(y), "{}", field.name);
                }
                (Column::Categorical(x), Column::Categorical(y)) => {
                    assert_eq!(x.codes(), y.codes(), "{}", field.name);
                    assert_eq!(x.categories(), y.categories(), "{}", field.name);
                }
                _ => panic!("column {} changed kind", field.name),
            }
        }
    }

    fn numeric_chunk(values: &[f64]) -> DataFrame {
        DataFrame::builder().numeric("x", ColumnRole::Feature, values.to_vec()).build().unwrap()
    }

    /// Width of column `c`'s lane (`None` for `Float`).
    fn lane_width(columns: &[ColumnData], c: usize) -> Option<Width> {
        match &columns[c] {
            ColumnData::Int(lane) | ColumnData::Enum(lane) => Some(lane.width()),
            ColumnData::Float(_) => None,
        }
    }

    const P31: f64 = 2_147_483_648.0;
    const P53: f64 = 9_007_199_254_740_992.0;

    #[test]
    fn each_value_stores_at_its_narrowest_lane() {
        use Width::*;
        let cases = [
            (127.0, W8),
            (128.0, W16),
            (-128.0, W8),
            (-129.0, W16),
            (32_767.0, W16),
            (32_768.0, W32),
            (-32_768.0, W16),
            (-32_769.0, W32),
            (P31 - 1.0, W32),
            (P31, W64),
            (-P31, W32),
            (-P31 - 1.0, W64),
            (P53, W64),
            (-P53, W64),
        ];
        for (v, width) in cases {
            let chunk = numeric_chunk(&[v, f64::NAN, 0.0]);
            let store = BlockStore::from_frame(&chunk).unwrap();
            assert_eq!(lane_width(&store.blocks[0].columns, 0), Some(width), "{v}");
            assert_take_matches(&store, &[chunk], &[2, 0, 1, 0]);
        }
    }

    #[test]
    fn values_no_lane_holds_stay_float() {
        for v in [P53 + 2.0, -P53 - 2.0, -0.0, 0.5, f64::INFINITY] {
            let chunk = numeric_chunk(&[1.0, v, f64::NAN]);
            let store = BlockStore::from_frame(&chunk).unwrap();
            assert_eq!(lane_width(&store.blocks[0].columns, 0), None, "{v}");
            assert_take_matches(&store, &[chunk], &[1, 0, 2]);
        }
    }

    #[test]
    fn later_append_widens_the_open_block() {
        use Width::*;
        let steps: [(&[f64], Option<Width>); 6] = [
            (&[1.0, 127.0, -128.0, f64::NAN], Some(W8)),
            (&[128.0, -129.0], Some(W16)),
            (&[32_768.0, f64::NAN], Some(W32)),
            (&[P31, -P31 - 1.0], Some(W64)),
            (&[P53, -P53], Some(W64)),
            (&[0.5, -0.0], None),
        ];
        let mut w = BlockWriter::new();
        let mut chunks = Vec::new();
        for (values, width) in steps {
            let chunk = numeric_chunk(values);
            w.append_frame(&chunk).unwrap();
            assert_eq!(lane_width(&w.cur_cols, 0), width, "after {values:?}");
            chunks.push(chunk);
        }
        let store = w.finish();
        assert_eq!(store.n_blocks(), 1);
        let n = store.n_rows();
        assert_take_matches(&store, &chunks, &(0..n).rev().collect::<Vec<_>>());
    }

    #[test]
    fn second_block_widens_on_its_own() {
        let mut values: Vec<f64> = (0..ROWS_PER_BLOCK + 100).map(|i| (i % 100) as f64).collect();
        values[ROWS_PER_BLOCK + 7] = 40_000.0;
        values[ROWS_PER_BLOCK + 8] = f64::NAN;
        let chunk = numeric_chunk(&values);
        let store = BlockStore::from_frame(&chunk).unwrap();
        assert_eq!(store.n_blocks(), 2);
        let block_widths: Vec<_> = store.blocks.iter().map(|b| lane_width(&b.columns, 0)).collect();
        assert_eq!(block_widths, [Some(Width::W8), Some(Width::W32)]);
        // One byte per row in the first block, four in the second.
        let heap = store.heap_bytes();
        assert!((ROWS_PER_BLOCK + 400..ROWS_PER_BLOCK * 9 / 8 + 1024).contains(&heap), "{heap}");
        let n = ROWS_PER_BLOCK;
        assert_take_matches(&store, &[chunk], &[n + 7, 0, n - 1, n + 8, n, 99, n + 99]);
    }

    #[test]
    fn codes_past_127_widen_the_enum_lane() {
        let labels: Vec<String> = (0..300).map(|k| format!("k{k}")).collect();
        let chunk = |cells: Vec<Option<&str>>| {
            DataFrame::builder().categorical("c", ColumnRole::Feature, &cells).build().unwrap()
        };
        // First chunk: 100 labels, codes 0..=99. Second: all 300 in
        // reverse, so the store interns k299..k100 as codes 100..=299.
        let a = chunk((0..100).map(|k| Some(labels[k].as_str())).chain([None]).collect());
        let b = chunk((0..300).rev().map(|k| Some(labels[k].as_str())).chain([None]).collect());
        let mut w = BlockWriter::new();
        w.append_frame(&a).unwrap();
        assert_eq!(lane_width(&w.cur_cols, 0), Some(Width::W8));
        w.append_frame(&b).unwrap();
        assert_eq!(lane_width(&w.cur_cols, 0), Some(Width::W16));
        let store = w.finish();
        assert_eq!(store.dicts[0].len(), 300);
        let n = store.n_rows();
        assert_take_matches(&store, &[a, b], &(0..n).rev().collect::<Vec<_>>());
    }

    #[test]
    fn bitmap_extend_matches_push() {
        // Start unaligned, cross word boundaries, end mid-word.
        let items: Vec<u32> = (0..300).collect();
        let valid = |x: &u32| x % 7 != 3;
        for prefix in [0, 1, 63, 64, 65] {
            let mut pushed = Bitmap::default();
            let mut extended = Bitmap::default();
            for i in 0..prefix {
                pushed.push(i % 2 == 0);
                extended.push(i % 2 == 0);
            }
            items.iter().for_each(|x| pushed.push(valid(x)));
            extended.extend(&items, valid);
            assert_eq!((extended.len, &extended.words), (pushed.len, &pushed.words), "{prefix}");
        }
    }

    #[test]
    fn empty_writer_finishes_empty() {
        let store = BlockWriter::new().finish();
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.n_blocks(), 0);
    }
}
