//! Chunk structures flowing through the ScanRaw pipeline.
//!
//! The raw file is logically split into horizontal portions containing a
//! sequence of lines — *chunks* — which are "the reading and processing unit"
//! (paper §3.1). Three chunk representations exist, one per pipeline buffer:
//!
//! * [`TextChunk`] — raw bytes read from the file (text chunks buffer);
//! * [`PositionalMap`] — attribute start offsets produced by TOKENIZE
//!   (position buffer, carried next to its `TextChunk`);
//! * [`BinaryChunk`] — columnar binary representation produced by PARSE+MAP
//!   (binary chunks buffer / cache); also the database storage format.

use crate::error::{Error, Result};
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// Identifier of a chunk within one raw file (dense, 0-based, in file order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChunkId(pub u32);

impl ChunkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk#{}", self.0)
    }
}

/// A horizontal slice of the raw file: whole lines, raw bytes.
#[derive(Debug, Clone)]
pub struct TextChunk {
    pub id: ChunkId,
    /// Byte offset of the first line within the raw file.
    pub file_offset: u64,
    /// Index of the first row (line) within the raw file.
    pub first_row: u64,
    /// Number of complete lines contained.
    pub rows: u32,
    /// The raw bytes, ending with the final line's terminator (if present in
    /// the file; the last chunk of a file may lack a trailing newline).
    pub data: bytes::Bytes,
}

impl TextChunk {
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }
}

/// Positional map for one text chunk (paper §2, TOKENIZE).
///
/// For every line, the byte offsets (relative to the chunk start) where each
/// of the first `cols_mapped` attributes begins. A *partial* map (selective
/// tokenizing) stops early; consumers scan forward from the closest mapped
/// attribute for the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalMap {
    rows: u32,
    cols_mapped: u32,
    /// Start offset of each line within the chunk, plus a final sentinel equal
    /// to the chunk length (so line `i` spans `line_starts[i]..line_starts[i+1]`,
    /// terminator included).
    line_starts: Vec<u32>,
    /// Row-major: `attr_starts[row * cols_mapped + col]` is the offset of the
    /// first byte of attribute `col` in line `row`.
    attr_starts: Vec<u32>,
}

impl PositionalMap {
    /// Assembles a map from its parts, validating dimensions.
    ///
    /// # Errors
    ///
    /// Fails when `line_starts` or `attr_starts` do not match the declared
    /// `rows` × `cols_mapped` dimensions.
    pub fn new(
        rows: u32,
        cols_mapped: u32,
        line_starts: Vec<u32>,
        attr_starts: Vec<u32>,
    ) -> Result<Self> {
        if line_starts.len() != rows as usize + 1 {
            return Err(Error::Schema(format!(
                "positional map needs {} line starts, got {}",
                rows + 1,
                line_starts.len()
            )));
        }
        if attr_starts.len() != rows as usize * cols_mapped as usize {
            return Err(Error::Schema(format!(
                "positional map needs {} attribute starts, got {}",
                rows as usize * cols_mapped as usize,
                attr_starts.len()
            )));
        }
        Ok(PositionalMap {
            rows,
            cols_mapped,
            line_starts,
            attr_starts,
        })
    }

    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// How many leading attributes have recorded start positions.
    pub fn cols_mapped(&self) -> u32 {
        self.cols_mapped
    }

    /// Byte range (within the chunk) of line `row`, terminator included.
    pub fn line_span(&self, row: u32) -> (u32, u32) {
        (
            self.line_starts[row as usize],
            self.line_starts[row as usize + 1],
        )
    }

    /// Start offset of `col` in `row`, if mapped.
    pub fn attr_start(&self, row: u32, col: u32) -> Option<u32> {
        if col < self.cols_mapped && row < self.rows {
            Some(self.attr_starts[row as usize * self.cols_mapped as usize + col as usize])
        } else {
            None
        }
    }

    /// Approximate heap size, used for buffer accounting.
    pub fn size_bytes(&self) -> usize {
        (self.line_starts.len() + self.attr_starts.len()) * std::mem::size_of::<u32>()
    }
}

/// A string column held in one buffer: the values laid end to end in one
/// `String`, with row `i` at bytes `offsets[i]..offsets[i + 1]`.
///
/// This is the array layout of paper §3.1 for variable-width values: one
/// allocation per column rather than one per cell, and the database run of
/// a string column stores exactly these end offsets and bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utf8Column {
    /// `rows + 1` entries: starts at 0, never decreases, ends at
    /// `data.len()`, and every entry is a char boundary of `data`.
    offsets: Vec<u32>,
    data: String,
}

impl Default for Utf8Column {
    fn default() -> Self {
        Utf8Column::with_capacity(0)
    }
}

impl Utf8Column {
    /// An empty column with room for `rows` offsets.
    pub fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Utf8Column {
            offsets,
            data: String::new(),
        }
    }

    /// Reassembles a column from the parts [`ends`](Utf8Column::ends) and
    /// [`bytes`](Utf8Column::bytes) return, as read back from the database.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Storage`] when the end offsets decrease, the last
    /// one is not the block length, or one falls inside a multi-byte
    /// character, or when the block is not UTF-8.
    pub fn from_parts(ends: impl IntoIterator<Item = u32>, data: Vec<u8>) -> Result<Self> {
        let ends = ends.into_iter();
        let mut offsets = Vec::with_capacity(ends.size_hint().0 + 1);
        offsets.push(0);
        offsets.extend(ends);
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::storage("string offsets decrease"));
        }
        if offsets.last().map(|&o| o as usize) != Some(data.len()) {
            return Err(Error::storage(
                "last string offset does not match the byte block",
            ));
        }
        let data = String::from_utf8(data)
            .map_err(|_| Error::storage("invalid utf-8 in string column"))?;
        if !offsets.iter().all(|&o| data.is_char_boundary(o as usize)) {
            return Err(Error::storage(
                "string offset inside a multi-byte character",
            ));
        }
        Ok(Utf8Column { offsets, data })
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row >= self.len()`, like slice indexing.
    pub fn get(&self, row: usize) -> &str {
        &self.data[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// Appends one value.
    ///
    /// # Panics
    ///
    /// Panics when the column would exceed `u32::MAX` bytes, the reach of
    /// its offsets (a text chunk is itself addressed by `u32` offsets).
    pub fn push(&mut self, s: &str) {
        let end = self.data.len() + s.len();
        assert!(
            end <= u32::MAX as usize,
            "string column exceeds u32 offsets"
        );
        self.data.push_str(s);
        self.offsets.push(end as u32);
    }

    /// End offset of every row (`len()` entries, the first row's start
    /// being 0).
    pub fn ends(&self) -> &[u32] {
        &self.offsets[1..]
    }

    /// All values, end to end.
    pub fn bytes(&self) -> &[u8] {
        self.data.as_bytes()
    }
}

impl<S: AsRef<str>> FromIterator<S> for Utf8Column {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut col = Utf8Column::with_capacity(iter.size_hint().0);
        for s in iter {
            col.push(s.as_ref());
        }
        col
    }
}

impl From<Vec<String>> for Utf8Column {
    fn from(values: Vec<String>) -> Self {
        values.iter().collect()
    }
}

/// Column values of one chunk in the binary processing representation.
///
/// "In binary format, tuples are vertically partitioned along columns
/// represented as arrays in memory" (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Utf8Column),
}

impl ColumnData {
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row` as a dynamic scalar (bounds-checked).
    pub fn value(&self, row: usize) -> Option<Value> {
        match self {
            ColumnData::Int64(v) => v.get(row).map(|&x| Value::Int(x)),
            ColumnData::Float64(v) => v.get(row).map(|&x| Value::Float(x)),
            ColumnData::Utf8(v) => (row < v.len()).then(|| Value::from(v.get(row))),
        }
    }

    /// Bytes occupied in the database representation.
    pub fn size_bytes(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Utf8(v) => 4 * v.len() + v.bytes().len(),
        }
    }

    /// Minimum and maximum as `Value`s (None for an empty column).
    pub fn min_max(&self) -> Option<(Value, Value)> {
        match self {
            ColumnData::Int64(v) => {
                let min = *v.iter().min()?;
                let max = *v.iter().max()?;
                Some((Value::Int(min), Value::Int(max)))
            }
            ColumnData::Float64(v) => {
                let mut it = v.iter().copied();
                let first = it.next()?;
                let (mut lo, mut hi) = (first, first);
                for x in it {
                    if x < lo {
                        lo = x;
                    }
                    if x > hi {
                        hi = x;
                    }
                }
                Some((Value::Float(lo), Value::Float(hi)))
            }
            ColumnData::Utf8(v) => {
                let min = v.iter().min()?;
                let max = v.iter().max()?;
                Some((Value::from(min), Value::from(max)))
            }
        }
    }
}

/// A chunk converted to the columnar binary representation.
///
/// Not every column of the table has to be present ("it is important to
/// emphasize that not all the columns in a table have to be present in a
/// binary chunk", paper §3.1): `columns[i]` is `None` when attribute `i`
/// was not converted (selective parsing) or not requested.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryChunk {
    pub id: ChunkId,
    pub first_row: u64,
    pub rows: u32,
    /// Parallel to the table schema; `None` = column absent from this chunk.
    pub columns: Vec<Option<ColumnData>>,
}

impl BinaryChunk {
    /// Creates an empty chunk shell with `n_cols` absent columns.
    pub fn empty(id: ChunkId, first_row: u64, rows: u32, n_cols: usize) -> Self {
        BinaryChunk {
            id,
            first_row,
            rows,
            columns: vec![None; n_cols],
        }
    }

    /// Validates that every present column matches the schema type and the
    /// declared row count.
    ///
    /// # Errors
    ///
    /// Fails when the column count diverges from the schema, a column's
    /// value type mismatches its field type, or a column's length differs
    /// from the chunk's declared row count.
    ///
    /// # Panics
    ///
    /// Never panics on user input; the internal indexing is bounded by the
    /// length check above it.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.columns.len() != schema.len() {
            return Err(Error::Schema(format!(
                "chunk has {} column slots, schema has {}",
                self.columns.len(),
                schema.len()
            )));
        }
        for (i, col) in self.columns.iter().enumerate() {
            if let Some(c) = col {
                let expect = schema.field(i).expect("index checked").data_type;
                if c.data_type() != expect {
                    return Err(Error::Schema(format!(
                        "column {i} is {} but schema says {}",
                        c.data_type().name(),
                        expect.name()
                    )));
                }
                if c.len() != self.rows as usize {
                    return Err(Error::Schema(format!(
                        "column {i} has {} rows, chunk declares {}",
                        c.len(),
                        self.rows
                    )));
                }
            }
        }
        Ok(())
    }

    /// Indices of the columns present in this chunk.
    pub fn present_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
            .collect()
    }

    /// True when every column in `wanted` is present.
    pub fn covers(&self, wanted: &[usize]) -> bool {
        wanted
            .iter()
            .all(|&i| self.columns.get(i).is_some_and(|c| c.is_some()))
    }

    pub fn column(&self, idx: usize) -> Option<&ColumnData> {
        self.columns.get(idx).and_then(|c| c.as_ref())
    }

    /// Total bytes of all present columns (the quantity WRITE pushes to disk).
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().flatten().map(|c| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> BinaryChunk {
        BinaryChunk {
            id: ChunkId(0),
            first_row: 0,
            rows: 3,
            columns: vec![
                Some(ColumnData::Int64(vec![1, 2, 3])),
                None,
                Some(ColumnData::Int64(vec![10, 20, 30])),
            ],
        }
    }

    #[test]
    fn positional_map_dimension_checks() {
        assert!(PositionalMap::new(2, 2, vec![0, 5, 10], vec![0, 2, 5, 7]).is_ok());
        assert!(PositionalMap::new(2, 2, vec![0, 5], vec![0, 2, 5, 7]).is_err());
        assert!(PositionalMap::new(2, 2, vec![0, 5, 10], vec![0, 2]).is_err());
    }

    #[test]
    fn positional_map_lookup() {
        let m = PositionalMap::new(2, 2, vec![0, 5, 10], vec![0, 2, 5, 7]).unwrap();
        assert_eq!(m.line_span(0), (0, 5));
        assert_eq!(m.line_span(1), (5, 10));
        assert_eq!(m.attr_start(0, 1), Some(2));
        assert_eq!(m.attr_start(1, 0), Some(5));
        assert_eq!(m.attr_start(0, 2), None, "col beyond mapped prefix");
        assert_eq!(m.attr_start(2, 0), None, "row out of range");
    }

    #[test]
    fn column_data_min_max() {
        let c = ColumnData::Int64(vec![5, -1, 9]);
        assert_eq!(c.min_max(), Some((Value::Int(-1), Value::Int(9))));
        let e = ColumnData::Int64(vec![]);
        assert_eq!(e.min_max(), None);
        let s = ColumnData::Utf8(["b", "a"].into_iter().collect());
        assert_eq!(s.min_max(), Some((Value::from("a"), Value::from("b"))));
    }

    #[test]
    fn column_size_accounting() {
        assert_eq!(ColumnData::Int64(vec![1, 2]).size_bytes(), 16);
        assert_eq!(
            ColumnData::Utf8(["ab", "c"].into_iter().collect()).size_bytes(),
            4 + 2 + 4 + 1
        );
    }

    #[test]
    fn binary_chunk_presence() {
        let c = sample_chunk();
        assert_eq!(c.present_columns(), vec![0, 2]);
        assert!(c.covers(&[0, 2]));
        assert!(!c.covers(&[0, 1]));
        assert_eq!(c.size_bytes(), 48);
    }

    #[test]
    fn binary_chunk_validation() {
        let schema = Schema::uniform_ints(3);
        sample_chunk().validate(&schema).unwrap();

        let mut wrong_rows = sample_chunk();
        wrong_rows.rows = 4;
        assert!(wrong_rows.validate(&schema).is_err());

        let mut wrong_type = sample_chunk();
        wrong_type.columns[0] = Some(ColumnData::Utf8(vec!["x".to_string(); 3].into()));
        assert!(wrong_type.validate(&schema).is_err());

        let narrow = Schema::uniform_ints(2);
        assert!(sample_chunk().validate(&narrow).is_err());
    }

    #[test]
    fn empty_chunk_shell() {
        let c = BinaryChunk::empty(ChunkId(7), 100, 50, 4);
        assert_eq!(c.present_columns(), Vec::<usize>::new());
        assert_eq!(c.columns.len(), 4);
        assert_eq!(c.size_bytes(), 0);
    }
}
