//! Columnar tables split into partitions.
//!
//! Seabed's prototype stores tables in HDFS and processes them with Spark; the
//! engine crate reproduces the part of that substrate Seabed's cost actually
//! depends on: a table is a schema plus a list of horizontal partitions, each
//! partition stores its columns contiguously in memory, and every row has an
//! implicit global identifier (`partition.start_row + offset`) — the
//! consecutive row IDs ASHE's telescoping decryption relies on.

use seabed_error::{SchemaError, SeabedError};
use serde::{Deserialize, Serialize};

/// The type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Unsigned 64-bit integers (plaintext measures, ASHE words, DET tags).
    UInt64,
    /// Signed 64-bit integers.
    Int64,
    /// UTF-8 strings.
    Utf8,
    /// Variable-length byte strings (Paillier ciphertexts, ORE ciphertexts).
    Bytes,
}

/// A column's values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    /// Unsigned integers.
    UInt64(Vec<u64>),
    /// Signed integers.
    Int64(Vec<i64>),
    /// Strings.
    Utf8(Vec<String>),
    /// Byte strings.
    Bytes(BytesColumn),
}

/// A column of variable-width byte cells in one contiguous buffer (the shape
/// of Arrow's variable-size binary array). A scan walks one allocation instead
/// of chasing one heap pointer per row, and cells of any width stay
/// representable — a corrupt-width ORE cell is still a row that does not
/// match, not a load error. While every cell has one width — an ORE column's
/// 16 bytes — the column stores no offsets and [`BytesColumn::fixed_cells`]
/// hands the cells out as arrays; the first cell of another width turns it
/// into an offset per cell. Build one by collecting byte cells or with
/// [`BytesColumn::push`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BytesColumn {
    data: Vec<u8>,
    layout: Layout,
}

/// Where a [`BytesColumn`]'s cells lie in its buffer. It is a function of the
/// cell widths alone — one width is `Uniform`, more than one is `Offsets` — so
/// columns holding the same cells are equal, however they were built.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum Layout {
    /// Cell `i` is `data[i * width..(i + 1) * width]`; `width` is 0 while
    /// there are no cells.
    Uniform { width: usize, cells: usize },
    /// Cell `i` is `data[offsets[i]..offsets[i + 1]]`: one more entry than
    /// there are cells, from 0 up to `data.len()`.
    Offsets(Vec<usize>),
}

impl BytesColumn {
    /// An empty column.
    pub fn new() -> BytesColumn {
        BytesColumn::with_capacity(0)
    }

    /// An empty column with room for cells totalling `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> BytesColumn {
        BytesColumn {
            data: Vec::with_capacity(bytes),
            layout: Layout::Uniform { width: 0, cells: 0 },
        }
    }

    /// Appends one cell.
    pub fn push(&mut self, cell: &[u8]) {
        match &mut self.layout {
            Layout::Uniform { width, cells } if *cells == 0 || *width == cell.len() => {
                (*width, *cells) = (cell.len(), *cells + 1);
            }
            &mut Layout::Uniform { width, cells } => {
                // Reserved exactly: the cells so far and this one.
                let mut offsets = Vec::with_capacity(cells + 2);
                offsets.extend((0..=cells).map(|row| row * width));
                offsets.push(self.data.len() + cell.len());
                self.layout = Layout::Offsets(offsets);
            }
            Layout::Offsets(offsets) => offsets.push(self.data.len() + cell.len()),
        }
        self.data.extend_from_slice(cell);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Uniform { cells, .. } => *cells,
            Layout::Offsets(offsets) => offsets.len() - 1,
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where cell `row < len()` lies in `data`.
    #[inline]
    fn span(&self, row: usize) -> std::ops::Range<usize> {
        match &self.layout {
            Layout::Uniform { width, .. } => row * width..(row + 1) * width,
            Layout::Offsets(offsets) => offsets[row]..offsets[row + 1],
        }
    }

    /// Cell `row`, or `None` past the end.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&[u8]> {
        if row >= self.len() {
            return None;
        }
        self.data.get(self.span(row))
    }

    /// The cells in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.len()).map(|row| &self.data[self.span(row)])
    }

    /// The cells as `N`-byte arrays (`N > 0`), or `None` unless every cell is
    /// `N` bytes wide: a scan over a column of one width reads its cells with
    /// no offset load and no length check.
    pub fn fixed_cells<const N: usize>(&self) -> Option<&[[u8; N]]> {
        match self.layout {
            Layout::Uniform { width, cells } if width == N || cells == 0 => Some(self.data.as_chunks::<N>().0),
            _ => None,
        }
    }

    /// A column of `cells` cells of `width` bytes each, held back to back in
    /// `data`: the column pushing those cells one by one builds.
    pub(crate) fn uniform(width: usize, cells: usize, data: Vec<u8>) -> BytesColumn {
        debug_assert_eq!(data.len(), width * cells);
        let width = if cells == 0 { 0 } else { width };
        BytesColumn {
            data,
            layout: Layout::Uniform { width, cells },
        }
    }

    /// The cell width and the buffer of a column whose cells all have one
    /// width (an empty column's width is 0), or `None` once two widths occur.
    pub(crate) fn uniform_cells(&self) -> Option<(usize, &[u8])> {
        match self.layout {
            Layout::Uniform { width, .. } => Some((width, &self.data)),
            Layout::Offsets(_) => None,
        }
    }

    /// Total bytes of all cells.
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes the column holds: the capacity of its buffer, and of its
    /// offsets if it has cells of more than one width.
    pub fn heap_size(&self) -> usize {
        let offsets = match &self.layout {
            Layout::Uniform { .. } => 0,
            Layout::Offsets(offsets) => offsets.capacity(),
        };
        self.data.capacity() + offsets * std::mem::size_of::<usize>()
    }

    /// Copies cells `[from, to)` into a new column.
    pub fn slice(&self, from: usize, to: usize) -> BytesColumn {
        match self.layout {
            Layout::Uniform { width, .. } => BytesColumn {
                data: self.data[from * width..to * width].to_vec(),
                layout: Layout::Uniform {
                    width: if to > from { width } else { 0 },
                    cells: to - from,
                },
            },
            // Pushed, so a run of one width comes out uniform.
            Layout::Offsets(_) => (from..to).map(|row| &self.data[self.span(row)]).collect(),
        }
    }
}

impl Default for BytesColumn {
    fn default() -> BytesColumn {
        BytesColumn::new()
    }
}

impl<C: AsRef<[u8]>> FromIterator<C> for BytesColumn {
    fn from_iter<I: IntoIterator<Item = C>>(cells: I) -> BytesColumn {
        let mut column = BytesColumn::new();
        for cell in cells {
            column.push(cell.as_ref());
        }
        column
    }
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::UInt64(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Bytes(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::UInt64(_) => ColumnType::UInt64,
            ColumnData::Int64(_) => ColumnType::Int64,
            ColumnData::Utf8(_) => ColumnType::Utf8,
            ColumnData::Bytes(_) => ColumnType::Bytes,
        }
    }

    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> ColumnData {
        match ty {
            ColumnType::UInt64 => ColumnData::UInt64(Vec::new()),
            ColumnType::Int64 => ColumnData::Int64(Vec::new()),
            ColumnType::Utf8 => ColumnData::Utf8(Vec::new()),
            ColumnType::Bytes => ColumnData::Bytes(BytesColumn::new()),
        }
    }

    /// Accesses a `u64` cell; panics if the column has a different type.
    pub fn u64_at(&self, row: usize) -> u64 {
        match self {
            ColumnData::UInt64(v) => v[row],
            other => panic!("column is {:?}, not UInt64", other.column_type()),
        }
    }

    /// Total variant of [`ColumnData::u64_at`]: `None` on type mismatch or an
    /// out-of-range row. Query execution validates column types up front and
    /// uses these accessors in the scan so untrusted plan shapes can never
    /// panic the engine.
    pub fn u64_get(&self, row: usize) -> Option<u64> {
        match self {
            ColumnData::UInt64(v) => v.get(row).copied(),
            _ => None,
        }
    }

    /// Borrows the whole `u64` column as a slice, or `None` on type mismatch.
    /// The vectorized scan resolves each needed column once per partition via
    /// these total slice accessors, then runs allocation-free kernel loops.
    pub fn u64_slice(&self) -> Option<&[u64]> {
        match self {
            ColumnData::UInt64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the whole string column, or `None` on type mismatch.
    pub fn str_slice(&self) -> Option<&[String]> {
        match self {
            ColumnData::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the whole bytes column, or `None` on type mismatch.
    pub fn bytes_column(&self) -> Option<&BytesColumn> {
        match self {
            ColumnData::Bytes(v) => Some(v),
            _ => None,
        }
    }

    /// Total variant of [`ColumnData::str_at`].
    pub fn str_get(&self, row: usize) -> Option<&str> {
        match self {
            ColumnData::Utf8(v) => v.get(row).map(|s| s.as_str()),
            _ => None,
        }
    }

    /// Total variant of [`ColumnData::bytes_at`].
    pub fn bytes_get(&self, row: usize) -> Option<&[u8]> {
        match self {
            ColumnData::Bytes(v) => v.get(row),
            _ => None,
        }
    }

    /// Accesses an `i64` cell; panics if the column has a different type.
    pub fn i64_at(&self, row: usize) -> i64 {
        match self {
            ColumnData::Int64(v) => v[row],
            other => panic!("column is {:?}, not Int64", other.column_type()),
        }
    }

    /// Accesses a string cell; panics if the column has a different type.
    pub fn str_at(&self, row: usize) -> &str {
        match self {
            ColumnData::Utf8(v) => &v[row],
            other => panic!("column is {:?}, not Utf8", other.column_type()),
        }
    }

    /// Accesses a bytes cell; panics if the column has a different type.
    pub fn bytes_at(&self, row: usize) -> &[u8] {
        match self {
            ColumnData::Bytes(v) => v.get(row).expect("row out of range"),
            other => panic!("column is {:?}, not Bytes", other.column_type()),
        }
    }

    /// Borrows the underlying `u64` vector; panics on type mismatch.
    pub fn as_u64(&self) -> &[u64] {
        match self {
            ColumnData::UInt64(v) => v,
            other => panic!("column is {:?}, not UInt64", other.column_type()),
        }
    }

    /// Takes a slice of rows `[from, to)` into a new column.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::UInt64(v) => ColumnData::UInt64(v[from..to].to_vec()),
            ColumnData::Int64(v) => ColumnData::Int64(v[from..to].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[from..to].to_vec()),
            ColumnData::Bytes(v) => ColumnData::Bytes(v.slice(from, to)),
        }
    }
}

/// A named field of a schema.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// The schema of a table.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new<I: IntoIterator<Item = (String, ColumnType)>>(fields: I) -> Schema {
        Schema {
            fields: fields.into_iter().map(|(name, ty)| Field { name, ty }).collect(),
        }
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// One horizontal partition of a table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Global row identifier of this partition's first row.
    pub start_row: u64,
    /// Column data, in schema order.
    pub columns: Vec<ColumnData>,
}

impl Partition {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Global row identifier of local row `offset`.
    pub fn row_id(&self, offset: usize) -> u64 {
        self.start_row + offset as u64
    }

    /// Column by index.
    pub fn column(&self, index: usize) -> &ColumnData {
        &self.columns[index]
    }

    /// Total variant of [`Partition::column`]: `None` when out of range.
    pub fn column_get(&self, index: usize) -> Option<&ColumnData> {
        self.columns.get(index)
    }
}

/// A partitioned, columnar, in-memory table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Schema shared by all partitions.
    pub schema: Schema,
    /// Horizontal partitions with consecutive global row IDs.
    pub partitions: Vec<Partition>,
}

impl Table {
    /// Builds a table from whole columns, splitting rows into
    /// `num_partitions` nearly equal partitions with consecutive global IDs.
    pub fn from_columns(schema: Schema, columns: Vec<ColumnData>, num_partitions: usize) -> Table {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let num_rows = columns.first().map_or(0, |c| c.len());
        for (field, col) in schema.fields.iter().zip(columns.iter()) {
            assert_eq!(col.len(), num_rows, "column {} has inconsistent length", field.name);
            assert_eq!(col.column_type(), field.ty, "column {} has wrong type", field.name);
        }
        let num_partitions = num_partitions.max(1);
        let chunk = num_rows.div_ceil(num_partitions).max(1);
        let mut partitions = Vec::new();
        let mut start = 0usize;
        while start < num_rows {
            let end = (start + chunk).min(num_rows);
            partitions.push(Partition {
                start_row: start as u64,
                columns: columns.iter().map(|c| c.slice(start, end)).collect(),
            });
            start = end;
        }
        if partitions.is_empty() {
            partitions.push(Partition {
                start_row: 0,
                columns: schema.fields.iter().map(|f| ColumnData::empty(f.ty)).collect(),
            });
        }
        Table { schema, partitions }
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.num_rows()).sum()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Index of a column by name, as a [`SeabedError::Schema`] when missing.
    pub fn require_column(&self, name: &str) -> Result<usize, SeabedError> {
        self.column_index(name)
            .ok_or_else(|| SchemaError::UnknownPhysicalColumn(name.to_string()).into())
    }

    /// Index of a column that must have a specific physical type.
    pub fn require_typed_column(&self, name: &str, ty: ColumnType) -> Result<usize, SeabedError> {
        let index = self.require_column(name)?;
        let actual = self.schema.fields[index].ty;
        if actual == ty {
            Ok(index)
        } else {
            Err(SchemaError::TypeMismatch {
                column: name.to_string(),
                expected: format!("{ty:?}"),
                actual: format!("{actual:?}"),
            }
            .into())
        }
    }

    /// Checks that every partition physically matches the schema: same column
    /// count, same column types, and consistent row counts. [`Table::from_columns`]
    /// establishes these invariants, but `Table`'s fields are public (the
    /// storage layer and tests build partitions directly), so query execution
    /// re-validates the layout once up front and the scan loops can then rely
    /// on it instead of silently mis-reading corrupt partitions.
    pub fn validate_layout(&self) -> Result<(), SeabedError> {
        for (p, partition) in self.partitions.iter().enumerate() {
            if partition.columns.len() != self.schema.len() {
                return Err(SchemaError::CorruptPartition {
                    partition: p,
                    detail: format!(
                        "has {} columns, schema has {}",
                        partition.columns.len(),
                        self.schema.len()
                    ),
                }
                .into());
            }
            let rows = partition.num_rows();
            for (field, column) in self.schema.fields.iter().zip(partition.columns.iter()) {
                if column.column_type() != field.ty {
                    return Err(SchemaError::CorruptPartition {
                        partition: p,
                        detail: format!(
                            "column {} is {:?}, schema says {:?}",
                            field.name,
                            column.column_type(),
                            field.ty
                        ),
                    }
                    .into());
                }
                if column.len() != rows {
                    return Err(SchemaError::CorruptPartition {
                        partition: p,
                        detail: format!("column {} has {} rows, expected {rows}", field.name, column.len()),
                    }
                    .into());
                }
            }
        }
        Ok(())
    }

    /// Gathers an entire column across partitions (test/debug helper; real
    /// queries never materialise whole columns at the driver).
    pub fn gather_u64(&self, name: &str) -> Option<Vec<u64>> {
        let idx = self.column_index(name)?;
        let mut out = Vec::with_capacity(self.num_rows());
        for p in &self.partitions {
            match &p.columns[idx] {
                ColumnData::UInt64(v) => out.extend_from_slice(v),
                _ => return None,
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, TestCaseError};

    fn sample_table(rows: usize, partitions: usize) -> Table {
        let schema = Schema::new([
            ("id".to_string(), ColumnType::UInt64),
            ("value".to_string(), ColumnType::UInt64),
            ("name".to_string(), ColumnType::Utf8),
        ]);
        let columns = vec![
            ColumnData::UInt64((0..rows as u64).collect()),
            ColumnData::UInt64((0..rows as u64).map(|i| i * 2).collect()),
            ColumnData::Utf8((0..rows).map(|i| format!("row{i}")).collect()),
        ];
        Table::from_columns(schema, columns, partitions)
    }

    #[test]
    fn partitioning_preserves_rows_and_ids() {
        let t = sample_table(1000, 7);
        assert_eq!(t.num_rows(), 1000);
        assert_eq!(t.num_partitions(), 7);
        // Global row IDs are consecutive across partitions.
        let mut expected_start = 0u64;
        for p in &t.partitions {
            assert_eq!(p.start_row, expected_start);
            expected_start += p.num_rows() as u64;
        }
        assert_eq!(expected_start, 1000);
    }

    #[test]
    fn gather_reconstructs_column() {
        let t = sample_table(100, 3);
        assert_eq!(
            t.gather_u64("value").unwrap(),
            (0..100u64).map(|i| i * 2).collect::<Vec<_>>()
        );
        assert!(t.gather_u64("name").is_none(), "type mismatch returns None");
        assert!(t.gather_u64("missing").is_none());
    }

    #[test]
    fn empty_table_has_one_empty_partition() {
        let schema = Schema::new([("x".to_string(), ColumnType::UInt64)]);
        let t = Table::from_columns(schema, vec![ColumnData::UInt64(vec![])], 4);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_partitions(), 1);
    }

    #[test]
    fn more_partitions_than_rows() {
        let t = sample_table(3, 10);
        assert_eq!(t.num_rows(), 3);
        assert!(t.num_partitions() <= 3);
    }

    #[test]
    fn cell_accessors() {
        let t = sample_table(10, 2);
        let p = &t.partitions[0];
        assert_eq!(p.column(1).u64_at(3), 6);
        assert_eq!(p.column(2).str_at(2), "row2");
        assert_eq!(p.row_id(4), 4);
        let p1 = &t.partitions[1];
        assert_eq!(p1.row_id(0), p1.start_row);
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        let t = sample_table(10, 1);
        t.partitions[0].column(2).u64_at(0);
    }

    #[test]
    #[should_panic]
    fn schema_column_length_mismatch_panics() {
        let schema = Schema::new([
            ("a".to_string(), ColumnType::UInt64),
            ("b".to_string(), ColumnType::UInt64),
        ]);
        Table::from_columns(
            schema,
            vec![ColumnData::UInt64(vec![1, 2]), ColumnData::UInt64(vec![1])],
            1,
        );
    }

    #[test]
    fn slice_accessors_are_total() {
        let t = sample_table(10, 2);
        let p = &t.partitions[0];
        assert_eq!(p.column(0).u64_slice().unwrap().len(), p.num_rows());
        assert_eq!(p.column(2).str_slice().unwrap()[2], "row2");
        assert!(p.column(2).u64_slice().is_none());
        assert!(p.column(0).str_slice().is_none());
        assert!(p.column(0).bytes_column().is_none());
        let b = ColumnData::Bytes(BytesColumn::from_iter([vec![1u8], vec![2, 3]]));
        assert_eq!(b.bytes_column().unwrap().len(), 2);
    }

    #[test]
    fn bytes_column_holds_ragged_cells_in_one_buffer() {
        let cells: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![4], vec![5; 70], vec![]];
        let col: BytesColumn = cells.iter().collect();
        assert_eq!((col.len(), col.data_len()), (5, 74));
        assert_eq!(col.iter().collect::<Vec<_>>(), cells);
        for (row, cell) in cells.iter().enumerate() {
            assert_eq!(col.get(row), Some(cell.as_slice()));
        }
        assert_eq!(col.get(5), None);
        assert_eq!(col.get(usize::MAX), None);

        // Pushed, collected and sliced columns with the same cells are equal.
        let mut pushed = BytesColumn::new();
        cells.iter().for_each(|cell| pushed.push(cell));
        assert_eq!(pushed, col);
        assert_eq!(col.slice(0, 5), col);
        assert_eq!(col.slice(1, 4), cells[1..4].iter().collect());
        assert_eq!(col.slice(5, 5), BytesColumn::new());
        assert!(BytesColumn::default().is_empty());

        // Partitioning slices the buffer by cell range.
        let table = Table::from_columns(
            Schema::new([("b".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes(col)],
            2,
        );
        assert!(table.validate_layout().is_ok());
        let parts: Vec<Vec<&[u8]>> = table
            .partitions
            .iter()
            .map(|p| p.column(0).bytes_column().unwrap().iter().collect())
            .collect();
        assert_eq!(parts.concat(), cells);
        assert_eq!(table.partitions[1].column(0).bytes_get(0), Some(&cells[3][..]));
    }

    /// Cell `row` of `widths`: `widths[row]` bytes, each `row`.
    fn cells_of(widths: &[usize]) -> Vec<Vec<u8>> {
        widths
            .iter()
            .enumerate()
            .map(|(row, &width)| vec![row as u8; width])
            .collect()
    }

    /// `fixed_cells::<N>` is `Some` exactly when every cell is `N` bytes, and
    /// then holds the cells.
    fn assert_fixed_cells<const N: usize>(column: &BytesColumn, cells: &[Vec<u8>]) -> Result<(), TestCaseError> {
        let fixed = column.fixed_cells::<N>();
        prop_assert_eq!(fixed.is_some(), cells.iter().all(|cell| cell.len() == N));
        if let Some(fixed) = fixed {
            prop_assert!(fixed
                .iter()
                .map(|cell| cell.as_slice())
                .eq(cells.iter().map(Vec::as_slice)));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Whatever builds a `BytesColumn` — pushes, `collect`, `slice`,
        /// partitioning, a load — it holds its cells, and its layout (offsets
        /// or none) follows from their widths alone, so equal cells make
        /// equal columns.
        #[test]
        fn bytes_column_layout_is_a_function_of_its_cell_widths(
            cells in 0usize..24,
            shape in 0u8..6,
            odd in 0usize..20,
            seed in proptest::prelude::any::<u64>(),
            partitions in 1usize..5,
        ) {
            // One width throughout (16, or 0: all-empty cells), one odd cell
            // first, in the middle or last, or random widths in 0..4.
            let mut widths = vec![if shape == 4 { 0 } else { 16 }; cells];
            match (shape, cells) {
                (_, 0) => {}
                (1, _) => widths[0] = odd,
                (2, _) => widths[cells / 2] = odd,
                (3, _) => widths[cells - 1] = odd,
                (5, _) => widths.iter_mut().enumerate().for_each(|(i, w)| *w = (seed >> (2 * (i % 32))) as usize & 3),
                _ => {}
            }
            let cells = cells_of(&widths);
            let mut pushed = BytesColumn::new();
            cells.iter().for_each(|cell| pushed.push(cell));
            let collected: BytesColumn = cells.iter().collect();
            prop_assert_eq!(&pushed, &collected);
            prop_assert_eq!(pushed.len(), cells.len());
            prop_assert_eq!(pushed.data_len(), widths.iter().sum::<usize>());
            prop_assert!(pushed.iter().eq(cells.iter().map(Vec::as_slice)));
            for (row, cell) in cells.iter().enumerate() {
                prop_assert_eq!(pushed.get(row), Some(cell.as_slice()));
            }
            prop_assert_eq!(pushed.get(cells.len()), None);
            assert_fixed_cells::<16>(&pushed, &cells)?;
            assert_fixed_cells::<1>(&pushed, &cells)?;
            assert_fixed_cells::<3>(&pushed, &cells)?;

            for from in 0..=cells.len() {
                for to in from..=cells.len() {
                    let expected: BytesColumn = cells[from..to].iter().collect();
                    prop_assert_eq!(pushed.slice(from, to), expected);
                }
            }

            let table = Table::from_columns(
                Schema::new([("b".to_string(), ColumnType::Bytes)]),
                vec![ColumnData::Bytes(pushed)],
                partitions,
            );
            let mut start = 0;
            for partition in &table.partitions {
                let end = start + partition.num_rows();
                let expected: BytesColumn = cells[start..end].iter().collect();
                prop_assert_eq!(partition.column(0).bytes_column(), Some(&expected));
                start = end;
            }
            let loaded = crate::storage::deserialize_table(&crate::storage::serialize_table(&table));
            prop_assert_eq!(loaded, Some(table));
        }
    }

    #[test]
    fn validate_layout_accepts_well_formed_tables() {
        assert!(sample_table(100, 3).validate_layout().is_ok());
        let empty = Table::from_columns(
            Schema::new([("x".to_string(), ColumnType::UInt64)]),
            vec![ColumnData::UInt64(vec![])],
            4,
        );
        assert!(empty.validate_layout().is_ok());
    }

    #[test]
    fn validate_layout_rejects_corrupt_partitions() {
        // Mistyped column data (fields are public, so storage layers and
        // tests can build this shape).
        let mut t = sample_table(10, 2);
        let n = t.partitions[0].num_rows();
        t.partitions[0].columns[1] = ColumnData::Utf8(vec!["x".to_string(); n]);
        assert!(matches!(
            t.validate_layout(),
            Err(SeabedError::Schema(SchemaError::CorruptPartition { partition: 0, .. }))
        ));
        // Short column.
        let mut t = sample_table(10, 2);
        t.partitions[1].columns[1] = ColumnData::UInt64(vec![7]);
        assert!(matches!(
            t.validate_layout(),
            Err(SeabedError::Schema(SchemaError::CorruptPartition { partition: 1, .. }))
        ));
        // Missing column.
        let mut t = sample_table(10, 2);
        t.partitions[0].columns.pop();
        assert!(matches!(
            t.validate_layout(),
            Err(SeabedError::Schema(SchemaError::CorruptPartition { partition: 0, .. }))
        ));
    }

    #[test]
    fn column_slice_and_types() {
        let c = ColumnData::Int64(vec![-5, 0, 5, 10]);
        assert_eq!(c.slice(1, 3), ColumnData::Int64(vec![0, 5]));
        assert_eq!(c.column_type(), ColumnType::Int64);
        assert_eq!(c.i64_at(0), -5);
        let b = ColumnData::Bytes(BytesColumn::from_iter([vec![1, 2], vec![3]]));
        assert_eq!(b.bytes_at(1), &[3]);
        assert_eq!(ColumnData::empty(ColumnType::Utf8).len(), 0);
    }
}
