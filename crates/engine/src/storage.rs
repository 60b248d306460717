//! Storage accounting and a simple binary serialization of tables.
//!
//! Table 5 of the paper reports, for every dataset, the on-disk and in-memory
//! footprint of the plaintext (NoEnc), Seabed and Paillier representations.
//! The serialized form here plays the role of the Protobuf-in-HDFS files of
//! the prototype (disk size); the in-memory size is estimated from the actual
//! heap layout of the columnar representation, which carries per-`Vec`
//! overheads the way Spark's JVM objects do (at a smaller constant).

use crate::table::{BytesColumn, ColumnData, ColumnType, Partition, Schema, Table};
use seabed_crypto::ore::ORE_CELL_BYTES;

/// Serialized (on-disk) size of a column, in bytes: a varint-free flat layout
/// of fixed-width values and length-prefixed variable-width values.
pub fn column_disk_size(column: &ColumnData) -> usize {
    match column {
        ColumnData::UInt64(v) => v.len() * 8,
        ColumnData::Int64(v) => v.len() * 8,
        ColumnData::Utf8(v) => v.iter().map(|s| 4 + s.len()).sum(),
        ColumnData::Bytes(v) => 4 * v.len() + v.data_len(),
    }
}

/// In-memory (heap) size of a column, in bytes, including per-element
/// allocation overhead for strings (byte cells share one buffer, plus an
/// offset per cell when their widths differ).
pub fn column_memory_size(column: &ColumnData) -> usize {
    const VEC_OVERHEAD: usize = 24;
    match column {
        ColumnData::UInt64(v) => VEC_OVERHEAD + v.capacity() * 8,
        ColumnData::Int64(v) => VEC_OVERHEAD + v.capacity() * 8,
        ColumnData::Utf8(v) => {
            VEC_OVERHEAD + v.capacity() * std::mem::size_of::<String>() + v.iter().map(|s| s.capacity()).sum::<usize>()
        }
        ColumnData::Bytes(v) => 2 * VEC_OVERHEAD + v.heap_size(),
    }
}

/// Disk footprint of a partition.
pub fn partition_disk_size(partition: &Partition) -> usize {
    partition.columns.iter().map(column_disk_size).sum()
}

/// Disk footprint of a table.
pub fn table_disk_size(table: &Table) -> usize {
    table.partitions.iter().map(partition_disk_size).sum()
}

/// In-memory footprint of a table.
pub fn table_memory_size(table: &Table) -> usize {
    table
        .partitions
        .iter()
        .map(|p| p.columns.iter().map(column_memory_size).sum::<usize>())
        .sum()
}

/// Serializes a table into a flat byte buffer (schema + per-partition column
/// data). The format is only consumed by [`deserialize_table`]; it stands in
/// for the Protobuf/HDFS layer of the prototype.
pub fn serialize_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(table));
    serialize_table_into(table, &mut out);
    out
}

/// The exact length of [`serialize_table`]'s output, computed without writing
/// it: the schema and partition headers plus [`column_disk_size`] and a count
/// per column. A frame that carries a table behind its length writes this
/// first and then the table straight in ([`serialize_table_into`]).
pub fn serialized_len(table: &Table) -> usize {
    let fields: usize = table.schema.fields.iter().map(|field| 4 + field.name.len() + 1).sum();
    let partitions: usize = table
        .partitions
        .iter()
        .map(|partition| 8 + partition.columns.iter().map(|c| 4 + column_disk_size(c)).sum::<usize>())
        .sum();
    4 + fields + 4 + partitions
}

/// Appends [`serialize_table`]'s bytes to `out` — exactly
/// [`serialized_len`] of them. A column of words, and a `Bytes` column of one
/// cell width, claims its bytes at once and fills them in one pass.
pub fn serialize_table_into(table: &Table, out: &mut Vec<u8>) {
    write_u32(out, table.schema.fields.len() as u32);
    for field in &table.schema.fields {
        write_str(out, &field.name);
        out.push(type_tag(field.ty));
    }
    write_u32(out, table.partitions.len() as u32);
    for partition in &table.partitions {
        write_u64(out, partition.start_row);
        for column in &partition.columns {
            write_u32(out, column.len() as u32);
            match column {
                ColumnData::UInt64(v) => put_words(out, v.iter().copied()),
                ColumnData::Int64(v) => put_words(out, v.iter().map(|&x| x as u64)),
                ColumnData::Utf8(v) => {
                    for s in v {
                        write_str(out, s);
                    }
                }
                ColumnData::Bytes(v) => match v.uniform_cells() {
                    Some((width, data)) if width > 0 => put_cells(out, width, data),
                    _ => {
                        for b in v.iter() {
                            write_u32(out, b.len() as u32);
                            out.extend_from_slice(b);
                        }
                    }
                },
            }
        }
    }
}

/// Appends `words`, eight little-endian bytes each, in one pass over bytes
/// claimed at once.
fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u64>) {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (slot, word) in out[start..].as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *slot = word.to_le_bytes();
    }
}

/// Appends the cells of `data`, each `width > 0` bytes, each behind its
/// length, in one pass over bytes claimed at once.
fn put_cells(out: &mut Vec<u8>, width: usize, data: &[u8]) {
    let prefix = (width as u32).to_le_bytes();
    let start = out.len();
    out.resize(start + data.len() / width * (4 + width), 0);
    for (slot, cell) in out[start..].chunks_exact_mut(4 + width).zip(data.chunks_exact(width)) {
        let (len, bytes) = slot.split_at_mut(4);
        len.copy_from_slice(&prefix);
        bytes.copy_from_slice(cell);
    }
}

/// The stored tag of each column type, stated once for both directions.
macro_rules! column_type_tags {
    ($($tag:literal => $variant:ident),+) => {
        fn type_tag(ty: ColumnType) -> u8 {
            match ty {
                $(ColumnType::$variant => $tag,)+
            }
        }

        fn type_of_tag(tag: u8) -> Option<ColumnType> {
            match tag {
                $($tag => Some(ColumnType::$variant),)+
                _ => None,
            }
        }
    };
}
column_type_tags!(0 => UInt64, 1 => Int64, 2 => Utf8, 3 => Bytes);

/// The one reservation rule for a count read from untrusted input (the twin
/// of `Vec<T>`'s decode in `seabed_net::wire`): the vector starts with room
/// for at most as many elements as fit — at their size *in memory*, not the
/// few bytes a cell takes in the file — in the bytes still unread, so a
/// forged count never reserves more bytes than remain, and the element reads
/// fail long before it is reached. An honest column whose cells are smaller
/// stored than in memory just grows as its cells arrive.
fn reserved<T>(len: usize, data: &[u8], pos: usize) -> Vec<T> {
    let fit = data.len().saturating_sub(pos) / std::mem::size_of::<T>().max(1);
    Vec::with_capacity(len.min(fit))
}

/// Total bytes of the `len` length-prefixed cells stored at `pos`, or `None`
/// if they run past the end of `data`. A [`BytesColumn`] is sized from this
/// walk over the cells' own prefixes, before anything is reserved: a forged
/// count or cell length fails here having allocated nothing, and a count that
/// passes is backed by at least four stored bytes per cell, so the column's
/// buffer is allocated once, at its exact size.
fn cells_extent(len: usize, data: &[u8], mut pos: usize) -> Option<usize> {
    let mut total = 0usize;
    for _ in 0..len {
        let cell = read_u32(data, &mut pos)? as usize;
        pos = pos.checked_add(cell).filter(|&end| end <= data.len())?;
        total += cell;
    }
    Some(total)
}

/// Deserializes a table produced by [`serialize_table`]; returns `None` on
/// malformed input (truncation, forged counts, invalid type tags) — it never
/// panics or over-allocates.
pub fn deserialize_table(data: &[u8]) -> Option<Table> {
    let mut pos = 0usize;
    let n_fields = read_u32(data, &mut pos)? as usize;
    let mut fields = reserved(n_fields, data, pos);
    for _ in 0..n_fields {
        let name = read_str(data, &mut pos)?;
        let ty = type_of_tag(*data.get(pos)?)?;
        pos += 1;
        fields.push((name, ty));
    }
    let schema = Schema::new(fields);
    let n_partitions = read_u32(data, &mut pos)? as usize;
    let mut partitions = reserved(n_partitions, data, pos);
    for _ in 0..n_partitions {
        let start_row = read_u64(data, &mut pos)?;
        let mut columns = Vec::with_capacity(schema.fields.len());
        for field in &schema.fields {
            let len = read_u32(data, &mut pos)? as usize;
            let column = match field.ty {
                ColumnType::UInt64 => ColumnData::UInt64(read_words(len, data, &mut pos)?.collect()),
                ColumnType::Int64 => ColumnData::Int64(read_words(len, data, &mut pos)?.map(|x| x as i64).collect()),
                ColumnType::Utf8 => {
                    let mut v = reserved(len, data, pos);
                    for _ in 0..len {
                        v.push(read_str(data, &mut pos)?);
                    }
                    ColumnData::Utf8(v)
                }
                ColumnType::Bytes => ColumnData::Bytes(read_bytes_column(len, data, &mut pos)?),
            };
            columns.push(column);
        }
        partitions.push(Partition { start_row, columns });
    }
    Some(Table { schema, partitions })
}

/// The `len` little-endian words stored at `pos`, after one extent check: a
/// forged count fails it having reserved nothing, and an honest column is
/// collected at its exact size.
fn read_words<'a>(len: usize, data: &'a [u8], pos: &mut usize) -> Option<impl ExactSizeIterator<Item = u64> + 'a> {
    let bytes = read_bytes(data, pos, len.checked_mul(8)?)?;
    Some(bytes.as_chunks::<8>().0.iter().map(|word| u64::from_le_bytes(*word)))
}

/// The `len` length-prefixed cells stored at `pos`: in bulk when they are all
/// one width (an ORE column), cell by cell otherwise.
fn read_bytes_column(len: usize, data: &[u8], pos: &mut usize) -> Option<BytesColumn> {
    read_uniform_cells(len, data, pos).or_else(|| read_cells(len, data, pos))
}

/// The `len` length-prefixed cells stored at `pos` as one column, if every
/// prefix is the same: the extent is checked, the prefixes compared in one
/// pass, and the cells copied into a buffer reserved once, at its size, then
/// behind the check. `None` — nothing read — for any other column, which
/// [`read_cells`] loads or rejects. No cells is the empty column.
fn read_uniform_cells(len: usize, data: &[u8], pos: &mut usize) -> Option<BytesColumn> {
    if len == 0 {
        return Some(BytesColumn::new());
    }
    let prefix = *data.get(*pos..)?.first_chunk::<4>()?;
    let width = u32::from_le_bytes(prefix) as usize;
    let stride = width.checked_add(4)?;
    let stored = data.get(*pos..pos.checked_add(len.checked_mul(stride)?)?)?;
    if !stored.chunks_exact(stride).all(|cell| cell[..4] == prefix) {
        return None;
    }
    let gather = |width: usize| {
        let mut cells = Vec::with_capacity(len * width);
        for cell in stored.chunks_exact(4 + width) {
            cells.extend_from_slice(&cell[4..]);
        }
        cells
    };
    // An ORE column's width, the one the bulk columns of a shard frame have,
    // as a constant: a cell's copy is then a few moves, not a `memcpy` call.
    let cells = if width == ORE_CELL_BYTES {
        gather(ORE_CELL_BYTES)
    } else {
        gather(width)
    };
    *pos += stored.len();
    Some(BytesColumn::uniform(width, len, cells))
}

/// The `len` length-prefixed cells stored at `pos`, cell by cell: the column's
/// buffer is sized by [`cells_extent`] before anything is reserved.
fn read_cells(len: usize, data: &[u8], pos: &mut usize) -> Option<BytesColumn> {
    let mut v = BytesColumn::with_capacity(cells_extent(len, data, *pos)?);
    for _ in 0..len {
        let cell = read_u32(data, pos)? as usize;
        v.push(read_bytes(data, pos, cell)?);
    }
    Some(v)
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The `len` bytes at `pos`, or `None` if they run past the end of `data`.
fn read_bytes<'a>(data: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let bytes = data.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(bytes)
}

fn read_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    Some(u32::from_le_bytes(*read_bytes(data, pos, 4)?.first_chunk()?))
}

fn read_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    Some(u64::from_le_bytes(*read_bytes(data, pos, 8)?.first_chunk()?))
}

fn read_str(data: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_u32(data, pos)? as usize;
    String::from_utf8(read_bytes(data, pos, len)?.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnType, Schema};

    fn sample_table() -> Table {
        let schema = Schema::new([
            ("id".to_string(), ColumnType::UInt64),
            ("delta".to_string(), ColumnType::Int64),
            ("country".to_string(), ColumnType::Utf8),
            ("blob".to_string(), ColumnType::Bytes),
        ]);
        let rows = 500usize;
        Table::from_columns(
            schema,
            vec![
                ColumnData::UInt64((0..rows as u64).collect()),
                ColumnData::Int64((0..rows as i64).map(|i| i - 250).collect()),
                ColumnData::Utf8((0..rows).map(|i| format!("C{}", i % 7)).collect()),
                ColumnData::Bytes((0..rows).map(|i| vec![i as u8; i % 5]).collect()),
            ],
            4,
        )
    }

    #[test]
    fn serialize_roundtrip() {
        let t = sample_table();
        let data = serialize_table(&t);
        let back = deserialize_table(&data).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_data_rejected() {
        let t = sample_table();
        let data = serialize_table(&t);
        assert!(deserialize_table(&data[..data.len() / 2]).is_none());
        assert!(deserialize_table(&[]).is_none());
    }

    /// Every strict prefix of a serialized table must deserialize to `None`
    /// (all data is demanded by the leading counts, so truncation anywhere is
    /// detectable) — and must never panic.
    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let schema = Schema::new([
            ("u".to_string(), ColumnType::UInt64),
            ("i".to_string(), ColumnType::Int64),
            ("s".to_string(), ColumnType::Utf8),
            ("b".to_string(), ColumnType::Bytes),
        ]);
        let t = Table::from_columns(
            schema,
            vec![
                ColumnData::UInt64(vec![1, 2, 3, 4, 5, 6]),
                ColumnData::Int64(vec![-3, -2, -1, 0, 1, 2]),
                ColumnData::Utf8((0..6).map(|i| format!("s{i}")).collect()),
                ColumnData::Bytes((0..6usize).map(|i| vec![i as u8; i]).collect()),
            ],
            3,
        );
        let data = serialize_table(&t);
        assert_eq!(deserialize_table(&data), Some(t));
        for cut in 0..data.len() {
            assert!(
                deserialize_table(&data[..cut]).is_none(),
                "prefix of {cut}/{} bytes must be rejected",
                data.len()
            );
        }
    }

    /// A forged element count far beyond the payload must fail cleanly — in
    /// particular it must not pre-allocate gigabytes before the reads fail.
    #[test]
    fn forged_huge_length_prefix_is_rejected() {
        let t = sample_table();
        let mut data = serialize_table(&t);
        // The field count is the first u32; forge it to u32::MAX.
        data[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(deserialize_table(&data).is_none());
        // Forge a huge row count for the first partition's first column: it
        // sits right after the schema block and the partition start_row.
        let mut data = serialize_table(&t);
        let schema_end = {
            let mut pos = 4usize;
            for field in &t.schema.fields {
                pos += 4 + field.name.len() + 1;
            }
            pos + 4 + 8 // partition count + start_row
        };
        data[schema_end..schema_end + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(deserialize_table(&data).is_none());
    }

    /// The stored form of a `Bytes` column is the one the engine wrote when a
    /// column was a `Vec<Vec<u8>>`: a `u32` cell count, then a `u32` length and
    /// the bytes of each cell. Written out by hand here so the flat in-memory
    /// layout cannot move a stored byte.
    #[test]
    fn bytes_column_is_stored_as_length_prefixed_cells() {
        let ragged: Vec<Vec<u8>> = vec![vec![7, 8, 9], vec![], vec![1], vec![0xFF; 5]];
        // Three cells at the ORE stride: 16 bytes, four two-bit symbols each.
        let ore: Vec<Vec<u8>> = (0..3u8)
            .map(|row| {
                (0..16u8)
                    .map(|i| [0b00_01_10_00, 0b10_00_01_01, 0b01_10_10_00][usize::from((i + row) % 3)])
                    .collect()
            })
            .collect();
        let table = Table {
            schema: Schema::new([
                ("r".to_string(), ColumnType::Bytes),
                ("o".to_string(), ColumnType::Bytes),
            ]),
            partitions: vec![
                Partition {
                    start_row: 0,
                    columns: vec![
                        ColumnData::Bytes(ragged.iter().collect()),
                        ColumnData::Bytes(ore.iter().chain(&ragged[..1]).collect()),
                    ],
                },
                Partition {
                    start_row: 4,
                    columns: vec![
                        ColumnData::Bytes(BytesColumn::new()),
                        ColumnData::Bytes(BytesColumn::new()),
                    ],
                },
            ],
        };

        let mut expected = Vec::new();
        expected.extend_from_slice(&2u32.to_le_bytes());
        for name in ["r", "o"] {
            expected.extend_from_slice(&1u32.to_le_bytes());
            expected.extend_from_slice(name.as_bytes());
            expected.push(3);
        }
        expected.extend_from_slice(&2u32.to_le_bytes());
        let cells = |expected: &mut Vec<u8>, cells: &[&Vec<u8>]| {
            expected.extend_from_slice(&(cells.len() as u32).to_le_bytes());
            for cell in cells {
                expected.extend_from_slice(&(cell.len() as u32).to_le_bytes());
                expected.extend_from_slice(cell);
            }
        };
        expected.extend_from_slice(&0u64.to_le_bytes());
        cells(&mut expected, &ragged.iter().collect::<Vec<_>>());
        cells(&mut expected, &ore.iter().chain(&ragged[..1]).collect::<Vec<_>>());
        expected.extend_from_slice(&4u64.to_le_bytes());
        cells(&mut expected, &[]);
        cells(&mut expected, &[]);

        let data = serialize_table(&table);
        assert_eq!(data, expected);
        assert_eq!(deserialize_table(&data), Some(table.clone()));
        let (r, o) = (&table.partitions[0].columns[0], &table.partitions[0].columns[1]);
        assert_eq!(column_disk_size(r), (4 + 3) + 4 + (4 + 1) + (4 + 5));
        assert_eq!(column_disk_size(o), 3 * (4 + 16) + (4 + 3));
        assert_eq!(column_disk_size(&table.partitions[1].columns[0]), 0);
        // A loaded column holds exactly its cells: nothing was over-reserved.
        let loaded = deserialize_table(&data).unwrap();
        assert_eq!(
            column_memory_size(&loaded.partitions[0].columns[1]),
            48 + (3 * 16 + 3) + 5 * std::mem::size_of::<usize>()
        );
        // The ORE cells alone are one width: no offsets term.
        let uniform = Table::from_columns(
            Schema::new([("o".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes(ore.iter().collect())],
            1,
        );
        let loaded = deserialize_table(&serialize_table(&uniform)).unwrap();
        assert_eq!(column_memory_size(&loaded.partitions[0].columns[0]), 48 + 3 * 16);
    }

    /// A table of the benchmark's shape — one public column, one DET tag, one
    /// ORE cell with its ASHE companion, two ASHE measures — stores 60 bytes a
    /// row: 4 + 16 for the ORE cell, 8 for each of the five words.
    #[test]
    fn a_benchmark_shaped_row_is_sixty_stored_bytes() {
        let rows = 1_000u64;
        let word = |salt: u64| {
            ColumnData::UInt64(
                (0..rows)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
                    .collect(),
            )
        };
        let ore = seabed_crypto::OreScheme::new(&[0x5e; 16]);
        let table = Table::from_columns(
            Schema::new([
                ("hour".to_string(), ColumnType::UInt64),
                ("tag__det".to_string(), ColumnType::UInt64),
                ("ts__ope".to_string(), ColumnType::Bytes),
                ("ts__ope_val".to_string(), ColumnType::UInt64),
                ("m0__ashe".to_string(), ColumnType::UInt64),
                ("m1__ashe".to_string(), ColumnType::UInt64),
            ]),
            vec![
                ColumnData::UInt64((0..rows).map(|i| i % 24).collect()),
                word(1),
                ColumnData::Bytes((0..rows).map(|i| ore.encrypt(i * 977 % (1 << 20)).symbols).collect()),
                word(2),
                word(3),
                word(4),
            ],
            8,
        );
        assert_eq!(table_disk_size(&table), rows as usize * 60);
        assert_eq!(deserialize_table(&serialize_table(&table)), Some(table));
    }

    /// A forged cell count or cell length on a `Bytes` column is found by
    /// walking the length prefixes, before either buffer is reserved.
    #[test]
    fn forged_bytes_cells_are_rejected_before_reserving() {
        let table = Table::from_columns(
            Schema::new([("b".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes(BytesColumn::from_iter([[1u8, 2], [3, 4], [5, 6]]))],
            1,
        );
        let honest = serialize_table(&table);
        // fields: count(4) + name len(4) + "b" + tag(1); partitions: count(4)
        // + start_row(8); then the cell count and the first cell's length.
        let count_at = 4 + 4 + 1 + 1 + 4 + 8;
        assert_eq!(honest[count_at..count_at + 8], [3, 0, 0, 0, 2, 0, 0, 0]);
        let cells_at = count_at + 4;
        assert_eq!(cells_extent(3, &honest, cells_at), Some(6));
        assert_eq!(
            6 + 3 * 4,
            honest.len() - cells_at,
            "with their prefixes, exactly the bytes unread"
        );

        for forged_count in [4u32, 1 << 20, u32::MAX] {
            let mut data = honest.clone();
            data[count_at..count_at + 4].copy_from_slice(&forged_count.to_le_bytes());
            assert_eq!(cells_extent(forged_count as usize, &data, cells_at), None);
            assert_eq!(deserialize_table(&data), None);
        }
        for forged_len in [7u32, 1 << 30, u32::MAX] {
            let mut data = honest.clone();
            data[cells_at..cells_at + 4].copy_from_slice(&forged_len.to_le_bytes());
            assert_eq!(cells_extent(3, &data, cells_at), None);
            assert_eq!(deserialize_table(&data), None);
        }
    }

    /// A one-`Bytes`-column table of `rows` 16-byte cells, and where its cells
    /// start in the stored form (behind the cell count).
    fn ore_shaped(rows: u8) -> (Table, usize) {
        let table = Table::from_columns(
            Schema::new([("o".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes((0..rows).map(|i| [i; 16]).collect())],
            1,
        );
        // fields: count(4) + name len(4) + "o" + tag(1); partitions: count(4)
        // + start_row(8); then the cell count.
        (table, 4 + 4 + 1 + 1 + 4 + 8 + 4)
    }

    /// One forged length prefix — first, middle or last — takes a 16-byte
    /// column off the one-width path, and what it then loads (or refuses) is
    /// what the cell-by-cell decoder makes of the same bytes, up to where it
    /// stops reading.
    #[test]
    fn a_forged_prefix_falls_back_to_the_cell_by_cell_load() {
        let (table, cells_at) = ore_shaped(40);
        let honest = serialize_table(&table);
        let mut pos = cells_at;
        let bulk = read_uniform_cells(40, &honest, &mut pos).expect("one width");
        assert_eq!(pos, honest.len());
        assert_eq!(bulk.fixed_cells::<16>().map(<[_]>::len), Some(40));
        let mut fallbacks = 0;
        for row in [0, 20, 39] {
            for forged in [0u32, 1, 15, 17, 20, 36, u32::MAX] {
                let mut data = honest.clone();
                let at = cells_at + row * 20;
                data[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                let mut untouched = cells_at;
                assert_eq!(
                    read_uniform_cells(40, &data, &mut untouched),
                    None,
                    "row {row}, {forged}"
                );
                assert_eq!(untouched, cells_at, "nothing read");
                let (mut loaded_at, mut oracle_at) = (cells_at, cells_at);
                let loaded = read_bytes_column(40, &data, &mut loaded_at);
                let oracle = read_cells(40, &data, &mut oracle_at);
                assert_eq!(loaded, oracle, "row {row}, prefix {forged}");
                assert_eq!(loaded_at, oracle_at, "row {row}, prefix {forged}");
                fallbacks += usize::from(loaded.is_some());
            }
        }
        assert!(fallbacks > 0, "some forgeries still parse, as ragged columns");
    }

    /// Every strict prefix of a table whose `Bytes` columns take the one-width
    /// path is refused, as the cell-by-cell path refuses them.
    #[test]
    fn every_truncation_of_a_uniform_ore_table_is_rejected() {
        let ore = seabed_crypto::OreScheme::new(&[0x0e; 16]);
        let rows = 6u64;
        let table = Table::from_columns(
            Schema::new([
                ("ts__ope".to_string(), ColumnType::Bytes),
                ("w".to_string(), ColumnType::UInt64),
                ("d".to_string(), ColumnType::Int64),
                ("zero".to_string(), ColumnType::Bytes),
            ]),
            vec![
                ColumnData::Bytes((0..rows).map(|i| ore.encrypt(i * 977).symbols).collect()),
                ColumnData::UInt64((0..rows).map(|i| i << 40).collect()),
                ColumnData::Int64((0..rows as i64).map(|i| -i).collect()),
                ColumnData::Bytes((0..rows).map(|_| []).collect::<BytesColumn>()),
            ],
            3,
        );
        let data = serialize_table(&table);
        assert_eq!(data.len(), serialized_len(&table));
        assert_eq!(deserialize_table(&data), Some(table));
        for cut in 0..data.len() {
            assert!(
                deserialize_table(&data[..cut]).is_none(),
                "prefix of {cut}/{} bytes",
                data.len()
            );
        }
    }

    /// An empty `Bytes` column loads as the column `BytesColumn::new()` is —
    /// width 0, no cells — whatever bytes follow its count; a column of
    /// zero-width cells loads as pushing them builds it.
    #[test]
    fn an_empty_bytes_column_loads_in_the_canonical_empty_layout() {
        let empty = || ColumnData::Bytes(BytesColumn::new());
        let table = Table {
            schema: Schema::new([
                ("a".to_string(), ColumnType::Bytes),
                ("b".to_string(), ColumnType::Bytes),
            ]),
            partitions: vec![
                Partition {
                    start_row: 0,
                    columns: vec![
                        ColumnData::Bytes([[0u8; 0]; 2].iter().collect()),
                        ColumnData::Bytes([[0xee_u8; 16]; 2].iter().collect()),
                    ],
                },
                // The second count is followed by the next partition's
                // `start_row`, 2: read as a cell width it would be one.
                Partition {
                    start_row: 2,
                    columns: vec![empty(), empty()],
                },
                Partition {
                    start_row: 2,
                    columns: vec![
                        ColumnData::Bytes([[0u8; 0]; 1].iter().collect()),
                        ColumnData::Bytes([[0xdd_u8; 16]; 1].iter().collect()),
                    ],
                },
                // Nothing follows these counts.
                Partition {
                    start_row: 3,
                    columns: vec![empty(), empty()],
                },
            ],
        };
        let loaded = deserialize_table(&serialize_table(&table)).expect("loads");
        assert_eq!(loaded, table);
        for partition in [1, 3] {
            for column in &loaded.partitions[partition].columns {
                let column = column.bytes_column().expect("bytes");
                assert_eq!(column, &BytesColumn::new());
                assert_eq!(column.uniform_cells(), Some((0, &[][..])));
            }
        }
        let zero_width = loaded.partitions[0].columns[0].bytes_column().expect("bytes");
        assert_eq!((zero_width.len(), zero_width.uniform_cells()), (2, Some((0, &[][..]))));
    }

    #[test]
    fn invalid_type_tag_is_rejected() {
        let t = sample_table();
        let mut data = serialize_table(&t);
        // First field: count(4) + name length prefix(4) + "id"(2) -> tag at 10.
        assert_eq!(data[10], 0, "expected the UInt64 tag for column id");
        data[10] = 9;
        assert!(deserialize_table(&data).is_none());
    }

    #[test]
    fn disk_size_matches_serialized_size_order() {
        let t = sample_table();
        let disk = table_disk_size(&t);
        let actual = serialize_table(&t).len();
        // The estimate ignores the schema header and per-partition framing, so
        // it should be close to but not larger than the actual file plus a
        // small constant.
        assert!(disk <= actual);
        assert!(actual < disk + 1024);
    }

    #[test]
    fn memory_size_exceeds_disk_size() {
        let t = sample_table();
        assert!(table_memory_size(&t) >= table_disk_size(&t));
    }

    #[test]
    fn wider_columns_cost_more() {
        let rows = 1000usize;
        let narrow = Table::from_columns(
            Schema::new([("v".to_string(), ColumnType::UInt64)]),
            vec![ColumnData::UInt64(vec![0; rows])],
            1,
        );
        let wide = Table::from_columns(
            Schema::new([("v".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes(BytesColumn::from_iter(vec![vec![0u8; 256]; rows]))],
            1,
        );
        // 256-byte Paillier ciphertexts cost ~32x more than 8-byte words.
        assert!(table_disk_size(&wide) > 30 * table_disk_size(&narrow));
    }
}
