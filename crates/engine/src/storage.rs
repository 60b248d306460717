//! Storage accounting: the footprint model of Table 5.
//!
//! Table 5 of the paper reports, for every dataset, the on-disk and in-memory
//! footprint of the plaintext (NoEnc), Seabed and Paillier representations.
//! [`table_disk_size`] models the disk size the way the prototype's
//! Protobuf-in-HDFS files hold a table — fixed-width words, and a 4-byte
//! length before each variable-width value. It is a model, not the bytes a
//! table ships in: those are `seabed-net`'s, which write a column of one
//! cell width with no per-cell length. The in-memory size is estimated from
//! the actual heap layout of the columnar representation, which carries
//! per-`Vec` overheads the way Spark's JVM objects do (at a smaller
//! constant).

use crate::table::{ColumnData, Partition, Table};

/// Modelled on-disk size of a column, in bytes: a flat layout of fixed-width
/// values and length-prefixed variable-width values.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{BytesColumn, ColumnType, Schema};

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

    /// A `Bytes` cell is modelled at four bytes of length plus its bytes,
    /// whatever layout the column has in memory; in memory a column of one
    /// cell width holds no offsets.
    #[test]
    fn bytes_columns_cost_their_cells_and_a_length_each() {
        let ragged: BytesColumn = [&[7u8, 8, 9][..], &[], &[1], &[0xFF; 5]].into_iter().collect();
        assert_eq!(
            column_disk_size(&ColumnData::Bytes(ragged)),
            (4 + 3) + 4 + (4 + 1) + (4 + 5)
        );
        let ore = BytesColumn::uniform(16, 3, vec![0xee; 3 * 16]);
        let ore = ColumnData::Bytes(ore);
        assert_eq!(column_disk_size(&ore), 3 * (4 + 16));
        assert_eq!(column_memory_size(&ore), 48 + 3 * 16);
        assert_eq!(column_disk_size(&ColumnData::Bytes(BytesColumn::new())), 0);
    }

    /// A table of the benchmark's shape — one public column, one DET tag, one
    /// ORE cell with its ASHE companion, two ASHE measures — is modelled at
    /// 60 bytes a row: 4 + 16 for the ORE cell, 8 for each of the five words.
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
