//! Bulk encryption and decryption of measure columns.
//!
//! Seabed's encryption module uploads whole columns at a time and §4.3 calls
//! out two client-side optimisations: packing several pseudo-random values
//! into one AES operation (handled inside [`AsheScheme::mask`]) and running
//! encryption across multiple threads. Only the first is done here: the
//! batched run kernel already keeps one core's AES units busy.

use crate::scheme::{AsheCiphertext, AsheScheme};

/// A column of ASHE-encrypted values with consecutive identifiers
/// `[start_id, start_id + len)`. This is the layout the engine stores: one
/// `u64` ciphertext word per row plus the implicit identifier.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EncryptedColumn {
    /// First row identifier.
    pub start_id: u64,
    /// Masked values, one per row.
    pub values: Vec<u64>,
}

impl EncryptedColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The identifier of row `index` (identifiers wrap, like the run
    /// encryption that produced the column).
    pub fn id_of(&self, index: usize) -> u64 {
        self.start_id.wrapping_add(index as u64)
    }

    /// Reconstructs the full ciphertext of a single row.
    pub fn ciphertext_at(&self, index: usize) -> AsheCiphertext {
        AsheCiphertext {
            value: self.values[index],
            ids: crate::idset::IdSet::single(self.id_of(index)),
        }
    }
}

/// Encrypts a column of plaintext values with consecutive identifiers starting
/// at `start_id` on a single thread, through the batched run kernel
/// ([`AsheScheme::encrypt_run_into`]): one amortised keystream expansion
/// written straight into the column's words, instead of two AES dispatches
/// per row.
pub fn encrypt_column(scheme: &AsheScheme, values: &[u64], start_id: u64) -> EncryptedColumn {
    let mut out = vec![0u64; values.len()];
    scheme.encrypt_run_into(values, start_id, &mut out);
    EncryptedColumn { start_id, values: out }
}

/// Per-row scalar reference for [`encrypt_column`], kept as the differential
/// oracle the batched path is pinned against.
pub fn encrypt_column_scalar(scheme: &AsheScheme, values: &[u64], start_id: u64) -> EncryptedColumn {
    let mut out = Vec::with_capacity(values.len());
    for (offset, &m) in values.iter().enumerate() {
        out.push(scheme.encrypt(m, start_id.wrapping_add(offset as u64)).value);
    }
    EncryptedColumn { start_id, values: out }
}

/// Decrypts a whole encrypted column back to plaintext (used by tests and by
/// the proxy when a query projects raw measure values).
pub fn decrypt_column(scheme: &AsheScheme, column: &EncryptedColumn) -> Vec<u64> {
    column
        .values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            scheme.decrypt(&AsheCiphertext {
                value: v,
                ids: crate::idset::IdSet::single(column.id_of(i)),
            })
        })
        .collect()
}

/// Server-side aggregation over an encrypted column: sums the rows whose
/// zero-based index satisfies `select`, producing a single ciphertext. This is
/// the inner loop every Seabed worker runs, and it needs no key.
pub fn aggregate_where<F: Fn(usize) -> bool>(column: &EncryptedColumn, select: F) -> AsheCiphertext {
    let mut value_acc: u64 = 0;
    let mut ids = crate::idset::IdSet::new();
    for (i, &v) in column.values.iter().enumerate() {
        if select(i) {
            value_acc = value_acc.wrapping_add(v);
            ids.push_ordered(column.id_of(i));
        }
    }
    AsheCiphertext { value: value_acc, ids }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> AsheScheme {
        AsheScheme::new(&[42u8; 16])
    }

    #[test]
    fn column_roundtrip() {
        let s = scheme();
        let values: Vec<u64> = (0..500).map(|i| i * 17 + 3).collect();
        let col = encrypt_column(&s, &values, 1000);
        assert_eq!(decrypt_column(&s, &col), values);
    }

    #[test]
    fn batched_column_matches_scalar_reference() {
        let s = scheme();
        for (start, len) in [(0u64, 0usize), (0, 1), (7, 3), (1000, 257)] {
            let values: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x1234_5678_9abc_def1)).collect();
            assert_eq!(
                encrypt_column(&s, &values, start),
                encrypt_column_scalar(&s, &values, start),
                "start={start} len={len}"
            );
        }
    }

    #[test]
    fn aggregate_full_column() {
        let s = scheme();
        let values: Vec<u64> = (0..2000).collect();
        let col = encrypt_column(&s, &values, 0);
        let agg = aggregate_where(&col, |_| true);
        assert_eq!(agg.ids.run_count(), 1);
        assert_eq!(s.decrypt(&agg), values.iter().sum::<u64>());
    }

    #[test]
    fn aggregate_with_predicate() {
        let s = scheme();
        let values: Vec<u64> = (0..2000).collect();
        let col = encrypt_column(&s, &values, 500);
        let agg = aggregate_where(&col, |i| i % 2 == 0);
        let expected: u64 = values
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(s.decrypt(&agg), expected);
        assert_eq!(agg.row_count(), 1000);
    }

    #[test]
    fn aggregate_empty_selection_is_zero() {
        let s = scheme();
        let col = encrypt_column(&s, &[5, 6, 7], 0);
        let agg = aggregate_where(&col, |_| false);
        assert_eq!(s.decrypt(&agg), 0);
        assert!(agg.ids.is_empty());
    }

    #[test]
    fn ciphertext_at_matches_direct_encryption() {
        let s = scheme();
        let col = encrypt_column(&s, &[10, 20, 30], 100);
        assert_eq!(col.ciphertext_at(1), s.encrypt(20, 101));
        assert_eq!(col.id_of(2), 102);
    }

    #[test]
    fn partial_sums_from_two_partitions_combine() {
        // Mirrors the worker/driver split: each partition aggregates its own
        // rows, the driver ⊕-combines the partials.
        let s = scheme();
        let values: Vec<u64> = (0..1000).map(|i| i + 1).collect();
        let col_a = encrypt_column(&s, &values[..600], 0);
        let col_b = encrypt_column(&s, &values[600..], 600);
        let part_a = aggregate_where(&col_a, |_| true);
        let part_b = aggregate_where(&col_b, |_| true);
        let total = s.add(&part_a, &part_b);
        assert_eq!(total.ids.run_count(), 1, "adjacent partitions merge into one run");
        assert_eq!(s.decrypt(&total), values.iter().sum::<u64>());
    }
}
