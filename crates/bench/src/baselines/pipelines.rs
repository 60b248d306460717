//! The plaintext reference and the paper's selectivity rule.
//!
//! * **NoEnc** ([`NoEncSystem`]) — plain Spark over plaintext data, as a
//!   light-weight direct API over the engine's [`Cluster::run`]: the
//!   reference `baseline_equivalence` and `differential_exec` check against.
//!   The figures' NoEnc is the product under an all-public twin plan
//!   instead, and the figures' Paillier is a cost model
//!   ([`super::paillier::PaillierCost`]), not a pipeline.
//! * **Selectivity** — [`row_selected`], the paper's random selection of
//!   rows, and [`selection_key`], the same rule stored as a column.

use seabed_engine::{Cluster, ColumnData, ColumnType, Schema, Table};
use std::collections::HashMap;

/// Deterministic pseudo-random row selection: row `row_id` is selected with
/// probability `selectivity`, independent of partitioning. This reproduces the
/// paper's selectivity parameter ("choose each row randomly with the
/// corresponding probability", §6.1).
pub fn row_selected(row_id: u64, selectivity: f64) -> bool {
    if selectivity >= 1.0 {
        return true;
    }
    if selectivity <= 0.0 {
        return false;
    }
    row_hash(row_id) < selectivity
}

/// The resolution of [`selection_key`]: a power of two, so that scaling by it
/// is exact and `selection_key(row) < k` holds exactly when
/// `row_selected(row, k / SELECTION_SCALE)` does.
pub const SELECTION_SCALE: u64 = 1 << 20;

/// [`row_selected`]'s rule as a column value: the product's figures store it
/// as a public column `p`, and `WHERE p < k` selects the rows the baselines
/// select at selectivity `k / SELECTION_SCALE`.
pub fn selection_key(row_id: u64) -> u64 {
    (row_hash(row_id) * SELECTION_SCALE as f64) as u64
}

/// `row_id` hashed into [0, 1] (SplitMix64's finalizer, a cheap hash).
fn row_hash(row_id: u64) -> f64 {
    let mut z = row_id.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    z as f64 / u64::MAX as f64
}

/// Result of a baseline aggregation.
#[derive(Clone, Copy, Debug)]
pub struct BaselineResult {
    /// The plaintext sum.
    pub sum: u64,
    /// Number of rows aggregated.
    pub rows: u64,
}

/// The unencrypted baseline ("NoEnc").
pub struct NoEncSystem {
    table: Table,
    cluster: Cluster,
    measure_index: usize,
    group_index: Option<usize>,
}

impl NoEncSystem {
    /// Builds the baseline from a single plaintext measure column and an
    /// optional grouping column.
    pub fn new(values: &[u64], group_keys: Option<&[u64]>, partitions: usize) -> NoEncSystem {
        let mut fields = vec![("value".to_string(), ColumnType::UInt64)];
        let mut columns = vec![ColumnData::UInt64(values.to_vec())];
        if let Some(keys) = group_keys {
            assert_eq!(keys.len(), values.len());
            fields.push(("grp".to_string(), ColumnType::UInt64));
            columns.push(ColumnData::UInt64(keys.to_vec()));
        }
        let table = Table::from_columns(Schema::new(fields), columns, partitions);
        NoEncSystem {
            table,
            cluster: Cluster::default(),
            measure_index: 0,
            group_index: group_keys.map(|_| 1),
        }
    }

    /// Sums the rows selected by `selectivity`.
    pub fn sum(&self, selectivity: f64) -> BaselineResult {
        let measure = self.measure_index;
        let (partials, _) = self.cluster.run(&self.table, |p| {
            let col = p.column(measure).as_u64();
            let mut sum = 0u64;
            let mut rows = 0u64;
            for (i, &v) in col.iter().enumerate() {
                if row_selected(p.row_id(i), selectivity) {
                    sum = sum.wrapping_add(v);
                    rows += 1;
                }
            }
            (sum, rows)
        });
        BaselineResult {
            sum: partials.iter().fold(0u64, |a, (s, _)| a.wrapping_add(*s)),
            rows: partials.iter().map(|(_, r)| r).sum(),
        }
    }

    /// Group-by sum over the grouping column, and the number of rows
    /// aggregated.
    pub fn group_by_sum(&self, selectivity: f64) -> (HashMap<u64, u64>, u64) {
        let measure = self.measure_index;
        let group = self.group_index.expect("no group column configured");
        let (partials, _) = self.cluster.run(&self.table, |p| {
            let values = p.column(measure).as_u64();
            let keys = p.column(group).as_u64();
            let mut map: HashMap<u64, u64> = HashMap::new();
            let mut rows = 0u64;
            for i in 0..values.len() {
                if row_selected(p.row_id(i), selectivity) {
                    *map.entry(keys[i]).or_insert(0) += values[i];
                    rows += 1;
                }
            }
            (map, rows)
        });
        let mut merged: HashMap<u64, u64> = HashMap::new();
        let mut rows = 0;
        for (partial, selected) in partials {
            rows += selected;
            for (k, v) in partial {
                *merged.entry(k).or_insert(0) += v;
            }
        }
        (merged, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: u64) -> Vec<u64> {
        (0..n).map(|i| i % 1000).collect()
    }

    #[test]
    fn selectivity_is_deterministic_and_roughly_uniform() {
        let hits = (0..10_000u64).filter(|&i| row_selected(i, 0.5)).count();
        assert!(hits > 4_500 && hits < 5_500, "got {hits}");
        assert_eq!(
            (0..100u64).map(|i| row_selected(i, 0.3)).collect::<Vec<_>>(),
            (0..100u64).map(|i| row_selected(i, 0.3)).collect::<Vec<_>>()
        );
        assert!(row_selected(42, 1.0));
        assert!(!row_selected(42, 0.0));
    }

    #[test]
    fn noenc_sum_matches_plain_iteration() {
        let vals = values(5000);
        let system = NoEncSystem::new(&vals, None, 4);
        let full = system.sum(1.0);
        assert_eq!(full.sum, vals.iter().sum::<u64>());
        assert_eq!(full.rows, 5000);
        let half = system.sum(0.5);
        let expected: u64 = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| row_selected(*i as u64, 0.5))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(half.sum, expected);
    }

    #[test]
    fn noenc_group_by_matches() {
        let vals = values(1000);
        let groups: Vec<u64> = (0..1000u64).map(|i| i % 7).collect();
        let system = NoEncSystem::new(&vals, Some(&groups), 4);
        let (result, rows) = system.group_by_sum(1.0);
        assert_eq!(rows, 1000);
        assert_eq!(result.len(), 7);
        for (k, sum) in &result {
            let expected: u64 = vals.iter().zip(&groups).filter(|(_, g)| *g == k).map(|(v, _)| v).sum();
            assert_eq!(*sum, expected);
        }
    }
}
