//! Synthetic microbenchmark datasets (§6.1).
//!
//! The paper's microbenchmarks use a synthetic table with one integer measure
//! (plus the implicit ID column for ASHE), 250 million to 1.75 billion rows,
//! and a selectivity parameter that picks rows uniformly at random. This
//! module generates the same structure at a configurable scale; the benchmark
//! harness scales row counts down by a constant factor and records the factor
//! as `scale.row_divisor` in every artifact (`crates/bench/paper/`).

use rand::Rng;

/// A synthetic microbenchmark dataset.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The measure column values.
    pub values: Vec<u64>,
    /// An optional group-by column (used by the Figure 9a experiment).
    pub groups: Option<Vec<u64>>,
    /// An optional second integer column filtered with OPE (Figure 8c).
    pub ope_values: Option<Vec<u64>>,
}

impl SyntheticDataset {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.values.len()
    }
}

/// Generates the plain aggregation dataset: `rows` integer values.
pub fn aggregation_dataset<R: Rng + ?Sized>(rng: &mut R, rows: usize) -> SyntheticDataset {
    SyntheticDataset {
        values: (0..rows).map(|_| rng.random_range(0..1_000_000u64)).collect(),
        groups: None,
        ope_values: None,
    }
}

/// Generates the group-by dataset of §6.5: a measure plus a group column with
/// `num_groups` distinct values.
pub fn group_by_dataset<R: Rng + ?Sized>(rng: &mut R, rows: usize, num_groups: u64) -> SyntheticDataset {
    SyntheticDataset {
        values: (0..rows).map(|_| rng.random_range(0..1_000_000u64)).collect(),
        groups: Some((0..rows).map(|_| rng.random_range(0..num_groups.max(1))).collect()),
        ope_values: None,
    }
}

/// Generates the OPE-selection dataset of §6.4: a measure plus an integer
/// column used in range predicates.
pub fn ope_dataset<R: Rng + ?Sized>(rng: &mut R, rows: usize) -> SyntheticDataset {
    SyntheticDataset {
        values: (0..rows).map(|_| rng.random_range(0..1_000_000u64)).collect(),
        groups: None,
        ope_values: Some((0..rows).map(|_| rng.random_range(0..u32::MAX as u64)).collect()),
    }
}

/// The row counts (in millions) swept by Figure 6, before scaling.
pub const FIG6_ROWS_MILLIONS: [u64; 4] = [250, 750, 1250, 1750];

/// The worker counts swept by Figure 7.
pub const FIG7_WORKERS: [usize; 5] = [10, 25, 50, 75, 100];

/// The selectivities swept by Figure 8.
pub const FIG8_SELECTIVITIES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The group counts swept by Figure 9a.
pub const FIG9A_GROUPS: [u64; 4] = [10, 100, 10_000, 1_000_000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_dataset_shape() {
        let ds = aggregation_dataset(&mut rand::rng(), 1000);
        assert_eq!(ds.rows(), 1000);
        assert!(ds.groups.is_none());
        assert!(ds.values.iter().all(|&v| v < 1_000_000));
    }

    #[test]
    fn group_by_dataset_has_requested_cardinality() {
        let ds = group_by_dataset(&mut rand::rng(), 10_000, 16);
        let groups = ds.groups.unwrap();
        assert!(groups.iter().all(|&g| g < 16));
        let distinct: std::collections::HashSet<u64> = groups.into_iter().collect();
        assert_eq!(distinct.len(), 16, "all groups should be populated at this size");
    }

    #[test]
    fn ope_dataset_has_companion_column() {
        let ds = ope_dataset(&mut rand::rng(), 500);
        assert_eq!(ds.ope_values.unwrap().len(), 500);
    }
}
