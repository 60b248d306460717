//! # seabed-workloads
//!
//! Dataset and query-workload generators for reproducing the Seabed paper's
//! evaluation (§5–§6):
//!
//! * [`synthetic`] — the microbenchmark datasets and parameter sweeps behind
//!   Figures 6–9a (row counts, worker counts, selectivities, group counts);
//! * [`bdb`] — the AmpLab Big Data Benchmark tables and the ten queries of
//!   Figure 9b/c, with the paper's simplifications;
//! * [`ad_analytics`] — a synthetic stand-in for the production Ad-Analytics
//!   dataset (33 dimensions, 18 measures, Zipf-skewed cardinalities) and its
//!   hour-of-day query log (Figure 10, Table 4);
//! * [`classify`] — the query-support classifier behind Table 4 and the full
//!   MDX function matrix of Table 6.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ad_analytics;
pub mod bdb;
pub mod classify;
pub mod synthetic;

pub use classify::{classify_query, classify_set, classify_sql, CategoryCounts, MdxFunction};
pub use synthetic::SyntheticDataset;

#[cfg(test)]
mod tests {
    #[test]
    fn dataset_types_compose_with_core() {
        let ds = seabed_core::PlainDataset::new("t").with_uint_column("x", vec![1, 2, 3]);
        assert_eq!(ds.num_rows(), 3);
    }
}
