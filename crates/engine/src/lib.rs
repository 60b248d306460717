//! # seabed-engine
//!
//! A partitioned, columnar, multi-worker in-memory analytics engine — the
//! substrate Seabed runs on in this reproduction, standing in for the Apache
//! Spark + HDFS deployment of the original prototype.
//!
//! The engine deliberately models only what Seabed's evaluation depends on:
//!
//! * [`table`] — columnar tables split into partitions whose rows carry
//!   consecutive global identifiers (ASHE's telescoping decryption needs
//!   exactly this property);
//! * [`cluster`] — parallel execution of one closure per partition on local
//!   threads, with a measured wall time (the paper's 100-core cluster is
//!   modelled by the harness, not here);
//! * [`exec`] — vectorized execution primitives: selection vectors, batched
//!   filter kernels, the group-by kernel ([`GroupIndex`], [`group_rows`]),
//!   and the [`ExecMode`] knob that switches the
//!   scan between the row-at-a-time reference path and the column-at-a-time
//!   fast path;
//! * [`merge`] — the partial-aggregate merge algebra (ASHE partial sums,
//!   ID-list unions, MIN/MAX ORE candidates) shared by the in-process driver
//!   merge and the `seabed-dist` coordinator gather, so the two can never
//!   diverge;
//! * [`storage`] — the on-disk / in-memory footprint model of Table 5.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod exec;
pub mod merge;
pub mod storage;
pub mod table;

pub use cluster::{Cluster, ClusterConfig, ExecStats};
pub use exec::{
    group_rows, merge_operator_profiles, ExecMode, GroupIndex, GroupedRows, OperatorProfile, ProfileSink,
    SelectionVector,
};
pub use merge::{
    fold_flat_partials, merge_partial_groups, ExtremeCandidate, FlatPartial, PartialAggregate, PartialGroup,
    PartialGroups,
};
pub use storage::{table_disk_size, table_memory_size};
pub use table::{BytesColumn, ColumnData, ColumnType, Field, Partition, Schema, Table};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn partitioning_never_loses_rows(rows in 0usize..2_000, partitions in 1usize..32) {
            let schema = Schema::new([("v".to_string(), ColumnType::UInt64)]);
            let data: Vec<u64> = (0..rows as u64).collect();
            let t = Table::from_columns(schema, vec![ColumnData::UInt64(data.clone())], partitions);
            prop_assert_eq!(t.num_rows(), rows);
            prop_assert_eq!(t.gather_u64("v").unwrap(), data);
        }

        #[test]
        fn distributed_sum_equals_sequential_sum(rows in 0usize..5_000, partitions in 1usize..16, threads in 1usize..8) {
            let schema = Schema::new([("v".to_string(), ColumnType::UInt64)]);
            let data: Vec<u64> = (0..rows as u64).map(|i| i % 997).collect();
            let expected: u64 = data.iter().sum();
            let t = Table::from_columns(schema, vec![ColumnData::UInt64(data)], partitions);
            let cluster = Cluster::new(ClusterConfig::default().local_threads(threads));
            let (parts, _) = cluster.run(&t, |p| p.column(0).as_u64().iter().sum::<u64>());
            prop_assert_eq!(parts.iter().sum::<u64>(), expected);
            prop_assert_eq!(parts.len(), t.num_partitions());
        }
    }
}
