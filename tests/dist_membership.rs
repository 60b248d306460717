//! Elastic membership tests for `seabed-dist`: workers joining a live
//! cluster (epoch-fenced rebalancing moves only shards whose replica set
//! changed), workers leaving (replica slots re-homed onto survivors), and
//! the safety rails — a shard never loses its last copy, and every query
//! before, during, and after a membership change stays byte-identical to
//! single-server execution.

use seabed_core::{QueryTarget, SeabedServer, ServerResponse};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::ServiceConfig;
use seabed_query::{ServerAggregate, SupportCategory, TranslatedQuery};
use std::net::SocketAddr;

fn test_table(rows: u64, partitions: usize) -> Table {
    Table::from_columns(
        Schema::new([
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("g".to_string(), ColumnType::UInt64),
        ]),
        vec![
            ColumnData::UInt64((0..rows).map(|i| i * 3 + 1).collect()),
            ColumnData::UInt64((0..rows).map(|i| i % 7).collect()),
        ],
        partitions,
    )
}

fn sum_query(group_by: bool) -> TranslatedQuery {
    TranslatedQuery {
        base_table: "t".to_string(),
        filters: vec![],
        aggregates: vec![
            ServerAggregate::AsheSum {
                column: "m__ashe".to_string(),
            },
            ServerAggregate::CountRows,
        ],
        group_by: if group_by {
            vec![seabed_query::GroupByColumn {
                column: "g".to_string(),
                physical_column: "g".to_string(),
                encrypted: false,
            }]
        } else {
            vec![]
        },
        group_inflation: 1,
        client_post: vec![],
        preserve_row_ids: true,
        category: SupportCategory::ServerOnly,
        params: vec![],
    }
}

fn local_answer(table: &Table, query: &TranslatedQuery) -> ServerResponse {
    SeabedServer::new(table.clone(), Cluster::new(ClusterConfig::default()))
        .execute(query, &[])
        .expect("local execution")
}

/// A joining worker is rebalanced onto: it receives replica slots moved off
/// the most-loaded donors (load-then-unload, nothing else touched), the
/// cache fencing epoch is bumped so pre-join partials never answer again,
/// and queries before and after the join are byte-identical.
#[test]
fn joining_worker_takes_replica_slots_and_answers_identically() {
    let table = test_table(2_000, 8);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);

    let mut workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");

    let before = coordinator.execute_query(&query, &[]).expect("pre-join query");
    assert_eq!(expected.groups, before.groups);
    assert_eq!(expected.result_bytes(), before.result_bytes());
    let cache_epoch_before = coordinator.cache_epoch();

    // A fourth worker joins the live cluster.
    workers.push(spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("joiner"));
    let joiner = coordinator
        .join_worker(workers.last().expect("joiner").local_addr())
        .expect("join");
    assert_eq!(joiner, 3, "worker indices are stable; the joiner appends");

    let summaries = coordinator.worker_summaries();
    assert_eq!(summaries.len(), 4);
    assert!(
        !summaries[joiner].shards.is_empty(),
        "the joiner must have been rebalanced onto: {summaries:?}"
    );
    // Rebalancing moved slots, it did not duplicate them: the total replica
    // slot count is unchanged (3 shards × R=2).
    let total_slots: usize = summaries.iter().map(|s| s.shards.len()).sum();
    assert_eq!(total_slots, 6, "{summaries:?}");
    assert!(
        coordinator.cache_epoch() > cache_epoch_before,
        "a membership change must fence the partial cache"
    );

    let after = coordinator.execute_query(&query, &[]).expect("post-join query");
    assert_eq!(expected.groups, after.groups);
    assert_eq!(expected.result_bytes(), after.result_bytes());
    for w in workers {
        w.shutdown();
    }
}

/// A leaving worker's replica slots are re-homed onto the least-loaded
/// survivors *before* its connection drops: every shard keeps R live
/// copies, the leaver is retired in place (never selected again), the cache
/// is fenced, and queries stay byte-identical. Leaving twice is idempotent.
#[test]
fn leaving_worker_rehomes_replicas_and_stays_identical() {
    let table = test_table(2_000, 8);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);

    let workers: Vec<_> = (0..4)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");

    let before = coordinator.execute_query(&query, &[]).expect("pre-leave query");
    assert_eq!(expected.groups, before.groups);
    let cache_epoch_before = coordinator.cache_epoch();

    coordinator.leave_worker(1).expect("leave");
    let summaries = coordinator.worker_summaries();
    assert!(!summaries[1].alive, "the leaver must be retired");
    assert!(
        summaries[1].shards.is_empty(),
        "no replica set may still name the leaver: {summaries:?}"
    );
    // Every shard kept its full replica set: 4 shards × R=2 slots, all on
    // the three survivors.
    let total_slots: usize = summaries.iter().map(|s| s.shards.len()).sum();
    assert_eq!(total_slots, 8, "{summaries:?}");
    assert!(coordinator.cache_epoch() > cache_epoch_before);

    let after = coordinator.execute_query(&query, &[]).expect("post-leave query");
    assert_eq!(expected.groups, after.groups);
    assert_eq!(expected.result_bytes(), after.result_bytes());

    // Idempotent: leaving an already-departed worker is a no-op.
    coordinator.leave_worker(1).expect("second leave is a no-op");

    for w in workers {
        w.shutdown();
    }
}

/// The safety rail: a worker holding a shard's only copy cannot leave when
/// no other live worker could take a replacement — the call fails with a
/// typed error and the membership (and queries) are unchanged.
#[test]
fn sole_replica_holder_cannot_leave() {
    let table = test_table(800, 4);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);

    let worker = spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker");
    let config = DistConfig::default().replication(1);
    let coordinator =
        DistCoordinator::connect_tables(&[worker.local_addr()], vec![("t".into(), table)], config).expect("connect");

    let shards_of = |coordinator: &DistCoordinator| -> Vec<Vec<(u32, u32)>> {
        let summaries = coordinator.worker_summaries();
        summaries.into_iter().map(|w| w.shards).collect()
    };
    let held_before = shards_of(&coordinator);
    assert_eq!(held_before[0].len(), 1, "one worker, one shard: {held_before:?}");

    let outcome = coordinator.leave_worker(0);
    assert!(matches!(outcome, Err(SeabedError::Dist { .. })), "{outcome:?}");
    assert!(
        coordinator.worker_summaries()[0].alive,
        "a refused departure must leave the worker in service"
    );
    assert_eq!(
        shards_of(&coordinator),
        held_before,
        "a refused departure must leave the placement as it was"
    );
    let response = coordinator
        .execute_query(&query, &[])
        .expect("query after refused leave");
    assert_eq!(expected.groups, response.groups);
    worker.shutdown();
}
