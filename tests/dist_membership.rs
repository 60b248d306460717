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
use seabed_net::wire::{self, Frame};
use seabed_net::{FrameConn, Received, ServiceConfig, Wait};
use seabed_query::{ServerAggregate, SupportCategory, TranslatedQuery};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A fake joiner that holds back the acknowledgement of its first shard load
/// until `release` is set — or 2 s have passed — and raises `loading` while
/// it does; every other load or unload it acknowledges at once. It serves
/// one coordinator connection, until the coordinator hangs up.
fn held_back_joiner(loading: Arc<AtomicBool>, release: Arc<AtomicBool>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FrameConn::from_stream(stream, Duration::from_secs(10)).expect("wrap");
        let max = wire::DEFAULT_MAX_FRAME_LEN;
        let (mut first_load, mut remaining) = (true, 0);
        let never = AtomicBool::new(false);
        let wait = || Wait::Serve {
            stop: &never,
            budget: Duration::from_secs(10),
        };
        while let Ok(Received::Frame(frame)) = conn.recv(max, wait()) {
            let reply = match frame {
                Frame::WorkerHandshake { epoch } => Frame::WorkerReady { epoch, shards: 0 },
                Frame::LoadShard {
                    epoch,
                    table_id,
                    shard,
                    table,
                    ..
                } => {
                    if std::mem::take(&mut first_load) {
                        loading.store(true, Ordering::SeqCst);
                        let patience = Instant::now() + Duration::from_secs(2);
                        while !release.load(Ordering::SeqCst) && Instant::now() < patience {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                    remaining += 1;
                    let rows = table.num_rows() as u64;
                    Frame::ShardLoaded {
                        epoch,
                        table_id,
                        shard,
                        rows,
                    }
                }
                Frame::UnloadShard { epoch, table_id, shard } => {
                    remaining -= 1;
                    Frame::ShardUnloaded {
                        epoch,
                        table_id,
                        shard,
                        remaining,
                    }
                }
                other => panic!("the joiner was not asked for {other:?}"),
            };
            conn.send(&reply, max).expect("reply");
        }
    });
    (addr, handle)
}

/// Regression: a join and a leave each planned on a copy of the placement
/// and stored it back, so the one that committed last overwrote the other's
/// plan. Here a join plans, then stalls in its shard load until a leave of
/// worker 0 would have committed; storing the join's copy afterwards put the
/// leaver back into a replica set it had been re-homed out of. Membership
/// changes now run one at a time: the leave plans on the committed join.
#[test]
fn a_join_and_a_leave_never_overwrite_each_others_plan() {
    let workers: Vec<_> = (0..4)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    // Two shards at R = 2 over four workers: {0, 1} and {1, 2}; worker 3 idles.
    let table = vec![("t".into(), test_table(800, 2))];
    let coordinator = DistCoordinator::connect_tables(&addrs, table, DistConfig::default()).expect("connect");
    let (loading, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let (joiner, fake) = held_back_joiner(loading.clone(), release.clone());

    std::thread::scope(|scope| {
        let join = scope.spawn(|| coordinator.join_worker(joiner));
        let patience = Instant::now() + Duration::from_secs(10);
        while !loading.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < patience,
                "the join never loaded a shard onto the joiner"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        coordinator.leave_worker(0).expect("leave");
        release.store(true, Ordering::SeqCst);
        assert_eq!(join.join().expect("join thread").expect("join"), 4);
    });

    let summaries = coordinator.worker_summaries();
    assert!(
        !summaries[0].alive && summaries[0].shards.is_empty(),
        "the leaver is back in a replica set: {summaries:?}"
    );
    for shard in [(0, 0), (0, 1)] {
        let holders = summaries.iter().filter(|w| w.alive && w.shards.contains(&shard));
        assert_eq!(holders.count(), 2, "{shard:?} lost a live copy: {summaries:?}");
    }
    drop(coordinator);
    fake.join().expect("fake joiner");
    for w in workers {
        w.shutdown();
    }
}

/// What a fake joiner was asked to load and to unload, as (table, shard).
#[derive(Debug, Default)]
struct JoinerLog {
    loaded: Vec<(u32, u32)>,
    unloaded: Vec<(u32, u32)>,
}

/// A fake joiner that acknowledges its first shard load and refuses every
/// later one with a well-framed error, acknowledging every unload. It serves
/// one coordinator connection, until the coordinator hangs up, and hands
/// back what it was asked.
fn refusing_joiner() -> (SocketAddr, std::thread::JoinHandle<JoinerLog>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FrameConn::from_stream(stream, Duration::from_secs(10)).expect("wrap");
        let max = wire::DEFAULT_MAX_FRAME_LEN;
        let mut log = JoinerLog::default();
        let never = AtomicBool::new(false);
        let wait = || Wait::Serve {
            stop: &never,
            budget: Duration::from_secs(10),
        };
        while let Ok(Received::Frame(frame)) = conn.recv(max, wait()) {
            let reply = match frame {
                Frame::WorkerHandshake { epoch } => Frame::WorkerReady { epoch, shards: 0 },
                Frame::LoadShard {
                    epoch,
                    table_id,
                    shard,
                    table,
                    ..
                } if log.loaded.is_empty() => {
                    log.loaded.push((table_id, shard));
                    let rows = table.num_rows() as u64;
                    Frame::ShardLoaded {
                        epoch,
                        table_id,
                        shard,
                        rows,
                    }
                }
                Frame::LoadShard { .. } => Frame::Error(SeabedError::dist("joiner", "load refused")),
                Frame::UnloadShard { epoch, table_id, shard } => {
                    log.unloaded.push((table_id, shard));
                    Frame::ShardUnloaded {
                        epoch,
                        table_id,
                        shard,
                        remaining: 0,
                    }
                }
                other => panic!("the joiner was not asked for {other:?}"),
            };
            conn.send(&reply, max).expect("reply");
        }
        log
    });
    (addr, handle)
}

/// Regression: a join appended its joiner to the pool before its shard
/// loads, so a refused load left a live slot that held no shard — the next
/// join got the slot after it — and the shard it had already loaded stayed
/// loaded. A failed join now undoes its loads, drops the connection and
/// publishes nothing.
#[test]
fn a_failed_join_leaves_the_membership_as_it_was() {
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    // Three shards at R = 3 over three workers: nine slots, so a fourth
    // worker is due two of them, and the second load is refused.
    let table = vec![("t".into(), test_table(900, 3))];
    let config = DistConfig::default().replication(3);
    let coordinator = DistCoordinator::connect_tables(&addrs, table, config).expect("connect");
    let before = format!("{:?}", coordinator.worker_summaries());
    let (joiner, fake) = refusing_joiner();

    let outcome = coordinator.join_worker(joiner);
    assert!(matches!(outcome, Err(SeabedError::Dist { .. })), "{outcome:?}");
    assert_eq!(coordinator.num_workers(), 3);
    let summaries = coordinator.worker_summaries();
    assert_eq!(format!("{summaries:?}"), before, "a failed join changed the membership");
    let live = summaries.iter().filter(|w| w.alive).count() as u64;
    let gauge = coordinator.registry().snapshot().gauge("dist_live_workers");
    assert_eq!(gauge, Some(live));

    // The connection is dropped, so the fake's loop ends.
    let log = fake.join().expect("fake joiner");
    assert_eq!(log.loaded.len(), 1, "{log:?}");
    assert_eq!(
        log.unloaded, log.loaded,
        "the accepted shard was never unloaded: {log:?}"
    );
    for w in workers {
        w.shutdown();
    }
}

/// Regression: joining a worker that was already a live slot succeeded, the
/// new slot took shards from donors that were the same process, and the
/// donors' unloads dropped that process's only copy, so the next query
/// re-dispatched. Such a join is now refused, naming the address.
#[test]
fn a_live_worker_cannot_join_twice() {
    let table = test_table(900, 3);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");
    let before = format!("{:?}", coordinator.worker_summaries());

    match coordinator.join_worker(addrs[0]) {
        Err(SeabedError::Dist { worker, .. }) => assert_eq!(worker, addrs[0].to_string()),
        other => panic!("a second join of a live worker went through: {other:?}"),
    }
    assert_eq!(format!("{:?}", coordinator.worker_summaries()), before);

    let response = coordinator.execute_query(&query, &[]).expect("query");
    assert_eq!(expected.groups, response.groups);
    let report = coordinator.last_report();
    assert!(
        report.runs.iter().all(|run| !run.redispatched),
        "a shard lost its copy: {report:?}"
    );
    for w in workers {
        w.shutdown();
    }
}

/// The membership lock is the only one a join holds across its loads:
/// while a joiner holds back its first load, a query answers and the health
/// read returns, each well within the joiner's patience.
#[test]
fn a_membership_change_never_stalls_queries_or_health_reads() {
    let table = test_table(800, 2);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);
    let workers: Vec<_> = (0..4)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");
    let (loading, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let (joiner, fake) = held_back_joiner(loading.clone(), release.clone());

    std::thread::scope(|scope| {
        let join = scope.spawn(|| coordinator.join_worker(joiner));
        let patience = Instant::now() + Duration::from_secs(10);
        while !loading.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < patience,
                "the join never loaded a shard onto the joiner"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        let response = coordinator.execute_query(&query, &[]).expect("query during a join");
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(expected.groups, response.groups);
        assert_eq!(expected.result_bytes(), response.result_bytes());
        let started = Instant::now();
        assert_eq!(coordinator.worker_summaries().len(), 4);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "{:?}",
            started.elapsed()
        );
        release.store(true, Ordering::SeqCst);
        assert_eq!(join.join().expect("join thread").expect("join"), 4);
    });

    drop(coordinator);
    fake.join().expect("fake joiner");
    for w in workers {
        w.shutdown();
    }
}
