//! Failure-mode tests for the `seabed-dist` coordinator: worker death and
//! stalls mid-query (hedged re-dispatch), garbage and truncated
//! partial-response frames (typed errors, coordinator survives), and
//! duplicate / late partial responses (discarded, never merged twice).

use seabed_core::{QueryTarget, SeabedServer, ServerResponse};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame};
use seabed_net::{FrameConn, Received, ServiceConfig, Wait};
use seabed_query::{ServerAggregate, SupportCategory, TranslatedQuery};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

// ---------------------------------------------------------------------------
// A scriptable fake worker: speaks the genuine protocol (handshake, shard
// load, shard execution via the real engine) except where its misbehavior
// says otherwise.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Misbehavior {
    /// Close the connection the moment a shard query arrives (worker death).
    DieOnQuery,
    /// Go silent on a shard query (stall past the coordinator's timeout).
    StallOnQuery,
    /// Answer a shard query with raw garbage bytes (stream desync).
    GarbageOnQuery,
    /// Answer with a frame header whose payload never fully arrives.
    TruncateOnQuery,
    /// Answer correctly, but first ship a duplicate partial under a stale
    /// sequence number.
    DuplicateStaleThenCorrect,
    /// Answer with a well-framed partial whose groups carry fewer aggregates
    /// than the query requested (a forged/buggy shape).
    ForgedShortPartial,
    /// Answer with a well-framed partial of the right shape whose ID list
    /// is forged as the [`IdForgery`] says.
    ForgedIds(IdForgery),
    /// Answer correctly but trickle the frame one byte at a time, each byte
    /// well inside a per-chunk timeout — only a *total* round-trip budget
    /// catches this.
    TrickleOnQuery,
    /// Answer the first shard query correctly but far too late (slower than
    /// the hedge trigger, faster than the stall timeout), then answer every
    /// later query promptly. The late reply is a hedge *loser*: a
    /// valid-looking partial under a stale sequence number.
    SlowPartialOnce,
    /// No misbehavior: answer every shard query correctly and promptly.
    Honest,
    /// Answer correctly, but only once the shared recorder holds two shard
    /// queries — the other worker's has arrived too — or after 5 s.
    AwaitPeer,
}

/// How [`Misbehavior::ForgedIds`] forges the ID list of an honest partial
/// over the rows {1–3, 10–12}, which travels as `RangesVbDiff`'s tag 0, the
/// length 4, then the gaps and spans `1, 2, 7, 2`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum IdForgery {
    /// Gap 0 before the second run: it starts at 3, inside the first — the
    /// only way a differential list can step backwards.
    Overlapping,
    /// A container tag no table lists.
    BadTag,
    /// A `SpanBitmap` from 1 of 20 bits, with a body of two bytes, not three.
    ShortBitmap,
}

impl IdForgery {
    const HONEST: [u8; 6] = [0, 4, 1, 2, 7, 2];

    fn bytes(self) -> [u8; 6] {
        match self {
            IdForgery::Overlapping => [0, 4, 1, 2, 0, 2],
            IdForgery::BadTag => [9, 4, 1, 2, 7, 2],
            IdForgery::ShortBitmap => [2, 4, 1, 20, 0xff, 0xff],
        }
    }
}

/// Every `ShardQuery.seq` a fake worker's connection delivered, in order.
type SeenSeqs = Arc<Mutex<Vec<u64>>>;

const MAX: u32 = wire::DEFAULT_MAX_FRAME_LEN;

/// The next frame the coordinator sends; `None` once it hangs up (or the
/// stream ends any other way).
fn next_frame(conn: &mut FrameConn) -> Option<Frame> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let wait = Wait::Serve {
        stop: &NEVER,
        budget: Duration::from_secs(10),
    };
    match conn.recv(MAX, wait) {
        Ok(Received::Frame(frame)) => Some(frame),
        _ => None,
    }
}

/// Spawns the fake worker; it serves exactly one coordinator connection.
fn fake_worker(behavior: Misbehavior) -> (SocketAddr, std::thread::JoinHandle<()>) {
    recording_fake_worker(behavior, SeenSeqs::default())
}

/// [`fake_worker`], noting every shard query's sequence number in `seen`.
fn recording_fake_worker(behavior: Misbehavior, seen: SeenSeqs) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        // Well-formed frames go through `conn`; the misbehaviors write raw
        // bytes to `stream`, the same socket.
        let mut conn =
            FrameConn::from_stream(stream.try_clone().expect("clone"), Duration::from_secs(10)).expect("wrap");
        let mut shards: HashMap<u32, SeabedServer> = HashMap::new();
        let mut first_query = true;
        while let Some(frame) = next_frame(&mut conn) {
            if let Frame::ShardQuery { seq, .. } = &frame {
                seen.lock().expect("recorder").push(*seq);
            }
            match frame {
                Frame::WorkerHandshake { epoch } => {
                    let _ = conn.send(&Frame::WorkerReady { epoch, shards: 0 }, MAX);
                }
                Frame::LoadShard {
                    epoch,
                    table_id,
                    shard,
                    table,
                    ..
                } => {
                    let rows = table.num_rows() as u64;
                    shards.insert(
                        shard,
                        SeabedServer::new(table, Cluster::new(ClusterConfig::default().local_threads(1))),
                    );
                    let _ = conn.send(
                        &Frame::ShardLoaded {
                            epoch,
                            table_id,
                            shard,
                            rows,
                        },
                        MAX,
                    );
                }
                Frame::ShardQuery {
                    epoch,
                    table_id,
                    shard,
                    seq,
                    query,
                    filters,
                    ..
                } => match behavior {
                    Misbehavior::DieOnQuery => return,
                    Misbehavior::StallOnQuery => {
                        std::thread::sleep(Duration::from_secs(3));
                        return;
                    }
                    Misbehavior::GarbageOnQuery => {
                        let _ = stream.write_all(b"NOT A SEABED FRAME AT ALL \xff\xff\xff\xff");
                        return;
                    }
                    Misbehavior::TruncateOnQuery => {
                        // A plausible header promising 64 payload bytes,
                        // followed by silence and a close.
                        let mut bytes = Vec::new();
                        bytes.extend_from_slice(&wire::MAGIC);
                        bytes.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
                        bytes.push(11); // ShardPartial kind
                        bytes.extend_from_slice(&64u32.to_le_bytes());
                        bytes.extend_from_slice(&[0u8; 10]);
                        let _ = stream.write_all(&bytes);
                        return;
                    }
                    Misbehavior::ForgedShortPartial => {
                        let mut partial = shards
                            .get(&shard)
                            .expect("shard resident")
                            .execute_partial(&query, &filters)
                            .expect("shard execution");
                        for states in partial.groups.values_mut() {
                            states.aggregates.truncate(1);
                        }
                        let _ = conn.send(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq,
                                partial,
                            },
                            MAX,
                        );
                    }
                    Misbehavior::ForgedIds(forgery) => {
                        // An honest frame over the rows {1–3, 10–12}, then its
                        // ID list forged in the encoded bytes.
                        let mut groups = seabed_engine::merge::PartialGroups::new();
                        groups.insert(
                            Vec::new(),
                            seabed_engine::merge::PartialGroup {
                                ids: seabed_ashe::IdSet::from_sorted_ids(&[1, 2, 3, 10, 11, 12]),
                                aggregates: vec![
                                    seabed_engine::merge::PartialAggregate::Sum { value: 7 },
                                    seabed_engine::merge::PartialAggregate::Count,
                                ],
                            },
                        );
                        let stats = shards
                            .get(&shard)
                            .expect("shard resident")
                            .execute_partial(&query, &filters)
                            .expect("shard execution")
                            .stats;
                        let partial = seabed_core::PartialResponse { groups, stats };
                        let mut bytes = wire::encode_frame(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq,
                                partial,
                            },
                            MAX,
                        )
                        .expect("encode");
                        let honest = IdForgery::HONEST;
                        let at = bytes
                            .windows(honest.len())
                            .position(|window| window == honest)
                            .expect("the ID list is in the frame");
                        bytes[at..at + honest.len()].copy_from_slice(&forgery.bytes());
                        let _ = stream.write_all(&bytes);
                    }
                    Misbehavior::TrickleOnQuery => {
                        let partial = shards
                            .get(&shard)
                            .expect("shard resident")
                            .execute_partial(&query, &filters)
                            .expect("shard execution");
                        let bytes = wire::encode_frame(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq,
                                partial,
                            },
                            MAX,
                        )
                        .expect("encode");
                        // One byte per 60 ms: each chunk is comfortably
                        // inside a 400 ms per-chunk timeout, but the whole
                        // frame takes many seconds. A deadline-based budget
                        // must cut this off; the coordinator closing the
                        // connection errors the write and ends the trickle.
                        for byte in &bytes {
                            if stream.write_all(std::slice::from_ref(byte)).is_err() {
                                return;
                            }
                            let _ = stream.flush();
                            std::thread::sleep(Duration::from_millis(60));
                        }
                        return;
                    }
                    Misbehavior::SlowPartialOnce | Misbehavior::Honest | Misbehavior::AwaitPeer => {
                        if behavior == Misbehavior::SlowPartialOnce && first_query {
                            first_query = false;
                            std::thread::sleep(Duration::from_millis(700));
                        }
                        let patience = std::time::Instant::now() + Duration::from_secs(5);
                        while behavior == Misbehavior::AwaitPeer
                            && seen.lock().expect("recorder").len() < 2
                            && std::time::Instant::now() < patience
                        {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        let partial = shards
                            .get(&shard)
                            .expect("shard resident")
                            .execute_partial(&query, &filters)
                            .expect("shard execution");
                        let _ = conn.send(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq,
                                partial,
                            },
                            MAX,
                        );
                    }
                    Misbehavior::DuplicateStaleThenCorrect => {
                        let partial = shards
                            .get(&shard)
                            .expect("shard resident")
                            .execute_partial(&query, &filters)
                            .expect("shard execution");
                        // A duplicate under an older sequence number first —
                        // the coordinator must discard it, not merge twice.
                        let _ = conn.send(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq: seq.saturating_sub(1),
                                partial: partial.clone(),
                            },
                            MAX,
                        );
                        let _ = conn.send(
                            &Frame::ShardPartial {
                                epoch,
                                table_id,
                                shard,
                                seq,
                                partial,
                            },
                            MAX,
                        );
                    }
                },
                _ => return,
            }
        }
    });
    (addr, handle)
}

/// Connects a coordinator over a mix of real and fake workers.
fn mixed_cluster(
    real: usize,
    behavior: Misbehavior,
    table: Table,
    config: DistConfig,
) -> (Vec<seabed_net::NetServer>, std::thread::JoinHandle<()>, DistCoordinator) {
    let workers: Vec<_> = (0..real)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let (fake_addr, fake_handle) = fake_worker(behavior);
    let mut addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    // The fake sits in the middle so it owns a real shard.
    addrs.insert(real / 2, fake_addr);
    let coordinator = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], config).expect("connect");
    (workers, fake_handle, coordinator)
}

// ---------------------------------------------------------------------------
// Worker death and stalls
// ---------------------------------------------------------------------------

/// A worker that dies mid-query: its shard is re-dispatched to a survivor,
/// the query completes with the exact single-server answer, and the
/// coordinator stays alive for further queries.
#[test]
fn worker_death_mid_query_redispatches_and_completes() {
    let table = test_table(2_000, 8);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let (workers, fake, coordinator) = mixed_cluster(2, Misbehavior::DieOnQuery, table, DistConfig::default());

    let response = coordinator
        .execute_query(&query, &[])
        .expect("query must survive the death");
    assert_eq!(expected.groups, response.groups);
    assert_eq!(expected.result_bytes(), response.result_bytes());
    let report = coordinator.last_report();
    assert!(
        report.runs.iter().any(|r| r.redispatched),
        "a shard must have been re-dispatched: {report:?}"
    );
    assert!(
        coordinator.worker_summaries().iter().any(|w| !w.alive),
        "the dead worker must be marked"
    );

    // The coordinator survives and keeps answering (now without the corpse).
    let again = coordinator.execute_query(&query, &[]).expect("follow-up query");
    assert_eq!(expected.groups, again.groups);
    assert!(coordinator.last_report().runs.iter().all(|r| !r.redispatched));

    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// A real `NetServer` worker shut down between queries: the coordinator sees
/// the closed connections and re-dispatches its shards.
#[test]
fn real_worker_shutdown_between_queries_is_survived() {
    let table = test_table(1_000, 6);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);

    let mut workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");
    let first = coordinator.execute_query(&query, &[]).expect("healthy query");
    assert_eq!(expected.groups, first.groups);

    // Kill worker 1 for real.
    workers.remove(1).shutdown();
    let response = coordinator.execute_query(&query, &[]).expect("query after the kill");
    assert_eq!(expected.groups, response.groups);
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));
    for w in workers {
        w.shutdown();
    }
}

/// A worker that stalls mid-query past the coordinator's read timeout is
/// treated as dead: hedged re-dispatch completes the query correctly.
#[test]
fn stalled_worker_triggers_hedged_redispatch() {
    let table = test_table(1_200, 6);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default().read_timeout(Duration::from_millis(300));
    let (workers, fake, coordinator) = mixed_cluster(2, Misbehavior::StallOnQuery, table, config);

    let response = coordinator
        .execute_query(&query, &[])
        .expect("query must survive the stall");
    assert_eq!(expected.groups, response.groups);
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));

    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// Regression: "is worker w alive" used to take that worker's connection
/// mutex, so `worker_summaries()` — and every primary pick, hedge check and
/// gauge publish — issued while an exchange was stalled on one worker waited
/// out the rest of the stall (1.3 s of a 1.5 s read timeout). Liveness and
/// byte totals are now published by the exchange as it releases the
/// connection, and a health read touches no connection lock.
#[test]
fn health_reads_never_wait_behind_a_stalled_exchange() {
    let table = test_table(1_200, 6);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let stalled_saw = SeenSeqs::default();
    let (fake_addr, fake) = recording_fake_worker(Misbehavior::StallOnQuery, stalled_saw.clone());
    let addrs = [workers[0].local_addr(), fake_addr, workers[1].local_addr()];
    // Hedging off: the stalled primary is waited out for the whole budget.
    let read_timeout = Duration::from_millis(1_500);
    let config = DistConfig::default()
        .read_timeout(read_timeout)
        .hedge_after(read_timeout);
    let coordinator = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], config).expect("connect");

    std::thread::scope(|scope| {
        let querying = scope.spawn(|| coordinator.execute_query(&query, &[]));
        // Once the stalling worker has the shard query, the exchange that
        // sent it is in flight and holds that worker's connection.
        while stalled_saw.lock().expect("recorder").is_empty() {
            assert!(!querying.is_finished(), "the query never reached the stalling worker");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(200));
        let asked = std::time::Instant::now();
        let summaries = coordinator.worker_summaries();
        let waited = asked.elapsed();
        assert!(
            !querying.is_finished(),
            "the health read must overlap the stalled exchange"
        );
        assert_eq!(summaries.len(), 3, "{summaries:?}");
        assert!(
            waited < Duration::from_millis(500),
            "worker_summaries() waited {waited:?} behind a stalled exchange"
        );
        let response = querying
            .join()
            .expect("query thread")
            .expect("query must survive the stall");
        assert_eq!(expected.groups, response.groups);
    });
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));

    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Malformed partial-response frames
// ---------------------------------------------------------------------------

/// Garbage instead of a partial: a typed error internally, re-dispatch
/// externally — and with no survivors, a typed error to the caller while the
/// coordinator process stays up.
#[test]
fn garbage_partial_frames_are_survived_or_typed() {
    let table = test_table(900, 4);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);

    // With a survivor: correct result.
    let (workers, fake, coordinator) =
        mixed_cluster(1, Misbehavior::GarbageOnQuery, table.clone(), DistConfig::default());
    let response = coordinator
        .execute_query(&query, &[])
        .expect("survivor must carry the query");
    assert_eq!(expected.groups, response.groups);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }

    // Without survivors: a typed Dist error, not a panic — and the
    // coordinator remains usable as an object (every call answers).
    let (fake_addr, fake_handle) = fake_worker(Misbehavior::GarbageOnQuery);
    let coordinator = DistCoordinator::connect_tables(&[fake_addr], vec![("t".into(), table)], DistConfig::default())
        .expect("connect");
    let outcome = coordinator.execute_query(&query, &[]);
    assert!(matches!(outcome, Err(SeabedError::Dist { .. })), "{outcome:?}");
    let again = coordinator.execute_query(&query, &[]);
    assert!(matches!(again, Err(SeabedError::Dist { .. })), "{again:?}");
    fake_handle.join().expect("fake worker");
}

/// A truncated partial frame (valid header, missing payload bytes) is a
/// typed error and a re-dispatch, never a hang or a panic.
#[test]
fn truncated_partial_frames_are_survived() {
    let table = test_table(900, 4);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default().read_timeout(Duration::from_millis(500));
    let (workers, fake, coordinator) = mixed_cluster(1, Misbehavior::TruncateOnQuery, table, config);
    let response = coordinator
        .execute_query(&query, &[])
        .expect("survivor must carry the query");
    assert_eq!(expected.groups, response.groups);
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// A well-framed partial whose groups carry the wrong number of aggregates
/// is rejected by the coordinator's shape check (never zip-truncated into
/// the merge) and the shard is re-dispatched to a survivor.
#[test]
fn forged_short_partials_are_rejected_and_redispatched() {
    let table = test_table(1_000, 4);
    let query = sum_query(false); // two aggregates; the forger ships one
    let expected = local_answer(&table, &query);
    let (workers, fake, coordinator) = mixed_cluster(1, Misbehavior::ForgedShortPartial, table, DistConfig::default());
    let response = coordinator
        .execute_query(&query, &[])
        .expect("survivor must carry the query");
    assert_eq!(expected.groups, response.groups, "forged shape must never merge");
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));
    drop(coordinator);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// A well-framed partial whose ID list names rows twice, sits in a container
/// no table lists, or is a bitmap whose body is shorter than its span is
/// refused where it is decoded: the frame is undecodable, so the worker's
/// link is poisoned like any other that breaks the protocol and the shard is
/// re-dispatched. A list whose runs stepped backwards used to decode into a
/// non-canonical set that the merge folded in — a response with the forger's
/// sum and count and an ID list missing rows, no error — and that, folded in
/// another order, finalization would encode with `run.start - prev`: an
/// overflow panic on the coordinator's thread in a debug build.
#[test]
fn forged_unsorted_id_lists_are_refused_at_decode_and_redispatched() {
    let table = test_table(1_000, 4);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    for forgery in [IdForgery::Overlapping, IdForgery::BadTag, IdForgery::ShortBitmap] {
        let (workers, fake, coordinator) =
            mixed_cluster(1, Misbehavior::ForgedIds(forgery), table.clone(), DistConfig::default());
        let response = coordinator
            .execute_query(&query, &[])
            .expect("survivor must carry the query");
        assert_eq!(
            expected.groups, response.groups,
            "{forgery:?}: a forged ID list must never merge"
        );
        assert_eq!(expected.result_bytes(), response.result_bytes(), "{forgery:?}");
        assert!(
            coordinator.last_report().runs.iter().any(|r| r.redispatched),
            "{forgery:?}"
        );
        let forger = &coordinator.worker_summaries()[0];
        assert!(
            !forger.alive,
            "{forgery:?}: the forger's link must be poisoned: {forger:?}"
        );
        drop(coordinator);
        fake.join().expect("fake worker");
        for w in workers {
            w.shutdown();
        }

        // A one-worker cluster has nobody to re-dispatch to: a typed error, and
        // the coordinator goes on answering (typed) instead of having panicked.
        let (fake_addr, fake_handle) = fake_worker(Misbehavior::ForgedIds(forgery));
        let coordinator =
            DistCoordinator::connect_tables(&[fake_addr], vec![("t".into(), table.clone())], DistConfig::default())
                .expect("connect");
        let outcome = coordinator.execute_query(&query, &[]);
        assert!(
            matches!(outcome, Err(SeabedError::Dist { .. })),
            "{forgery:?}: {outcome:?}"
        );
        let again = coordinator.execute_query(&query, &[]);
        assert!(matches!(again, Err(SeabedError::Dist { .. })), "{forgery:?}: {again:?}");
        drop(coordinator);
        fake_handle.join().expect("fake worker");
    }
}

// ---------------------------------------------------------------------------
// Partial-cache invalidation under worker death
// ---------------------------------------------------------------------------

/// Worker death discovered mid-sweep bumps the cache epoch and fences every
/// pre-death cached partial: the next execute of a previously-warm statement
/// is fully cold (a stale partial can never merge into a post-recovery
/// response), re-merges only fresh partials, and matches the single-server
/// reference byte for byte — then re-warms under the new epoch.
#[test]
fn worker_death_mid_sweep_fences_cached_partials() {
    let table = test_table(2_000, 8);
    let stmt_a = sum_query(false);
    let stmt_b = sum_query(true);
    let expected_a = local_answer(&table, &stmt_a);
    let expected_b = local_answer(&table, &stmt_b);

    let mut workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], DistConfig::default()).expect("connect");

    // Populate statement A (cold), then confirm it answers warm.
    let first = coordinator.execute_prepared(&stmt_a, 1, &[]).expect("populate");
    assert_eq!(expected_a.groups, first.groups);
    let report = coordinator.last_report();
    assert!(report.cache_misses > 0 && report.cache_hits == 0, "{report:?}");
    let warm = coordinator.execute_prepared(&stmt_a, 1, &[]).expect("warm");
    assert_eq!(expected_a.groups, warm.groups);
    assert_eq!(expected_a.result_bytes(), warm.result_bytes());
    assert!(coordinator.last_report().cache_hits > 0);

    let epoch_before = coordinator.cache_epoch();
    assert!(coordinator.cache_len() > 0, "partials must be resident before the kill");

    // Kill a worker for real. The next sweep (statement B, nothing cached)
    // runs into the dead connections mid-scatter: re-dispatch completes the
    // query, and the discovery bumps the cache epoch and evicts stale
    // entries.
    workers.remove(1).shutdown();
    let b = coordinator
        .execute_prepared(&stmt_b, 2, &[])
        .expect("query after the kill");
    assert_eq!(expected_b.groups, b.groups);
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));
    assert!(
        coordinator.cache_epoch() > epoch_before,
        "worker death must bump the cache epoch"
    );
    assert!(
        coordinator.cache_stats().invalidated > 0,
        "the dead worker's cached partials must be evicted: {:?}",
        coordinator.cache_stats()
    );

    // Statement A again: every pre-death partial is fenced, so the execute
    // is fully cold and byte-identical to the reference.
    let recovered = coordinator.execute_prepared(&stmt_a, 1, &[]).expect("post-recovery");
    let report = coordinator.last_report();
    assert_eq!(
        report.cache_hits, 0,
        "a stale partial must never merge into a post-recovery response: {report:?}"
    );
    assert!(report.cache_misses > 0, "{report:?}");
    assert_eq!(expected_a.groups, recovered.groups);
    assert_eq!(expected_a.result_bytes(), recovered.result_bytes());

    // And the cache re-warms under the new epoch.
    let rewarmed = coordinator.execute_prepared(&stmt_a, 1, &[]).expect("re-warm");
    assert!(coordinator.last_report().cache_hits > 0);
    assert_eq!(expected_a.groups, rewarmed.groups);
    for w in workers {
        w.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Duplicate / late partials
// ---------------------------------------------------------------------------

/// A duplicated partial under a stale sequence number is discarded — the
/// result matches single-server execution exactly (merging the duplicate
/// would double the sums and ID sets) and the discard is counted.
#[test]
fn duplicate_stale_partials_are_discarded_not_merged() {
    let table = test_table(1_500, 6);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let (workers, fake, coordinator) =
        mixed_cluster(2, Misbehavior::DuplicateStaleThenCorrect, table, DistConfig::default());

    // Two queries: the fake duplicates on each, so by the second query the
    // stale seq of query 2 can also collide with in-flight expectations.
    for _ in 0..2 {
        let response = coordinator.execute_query(&query, &[]).expect("query");
        assert_eq!(expected.groups, response.groups, "duplicate partial must not be merged");
    }
    let report = coordinator.last_report();
    assert!(
        report.discarded_partials >= 1,
        "the stale duplicate must be counted as discarded: {report:?}"
    );
    // The fake worker keeps serving until its connection closes; dropping
    // the coordinator closes it, so the join below can complete.
    drop(coordinator);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Deadline budgets, hedging, and dead-worker re-dispatch
// ---------------------------------------------------------------------------

/// Regression: the coordinator used to apply `read_timeout` per `read_exact`
/// chunk, so a worker trickling one byte per interval evaded the stall guard
/// indefinitely and one query could hang for `timeout × frame bytes`. With a
/// deadline-based total budget, the trickler is cut off within one round-trip
/// budget, its shard is re-dispatched, and the answer stays byte-identical.
#[test]
fn trickled_partials_exhaust_the_total_budget_not_per_chunk() {
    let table = test_table(600, 4);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default().read_timeout(Duration::from_millis(400));
    let (workers, fake, coordinator) = mixed_cluster(2, Misbehavior::TrickleOnQuery, table, config);

    let started = std::time::Instant::now();
    let response = coordinator
        .execute_query(&query, &[])
        .expect("survivors must carry the query");
    let elapsed = started.elapsed();
    assert_eq!(expected.groups, response.groups);
    assert_eq!(expected.result_bytes(), response.result_bytes());
    // Pre-fix this took ~60 ms × frame length (tens of seconds); post-fix the
    // trickler burns one 400 ms budget plus a fast re-dispatch.
    assert!(
        elapsed < Duration::from_secs(4),
        "trickler evaded the round-trip stall budget: {elapsed:?}"
    );
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));

    drop(coordinator);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// A slow (not dead) primary is hedged against a replica: the replica's
/// answer wins, the slow worker's connection stays healthy, and the hedge
/// loser's late partial — a valid-looking frame under a stale sequence
/// number — is discarded by seq on the next round trip, never merged twice.
#[test]
fn hedged_reads_race_replicas_and_discard_the_loser_by_seq() {
    let table = test_table(1_500, 6);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default()
        .read_timeout(Duration::from_secs(5))
        .hedge_after(Duration::from_millis(150));
    let (workers, fake, coordinator) = mixed_cluster(2, Misbehavior::SlowPartialOnce, table, config);

    // First query: the fake sits on its shard for 700 ms, the coordinator
    // hedges at 150 ms, and a replica carries the shard.
    let response = coordinator.execute_query(&query, &[]).expect("hedged query");
    assert_eq!(expected.groups, response.groups);
    assert_eq!(expected.result_bytes(), response.result_bytes());
    let report = coordinator.last_report();
    assert!(
        report.hedged_reads >= 1,
        "the slow shard must have been hedged: {report:?}"
    );
    assert!(report.runs.iter().any(|r| r.hedged), "{report:?}");
    assert!(
        coordinator.worker_summaries().iter().all(|w| w.alive),
        "a merely-slow worker must not be poisoned: {:?}",
        coordinator.worker_summaries()
    );

    // Let the hedge loser's late partial land on the (healthy) connection.
    std::thread::sleep(Duration::from_millis(1_000));

    // Second query: the stale partial is drained and counted as discarded,
    // then the now-prompt worker answers — byte-identical again.
    let again = coordinator.execute_query(&query, &[]).expect("follow-up query");
    assert_eq!(expected.groups, again.groups);
    assert_eq!(expected.result_bytes(), again.result_bytes());
    let report = coordinator.last_report();
    assert!(
        report.discarded_partials >= 1,
        "the hedge loser must be discarded by seq, not merged: {report:?}"
    );
    assert!(coordinator.worker_summaries().iter().all(|w| w.alive));

    drop(coordinator);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// Regression: `query_shard_once` used to draw its sequence number *before*
/// taking the worker's link lock, so two threads could send on one link out
/// of seq order; the earlier-sent, higher-numbered request's hedge-abandoned
/// partial was then neither the echo of the later request nor below its
/// `stale_below`, and poisoned a healthy link. With a zero hedge trigger
/// (every primary abandoned) and concurrent callers, every link must see
/// strictly increasing sequence numbers and stay alive, and every answer
/// must be the single-server one.
///
/// Regression, same run: a query's hedge count used to be the before/after
/// delta of a process-wide counter, so every hedge was counted once by each
/// query in flight around it and `dist_hedged_reads` read ≈ 3 150 for the 800
/// hedges launched here. It is now the sum of the query's own lane tallies:
/// with a zero trigger every shard query is abandoned and hedged exactly
/// once, so the counter is half the `ShardQuery` frames the workers saw.
#[test]
fn concurrent_hedged_queries_send_increasing_seqs_on_every_link() {
    const CALLERS: usize = 4;
    const QUERIES_PER_CALLER: usize = 100;
    let table = test_table(1_200, 6);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);
    let seen = [SeenSeqs::default(), SeenSeqs::default()];
    let (addrs, fakes): (Vec<_>, Vec<_>) = seen
        .iter()
        .map(|seen| recording_fake_worker(Misbehavior::Honest, seen.clone()))
        .unzip();
    let config = DistConfig::default().hedge_after(Duration::ZERO);
    let coordinator = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], config).expect("connect");

    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..QUERIES_PER_CALLER {
                    let response = coordinator.execute_query(&query, &[]).expect("hedged query");
                    assert_eq!(expected.groups, response.groups);
                }
            });
        }
    });
    assert!(
        coordinator.worker_summaries().iter().all(|w| w.alive),
        "an abandoned partial poisoned a healthy link: {:?}",
        coordinator.worker_summaries()
    );
    let hedged_reads = coordinator.registry().snapshot().counter("dist_hedged_reads");

    drop(coordinator);
    let mut shard_queries = 0;
    for (fake, seen) in fakes.into_iter().zip(seen) {
        fake.join().expect("fake worker");
        let seqs = seen.lock().expect("recorder");
        shard_queries += seqs.len() as u64;
        assert!(
            seqs.len() >= CALLERS * QUERIES_PER_CALLER,
            "{} queries seen",
            seqs.len()
        );
        let out_of_order = seqs.windows(2).find(|pair| pair[0] >= pair[1]);
        assert_eq!(out_of_order, None, "a link saw sequence numbers out of order");
    }
    // Two shards per query, each sent to its primary and once more as a hedge.
    assert_eq!(shard_queries, (4 * CALLERS * QUERIES_PER_CALLER) as u64);
    assert_eq!(
        hedged_reads,
        Some(shard_queries / 2),
        "hedges must be counted per query, not per window: the workers saw {shard_queries} shard queries"
    );
}

/// Regression: re-dispatch must never select a worker already marked dead,
/// and when no live replica or worker remains it must surface a typed
/// `SeabedError::Dist` promptly — not hang re-probing corpses.
#[test]
fn redispatch_with_no_live_worker_is_a_typed_error_not_a_hang() {
    let table = test_table(600, 4);
    let query = sum_query(false);
    let (f1, h1) = fake_worker(Misbehavior::DieOnQuery);
    let (f2, h2) = fake_worker(Misbehavior::DieOnQuery);
    let config = DistConfig::default().read_timeout(Duration::from_millis(500));
    let coordinator = DistCoordinator::connect_tables(&[f1, f2], vec![("t".into(), table)], config).expect("connect");

    let started = std::time::Instant::now();
    let outcome = coordinator.execute_query(&query, &[]);
    assert!(matches!(outcome, Err(SeabedError::Dist { .. })), "{outcome:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "exhausted re-dispatch must fail fast: {:?}",
        started.elapsed()
    );
    assert!(coordinator.worker_summaries().iter().all(|w| !w.alive));

    // Every worker is known dead now: a further execute fails typed and
    // near-instantly, without a single new round trip to a corpse.
    let started = std::time::Instant::now();
    let again = coordinator.execute_query(&query, &[]);
    assert!(matches!(again, Err(SeabedError::Dist { .. })), "{again:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "dead workers must never be re-selected: {:?}",
        started.elapsed()
    );

    h1.join().expect("fake worker");
    h2.join().expect("fake worker");
}

/// Regression for the clock-derived epoch: two coordinators racing one
/// worker pool must claim it under *distinct* epochs, so the loser's shards
/// are evicted and its queries fail typed instead of silently reading the
/// winner's data (pre-fix, coordinators starting on the same clock reading
/// collided and shared an epoch).
#[test]
fn racing_coordinators_get_distinct_epochs_and_the_loser_fails_typed() {
    let table_a = test_table(800, 4);
    // Different data for B: a silent epoch collision would let A's queries
    // answer from B's shards with a plausible—but wrong—result.
    let table_b = Table::from_columns(
        Schema::new([
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("g".to_string(), ColumnType::UInt64),
        ]),
        vec![
            ColumnData::UInt64((0..800u64).map(|i| i * 11 + 5).collect()),
            ColumnData::UInt64((0..800u64).map(|i| i % 3).collect()),
        ],
        4,
    );
    let query = sum_query(false);
    let expected_b = local_answer(&table_b, &query);

    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker"))
        .collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let a = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table_a)], DistConfig::default())
        .expect("coordinator A");
    let b = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table_b)], DistConfig::default())
        .expect("coordinator B");
    assert_ne!(a.epoch(), b.epoch(), "racing coordinators must never share an epoch");

    // B claimed the pool last: it answers correctly.
    let rb = b.execute_query(&query, &[]).expect("the winning coordinator");
    assert_eq!(expected_b.groups, rb.groups);
    assert_eq!(expected_b.result_bytes(), rb.result_bytes());

    // A's epoch is fenced on every worker: a typed Dist error, never B's
    // data and never a hang.
    let ra = a.execute_query(&query, &[]);
    assert!(matches!(ra, Err(SeabedError::Dist { .. })), "{ra:?}");

    // And B keeps working afterwards.
    let rb = b.execute_query(&query, &[]).expect("the winner is unaffected");
    assert_eq!(expected_b.groups, rb.groups);
    for w in workers {
        w.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The scatter on the calling thread
// ---------------------------------------------------------------------------

/// The scatter spawns no thread, yet its lanes overlap: each of two workers
/// withholds its partial until the other has received its shard query, so a
/// scatter that sent and received one lane at a time would sit out the 2 s
/// hedge trigger (or the 5 s budget) on the first. Every shard query is
/// written before any reply is read: no hedge, no re-dispatch.
#[test]
fn lanes_overlap_without_a_thread() {
    let table = test_table(1_200, 4);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);
    let seen = SeenSeqs::default();
    let (addrs, fakes): (Vec<_>, Vec<_>) = (0..2)
        .map(|_| recording_fake_worker(Misbehavior::AwaitPeer, seen.clone()))
        .unzip();
    let config = DistConfig::default().read_timeout(Duration::from_secs(5));
    let coordinator = DistCoordinator::connect_tables(&addrs, vec![("t".into(), table)], config).expect("connect");

    let started = std::time::Instant::now();
    let response = coordinator.execute_query(&query, &[]).expect("query");
    let elapsed = started.elapsed();
    assert_eq!(expected.groups, response.groups);
    assert_eq!(expected.result_bytes(), response.result_bytes());
    let report = coordinator.last_report();
    assert_eq!(report.hedged_reads, 0, "{report:?}");
    assert_eq!(report.runs.len(), 2, "{report:?}");
    assert!(report.runs.iter().all(|r| !r.redispatched && !r.hedged), "{report:?}");
    assert!(
        elapsed < Duration::from_secs(2),
        "the lanes ran one after the other: {elapsed:?}"
    );
    assert_eq!(seen.lock().expect("recorder").len(), 2);

    drop(coordinator);
    for fake in fakes {
        fake.join().expect("fake worker");
    }
}

/// Hedges run only after the round has released its links, and a hedge often
/// targets a worker whose link this same query held a moment before: the
/// stalled primary's replica is the next lane's primary. With a 150 ms
/// trigger the stalled shard — and any lane read after the trigger passed —
/// is hedged, the answer is byte-identical, and no shard is hedged twice.
#[test]
fn a_hedge_after_the_round_reaches_a_link_the_query_held() {
    let table = test_table(1_500, 6);
    let query = sum_query(false);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default().hedge_after(Duration::from_millis(150));
    let (workers, fake, coordinator) = mixed_cluster(2, Misbehavior::StallOnQuery, table, config);

    let response = coordinator.execute_query(&query, &[]).expect("hedged query");
    assert_eq!(expected.groups, response.groups);
    assert_eq!(expected.result_bytes(), response.result_bytes());
    let report = coordinator.last_report();
    let lanes = 3;
    assert!(
        (1..=lanes).contains(&report.hedged_reads),
        "the stalled shard is hedged, no shard twice: {report:?}"
    );
    assert!(report.runs.iter().any(|r| r.hedged), "{report:?}");
    assert!(report.runs.iter().all(|r| !r.redispatched), "{report:?}");

    drop(coordinator);
    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}

/// Without a hedge, running out of budget condemns the worker, so a lane's
/// budget must be its own: a healthy worker whose reply waited behind a
/// stalled lane's receive is read, not poisoned. With one replica there is
/// nothing to hedge against; the stalled worker alone is condemned, its shard
/// is re-loaded onto the survivor, and the survivor — now primary of both
/// shards, one lane asked in two rounds — answers the next query alone.
#[test]
fn an_unhedged_stall_condemns_only_the_stalled_worker() {
    let table = test_table(1_000, 4);
    let query = sum_query(true);
    let expected = local_answer(&table, &query);
    let config = DistConfig::default()
        .replication(1)
        .read_timeout(Duration::from_millis(400));
    let (workers, fake, coordinator) = mixed_cluster(1, Misbehavior::StallOnQuery, table, config);

    let response = coordinator
        .execute_query(&query, &[])
        .expect("query must survive the stall");
    assert_eq!(expected.groups, response.groups);
    assert!(coordinator.last_report().runs.iter().any(|r| r.redispatched));
    let alive: Vec<bool> = coordinator.worker_summaries().iter().map(|w| w.alive).collect();
    assert_eq!(alive, [false, true], "only the stalled worker may be condemned");

    let again = coordinator.execute_query(&query, &[]).expect("follow-up query");
    assert_eq!(expected.groups, again.groups);
    assert_eq!(expected.result_bytes(), again.result_bytes());
    let report = coordinator.last_report();
    assert_eq!(report.runs.len(), 2, "{report:?}");
    assert!(report.runs.iter().all(|r| !r.redispatched && !r.hedged), "{report:?}");

    fake.join().expect("fake worker");
    for w in workers {
        w.shutdown();
    }
}
