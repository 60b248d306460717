//! One load frame per shard, the same bytes per replica.
//!
//! A coordinator encodes a shard's `LoadShard` frame once, from the retained
//! table where it lies (`wire::LoadShardRef`), and hands the same bytes to
//! every member of the shard's replica set. This file holds the two halves of
//! that: the borrowed encoder writes the owned variant's bytes — on the
//! `wire_golden` fixture, whose recorded digest it must reach, and on a
//! seeded table of every column type — and a replicated connect against
//! scripted workers delivers byte-identical payloads to both replicas of a
//! shard, each acknowledgement still checked against `(epoch, table, shard,
//! rows)`, a stale partial landing before one still drained. Shard queries
//! are encoded from a borrow the same way (`wire::ShardQueryRef`), to the
//! owned variant's bytes.

use seabed_core::{PartialResponse, PhysicalFilter};
use seabed_crypto::{OreScheme, Sha256};
use seabed_dist::{DistConfig, DistCoordinator};
use seabed_engine::merge::PartialGroups;
use seabed_engine::{ColumnData, ColumnType, ExecMode, ExecStats, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{
    self, encode_frame, Frame, FrameKind, LoadShardRef, ShardExecConfig, ShardQueryRef, HEADER_LEN,
};
use seabed_net::{FrameConn, Received, Wait};
use seabed_query::{CompareOp, GroupByColumn, ServerAggregate, ServerFilter, SupportCategory, TranslatedQuery};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAX: u32 = wire::DEFAULT_MAX_FRAME_LEN;

/// `tests/wire_golden.rs`'s table: all four `ColumnType`s over two partitions.
fn golden_table() -> Table {
    Table::from_columns(
        Schema::new([
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("delta".to_string(), ColumnType::Int64),
            ("country".to_string(), ColumnType::Utf8),
            ("ts__ope".to_string(), ColumnType::Bytes),
        ]),
        vec![
            ColumnData::UInt64((0..10u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()),
            ColumnData::Int64((0..10i64).map(|i| i - 5).collect()),
            ColumnData::Utf8((0..10).map(|i| format!("C{}", i % 4)).collect()),
            ColumnData::Bytes((0..10usize).map(|i| vec![i as u8; i % 5]).collect()),
        ],
        2,
    )
}

/// A benchmark-shaped shard and then some: masked words, 16-byte ORE-sized
/// cells, signed values and text, `rows` rows over `partitions` partitions.
fn seeded_table(seed: u64, rows: usize, partitions: usize) -> Table {
    // A Weyl sequence scrambled by a multiply: distinct words, no structure
    // the table format could lean on.
    let mut state = seed;
    let mut draw = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (state ^ state >> 29).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    };
    Table::from_columns(
        Schema::new([
            ("m0__ashe".to_string(), ColumnType::UInt64),
            ("ts__ope".to_string(), ColumnType::Bytes),
            ("delta".to_string(), ColumnType::Int64),
            ("tag".to_string(), ColumnType::Utf8),
        ]),
        vec![
            ColumnData::UInt64((0..rows).map(|_| draw()).collect()),
            ColumnData::Bytes(
                (0..rows)
                    .map(|_| [draw().to_be_bytes(), draw().to_be_bytes()].concat())
                    .collect(),
            ),
            ColumnData::Int64((0..rows).map(|_| draw() as i64).collect()),
            ColumnData::Utf8((0..rows).map(|_| format!("t{:02}", draw() % 16)).collect()),
        ],
        partitions,
    )
}

fn owned(load: LoadShardRef<'_>) -> Frame {
    Frame::LoadShard {
        epoch: load.epoch,
        table_id: load.table_id,
        shard: load.shard,
        exec: load.exec,
        table: load.table.clone(),
    }
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|byte| format!("{byte:02x}")).collect()
}

#[test]
fn a_borrowed_shard_encodes_to_the_owned_frames_bytes() {
    // The two `08 load shard` samples of `wire_golden`, through the borrowed
    // encoder: the digest recorded there for protocol version 11, and under a
    // version-10 header the one recorded for version 10 (only the version
    // field moved).
    let (full, empty) = (golden_table(), Table::from_columns(Schema::new([]), vec![], 1));
    let golden = [
        LoadShardRef {
            epoch: 0xe9_0c4,
            table_id: 1,
            shard: 2,
            exec: ShardExecConfig {
                local_threads: 4,
                exec_mode: ExecMode::Scalar,
            },
            table: &full,
        },
        LoadShardRef {
            epoch: 1,
            table_id: u32::MAX,
            shard: 0,
            exec: ShardExecConfig {
                local_threads: 1,
                exec_mode: ExecMode::Vectorized,
            },
            table: &empty,
        },
    ];
    let (mut bytes, mut as_version_10) = (Vec::new(), Vec::new());
    for load in golden {
        let mut encoded = load.encode(u32::MAX).expect("encode");
        assert_eq!(encoded, encode_frame(&owned(load), u32::MAX).expect("encode owned"));
        bytes.extend_from_slice(&encoded);
        encoded[4..6].copy_from_slice(&10u16.to_le_bytes());
        as_version_10.extend_from_slice(&encoded);
    }
    assert_eq!(
        hex(Sha256::digest(&bytes)),
        "745ec0b327b847ecf3ff1087ea3ddbf01e27dcd4930d9cf2a0f778a65bc0cded",
        "the `08 load shard` digest of tests/wire_golden.rs"
    );
    assert_eq!(
        hex(Sha256::digest(&as_version_10)),
        "c8584ddc1454fde4a5a120496510390a2a42baa49fc15e1b87a29cdf503b235f",
        "more than the version field of the load frame moved"
    );

    for (seed, rows, partitions) in [(1u64, 5_000usize, 8usize), (2, 613, 5), (3, 1, 1), (4, 0, 3)] {
        let table = seeded_table(seed, rows, partitions);
        let load = LoadShardRef {
            epoch: seed << 40 | 7,
            table_id: seed as u32,
            shard: partitions as u32,
            exec: DistConfig::default().exec,
            table: &table,
        };
        let encoded = load.encode(MAX).expect("encode");
        let frame = owned(load);
        assert_eq!(encoded, encode_frame(&frame, MAX).expect("encode owned"), "seed {seed}");
        assert_eq!(wire::decode_frame(&encoded, MAX).expect("decode"), frame, "seed {seed}");

        // The limit is the owned encoder's, to the byte and to the message.
        let payload_len = (encoded.len() - HEADER_LEN) as u32;
        assert_eq!(load.encode(payload_len).expect("at the limit"), encoded);
        let over = load.encode(payload_len - 1).expect_err("one byte over the limit");
        assert!(matches!(over, SeabedError::Wire(_)), "{over:?}");
        assert_eq!(Err(over), encode_frame(&frame, payload_len - 1));
    }
}

/// A seeded shard query's plan and bound filters: every filter class, a
/// group-by (encrypted and public keys) and literals drawn from `seed`.
fn seeded_plan(seed: u64) -> (TranslatedQuery, Vec<PhysicalFilter>) {
    let mut state = seed;
    let mut draw = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (state ^ state >> 29).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    };
    let ops = [
        CompareOp::Lt,
        CompareOp::LtEq,
        CompareOp::Gt,
        CompareOp::GtEq,
        CompareOp::Eq,
    ];
    let ore = OreScheme::new(&draw().to_le_bytes().repeat(2).try_into().expect("16 bytes"));
    let plan = TranslatedQuery {
        base_table: format!("t{}", draw() % 100),
        filters: vec![
            ServerFilter::DetEquals {
                column: "tag__det".to_string(),
                value: format!("secret {}", draw()),
            },
            ServerFilter::OpeCompare {
                column: "ts__ope".to_string(),
                op: ops[(draw() % 5) as usize],
                value: draw(),
            },
        ],
        aggregates: vec![
            ServerAggregate::AsheSum {
                column: "m0__ashe".to_string(),
            },
            ServerAggregate::CountRows,
            ServerAggregate::OpeMax {
                column: "ts__ope".to_string(),
            },
        ],
        group_by: vec![
            GroupByColumn {
                column: "tag".to_string(),
                physical_column: "tag__det".to_string(),
                encrypted: true,
            },
            GroupByColumn {
                column: "hour".to_string(),
                physical_column: "hour".to_string(),
                encrypted: false,
            },
        ],
        client_post: Vec::new(),
        preserve_row_ids: true,
        category: SupportCategory::ServerOnly,
        params: Vec::new(),
    };
    let filters = vec![
        PhysicalFilter::DetTag { column: 3, tag: draw() },
        PhysicalFilter::Ope {
            column: 1,
            op: ops[(draw() % 5) as usize],
            ciphertext: ore.encrypt(draw()),
        },
        PhysicalFilter::PlainU64 {
            column: 0,
            op: ops[(draw() % 5) as usize],
            value: draw(),
        },
        PhysicalFilter::PlainText {
            column: 2,
            value: format!("t{:02}", draw() % 16),
        },
    ];
    (plan, filters)
}

/// Every shard query, hedge and re-dispatch is encoded from a borrow of the
/// request's plan and filters (`wire::ShardQueryRef`): the owned variant's
/// bytes, its decode (the redacted plan) and its frame limit, to the byte.
/// `tests/wire_golden.rs` holds the `10 shard query` sample through it.
#[test]
fn a_borrowed_shard_query_encodes_to_the_owned_frames_bytes() {
    for seed in 1..=8u64 {
        let (plan, filters) = seeded_plan(seed);
        let query = ShardQueryRef {
            epoch: seed << 40 | 3,
            table_id: seed as u32,
            shard: (seed % 3) as u32,
            seq: seed * 1_000_003,
            trace_id: seed.wrapping_mul(0x9e37_79b9),
            analyze: seed % 2 == 0,
            query: &plan,
            filters: &filters,
        };
        let encoded = query.encode(MAX).expect("encode");
        let frame = Frame::ShardQuery {
            epoch: query.epoch,
            table_id: query.table_id,
            shard: query.shard,
            seq: query.seq,
            trace_id: query.trace_id,
            analyze: query.analyze,
            query: plan.clone(),
            filters: filters.clone(),
        };
        assert_eq!(encoded, encode_frame(&frame, MAX).expect("encode owned"), "seed {seed}");
        let Frame::ShardQuery { query: decoded, .. } = wire::decode_frame(&encoded, MAX).expect("decode") else {
            panic!("seed {seed}: not a shard query");
        };
        assert_eq!(decoded, wire::redact_query(&plan), "seed {seed}");

        let payload_len = (encoded.len() - HEADER_LEN) as u32;
        assert_eq!(query.encode(payload_len).expect("at the limit"), encoded);
        let over = query.encode(payload_len - 1).expect_err("one byte over the limit");
        assert!(matches!(over, SeabedError::Wire(_)), "{over:?}");
        assert_eq!(Err(over), encode_frame(&frame, payload_len - 1));
    }
}

/// How a scripted worker answers a load.
#[derive(Clone, Copy, PartialEq)]
enum Script {
    /// The acknowledgement the coordinator expects.
    Honest,
    /// A partial of this epoch — a hedge loser landing late — then the ack.
    StalePartialFirst,
    /// An acknowledgement claiming one row too many.
    WrongRows,
    /// An acknowledgement naming another shard.
    WrongShard,
}

/// `(shard, payload)` of every `LoadShard` frame a scripted worker received,
/// in arrival order.
type Loads = Vec<(u32, Vec<u8>)>;

/// A scripted worker: acks the handshake, answers every load per `script`,
/// and returns the raw load payloads once the coordinator hangs up.
fn scripted_worker(script: Script) -> (SocketAddr, JoinHandle<Loads>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FrameConn::from_stream(stream, Duration::from_secs(10)).expect("wrap");
        let mut loads = Loads::new();
        loop {
            let wait = Wait::Until(Instant::now() + Duration::from_secs(10));
            let Ok(Received::Frame((kind, payload))) = conn.recv_raw(MAX, wait) else {
                return loads;
            };
            let reply = match wire::decode_payload(kind, &payload).expect("a well-formed frame") {
                Frame::WorkerHandshake { epoch } => Frame::WorkerReady { epoch, shards: 0 },
                Frame::LoadShard {
                    epoch,
                    table_id,
                    shard,
                    table,
                    ..
                } => {
                    assert_eq!(kind, FrameKind::LoadShard as u8);
                    loads.push((shard, payload));
                    if script == Script::StalePartialFirst {
                        let stale = Frame::ShardPartial {
                            epoch,
                            table_id,
                            shard,
                            seq: 3,
                            partial: PartialResponse {
                                groups: PartialGroups::new(),
                                stats: ExecStats::default(),
                            },
                        };
                        conn.send(&stale, MAX).expect("stale partial");
                    }
                    Frame::ShardLoaded {
                        epoch,
                        table_id,
                        shard: shard + u32::from(script == Script::WrongShard),
                        rows: table.num_rows() as u64 + u64::from(script == Script::WrongRows),
                    }
                }
                other => panic!("unscripted frame {:?}", other.kind()),
            };
            if conn.send(&reply, MAX).is_err() {
                return loads;
            }
        }
    });
    (addr, worker)
}

/// Connects a coordinator over `table` to two scripted workers at R = 2 and
/// returns its outcome with what each worker was sent.
fn connect(table: &Table, scripts: [Script; 2]) -> (Result<u64, SeabedError>, [Loads; 2]) {
    let (workers, addrs): (Vec<_>, Vec<_>) = scripts
        .map(|script| {
            let (addr, worker) = scripted_worker(script);
            (worker, addr)
        })
        .into_iter()
        .unzip();
    let config = DistConfig::default().read_timeout(Duration::from_secs(5));
    let outcome = DistCoordinator::connect_tables(&addrs, vec![("t".to_string(), table.clone())], config);
    // Dropping the coordinator hangs up on both workers.
    let epoch = outcome.map(|coordinator| coordinator.epoch());
    let mut loads = workers.into_iter().map(|worker| worker.join().expect("worker"));
    (epoch, [loads.next().expect("first"), loads.next().expect("second")])
}

#[test]
fn both_replicas_of_a_shard_receive_the_same_bytes() {
    let table = seeded_table(9, 1_200, 4);
    let (epoch, [first, second]) = connect(&table, [Script::Honest, Script::StalePartialFirst]);
    // The stale partials were drained, not mistaken for (bad) acks.
    let epoch = epoch.expect("connect");

    // Two workers, four partitions: two shards of two partitions each, both
    // resident on both workers.
    let shards = [
        Table {
            schema: table.schema.clone(),
            partitions: table.partitions[..2].to_vec(),
        },
        Table {
            schema: table.schema.clone(),
            partitions: table.partitions[2..].to_vec(),
        },
    ];
    for loads in [&first, &second] {
        let mut seen: Vec<u32> = loads.iter().map(|(shard, _)| *shard).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1], "each worker holds each shard once");
    }
    for (shard, table) in shards.iter().enumerate() {
        let sent_to = |loads: &Loads| {
            let (_, payload) = loads.iter().find(|(s, _)| *s == shard as u32).expect("loaded");
            payload.clone()
        };
        assert_eq!(
            sent_to(&first),
            sent_to(&second),
            "shard {shard}: one frame, two replicas"
        );
        let frame = Frame::LoadShard {
            epoch,
            table_id: 0,
            shard: shard as u32,
            exec: DistConfig::default().exec,
            table: table.clone(),
        };
        let owned = encode_frame(&frame, MAX).expect("encode owned");
        assert_eq!(
            sent_to(&first),
            owned[HEADER_LEN..],
            "shard {shard}: the owned frame's payload"
        );
    }
}

#[test]
fn every_replicas_load_ack_is_checked_against_shard_and_row_count() {
    let table = seeded_table(10, 300, 2);
    for liar in [Script::WrongRows, Script::WrongShard] {
        // Whichever replica lies, its ack is refused: the connect fails
        // instead of trusting a shard nobody verified.
        for scripts in [[liar, Script::Honest], [Script::Honest, liar]] {
            let (outcome, _) = connect(&table, scripts);
            assert!(matches!(outcome, Err(SeabedError::Dist { .. })), "{outcome:?}");
        }
    }
    let (outcome, loads) = connect(&table, [Script::Honest, Script::Honest]);
    outcome.expect("two honest workers");
    assert!(loads.iter().all(|loads| loads.len() == 2));
}
