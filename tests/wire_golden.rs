//! Golden digests of every frame kind of the `seabed-net` wire format.
//!
//! The round-trip suites (`wire_robustness`, the codec's own unit harness)
//! pin `decode(encode(x)) == x` *within one commit*; they cannot see a change
//! that moves the encoder and the decoder together. This file pins the bytes:
//! one fixed, fully populated sample per frame kind — every `SeabedError` /
//! `SchemaError` variant, every `PhysicalFilter`, `EncryptedAggregate`,
//! `PartialAggregate`, `ClientPostStep`, `Literal`, `IdListEncoding` and
//! `ColumnType` arm, both `Option` states, a two-partition `LoadShard` table,
//! a metrics snapshot with events and their spans — plus the two payload writers
//! other crates hash (`write_statement_payload`, `write_filters_payload`),
//! each compared to a recorded SHA-256 digest. If it fails a wire layout
//! moved: fix the code, don't re-record, unless the PR's purpose is a
//! protocol change (and then `PROTOCOL_VERSION` moves with it).
//!
//! The digests were first recorded at the commit *before* the codec was
//! rewritten behind one `Wire` trait (PR 18), re-recorded once for protocol
//! version 5, once for version 6, once for version 7, once for version 8,
//! once for version 9, once for version 10 and once for version 11, each
//! time with the reason it moved ([`RECORDED`]). A kind whose payload did not
//! move keeps its version-10 digest beside the new one, and the test
//! re-derives it by writing `10` back into the header — so "only the version
//! field moved" is checked, not claimed.

use seabed::ashe::IdSet;
use seabed::core::{EncryptedAggregate, GroupIds, GroupResult, PartialResponse, PhysicalFilter, ServerResponse};
use seabed::crypto::sha256::digest_hex;
use seabed::crypto::OreCiphertext;
use seabed::encoding::IdListEncoding;
use seabed::engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroup, PartialGroups};
use seabed::engine::{ColumnData, ColumnType, ExecMode, ExecStats, OperatorProfile, Schema, Table};
use seabed::error::{ParseError, SchemaError, SeabedError};
use seabed::net::wire::{
    decode_frame, encode_frame, redact_query, write_filters_payload, write_statement_payload, Frame, ShardExecConfig,
    ShardQueryRef, PROTOCOL_VERSION,
};
use seabed::obs::{EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, TraceSpan};
use seabed::query::{
    ClientPostStep, CompareOp, GroupByColumn, Literal, ParamKind, ParamSlot, Predicate, ServerAggregate, ServerFilter,
    SupportCategory, TranslatedQuery,
};
use std::time::Duration;

/// Every `ServerFilter` / `Literal` / `CompareOp` / `ServerAggregate` /
/// `ParamKind` arm. The DET and OPE literals, the post-processing steps, the
/// category and the logical column names are set on purpose: the frame must
/// not contain them (structural redaction), so the digest also pins that they
/// stay out — `12 prepare statement` and `statement payload` hash plans that
/// differ in nothing else.
fn query(category: SupportCategory) -> TranslatedQuery {
    let plain = |column: &str, op, value| {
        ServerFilter::Plain(Predicate {
            column: column.to_string(),
            op,
            value,
        })
    };
    TranslatedQuery {
        base_table: "sales".to_string(),
        filters: vec![
            plain("hour", CompareOp::Eq, Literal::Integer(6)),
            plain("region", CompareOp::NotEq, Literal::Text("emea".to_string())),
            plain("day", CompareOp::LtEq, Literal::Param(3)),
            plain("week", CompareOp::Gt, Literal::Integer(u64::MAX)),
            ServerFilter::DetEquals {
                column: "country__det".to_string(),
                value: "SECRET-DET-LITERAL".to_string(),
            },
            ServerFilter::OpeCompare {
                column: "ts__ope".to_string(),
                op: CompareOp::Lt,
                value: 0xfeed_beef_cafe_f00d,
            },
            ServerFilter::OpeCompare {
                column: "ts__ope".to_string(),
                op: CompareOp::GtEq,
                value: 17,
            },
        ],
        aggregates: vec![
            ServerAggregate::AsheSum {
                column: "revenue__ashe".to_string(),
            },
            ServerAggregate::CountRows,
            ServerAggregate::OpeMin {
                column: "ts__ope".to_string(),
            },
            ServerAggregate::OpeMax {
                column: "ts__ope".to_string(),
            },
        ],
        group_by: vec![
            GroupByColumn {
                column: "dept".to_string(),
                physical_column: "dept__det".to_string(),
                encrypted: true,
            },
            GroupByColumn {
                column: "hour".to_string(),
                physical_column: "hour".to_string(),
                encrypted: false,
            },
        ],
        client_post: vec![
            ClientPostStep::Divide {
                numerator: 0,
                denominator: 1,
            },
            ClientPostStep::Variance {
                sum_squares: 2,
                sum: 0,
                count: 1,
            },
            ClientPostStep::SqrtOfVariance { variance_step: 1 },
        ],
        preserve_row_ids: true,
        category,
        params: vec![
            ParamSlot {
                filter_index: 2,
                column: "day".to_string(),
                kind: ParamKind::Plain,
            },
            ParamSlot {
                filter_index: 4,
                column: "country".to_string(),
                kind: ParamKind::Det,
            },
            ParamSlot {
                filter_index: 5,
                column: "ts".to_string(),
                kind: ParamKind::Ope,
            },
        ],
    }
}

/// A well-formed ORE cell: 64 symbols `0, 1, 2, 0, …`, two bits each.
fn ore_cell() -> OreCiphertext {
    let symbols: Vec<u8> = (0..64u8).map(|i| i % 3).collect();
    OreCiphertext {
        symbols: symbols
            .chunks(4)
            .map(|quad| quad.iter().fold(0, |byte, symbol| byte << 2 | symbol))
            .collect(),
    }
}

/// Every `PhysicalFilter` arm.
fn filters() -> Vec<PhysicalFilter> {
    vec![
        PhysicalFilter::PlainU64 {
            column: 3,
            op: CompareOp::GtEq,
            value: 6,
        },
        PhysicalFilter::PlainText {
            column: 1,
            value: "emea".to_string(),
        },
        PhysicalFilter::DetTag {
            column: 2,
            tag: 0xdead_beef_dead_beef,
        },
        PhysicalFilter::Ope {
            column: 300,
            op: CompareOp::Lt,
            ciphertext: ore_cell(),
        },
    ]
}

fn stats() -> ExecStats {
    ExecStats {
        wall_time: Duration::from_nanos(800_001),
        operators: vec![
            OperatorProfile {
                label: "filter:det:country__det".to_string(),
                rows_in: 100,
                rows_out: 10,
                batches: 1,
                nanos: 1234,
            },
            OperatorProfile {
                label: "aggregate".to_string(),
                rows_in: 10,
                rows_out: 2,
                batches: 1,
                nanos: u64::MAX,
            },
        ],
    }
}

/// Every `EncryptedAggregate` arm, every `IdListEncoding`, both states of
/// the optional ID list and of the optional row id, an empty and a three-word
/// group key, and a group whose two sums and count share one ID list.
fn response() -> ServerResponse {
    let mut groups: Vec<GroupResult> = IdListEncoding::ALL
        .iter()
        .enumerate()
        .map(|(i, &encoding)| GroupResult {
            key: vec![i as u64],
            ids: Some(GroupIds {
                id_list: (0..(i as u8 * 40)).map(|b| b.wrapping_mul(37)).collect(),
                encoding,
            }),
            aggregates: vec![
                EncryptedAggregate::AsheSum {
                    value: u64::MAX - i as u64,
                },
                EncryptedAggregate::AsheSum { value: i as u64 },
                EncryptedAggregate::Count { rows: 42 },
            ],
        })
        .collect();
    groups[0].key.clear();
    ServerResponse {
        groups: groups
            .into_iter()
            .chain([GroupResult {
                key: vec![5, 0, u64::MAX],
                ids: None,
                aggregates: vec![
                    EncryptedAggregate::Extreme {
                        value_word: 9,
                        row_id: Some(77),
                    },
                    EncryptedAggregate::Extreme {
                        value_word: 0,
                        row_id: None,
                    },
                ],
            }])
            .collect(),
        stats: stats(),
    }
}

/// Every `PartialAggregate` arm, both states of the optional candidate, and
/// three groups whose sorted order differs from their insertion order.
fn partial() -> PartialResponse {
    let mut groups = PartialGroups::new();
    groups.insert(
        vec![7, u64::MAX],
        PartialGroup::new(vec![
            PartialAggregate::Extreme {
                best: Some(ExtremeCandidate {
                    ciphertext: ore_cell(),
                    value_word: 42,
                    row_id: 17,
                }),
                want_max: true,
            },
            PartialAggregate::Extreme {
                best: None,
                want_max: false,
            },
        ]),
    );
    groups.insert(
        vec![],
        PartialGroup {
            ids: IdSet::from_sorted_ids(&[1, 2, 3, 900, 901, 40_000]),
            aggregates: vec![
                PartialAggregate::Sum { value: u64::MAX },
                PartialAggregate::Sum { value: 7 },
                PartialAggregate::Count,
            ],
        },
    );
    groups.insert(
        vec![7, 3],
        PartialGroup {
            ids: IdSet::range(5, 10),
            aggregates: vec![PartialAggregate::Count],
        },
    );
    PartialResponse { groups, stats: stats() }
}

/// All four `ColumnType`s over two partitions.
fn table() -> Table {
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

/// Every `SeabedError` and `SchemaError` variant.
fn errors() -> Vec<SeabedError> {
    vec![
        SeabedError::Parse(ParseError {
            message: "bad token".to_string(),
            position: 17,
        }),
        SeabedError::Translate("no can do".to_string()),
        SeabedError::Plan("p".to_string()),
        SeabedError::Crypto("c".to_string()),
        SeabedError::Encoding("e".to_string()),
        SeabedError::Engine("boom".to_string()),
        SeabedError::Schema(SchemaError::UnknownColumn("x".to_string())),
        SeabedError::Schema(SchemaError::UnknownPhysicalColumn("y__det".to_string())),
        SeabedError::Schema(SchemaError::TypeMismatch {
            column: "c".to_string(),
            expected: "UInt64".to_string(),
            actual: "Utf8".to_string(),
        }),
        SeabedError::Schema(SchemaError::CorruptPartition {
            partition: 3,
            detail: "short column".to_string(),
        }),
        SeabedError::Schema(SchemaError::UnknownTable("ghosts".to_string())),
        SeabedError::Schema(SchemaError::ParamCount { expected: 2, actual: 0 }),
        SeabedError::Net("reset".to_string()),
        SeabedError::Wire("garbage".to_string()),
        SeabedError::Dist {
            worker: "127.0.0.1:9999".to_string(),
            message: "stalled mid-query".to_string(),
        },
        SeabedError::StaleStatement(u64::MAX),
    ]
}

fn snapshot() -> Frame {
    Frame::MetricsSnapshot {
        metrics: MetricsSnapshot {
            counters: vec![("net_requests".to_string(), 42), ("hedged_reads".to_string(), 3)],
            gauges: vec![("shard_store_size".to_string(), 8)],
            histograms: vec![
                (
                    "shard_execute_ns".to_string(),
                    HistogramSnapshot {
                        count: 5,
                        sum: 1_000_000,
                        max: 400_000,
                        buckets: vec![(0, 1), (12, 1), (19, 3)],
                    },
                ),
                ("net_request_ns".to_string(), HistogramSnapshot::default()),
            ],
        },
        events: vec![
            QueryEvent {
                trace_id: 0xfeed_f00d,
                statement_id: 0xdead_beef,
                node: "coordinator".to_string(),
                spans: vec![
                    TraceSpan {
                        name: "queue".to_string(),
                        start_ns: 0,
                        duration_ns: 99,
                    },
                    TraceSpan {
                        name: "shard-execute".to_string(),
                        start_ns: 100,
                        duration_ns: 250_000,
                    },
                ],
                plan: "aggregate\n  scan sales".to_string(),
                operators: vec![EventOperator {
                    label: "filter:det:dept__det".to_string(),
                    rows_in: 1000,
                    rows_out: 250,
                    batches: 1,
                    nanos: 42_000,
                }],
                total_ns: 1_500_000,
                slow: true,
                outcome: "ok".to_string(),
            },
            QueryEvent {
                trace_id: 2,
                statement_id: 3,
                node: "session".to_string(),
                spans: vec![],
                plan: String::new(),
                operators: vec![],
                total_ns: 9,
                slow: false,
                outcome: "net-error".to_string(),
            },
        ],
    }
}

/// The frames pinned per kind, in kind order. Most kinds need one frame; the
/// error kind needs one per variant, and the kinds with a flag carry both of
/// its states.
fn frames() -> Vec<(&'static str, Vec<Frame>)> {
    vec![
        (
            "01 request",
            vec![Frame::Request {
                query: query(SupportCategory::ClientPostProcessing),
                filters: filters(),
                trace_id: 0xfeed_f00d,
                analyze: true,
            }],
        ),
        ("02 response", vec![Frame::Response(response())]),
        ("03 error", errors().into_iter().map(Frame::Error).collect()),
        ("04 schema request", vec![Frame::SchemaRequest]),
        ("05 schema", vec![Frame::Schema(table().schema)]),
        ("06 worker handshake", vec![Frame::WorkerHandshake { epoch: u64::MAX }]),
        (
            "07 worker ready",
            vec![Frame::WorkerReady {
                epoch: 0xe9_0c4,
                shards: 3,
            }],
        ),
        (
            "08 load shard",
            vec![
                Frame::LoadShard {
                    epoch: 0xe9_0c4,
                    table_id: 1,
                    shard: 2,
                    exec: ShardExecConfig {
                        local_threads: 4,
                        exec_mode: ExecMode::Scalar,
                    },
                    table: table(),
                },
                Frame::LoadShard {
                    epoch: 1,
                    table_id: u32::MAX,
                    shard: 0,
                    exec: ShardExecConfig {
                        local_threads: 1,
                        exec_mode: ExecMode::Vectorized,
                    },
                    table: Table::from_columns(Schema::new([]), vec![], 1),
                },
            ],
        ),
        (
            "09 shard loaded",
            vec![Frame::ShardLoaded {
                epoch: 0xe9_0c4,
                table_id: 1,
                shard: 2,
                rows: 10,
            }],
        ),
        (
            "10 shard query",
            vec![Frame::ShardQuery {
                epoch: 0xe9_0c4,
                table_id: 1,
                shard: 2,
                seq: 99,
                query: query(SupportCategory::TwoRoundTrips),
                filters: filters(),
                trace_id: 0xabad_1dea,
                analyze: false,
            }],
        ),
        (
            "11 shard partial",
            vec![Frame::ShardPartial {
                epoch: 0xe9_0c4,
                table_id: 1,
                shard: 2,
                seq: 99,
                partial: partial(),
            }],
        ),
        (
            "12 prepare statement",
            vec![
                Frame::PrepareStatement {
                    query: query(SupportCategory::ServerOnly),
                },
                Frame::PrepareStatement {
                    query: query(SupportCategory::ClientPreProcessing),
                },
            ],
        ),
        (
            "13 statement prepared",
            vec![Frame::StatementPrepared { handle: u64::MAX }],
        ),
        (
            "14 execute statement",
            vec![Frame::ExecuteStatement {
                handle: 0xdead_beef,
                filters: filters(),
                trace_id: u64::MAX,
            }],
        ),
        (
            "15 unload shard",
            vec![Frame::UnloadShard {
                epoch: 0xe9_0c4,
                table_id: 1,
                shard: 2,
            }],
        ),
        (
            "16 shard unloaded",
            vec![Frame::ShardUnloaded {
                epoch: 0xe9_0c4,
                table_id: 1,
                shard: 2,
                remaining: 4,
            }],
        ),
        (
            "17 metrics request",
            vec![
                Frame::MetricsRequest { include_events: false },
                Frame::MetricsRequest { include_events: true },
            ],
        ),
        (
            "18 metrics snapshot",
            vec![
                snapshot(),
                Frame::MetricsSnapshot {
                    metrics: MetricsSnapshot::default(),
                    events: vec![],
                },
            ],
        ),
    ]
}

/// `(name, SHA-256 of the bytes, SHA-256 of the bytes under a version-10
/// header)`, in a fixed order. The payload writers have no header, so their
/// two digests are one.
fn digests() -> Vec<(&'static str, String, String)> {
    let mut out = Vec::new();
    for (index, (name, frames)) in frames().into_iter().enumerate() {
        let (mut bytes, mut as_version_10) = (Vec::new(), Vec::new());
        for frame in &frames {
            assert_eq!(
                frame.kind() as usize,
                index + 1,
                "{name}: sample sits under the wrong kind"
            );
            let mut encoded = encode_frame(frame, u32::MAX).expect("encode");
            // The decoder reads exactly what the pinned encoder wrote.
            let decoded = decode_frame(&encoded, u32::MAX).expect("decode");
            assert_eq!(encode_frame(&decoded, u32::MAX).expect("re-encode"), encoded, "{name}");
            bytes.extend_from_slice(&encoded);
            assert_eq!(encoded[4..6], PROTOCOL_VERSION.to_le_bytes());
            encoded[4..6].copy_from_slice(&10u16.to_le_bytes());
            as_version_10.extend_from_slice(&encoded);
        }
        out.push((name, digest_hex(&bytes), digest_hex(&as_version_10)));
    }
    let mut statement = Vec::new();
    write_statement_payload(&mut statement, &query(SupportCategory::ClientPostProcessing));
    out.push(("statement payload", digest_hex(&statement), digest_hex(&statement)));
    let mut filter_bytes = Vec::new();
    write_filters_payload(&mut filter_bytes, &filters());
    out.push(("filters payload", digest_hex(&filter_bytes), digest_hex(&filter_bytes)));
    out
}

/// Why a digest differs from the one recorded for protocol version 10.
enum Moved {
    /// Only the header's version field: the bytes under a version-10 header
    /// still hash to the digest recorded for version 10. The payload writers
    /// have no header, so theirs is the digest itself.
    VersionOnly(&'static str),
    /// The sample gained a group whose ID list travels in the fourth
    /// container, `EliasFano` (tag 3): `IdListEncoding::ALL` grew by one.
    EliasFanoGroup,
    /// A statement handle travels as its 8 little-endian bytes, where
    /// version 10 wrote a varint of 9–10 bytes.
    FixedHandle,
}
use Moved::*;

/// Recorded once for protocol version 11, in the order of [`digests`], each
/// with what moved it.
const RECORDED: [(&str, Moved); 20] = [
    // 01 request
    (
        "ec97a47835ec050139ec2d3c256d2a4e90919b7916fc56eeeae65be50473749c",
        VersionOnly("139f6306428d79aecf1fc0e5220a1415df6a369f3c690a7a92ee3c5ee21bbb12"),
    ),
    // 02 response
    (
        "c0fd6a662cf14cea98c4407813e871a0bdb566f7ab60eb57f9c7b8a83d3025a3",
        EliasFanoGroup,
    ),
    // 03 error
    (
        "170dca84b0917037e3e7ea9a816734893e579752dbc47f9956b3be456548d88a",
        FixedHandle,
    ),
    // 04 schema request
    (
        "228b934b3261e9777b9762735c71b5fe7385026f854c0f164310b24781fc818f",
        VersionOnly("e79a5272f454b418956d89caf40041158d2f264b9f61c96c2ddcb9579a2e02ae"),
    ),
    // 05 schema
    (
        "2290dea0e52bda7c26f8a2d79836a3a22c12f47991e510d0272c35ed0c62a202",
        VersionOnly("058bde9994dcc847b1f695fbc5c88f4f4ba0f733f7efb6a4f4a85a72eb6dbe61"),
    ),
    // 06 worker handshake
    (
        "772fe21c7a367541d2e32c2c2f6994741368f4d8d09acc96feecfc19e631e0d7",
        VersionOnly("813d3ca297a7778168163b6d7c2b2848d1e4a84caa3b80ae9e8e6be4328d2793"),
    ),
    // 07 worker ready
    (
        "8a2174ee3f52d646403795e3d34fd1c1a007f51cb08836d158c72c7bd9e9785b",
        VersionOnly("b3747094cede1c76cb305ebd1fef49189a56ee51aa3dc8523673cfab7a534096"),
    ),
    // 08 load shard
    (
        "745ec0b327b847ecf3ff1087ea3ddbf01e27dcd4930d9cf2a0f778a65bc0cded",
        VersionOnly("c8584ddc1454fde4a5a120496510390a2a42baa49fc15e1b87a29cdf503b235f"),
    ),
    // 09 shard loaded
    (
        "81ad8a74c4ac08921cc3ba9340c0d69405086206075aa036f1d9fb8df3a37ee0",
        VersionOnly("3be5fc23fb25800a026609aca77311e08b5042c70c1398175221950f81be2c34"),
    ),
    // 10 shard query
    (
        "302a5e371f459278f4480fb1a9c7a09e4acc018b9a03d3a04fbd84fadb13f7ae",
        VersionOnly("a521d5ba9798be9097db024e1e98676d358c7b6986f265aa132b10eee9894786"),
    ),
    // 11 shard partial
    (
        "d854f9b1b1d77645d9af64f83842d3a88cc6bd97fa3858a613f0e3bb920f8d32",
        VersionOnly("c9e99bcfa842b1e85d7abf04958dac31fbf84fe1d49b8f64eb2e3161090729e2"),
    ),
    // 12 prepare statement
    (
        "76b4ba9cedc83810b8e3717c9582a60de9a98e4b8dff5e0b3bcedbe1d93b8e6d",
        VersionOnly("1717e4677c849c0665e993912da097097f5b21068065a99304e3bc846f224b12"),
    ),
    // 13 statement prepared
    (
        "67863069c1c88c6381259b08776822eeadd02b25b6e2ed2db466323667ae35a4",
        FixedHandle,
    ),
    // 14 execute statement
    (
        "b2ba356592b177d09c581f5ed788b8362f7bd8f92ed89ceb419717f40ba6baf8",
        FixedHandle,
    ),
    // 15 unload shard
    (
        "98b47dad367f3e81f38e13a22593ed73d2f455fc07b4b57fb41bf356a97aa3f8",
        VersionOnly("4f2ac6cf01928189bbb3316cdb50a0fe65a0ef34303aee96e9d9c1f9bc0aac45"),
    ),
    // 16 shard unloaded
    (
        "e3dfbcc817257cb65e7f7c0887e4e75a405b739ca02db6e7dbb36a0e6d8fa944",
        VersionOnly("852547b8695638467a576788477e3955d409c0c9122717cfdbf69f70ee7db786"),
    ),
    // 17 metrics request
    (
        "de520120b119da3206088119528299d3c2457212d160de04ce02e4042d755eab",
        VersionOnly("4d9ea882193f48e8ddb5c62fee7a47cefc203c86e1048ab6fe4555b31ff3a3f0"),
    ),
    // 18 metrics snapshot
    (
        "9f9970292d464962da0d168854399559521b6ea555f1fc5a249fa91850aae4a9",
        VersionOnly("0c4f2d68b00671e9227f5849aca2a6b2a9c4c78439617e5e7bcd94ec871dd045"),
    ),
    // statement payload
    (
        "9b50ae78186d9319151b0fa72a8baba390bca0d31e930993d9f4a63ab270bbfa",
        VersionOnly("9b50ae78186d9319151b0fa72a8baba390bca0d31e930993d9f4a63ab270bbfa"),
    ),
    // filters payload
    (
        "f47b31e8ee10d41fcd15863c07c500c4031ea847a1cbc5fc8de7365815911132",
        VersionOnly("f47b31e8ee10d41fcd15863c07c500c4031ea847a1cbc5fc8de7365815911132"),
    ),
];

#[test]
fn every_frame_kind_encodes_to_its_recorded_bytes() {
    let got = digests();
    for (name, digest, _) in &got {
        println!("    \"{digest}\", // {name}");
    }
    assert_eq!(got.len(), RECORDED.len());
    for ((name, digest, as_version_10), (recorded, moved)) in got.iter().zip(RECORDED) {
        assert_eq!(digest, recorded, "{name}: the encoded bytes moved");
        if let VersionOnly(version_10) = moved {
            assert_eq!(as_version_10, version_10, "{name}: more than the version field moved");
        }
    }
}

/// The client-only half of a plan is not in the hashed statement bytes, so
/// plans that differ only there share a statement handle and a cache key.
#[test]
fn plans_that_differ_only_in_what_stays_with_the_key_holder_encode_alike() {
    let bytes_of = |plan: &TranslatedQuery| {
        let mut out = Vec::new();
        write_statement_payload(&mut out, plan);
        out
    };
    let full = query(SupportCategory::ClientPostProcessing);
    let mut bare = query(SupportCategory::ServerOnly);
    bare.client_post.clear();
    bare.preserve_row_ids = false;
    bare.group_by.iter_mut().for_each(|g| g.column.clear());
    bare.params.iter_mut().for_each(|p| p.column.clear());
    assert_eq!(bytes_of(&full), bytes_of(&bare));
    assert_eq!(redact_query(&full), redact_query(&bare));
    let mut other = full.clone();
    other.group_by[0].physical_column.push('x');
    assert_ne!(bytes_of(&full), bytes_of(&other));
}

/// The coordinator encodes every shard query through the borrowed twin
/// (`wire::ShardQueryRef`, generated from the same kind-table row): the
/// `10 shard query` sample through it is the recorded digest.
#[test]
fn a_borrowed_shard_query_encodes_to_its_recorded_bytes() {
    let (plan, filters) = (query(SupportCategory::TwoRoundTrips), filters());
    let borrowed = ShardQueryRef {
        epoch: 0xe9_0c4,
        table_id: 1,
        shard: 2,
        seq: 99,
        trace_id: 0xabad_1dea,
        analyze: false,
        query: &plan,
        filters: &filters,
    };
    let encoded = borrowed.encode(u32::MAX).expect("encode");
    let (name, recorded) = (frames()[9].0, RECORDED[9].0);
    assert_eq!(name, "10 shard query");
    assert_eq!(
        digest_hex(&encoded),
        recorded,
        "{name}: the borrowed encoder moved a byte"
    );
}
