//! Golden digests of every frame kind of the `seabed-net` wire format.
//!
//! The round-trip suites (`wire_robustness`, the codec's own unit harness)
//! pin `decode(encode(x)) == x` *within one commit*; they cannot see a change
//! that moves the encoder and the decoder together. This file pins the bytes:
//! one fixed, fully populated sample per frame kind — every `SeabedError` /
//! `SchemaError` variant, every `PhysicalFilter`, `EncryptedAggregate`,
//! `PartialAggregate`, `ClientPostStep`, `Literal`, `IdListEncoding` and
//! `ColumnType` arm, both `Option` states, a two-partition `LoadShard` table,
//! a metrics snapshot with traces and events — plus the two payload writers
//! other crates hash (`write_statement_payload`, `write_filters_payload`),
//! each compared to a SHA-256 digest recorded at the commit *before* the
//! codec was rewritten behind one `Wire` trait (PR 18). If it fails a wire
//! layout moved: fix the code, don't re-record, unless the PR's purpose is a
//! protocol change (and then `PROTOCOL_VERSION` moves with it).

use seabed::ashe::IdSet;
use seabed::core::{EncryptedAggregate, GroupResult, PartialResponse, PhysicalFilter, ServerResponse};
use seabed::crypto::sha256::digest_hex;
use seabed::crypto::OreCiphertext;
use seabed::encoding::IdListEncoding;
use seabed::engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroups};
use seabed::engine::{ColumnData, ColumnType, ExecMode, ExecStats, OperatorProfile, Schema, Table};
use seabed::error::{ParseError, SchemaError, SeabedError};
use seabed::net::wire::{
    decode_frame, encode_frame, write_filters_payload, write_statement_payload, Frame, ShardExecConfig,
};
use seabed::obs::{EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, QueryTrace, TraceSpan};
use seabed::query::{
    ClientPostStep, CompareOp, GroupByColumn, Literal, ParamKind, ParamSlot, Predicate, ServerAggregate, ServerFilter,
    SupportCategory, TranslatedQuery,
};
use std::time::Duration;

/// Every `ServerFilter` / `Literal` / `CompareOp` / `ServerAggregate` /
/// `ClientPostStep` / `ParamKind` arm. The DET and OPE literals are set on
/// purpose: the frame must not contain them (structural redaction), so the
/// digest also pins that they stay out.
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
        group_inflation: 7,
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
            ClientPostStep::MergeInflatedGroups,
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
            ciphertext: OreCiphertext {
                symbols: (0..64u8).map(|i| i % 3).collect(),
            },
        },
    ]
}

fn stats() -> ExecStats {
    ExecStats {
        tasks: 8,
        total_task_time: Duration::from_micros(1234),
        max_task_time: Duration::from_micros(400),
        simulated_server_time: Duration::from_millis(52),
        bytes_to_driver: 9000,
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
/// the optional row id, an empty and a three-word group key.
fn response() -> ServerResponse {
    let encodings = [
        IdListEncoding::RangesVb,
        IdListEncoding::RangesVbDiff,
        IdListEncoding::RangesVbDiffDeflateCompact,
        IdListEncoding::RangesVbDiffDeflateFast,
        IdListEncoding::VbDiff,
        IdListEncoding::Bitmap,
    ];
    let mut sums: Vec<EncryptedAggregate> = encodings
        .iter()
        .enumerate()
        .map(|(i, &encoding)| EncryptedAggregate::AsheSum {
            value: u64::MAX - i as u64,
            id_list: (0..(i as u8 * 40)).map(|b| b.wrapping_mul(37)).collect(),
            encoding,
        })
        .collect();
    sums.push(EncryptedAggregate::Count { rows: 42 });
    ServerResponse {
        groups: vec![
            GroupResult {
                key: vec![],
                aggregates: sums,
            },
            GroupResult {
                key: vec![5, 0, u64::MAX],
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
            },
        ],
        stats: stats(),
        result_bytes: 123_456,
    }
}

/// Every `PartialAggregate` arm, both states of the optional candidate, and
/// three groups whose sorted order differs from their insertion order.
fn partial() -> PartialResponse {
    let mut groups = PartialGroups::new();
    groups.insert(
        vec![7, u64::MAX],
        vec![
            PartialAggregate::Extreme {
                best: Some(ExtremeCandidate {
                    ciphertext: OreCiphertext {
                        symbols: (0..64u8).map(|i| i % 3).collect(),
                    },
                    value_word: 42,
                    row_id: 17,
                }),
                want_max: true,
            },
            PartialAggregate::Extreme {
                best: None,
                want_max: false,
            },
        ],
    );
    groups.insert(
        vec![],
        vec![
            PartialAggregate::Sum {
                value: u64::MAX,
                ids: IdSet::from_sorted_ids(&[1, 2, 3, 900, 901, 40_000]),
            },
            PartialAggregate::Count {
                ids: IdSet::range(5, 10),
            },
        ],
    );
    groups.insert(
        vec![7, 3],
        vec![PartialAggregate::Count {
            ids: IdSet::from_sorted_ids(&[]),
        }],
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
        traces: vec![
            QueryTrace {
                trace_id: 0xfeed_f00d,
                statement_id: 0xdead_beef,
                node: "worker:9042".to_string(),
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
            },
            QueryTrace {
                trace_id: 1,
                statement_id: 0,
                node: "session".to_string(),
                spans: vec![],
            },
        ],
        events: vec![
            QueryEvent {
                trace_id: 0xfeed_f00d,
                statement_id: 0xdead_beef,
                node: "coordinator".to_string(),
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
                Frame::MetricsRequest {
                    include_traces: true,
                    include_events: false,
                },
                Frame::MetricsRequest {
                    include_traces: false,
                    include_events: true,
                },
            ],
        ),
        (
            "18 metrics snapshot",
            vec![
                snapshot(),
                Frame::MetricsSnapshot {
                    metrics: MetricsSnapshot::default(),
                    traces: vec![],
                    events: vec![],
                },
            ],
        ),
    ]
}

/// `(name, SHA-256 of the bytes)`, in a fixed order.
fn digests() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (index, (name, frames)) in frames().into_iter().enumerate() {
        let mut bytes = Vec::new();
        for frame in &frames {
            assert_eq!(
                frame.kind() as usize,
                index + 1,
                "{name}: sample sits under the wrong kind"
            );
            let encoded = encode_frame(frame, u32::MAX).expect("encode");
            // The decoder reads exactly what the pinned encoder wrote.
            let decoded = decode_frame(&encoded, u32::MAX).expect("decode");
            assert_eq!(encode_frame(&decoded, u32::MAX).expect("re-encode"), encoded, "{name}");
            bytes.extend_from_slice(&encoded);
        }
        out.push((name, digest_hex(&bytes)));
    }
    let mut statement = Vec::new();
    write_statement_payload(&mut statement, &query(SupportCategory::ClientPostProcessing));
    out.push(("statement payload", digest_hex(&statement)));
    let mut filter_bytes = Vec::new();
    write_filters_payload(&mut filter_bytes, &filters());
    out.push(("filters payload", digest_hex(&filter_bytes)));
    out
}

/// Recorded at 8b7e7b3 (the parent of PR 18), before the codec moved; in the
/// order of [`digests`].
const RECORDED: [&str; 20] = [
    "482c51583763e96070919c76c059462d429cd66cd78ddb6be4e40aa8c97075bb", // 01 request
    "e5959616e5c53c1a2e263adf7c932e419d1a17a313458e03fbe352d02da09fc0", // 02 response
    "1f60b780bf8b187fb57347ed8f69948923e4884e9f16e57c94cad9e7e4cb9ea3", // 03 error
    "1192852d58927a32a52326c1936582d4e304ae1fecc65d6c03a4ec173aa81a80", // 04 schema request
    "43236a9bd76ddb5c26c6f460a4c2cb5781139a6241dc59d802ffa2170d670936", // 05 schema
    "ccaaecf476e184a43c3dafcd42ee9a5b41e6430ff3b166b6446ef5a191c35dfd", // 06 worker handshake
    "e4c2b997771d3e4110dbdc25c829bf33b457b2f3f792eec838b4be17dff445af", // 07 worker ready
    "ee9cd096a27122944739c1ddda27dd2601909822dc7b73350dee098ca96475e1", // 08 load shard
    "f2366797be40dda52098b86c0b448ada3c0fce6b722698d4b3bd0b50a98bd6a7", // 09 shard loaded
    "48a2abafca8893409ee8eab70d5ad8b07997e40fb7925d814c5f4a1a5fca6a66", // 10 shard query
    "d456ca630bff2aad6c5fcf8289bc9471f2987444843b9817fb588535c1f540b9", // 11 shard partial
    "4e4e95e31cc2af002be211b09a261c4a4561670f1c05104045c462b92957e79b", // 12 prepare statement
    "bd096e5673f410b5143b45e4ee36409e18ad3109b83a4cf2029231c41c202814", // 13 statement prepared
    "ae309c7694a1e9248d9f9617c2d37ae87e01206cb3b2dfcc4093b1d7348aec88", // 14 execute statement
    "b79e738bd916dc06b8958c76fc2dd6be8b4f7da8cca133734974e11123473f43", // 15 unload shard
    "9b416b8c3e0f0a21f17f6294345e4d6223a7e1e6d34ce96273356ad8bbaa2191", // 16 shard unloaded
    "7704fe4c80f4e2b50c1013162ff5eaaa1209e53a3e28735bcae3b3663e4e9253", // 17 metrics request
    "7523006d1832d84d46c0176a91d3d618c6513ed495622dec147af2f87264c3d9", // 18 metrics snapshot
    "c5391425bedbb1fd0625dc2d85b232bcaaa0727b4ee69d34600e93fed57bd598", // statement payload
    "8ac7fa1afb7e2594b444c05cc02d6d0f1b54093b79f581a703929e1e1ceafae8", // filters payload
];

#[test]
fn every_frame_kind_encodes_to_its_recorded_bytes() {
    let got = digests();
    for (name, digest) in &got {
        println!("    \"{digest}\", // {name}");
    }
    assert_eq!(got.len(), RECORDED.len());
    for ((name, digest), recorded) in got.iter().zip(RECORDED) {
        assert_eq!(digest, recorded, "{name}: the encoded bytes moved");
    }
}
