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
//! each compared to a recorded SHA-256 digest. If it fails a wire layout
//! moved: fix the code, don't re-record, unless the PR's purpose is a
//! protocol change (and then `PROTOCOL_VERSION` moves with it).
//!
//! The digests were first recorded at the commit *before* the codec was
//! rewritten behind one `Wire` trait (PR 18), re-recorded once for protocol
//! version 5, once for version 6 and once for version 7, each time with the
//! reason it moved ([`RECORDED`]). A kind whose payload did not move keeps
//! its version-6 digest beside the new one, and the test re-derives it by
//! writing `6` back into the header — so "only the version field moved" is
//! checked, not claimed.

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
use seabed::obs::{EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, QueryTrace, TraceSpan};
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

/// `(name, SHA-256 of the bytes, SHA-256 of the bytes under a version-6
/// header)`, in a fixed order. The payload writers have no header, so their
/// two digests are one.
fn digests() -> Vec<(&'static str, String, String)> {
    let mut out = Vec::new();
    for (index, (name, frames)) in frames().into_iter().enumerate() {
        let (mut bytes, mut as_version_6) = (Vec::new(), Vec::new());
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
            encoded[4..6].copy_from_slice(&6u16.to_le_bytes());
            as_version_6.extend_from_slice(&encoded);
        }
        out.push((name, digest_hex(&bytes), digest_hex(&as_version_6)));
    }
    let mut statement = Vec::new();
    write_statement_payload(&mut statement, &query(SupportCategory::ClientPostProcessing));
    out.push(("statement payload", digest_hex(&statement), digest_hex(&statement)));
    let mut filter_bytes = Vec::new();
    write_filters_payload(&mut filter_bytes, &filters());
    out.push(("filters payload", digest_hex(&filter_bytes), digest_hex(&filter_bytes)));
    out
}

/// Why a digest differs from the one recorded for protocol version 6.
enum Moved {
    /// Only the header's version field: the bytes under a version-6 header
    /// still hash to the digest recorded for version 6. The payload writers
    /// have no header, so theirs is the digest itself.
    VersionOnly(&'static str),
    /// Exec stats carry only `wall_time` and `operators` — the task count,
    /// both task times, the modelled server time and the bytes-to-driver
    /// count are gone — and a response no longer carries `result_bytes`.
    MeasuredStatsOnly,
}
use Moved::*;

/// Recorded once for protocol version 7, in the order of [`digests`], each
/// with what moved it.
const RECORDED: [(&str, Moved); 20] = [
    // 01 request
    (
        "37f07cf42f016b4d577581809a6f1a2f319856051d31913434d52cc2a02ac39c",
        VersionOnly("bb12654e3941fbe5dfe56fa57b65fddefcdaf014453f2e3155110043a1a1c11e"),
    ),
    // 02 response
    (
        "e98c58b971f3b999cb58594f7179a8edaf75c15947fe120092c60c90dcaa1c1e",
        MeasuredStatsOnly,
    ),
    // 03 error
    (
        "b887b17585821d35eb4424f54a39def90eea0c076c1e7b595a41d954f271fec1",
        VersionOnly("c234c9e2922f9206485edbb76e7e0234dc845039b1d817d112204eb915c00096"),
    ),
    // 04 schema request
    (
        "10be5135be6c82307f8111af1c4cbccfe3f4694b9cc532421080b03de693d779",
        VersionOnly("bb9d5f974cfc40c2adaca77b11d285070a40add1c405de4b4c26c5338ec15c00"),
    ),
    // 05 schema
    (
        "4d557818e798bd62b39198d3406658701e7f61bbadf3d9cc68182c68c496e5ec",
        VersionOnly("7849b16bdf1358ee67588516dcd1bd387314fe60c847b5ffa4c78bf2f255640d"),
    ),
    // 06 worker handshake
    (
        "f554fea592713bc018760ce58b9ebfc871f4eedf720927b75752cef112d4143d",
        VersionOnly("e5a10810885881c35323b657769eaf5c1873723855e0efdc0c849d8a00193efb"),
    ),
    // 07 worker ready
    (
        "e8585ed1e6096ab8e578e28346a2cad499d9aecfffa4d051ef49412b4f4e3eb1",
        VersionOnly("ba72c3aff281761b3f0b635339023f2356c33daefa040f284ae31ebf7e4910d6"),
    ),
    // 08 load shard
    (
        "0e29055c593179e6a4092e95bdde8d058bc87ff4d03a4fda06fbdc6362dff2cf",
        VersionOnly("bbeda75d5ab4a44ff6a758530f569a6c6bd3f0aa5cadb030ee1af27cef907a57"),
    ),
    // 09 shard loaded
    (
        "0d0541f694599d6afd268c12ec559ef295d8271b668f53b3ca0884deae14d056",
        VersionOnly("d53a11f55d5a9e6328dbbcb41006fe54408703331fd1dcf1f6d46d2afbeb97d4"),
    ),
    // 10 shard query
    (
        "a050fa16b6d2fd97760676ce979b5e3de1a8d19d4a65750bdd338a7cb6e74d69",
        VersionOnly("8d2b056a2b9729b7d6e850763dc609d60eaeaa30f3d481bf132279a009301d34"),
    ),
    // 11 shard partial
    (
        "95e79cf156060da10468c1e3e6830c0427fb43936f9c097728f2f917f90288ca",
        MeasuredStatsOnly,
    ),
    // 12 prepare statement
    (
        "23d8c7500396770d7d9e62d4f614492ad14fea7e23eaf51e753404372cfe11af",
        VersionOnly("c556f4f255bbaa95e9d45a5d594fc28c22c6d01aceda008880c91fed2b2556c5"),
    ),
    // 13 statement prepared
    (
        "f6a4dc7bde748d5aa551b13751a81cbc9d1699b99a8546f082ed296f2f816d68",
        VersionOnly("b8fd1ac93dd70934219c6d07431f0afb7140f34fc6a2b41c57891565dc5ee25a"),
    ),
    // 14 execute statement
    (
        "aa11af5a1a033380bb3d36eda76d50c8c63e784442ff42bebac941fe478b8880",
        VersionOnly("d00dbf31a0d77b84c9a1b2959c68d3d39c0c67378ad8ac91d5f7d9f8685bc916"),
    ),
    // 15 unload shard
    (
        "b4bb802f9c805dc70a509310525c5dfd4ca7e225cd78ac90ea51a005d6d61fae",
        VersionOnly("4ecdd74f33c2cd552a06d11c2b15ae39e43d5921f437b35d9216c42b8f04aa72"),
    ),
    // 16 shard unloaded
    (
        "aed6380475e95b565ffd1496eba8830b6fe68854e44e8927699e438c4bdc4878",
        VersionOnly("631fb49abf8a86cde956bc5a2c291066676ddf8278233daae2207f3466d3538d"),
    ),
    // 17 metrics request
    (
        "0457266b8a57dcdd880788d096950b668810d4f4904e9c8915c25dcb25e02d56",
        VersionOnly("3297a68e92e06f4cf9c81e763300216837e204f79a5d3c475e524566e810c47e"),
    ),
    // 18 metrics snapshot
    (
        "0347545aa6cd9f918355d8236336b9e4bf4d00b9272bc95bc771059f382d2fb7",
        VersionOnly("f0760ac4108b97975cad22c7cff1cb24f2802c45f88b6742b8607e0ba83dccea"),
    ),
    // statement payload
    (
        "425f68b4226b44f7cb828e7dee53d304a8d1737326ebd41e4c2e65b2b908fb21",
        VersionOnly("425f68b4226b44f7cb828e7dee53d304a8d1737326ebd41e4c2e65b2b908fb21"),
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
    for ((name, digest, as_version_6), (recorded, moved)) in got.iter().zip(RECORDED) {
        assert_eq!(digest, recorded, "{name}: the encoded bytes moved");
        if let VersionOnly(version_6) = moved {
            assert_eq!(as_version_6, version_6, "{name}: more than the version field moved");
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
