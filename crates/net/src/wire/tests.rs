#![cfg(test)]
//! Unit tests of the wire format: one generic harness ([`check_wire`]) run
//! over every [`Wire`] type and over every frame kind, plus the cases that
//! are about one type's meaning rather than its round trip (redaction,
//! deterministic map order, the bucket range check, the header).

use super::codec::{invalid_tag, Reader, Wire};
use super::*;
use seabed_ashe::IdSet;
use seabed_core::{EncryptedAggregate, GroupIds, GroupResult};
use seabed_crypto::OreCiphertext;
use seabed_encoding::{varint, IdListEncoding};
use seabed_engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroup, PartialGroups};
use seabed_engine::{ColumnData, ColumnType, ExecStats, Field, OperatorProfile};
use seabed_error::{ParseError, SchemaError};
use seabed_obs::{EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, QueryTrace, TraceSpan};
use seabed_query::{
    ClientPostStep, CompareOp, GroupByColumn, Literal, ParamKind, ParamSlot, Predicate, ServerAggregate,
    SupportCategory,
};
use std::collections::HashMap;
use std::fmt::Debug;
use std::time::Duration;

// ---------------------------------------------------------------------------
// The generic harness
// ---------------------------------------------------------------------------

/// A varint claiming `u64::MAX` — a forged count, or a tag no table lists.
const FORGED: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

fn encoded<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes exactly one `T` from `bytes`: trailing bytes are an error.
fn decode_all<T: Wire>(bytes: &[u8]) -> Result<T, SeabedError> {
    let mut r = Reader::new(bytes);
    let value = r.get()?;
    r.finish()?;
    Ok(value)
}

fn assert_wire_error<T: Debug>(outcome: Result<T, SeabedError>, what: &str) {
    assert!(
        matches!(outcome, Err(SeabedError::Wire(_))),
        "{what}: expected a wire error, got {outcome:?}"
    );
}

/// What every `Wire` type owes the link, checked for each sample:
/// `decode(encode(x)) == x`; every strict prefix is a wire error (the format
/// is self-delimiting, so truncation is detectable at every byte); one
/// trailing byte is a wire error; and a maximal varint spliced over any one
/// byte — wherever a count, a length or a tag sits — never panics and never
/// hangs. With `carrier`, the type leads with a count or a tag (`Vec`, map,
/// `Option`), and forging that is a wire error too.
fn check<T: Wire + PartialEq + Debug>(samples: &[T], carrier: bool) {
    let ty = std::any::type_name::<T>();
    assert!(!samples.is_empty(), "{ty}: no samples");
    for sample in samples {
        let bytes = encoded(sample);
        assert_eq!(decode_all::<T>(&bytes).as_ref(), Ok(sample), "{ty}: round trip");
        for cut in 0..bytes.len() {
            assert_wire_error(
                decode_all::<T>(&bytes[..cut]),
                &format!("{ty}: prefix {cut}/{}", bytes.len()),
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_wire_error(decode_all::<T>(&longer), &format!("{ty}: trailing byte"));
        for at in 0..bytes.len() {
            let forged = [&bytes[..at], &FORGED[..], &bytes[at + 1..]].concat();
            let outcome = decode_all::<T>(&forged);
            if carrier && at == 0 {
                assert_wire_error(outcome, &format!("{ty}: forged count"));
            }
        }
    }
}

fn check_wire<T: Wire + PartialEq + Debug>(samples: &[T]) {
    check(samples, false);
}

fn check_carrier<T: Wire + PartialEq + Debug>(samples: &[T]) {
    check(samples, true);
}

/// A payload does not say its own kind, so [`Frame`] is not `Wire`; for the
/// harness it is, led by the kind byte the header would carry.
impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.kind() as u8);
        self.encode_payload(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Frame, SeabedError> {
        let byte = r.u8()?;
        let kind = FrameKind::from_u8(byte).ok_or_else(|| invalid_tag("frame kind", byte))?;
        Frame::decode_payload(kind, r)
    }
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

fn sample_query() -> TranslatedQuery {
    TranslatedQuery {
        base_table: "sales".to_string(),
        filters: vec![
            ServerFilter::Plain(Predicate {
                column: "hour".to_string(),
                op: CompareOp::GtEq,
                value: Literal::Integer(6),
            }),
            ServerFilter::DetEquals {
                column: "country__det".to_string(),
                value: "USA".to_string(),
            },
            ServerFilter::OpeCompare {
                column: "ts__ope".to_string(),
                op: CompareOp::Lt,
                value: u64::MAX,
            },
        ],
        aggregates: sample_aggregates(),
        group_by: vec![GroupByColumn {
            column: "dept".to_string(),
            physical_column: "dept__det".to_string(),
            encrypted: true,
        }],
        group_inflation: 7,
        client_post: sample_post_steps(),
        preserve_row_ids: true,
        category: SupportCategory::ClientPostProcessing,
        params: vec![
            ParamSlot {
                filter_index: 1,
                column: "country".to_string(),
                kind: ParamKind::Det,
            },
            ParamSlot {
                filter_index: 2,
                column: "ts".to_string(),
                kind: ParamKind::Ope,
            },
        ],
    }
}

fn sample_aggregates() -> Vec<ServerAggregate> {
    vec![
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
    ]
}

fn sample_post_steps() -> Vec<ClientPostStep> {
    vec![
        ClientPostStep::Divide {
            numerator: 0,
            denominator: 1,
        },
        ClientPostStep::Variance {
            sum_squares: 0,
            sum: 1,
            count: 2,
        },
        ClientPostStep::SqrtOfVariance { variance_step: 0 },
        ClientPostStep::MergeInflatedGroups,
    ]
}

fn sample_filters() -> Vec<PhysicalFilter> {
    vec![
        PhysicalFilter::PlainU64 {
            column: 3,
            op: CompareOp::GtEq,
            value: 6,
        },
        PhysicalFilter::PlainText {
            column: 1,
            value: "USA".to_string(),
        },
        PhysicalFilter::DetTag {
            column: 2,
            tag: 0xdead_beef_dead_beef,
        },
        PhysicalFilter::Ope {
            column: 4,
            op: CompareOp::Lt,
            ciphertext: OreCiphertext {
                symbols: (0..16u8).map(|i| i.wrapping_mul(0x25)).collect(),
            },
        },
    ]
}

fn sample_encrypted_aggregates() -> Vec<EncryptedAggregate> {
    vec![
        EncryptedAggregate::AsheSum { value: u64::MAX },
        EncryptedAggregate::AsheSum { value: 7 },
        EncryptedAggregate::Count { rows: 42 },
        EncryptedAggregate::Extreme {
            value_word: 9,
            row_id: Some(77),
        },
        EncryptedAggregate::Extreme {
            value_word: 0,
            row_id: None,
        },
    ]
}

fn sample_stats() -> ExecStats {
    ExecStats {
        wall_time: Duration::from_micros(800),
        operators: vec![OperatorProfile {
            label: "filter:det:country__det".to_string(),
            rows_in: 100,
            rows_out: 10,
            batches: 1,
            nanos: 1234,
        }],
    }
}

fn sample_response() -> ServerResponse {
    let aggregates = sample_encrypted_aggregates();
    ServerResponse {
        groups: vec![
            // Two sums and a count over one selection: one ID list.
            GroupResult {
                key: vec![],
                ids: Some(GroupIds {
                    id_list: vec![1, 2, 3, 0x80, 0xff],
                    encoding: IdListEncoding::SpanBitmap,
                }),
                aggregates: aggregates[..3].to_vec(),
            },
            GroupResult {
                key: vec![5, 0, u64::MAX],
                ids: None,
                aggregates: aggregates[3..].to_vec(),
            },
        ],
        stats: sample_stats(),
    }
}

fn sample_partial_aggregates() -> Vec<PartialAggregate> {
    vec![
        PartialAggregate::Sum { value: u64::MAX },
        PartialAggregate::Sum { value: 7 },
        PartialAggregate::Count,
        PartialAggregate::Extreme {
            best: Some(ExtremeCandidate {
                ciphertext: OreCiphertext {
                    symbols: vec![0b00_01_10_00; 16],
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
    ]
}

fn sample_partial() -> PartialResponse {
    let partials = sample_partial_aggregates();
    let mut groups = PartialGroups::new();
    groups.insert(
        vec![],
        PartialGroup {
            ids: IdSet::from_sorted_ids(&[1, 2, 3, 900]),
            aggregates: partials[..3].to_vec(),
        },
    );
    groups.insert(vec![7, u64::MAX], PartialGroup::new(partials[3..].to_vec()));
    PartialResponse {
        groups,
        stats: sample_stats(),
    }
}

fn sample_metrics_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![("net_requests".to_string(), 42), ("hedged_reads".to_string(), 3)],
        gauges: vec![("shard_store_size".to_string(), 8)],
        histograms: vec![(
            "shard_execute_ns".to_string(),
            HistogramSnapshot {
                count: 5,
                sum: 1_000_000,
                max: 400_000,
                buckets: vec![(12, 2), (19, 3)],
            },
        )],
    }
}

fn sample_traces() -> Vec<QueryTrace> {
    vec![QueryTrace {
        trace_id: 0xfeed_f00d,
        statement_id: 0xdead_beef,
        node: "worker:9042".to_string(),
        spans: vec![TraceSpan {
            name: "shard-execute".to_string(),
            start_ns: 100,
            duration_ns: 250_000,
        }],
    }]
}

fn sample_events() -> Vec<QueryEvent> {
    vec![QueryEvent {
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
    }]
}

fn sample_table() -> Table {
    Table::from_columns(
        Schema::new([
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("delta".to_string(), ColumnType::Int64),
            ("country".to_string(), ColumnType::Utf8),
            ("ts__ope".to_string(), ColumnType::Bytes),
        ]),
        vec![
            ColumnData::UInt64((0..10).collect()),
            ColumnData::Int64((0..10).map(|i| i - 5).collect()),
            ColumnData::Utf8((0..10).map(|i| format!("C{}", i % 3)).collect()),
            ColumnData::Bytes((0..10usize).map(|i| vec![i as u8; i % 4]).collect()),
        ],
        2,
    )
}

fn sample_errors() -> Vec<SeabedError> {
    let mut errors = vec![
        SeabedError::Parse(ParseError {
            message: "bad token".to_string(),
            position: 17,
        }),
        SeabedError::Translate("no can do".to_string()),
        SeabedError::Plan("p".to_string()),
        SeabedError::Crypto("c".to_string()),
        SeabedError::Encoding("e".to_string()),
        SeabedError::Engine("boom".to_string()),
        SeabedError::Net("reset".to_string()),
        SeabedError::Wire("garbage".to_string()),
        SeabedError::Dist {
            worker: "127.0.0.1:9999".to_string(),
            message: "stalled mid-query".to_string(),
        },
        SeabedError::StaleStatement(u64::MAX),
    ];
    errors.extend(sample_schema_errors().into_iter().map(SeabedError::Schema));
    errors
}

fn sample_schema_errors() -> Vec<SchemaError> {
    vec![
        SchemaError::UnknownColumn("x".to_string()),
        SchemaError::UnknownPhysicalColumn("y__det".to_string()),
        SchemaError::TypeMismatch {
            column: "c".to_string(),
            expected: "UInt64".to_string(),
            actual: "Utf8".to_string(),
        },
        SchemaError::CorruptPartition {
            partition: 3,
            detail: "short column".to_string(),
        },
        SchemaError::UnknownTable("ghosts".to_string()),
        SchemaError::ParamCount { expected: 2, actual: 0 },
    ]
}

/// At least one frame of each of the 18 kinds, every variable-length field
/// populated.
fn sample_frames() -> Vec<Frame> {
    let exec = ShardExecConfig {
        local_threads: 4,
        exec_mode: ExecMode::Scalar,
    };
    let mut frames = vec![
        Frame::Request {
            query: redact_query(&sample_query()),
            filters: sample_filters(),
            trace_id: 0xfeed_f00d,
            analyze: true,
        },
        Frame::Response(sample_response()),
        Frame::SchemaRequest,
        Frame::Schema(sample_table().schema),
        Frame::WorkerHandshake { epoch: u64::MAX },
        Frame::WorkerReady { epoch: 7, shards: 3 },
        Frame::LoadShard {
            epoch: 7,
            table_id: 1,
            shard: 2,
            exec,
            table: sample_table(),
        },
        Frame::ShardLoaded {
            epoch: 7,
            table_id: 1,
            shard: 2,
            rows: 50,
        },
        Frame::ShardQuery {
            epoch: 7,
            table_id: 1,
            shard: 2,
            seq: 99,
            query: redact_query(&sample_query()),
            filters: sample_filters(),
            trace_id: 0xabad_1dea,
            analyze: true,
        },
        Frame::ShardPartial {
            epoch: 7,
            table_id: 1,
            shard: 2,
            seq: 99,
            partial: sample_partial(),
        },
        Frame::PrepareStatement {
            query: redact_query(&sample_query()),
        },
        Frame::StatementPrepared { handle: u64::MAX },
        Frame::ExecuteStatement {
            handle: 0xdead_beef,
            filters: sample_filters(),
            trace_id: u64::MAX,
        },
        Frame::UnloadShard {
            epoch: 7,
            table_id: 1,
            shard: 2,
        },
        Frame::ShardUnloaded {
            epoch: 7,
            table_id: 1,
            shard: 2,
            remaining: 4,
        },
        Frame::MetricsRequest {
            include_traces: true,
            include_events: false,
        },
        Frame::MetricsRequest {
            include_traces: false,
            include_events: true,
        },
        Frame::MetricsSnapshot {
            metrics: sample_metrics_snapshot(),
            traces: sample_traces(),
            events: sample_events(),
        },
        Frame::MetricsSnapshot {
            metrics: MetricsSnapshot::default(),
            traces: vec![],
            events: vec![],
        },
    ];
    frames.extend(sample_errors().into_iter().map(Frame::Error));
    frames
}

// ---------------------------------------------------------------------------
// The harness over every `Wire` type
// ---------------------------------------------------------------------------

#[test]
fn primitives_and_containers_obey_the_wire_contract() {
    check_wire(&[0u64, 1, 127, 128, 0xfeed_beef_cafe_f00d, u64::MAX]);
    check_wire(&[0u32, 300, u32::MAX]);
    check_wire(&[0usize, 300, usize::MAX]);
    check_wire(&[false, true]);
    check_wire(&[String::new(), "sales".to_string(), "żółć — ünï".to_string()]);
    check_wire(&[Duration::ZERO, Duration::from_nanos(1), Duration::from_nanos(u64::MAX)]);
    check_wire(&[("a".to_string(), 7u64), (String::new(), u64::MAX)]);
    check_carrier(&[None, Some(0u64), Some(u64::MAX)]);
    check_carrier(&[vec![], vec![0u64], vec![5, 0, u64::MAX]]);
    check_carrier(&[vec![vec!["nested".to_string()], vec![]]]);
    check_carrier(&[
        HashMap::new(),
        HashMap::from([(3u64, "c".to_string()), (1, "a".to_string()), (2, String::new())]),
    ]);
    // A narrow integer refuses what does not fit it, instead of truncating.
    assert_wire_error(decode_all::<u32>(&encoded(&(u64::from(u32::MAX) + 1))), "u32 overflow");
    assert_wire_error(decode_all::<bool>(&[2]), "bool tag");
    assert_wire_error(decode_all::<String>(&[2, 0xff, 0xfe]), "invalid UTF-8");
}

#[test]
fn query_layer_types_obey_the_wire_contract() {
    check_wire(&[
        CompareOp::Eq,
        CompareOp::NotEq,
        CompareOp::Lt,
        CompareOp::LtEq,
        CompareOp::Gt,
        CompareOp::GtEq,
    ]);
    check_wire(&[
        Literal::Integer(u64::MAX),
        Literal::Text("emea".to_string()),
        Literal::Param(3),
    ]);
    check_wire(&[Predicate {
        column: "hour".to_string(),
        op: CompareOp::GtEq,
        value: Literal::Integer(6),
    }]);
    let redacted = redact_query(&sample_query());
    check_wire(&redacted.filters);
    check_wire(&sample_aggregates());
    check_wire(&redacted.group_by);
    check_wire(&[ParamKind::Plain, ParamKind::Det, ParamKind::Ope]);
    check_wire(&redacted.params);
    check_wire(&[redacted]);
    check_wire(&[
        OreCiphertext { symbols: vec![] },
        OreCiphertext {
            symbols: (0..16u8).map(|i| i.wrapping_mul(0x25)).collect(),
        },
    ]);
    check_wire(&sample_filters());
    check_carrier(&[sample_filters()]);
}

#[test]
fn result_layer_types_obey_the_wire_contract() {
    check_wire(&IdListEncoding::ALL);
    check_wire(&sample_encrypted_aggregates());
    let response = sample_response();
    check_carrier(&[response.groups[0].ids.clone(), None]);
    check_wire(&response.groups);
    check_carrier(std::slice::from_ref(&response.groups));
    check_wire(&response.stats.operators);
    check_wire(&[response.stats.clone(), ExecStats::default()]);
    check_wire(&[response]);
}

#[test]
fn partial_result_types_obey_the_wire_contract() {
    // Sets whose smallest containers are, in turn, each of the three.
    let every = |step: u64| IdSet::from_sorted_ids(&(0..40).map(|i| i * step).collect::<Vec<_>>());
    let sets = [
        IdSet::new(),
        IdSet::range(5, 10),
        every(20),
        every(2),
        IdSet::range(0, u64::MAX),
    ];
    let containers: Vec<IdListEncoding> = sets.iter().map(|set| set.smallest_encoding().0).collect();
    let [ranges, per_id, bitmap] = IdListEncoding::ALL;
    assert_eq!(containers, [ranges, ranges, per_id, bitmap, ranges]);
    check_carrier(&sets);
    check_wire(&[ExtremeCandidate {
        ciphertext: OreCiphertext {
            symbols: vec![0b00_01_10_00; 16],
        },
        value_word: 42,
        row_id: 17,
    }]);
    check_wire(&sample_partial_aggregates());
    let partial = sample_partial();
    check_wire(&partial.groups.values().cloned().collect::<Vec<PartialGroup>>());
    check_carrier(&[partial.groups.clone(), PartialGroups::new()]);
    check_wire(&[partial]);
}

#[test]
fn telemetry_types_obey_the_wire_contract() {
    check_wire(&[
        (0u8, 0u64),
        (12, 2),
        (seabed_obs::HISTOGRAM_BUCKETS as u8 - 1, u64::MAX),
    ]);
    let snapshot = sample_metrics_snapshot();
    check_wire(&[snapshot.histograms[0].1.clone(), HistogramSnapshot::default()]);
    check_carrier(std::slice::from_ref(&snapshot.counters));
    check_carrier(std::slice::from_ref(&snapshot.histograms));
    check_wire(&[snapshot, MetricsSnapshot::default()]);
    let traces = sample_traces();
    check_wire(&traces[0].spans);
    check_wire(&traces);
    check_carrier(&[traces]);
    let events = sample_events();
    check_wire(&events[0].operators);
    check_wire(&events);
    check_carrier(&[events]);
}

#[test]
fn schema_shard_and_error_types_obey_the_wire_contract() {
    check_wire(&[
        ColumnType::UInt64,
        ColumnType::Int64,
        ColumnType::Utf8,
        ColumnType::Bytes,
    ]);
    let table = sample_table();
    check_wire::<Field>(&table.schema.fields);
    check_wire(&[table.schema.clone(), Schema::default()]);
    check_wire(&[ExecMode::Scalar, ExecMode::Vectorized]);
    check_wire(&[
        ShardExecConfig {
            local_threads: 4,
            exec_mode: ExecMode::Scalar,
        },
        ShardExecConfig {
            local_threads: u32::MAX,
            exec_mode: ExecMode::Vectorized,
        },
    ]);
    check_wire(&[table]);
    check_wire(&[ParseError {
        message: "bad token".to_string(),
        position: 17,
    }]);
    check_wire(&sample_schema_errors());
    check_wire(&sample_errors());
}

/// Every frame kind through the same harness (payload led by its kind byte),
/// and through the public slice-level entry points.
#[test]
fn every_frame_kind_obeys_the_wire_contract() {
    let frames = sample_frames();
    for kind in FrameKind::ALL {
        assert!(
            frames.iter().any(|frame| frame.kind() == *kind),
            "no sample of {kind:?}"
        );
        assert_eq!(FrameKind::from_u8(*kind as u8), Some(*kind));
    }
    check_wire(&frames);
    for frame in &frames {
        let bytes = encode_frame(frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(&decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), frame);
        assert_eq!(bytes[6], frame.kind() as u8);
        assert_eq!(bytes.len() - HEADER_LEN, encoded(frame).len() - 1);
    }
}

// ---------------------------------------------------------------------------
// What is about one type's meaning, not its round trip
// ---------------------------------------------------------------------------

/// The one plan-content hash is FNV-1a over the statement payload, and the
/// handle it gives the sample plan is the one recorded before its four
/// spelled-out copies (server store, event id, client handle cache,
/// coordinator cache key) became this function.
#[test]
fn statement_hash_is_the_recorded_handle() {
    let query = sample_query();
    let mut payload = Vec::new();
    write_statement_payload(&mut payload, &query);
    assert_eq!(statement_hash(&query), seabed_core::fnv1a64(&payload));
    assert_eq!(statement_hash(&query), 0xf880_193e_5b31_ac2c);
    // What stays with the key holder never reaches the hash.
    assert_eq!(statement_hash(&redact_query(&query)), statement_hash(&query));
}

#[test]
fn request_frame_roundtrips_with_literals_redacted() {
    let frame = Frame::Request {
        query: sample_query(),
        filters: sample_filters(),
        trace_id: 0xfeed_f00d,
        analyze: true,
    };
    let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
    let expected = Frame::Request {
        query: redact_query(&sample_query()),
        filters: sample_filters(),
        trace_id: 0xfeed_f00d,
        analyze: true,
    };
    assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), expected);
    // A query whose filters are already redacted round-trips exactly.
    let redacted = encode_frame(&expected, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(decode_frame(&redacted, DEFAULT_MAX_FRAME_LEN).unwrap(), expected);
}

/// The untrusted server must never see the plaintext literal of a DET or
/// OPE predicate — only the proxy-encrypted `PhysicalFilter` carries the
/// (encrypted) value — nor anything of the plan that only the key holder
/// reads: a logical column name, a post-processing step. Byte-scanned in
/// every frame kind that carries a plan.
#[test]
fn request_frames_do_not_leak_det_or_ope_literals() {
    fn varint_of(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        varint::encode_u64(value, &mut out);
        out
    }
    let secret = "SECRET-DET-LITERAL";
    // Logical names no physical column name contains, and step operands whose
    // varints appear nowhere else in the plan.
    let (group_name, param_name) = ("LOGICAL-GROUP-NAME", "LOGICAL-PARAM-NAME");
    let (step_a, step_b) = (0x5ea_bed0_0000_0001u64, 0x5ea_bed0_0000_0002u64);
    let query = TranslatedQuery {
        base_table: "t".to_string(),
        filters: vec![
            ServerFilter::DetEquals {
                column: "country__det".to_string(),
                value: secret.to_string(),
            },
            ServerFilter::OpeCompare {
                column: "ts__ope".to_string(),
                op: CompareOp::GtEq,
                value: 0xfeed_beef_cafe_f00d,
            },
        ],
        aggregates: vec![
            ServerAggregate::AsheSum {
                column: "m__ashe".to_string(),
            },
            ServerAggregate::CountRows,
        ],
        group_by: vec![GroupByColumn {
            column: group_name.to_string(),
            physical_column: "dept__det".to_string(),
            encrypted: true,
        }],
        group_inflation: 3,
        client_post: vec![
            ClientPostStep::Divide {
                numerator: step_a as usize,
                denominator: step_b as usize,
            },
            ClientPostStep::MergeInflatedGroups,
        ],
        preserve_row_ids: true,
        category: SupportCategory::ClientPostProcessing,
        params: vec![ParamSlot {
            filter_index: 0,
            column: param_name.to_string(),
            kind: ParamKind::Det,
        }],
    };
    let frames = [
        Frame::Request {
            query: query.clone(),
            filters: vec![],
            trace_id: 0,
            analyze: false,
        },
        Frame::PrepareStatement { query: query.clone() },
        Frame::ShardQuery {
            epoch: 1,
            table_id: 0,
            shard: 0,
            seq: 1,
            query: query.clone(),
            filters: vec![],
            trace_id: 0,
            analyze: false,
        },
    ];
    let mut statement = Vec::new();
    write_statement_payload(&mut statement, &query);
    let carriers = frames
        .iter()
        .map(|frame| {
            (
                format!("{:?}", frame.kind()),
                encode_frame(frame, DEFAULT_MAX_FRAME_LEN).unwrap(),
            )
        })
        .chain([("statement payload".to_string(), statement.clone())]);
    for (what, bytes) in carriers {
        let found = |needle: &[u8]| bytes.windows(needle.len()).any(|w| w == needle);
        assert!(!found(secret.as_bytes()), "{what}: DET literal leaked");
        assert!(!found(&varint_of(0xfeed_beef_cafe_f00d)), "{what}: OPE literal leaked");
        assert!(!found(group_name.as_bytes()), "{what}: logical group-by name leaked");
        assert!(!found(param_name.as_bytes()), "{what}: logical placeholder name leaked");
        assert!(
            !found(&varint_of(step_a)) && !found(&varint_of(step_b)),
            "{what}: a client post-processing step leaked"
        );
        // What the server does execute is there.
        assert!(
            found(b"dept__det") && found(b"country__det") && found(b"m__ashe"),
            "{what}"
        );
    }
    // The plan travels as the bytes of its redacted image, which is what the
    // statement handle and the coordinator's cache key hash.
    let mut redacted = Vec::new();
    write_statement_payload(&mut redacted, &redact_query(&query));
    assert_eq!(statement, redacted);
    assert_eq!(
        decode_all::<TranslatedQuery>(&statement).as_ref(),
        Ok(&redact_query(&query))
    );
}

/// Protocol versions 4 to 6 are gone, not kept beside version 7: a frame
/// whose header says any of them is refused with the typed error naming both
/// versions, whatever it carries.
#[test]
fn an_older_version_frame_is_refused_naming_both_versions() {
    assert_eq!(PROTOCOL_VERSION, 7);
    for old in [4u16, 5, 6] {
        for frame in [Frame::SchemaRequest, Frame::Response(sample_response())] {
            let mut bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            let outcome = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN);
            let expected = format!("unsupported protocol version {old} (this side speaks 7)");
            assert!(
                matches!(&outcome, Err(SeabedError::Wire(message)) if *message == expected),
                "{outcome:?}"
            );
        }
    }
}

#[test]
fn metrics_snapshot_rejects_out_of_range_bucket_index() {
    let frame = Frame::MetricsSnapshot {
        metrics: seabed_obs::MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![(
                "h".to_string(),
                seabed_obs::HistogramSnapshot {
                    count: 1,
                    sum: 1,
                    max: 1,
                    buckets: vec![(seabed_obs::HISTOGRAM_BUCKETS as u8, 1)],
                },
            )],
        },
        traces: vec![],
        events: vec![],
    };
    let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert!(matches!(
        decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

/// A partial response serializes deterministically (groups sorted by key)
/// even though it is carried in a `HashMap`.
#[test]
fn partial_response_encoding_is_deterministic() {
    let frame = Frame::ShardPartial {
        epoch: 1,
        table_id: 0,
        shard: 0,
        seq: 1,
        partial: sample_partial(),
    };
    let a = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
    let b = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(a, b);
}

#[test]
fn corrupt_shard_table_payload_is_a_wire_error() {
    let frame = Frame::LoadShard {
        epoch: 1,
        table_id: 0,
        shard: 0,
        exec: ShardExecConfig {
            local_threads: 1,
            exec_mode: ExecMode::Vectorized,
        },
        table: seabed_engine::Table::from_columns(
            Schema::new([("v".to_string(), ColumnType::UInt64)]),
            vec![seabed_engine::ColumnData::UInt64((0..10).collect())],
            2,
        ),
    };
    let good = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
    // Truncate inside the serialized table: decode must report, not panic.
    let mut bad = good.clone();
    let cut = good.len() - 8;
    bad.truncate(cut);
    bad[7..11].copy_from_slice(&((cut - HEADER_LEN) as u32).to_le_bytes());
    assert!(matches!(
        decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

#[test]
fn header_rejects_magic_version_and_oversized_length() {
    let good = encode_frame(&Frame::SchemaRequest, DEFAULT_MAX_FRAME_LEN).unwrap();
    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
    // Unknown version.
    let mut bad = good.clone();
    bad[4] = 0x99;
    assert!(matches!(
        decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
    // Oversized payload length.
    let mut bad = good.clone();
    bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
    // Unknown frame kind (valid header, rejected at payload decode).
    let mut bad = good;
    bad[6] = 200;
    assert!(matches!(
        decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = encode_frame(&Frame::Response(sample_response()), DEFAULT_MAX_FRAME_LEN).unwrap();
    bytes.push(0);
    assert!(matches!(
        decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

#[test]
fn encode_refuses_oversized_frames() {
    let frame = Frame::Error(SeabedError::engine("x".repeat(1024)));
    assert!(matches!(encode_frame(&frame, 16), Err(SeabedError::Wire(_))));
}
