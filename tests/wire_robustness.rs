//! Adversarial decode suite for the `seabed-net` wire format.
//!
//! The server decodes frames from untrusted peers (and the proxy decodes
//! frames from the untrusted server), so the wire layer gets the same
//! treatment the storage layer got in PR 2: truncation at every byte
//! boundary, forged and oversized length prefixes, unknown protocol versions
//! and plain garbage must all yield typed [`SeabedError::Wire`] errors —
//! never a panic, never a multi-gigabyte allocation — and randomized
//! round-trips must be lossless.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed::core::{EncryptedAggregate, GroupIds, GroupResult, PhysicalFilter, ServerResponse};
use seabed::encoding::{varint, IdListEncoding};
use seabed::engine::{ColumnData, ColumnType, ExecMode, ExecStats, OperatorProfile, Schema, Table};
use seabed::error::SeabedError;
use seabed::net::wire::{
    decode_frame, decode_payload, encode_frame, Frame, FrameKind, ShardExecConfig, DEFAULT_MAX_FRAME_LEN, HEADER_LEN,
};
use seabed::query::{
    ClientPostStep, CompareOp, GroupByColumn, Literal, Predicate, ServerAggregate, ServerFilter, SupportCategory,
    TranslatedQuery,
};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Randomized structure builders (driven by seeds from proptest)
// ---------------------------------------------------------------------------

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| char::from(b'a' + (rng.random_range(0..26u64) as u8)))
        .collect()
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    [
        CompareOp::Eq,
        CompareOp::NotEq,
        CompareOp::Lt,
        CompareOp::LtEq,
        CompareOp::Gt,
        CompareOp::GtEq,
    ][rng.random_range(0..6usize)]
}

fn random_query(rng: &mut StdRng) -> TranslatedQuery {
    let filters = (0..rng.random_range(0..4usize))
        .map(|_| match rng.random_range(0..3u64) {
            0 => ServerFilter::Plain(Predicate {
                column: random_string(rng),
                op: random_op(rng),
                value: if rng.random_range(0..2u64) == 0 {
                    Literal::Integer(rng.random::<u64>())
                } else {
                    Literal::Text(random_string(rng))
                },
            }),
            1 => ServerFilter::DetEquals {
                column: random_string(rng),
                value: random_string(rng),
            },
            _ => ServerFilter::OpeCompare {
                column: random_string(rng),
                op: random_op(rng),
                value: rng.random::<u64>(),
            },
        })
        .collect();
    let aggregates = (0..rng.random_range(1..4usize))
        .map(|_| match rng.random_range(0..4u64) {
            0 => ServerAggregate::AsheSum {
                column: random_string(rng),
            },
            1 => ServerAggregate::CountRows,
            2 => ServerAggregate::OpeMin {
                column: random_string(rng),
            },
            _ => ServerAggregate::OpeMax {
                column: random_string(rng),
            },
        })
        .collect();
    let group_by = (0..rng.random_range(0..3usize))
        .map(|_| GroupByColumn {
            column: random_string(rng),
            physical_column: random_string(rng),
            encrypted: rng.random_range(0..2u64) == 0,
        })
        .collect();
    let client_post = (0..rng.random_range(0..3usize))
        .map(|_| match rng.random_range(0..3u64) {
            0 => ClientPostStep::Divide {
                numerator: rng.random_range(0..8u64) as usize,
                denominator: rng.random_range(0..8u64) as usize,
            },
            1 => ClientPostStep::Variance {
                sum_squares: rng.random_range(0..8u64) as usize,
                sum: rng.random_range(0..8u64) as usize,
                count: rng.random_range(0..8u64) as usize,
            },
            _ => ClientPostStep::SqrtOfVariance {
                variance_step: rng.random_range(0..8u64) as usize,
            },
        })
        .collect();
    let params = (0..rng.random_range(0..3usize))
        .map(|_| seabed::query::ParamSlot {
            filter_index: rng.random_range(0..8u64) as usize,
            column: random_string(rng),
            kind: [
                seabed::query::ParamKind::Plain,
                seabed::query::ParamKind::Det,
                seabed::query::ParamKind::Ope,
            ][rng.random_range(0..3usize)],
        })
        .collect();
    TranslatedQuery {
        base_table: random_string(rng),
        filters,
        aggregates,
        group_by,
        client_post,
        preserve_row_ids: rng.random_range(0..2u64) == 0,
        category: [
            SupportCategory::ServerOnly,
            SupportCategory::ClientPreProcessing,
            SupportCategory::ClientPostProcessing,
            SupportCategory::TwoRoundTrips,
        ][rng.random_range(0..4usize)],
        params,
    }
}

fn random_filters(rng: &mut StdRng) -> Vec<PhysicalFilter> {
    (0..rng.random_range(0..5usize))
        .map(|_| match rng.random_range(0..4u64) {
            0 => PhysicalFilter::PlainU64 {
                column: rng.random_range(0..100u64) as usize,
                op: random_op(rng),
                value: rng.random::<u64>(),
            },
            1 => PhysicalFilter::PlainText {
                column: rng.random_range(0..100u64) as usize,
                value: random_string(rng),
            },
            2 => PhysicalFilter::DetTag {
                column: rng.random_range(0..100u64) as usize,
                tag: rng.random::<u64>(),
            },
            _ => {
                let len = rng.random_range(0..80usize);
                let mut symbols = vec![0u8; len];
                rng.fill(&mut symbols);
                PhysicalFilter::Ope {
                    column: rng.random_range(0..100u64) as usize,
                    op: random_op(rng),
                    ciphertext: seabed::crypto::OreCiphertext { symbols },
                }
            }
        })
        .collect()
}

fn random_operators(rng: &mut StdRng) -> Vec<OperatorProfile> {
    (0..rng.random_range(0..4usize))
        .map(|_| OperatorProfile {
            label: random_string(rng),
            rows_in: rng.random::<u64>(),
            rows_out: rng.random::<u64>(),
            batches: rng.random::<u64>(),
            nanos: rng.random::<u64>(),
        })
        .collect()
}

fn random_response(rng: &mut StdRng) -> ServerResponse {
    let encodings = IdListEncoding::ALL;
    let groups = (0..rng.random_range(0..5usize))
        .map(|_| {
            let key = (0..rng.random_range(0..3usize)).map(|_| rng.random::<u64>()).collect();
            let ids = (rng.random_range(0..2u64) == 0).then(|| {
                let len = rng.random_range(0..64usize);
                let mut id_list = vec![0u8; len];
                rng.fill(&mut id_list);
                GroupIds {
                    id_list,
                    encoding: encodings[rng.random_range(0..encodings.len() as u64) as usize],
                }
            });
            let aggregates = (0..rng.random_range(0..4usize))
                .map(|_| match rng.random_range(0..3u64) {
                    0 => EncryptedAggregate::AsheSum {
                        value: rng.random::<u64>(),
                    },
                    1 => EncryptedAggregate::Count {
                        rows: rng.random::<u64>(),
                    },
                    _ => EncryptedAggregate::Extreme {
                        value_word: rng.random::<u64>(),
                        row_id: if rng.random_range(0..2u64) == 0 {
                            None
                        } else {
                            Some(rng.random::<u64>())
                        },
                    },
                })
                .collect();
            GroupResult { key, ids, aggregates }
        })
        .collect();
    ServerResponse {
        groups,
        stats: ExecStats {
            wall_time: Duration::from_nanos(rng.random::<u64>() >> 20),
            operators: random_operators(rng),
        },
    }
}

// ---------------------------------------------------------------------------
// Round-trip property tests
// ---------------------------------------------------------------------------

mod roundtrip {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decode(encode(request)) == redact(request)` over randomized
        /// queries and physical filters: everything round-trips losslessly
        /// except the plaintext DET/OPE predicate literals, which the wire
        /// format redacts by construction (the server only reads the
        /// encrypted `PhysicalFilter`s). A second pass over the redacted
        /// image is a fixed point.
        #[test]
        fn request_roundtrip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let query = random_query(&mut rng);
            let filters = random_filters(&mut rng);
            let trace_id = rng.random::<u64>();
            let analyze = rng.random_range(0..2u64) == 1;
            let frame = Frame::Request { query: query.clone(), filters: filters.clone(), trace_id, analyze };
            let expected = Frame::Request { query: seabed::net::wire::redact_query(&query), filters, trace_id, analyze };
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), expected.clone());
            let redacted_bytes = encode_frame(&expected, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&redacted_bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), expected);
        }

        /// `decode(encode(response)) == response` over randomized responses.
        #[test]
        fn response_roundtrip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let frame = Frame::Response(random_response(&mut rng));
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), frame);
        }

        /// Arbitrary garbage after a valid header must decode to a typed
        /// error (or, astronomically rarely, a valid payload) — never panic.
        /// Sweeps every known frame kind (1–18, including the PREPARE /
        /// EXECUTE statement kinds, the shard unload pair, and the metrics
        /// scrape pair) plus a margin of unknown ones.
        #[test]
        fn garbage_payloads_never_panic(seed in any::<u64>(), len in 0usize..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut payload = vec![0u8; len];
            rng.fill(&mut payload);
            for kind in 0u8..22 {
                let _ = seabed::net::wire::decode_payload(kind, &payload);
            }
        }

        /// The prepared-statement frames round-trip losslessly (modulo the
        /// structural DET/OPE redaction requests already have).
        #[test]
        fn statement_frame_roundtrip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let query = random_query(&mut rng);
            let prepare = Frame::PrepareStatement { query: seabed::net::wire::redact_query(&query) };
            let bytes = encode_frame(&prepare, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), prepare);

            let handle = Frame::StatementPrepared { handle: rng.random::<u64>() };
            let bytes = encode_frame(&handle, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), handle);

            let execute = Frame::ExecuteStatement {
                handle: rng.random::<u64>(),
                trace_id: rng.random::<u64>(),
                filters: random_filters(&mut rng),
            };
            let bytes = encode_frame(&execute, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), execute);
        }

        /// A shard's table round-trips in a `LoadShard` frame: every column
        /// type, any row count, any partitioning.
        #[test]
        fn load_shard_roundtrip_all_column_types(rows in 0usize..500, partitions in 1usize..8) {
            let table = Table::from_columns(
                Schema::new([
                    ("a".to_string(), ColumnType::UInt64),
                    ("b".to_string(), ColumnType::Utf8),
                    ("c".to_string(), ColumnType::Int64),
                    ("d".to_string(), ColumnType::Bytes),
                ]),
                vec![
                    ColumnData::UInt64((0..rows as u64).map(|i| i * 31).collect()),
                    ColumnData::Utf8((0..rows).map(|i| format!("s{i}")).collect()),
                    ColumnData::Int64((0..rows as i64).map(|i| 250 - i).collect()),
                    ColumnData::Bytes((0..rows).map(|i| vec![(i % 256) as u8; i % 7]).collect()),
                ],
                partitions,
            );
            let frame = load_shard(table);
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("encode");
            prop_assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode"), frame);
        }

        /// A `LoadShard` payload cut anywhere is a typed error, never a panic.
        #[test]
        fn truncated_load_shard_is_a_typed_error(rows in 0usize..120, partitions in 1usize..6, cut_seed in any::<u64>()) {
            let table = Table::from_columns(
                Schema::new([
                    ("a".to_string(), ColumnType::UInt64),
                    ("b".to_string(), ColumnType::Bytes),
                ]),
                vec![
                    ColumnData::UInt64((0..rows as u64).collect()),
                    ColumnData::Bytes((0..rows).map(|i| vec![i as u8; i % 5]).collect()),
                ],
                partitions,
            );
            let bytes = encode_frame(&load_shard(table), DEFAULT_MAX_FRAME_LEN).expect("encode");
            let payload = &bytes[HEADER_LEN..];
            let cut = (cut_seed % payload.len() as u64) as usize;
            let outcome = decode_payload(FrameKind::LoadShard as u8, &payload[..cut]);
            prop_assert!(matches!(outcome, Err(SeabedError::Wire(_))), "{:?}", outcome);
        }
    }
}

/// A shard's load of `table`.
fn load_shard(table: Table) -> Frame {
    Frame::LoadShard {
        epoch: 1,
        table_id: 0,
        shard: 0,
        exec: ShardExecConfig {
            local_threads: 1,
            exec_mode: ExecMode::Vectorized,
        },
        table,
    }
}

// ---------------------------------------------------------------------------
// Deterministic adversarial cases
// ---------------------------------------------------------------------------

fn sample_frames() -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(0x5eabed);
    vec![
        Frame::Request {
            // Redacted form: the encode/decode image of a request (the wire
            // strips DET/OPE literals), so full-frame decodes compare equal.
            query: seabed::net::wire::redact_query(&random_query(&mut rng)),
            filters: random_filters(&mut rng),
            trace_id: 0x5eab_ed01,
            analyze: true,
        },
        Frame::Response(random_response(&mut rng)),
        Frame::ShardQuery {
            epoch: 0xe9_0c4,
            table_id: 1,
            shard: 3,
            seq: 77,
            trace_id: 0x5eab_ed02,
            analyze: true,
            query: seabed::net::wire::redact_query(&random_query(&mut rng)),
            filters: random_filters(&mut rng),
        },
        Frame::ShardPartial {
            epoch: 0xe9_0c4,
            table_id: 1,
            shard: 3,
            seq: 77,
            partial: seabed::core::PartialResponse {
                groups: seabed::engine::merge::PartialGroups::new(),
                stats: ExecStats {
                    operators: vec![OperatorProfile {
                        label: "filter:det:dept__det".to_string(),
                        rows_in: 1000,
                        rows_out: 10,
                        batches: 2,
                        nanos: 12_345,
                    }],
                    ..ExecStats::default()
                },
            },
        },
        Frame::Error(SeabedError::engine("boom")),
        Frame::Error(SeabedError::StaleStatement(0xdead_beef)),
        Frame::SchemaRequest,
        Frame::PrepareStatement {
            query: seabed::net::wire::redact_query(&random_query(&mut rng)),
        },
        Frame::StatementPrepared { handle: u64::MAX },
        Frame::ExecuteStatement {
            handle: 42,
            trace_id: 7,
            filters: random_filters(&mut rng),
        },
        Frame::MetricsRequest { include_events: true },
        Frame::MetricsSnapshot {
            metrics: seabed::obs::MetricsSnapshot {
                counters: vec![("net_requests_served".to_string(), 9)],
                gauges: vec![("shard_store_size".to_string(), 3)],
                histograms: vec![(
                    "net_request_ns".to_string(),
                    seabed::obs::HistogramSnapshot {
                        count: 2,
                        sum: 300,
                        max: 200,
                        buckets: vec![(7, 1), (8, 1)],
                    },
                )],
            },
            events: vec![seabed::obs::QueryEvent {
                trace_id: 0xfeed,
                statement_id: 0xbeef,
                node: "coordinator".to_string(),
                spans: vec![seabed::obs::TraceSpan {
                    name: "shard-execute".to_string(),
                    start_ns: 10,
                    duration_ns: 90,
                }],
                plan: "aggregate\n  scan sales".to_string(),
                operators: vec![seabed::obs::EventOperator {
                    label: "filter:det:dept__det".to_string(),
                    rows_in: 1000,
                    rows_out: 10,
                    batches: 2,
                    nanos: 12_345,
                }],
                total_ns: 123_456,
                slow: true,
                outcome: "ok".to_string(),
            }],
        },
    ]
}

/// Every strict prefix of a well-formed frame must be rejected with a typed
/// error — truncation is detectable at every byte boundary — and must never
/// panic.
#[test]
fn every_truncation_is_rejected_without_panic() {
    for frame in sample_frames() {
        let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("encode");
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).expect("full frame decodes"),
            frame
        );
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_LEN) {
                Err(SeabedError::Wire(_)) => {}
                other => panic!(
                    "prefix of {cut}/{} bytes: expected a wire error, got {other:?}",
                    bytes.len()
                ),
            }
        }
    }
}

/// A forged frame-level length prefix far beyond the limit is rejected at the
/// header, before any allocation could happen.
#[test]
fn oversized_frame_length_is_rejected_at_the_header() {
    let mut bytes = encode_frame(&Frame::SchemaRequest, DEFAULT_MAX_FRAME_LEN).expect("encode");
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
    // Same at a smaller configured limit: a payload of limit+1 is refused.
    let frame = Frame::Error(SeabedError::engine("x".repeat(128)));
    let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("encode");
    assert!(matches!(decode_frame(&bytes, 64), Err(SeabedError::Wire(_))));
}

/// Forged *interior* counts (a group vector claiming u64::MAX entries) must
/// fail cleanly: the capped pre-allocation cannot balloon, and the element
/// reads run out of bytes.
#[test]
fn forged_interior_counts_are_rejected() {
    let response = Frame::Response(ServerResponse {
        groups: vec![GroupResult {
            key: vec![1, 2, 3],
            ids: None,
            aggregates: vec![EncryptedAggregate::Count { rows: 9 }],
        }],
        stats: ExecStats::default(),
    });
    let bytes = encode_frame(&response, DEFAULT_MAX_FRAME_LEN).expect("encode");
    // The first payload byte is the varint group count; forge it into a
    // 10-byte maximal varint by splicing.
    let mut forged = bytes[..HEADER_LEN].to_vec();
    forged.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]); // u64::MAX
    forged.extend_from_slice(&bytes[HEADER_LEN + 1..]);
    // Patch the frame length to match the new payload size.
    let new_len = (forged.len() - HEADER_LEN) as u32;
    forged[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&new_len.to_le_bytes());
    assert!(matches!(
        decode_frame(&forged, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

/// A forged count on the v4 *trailing* vectors — the per-operator profile
/// list inside exec stats and the query-event list of a metrics snapshot —
/// must fail cleanly too: both are length-prefixed with capped
/// pre-allocation, so a claimed u64::MAX entries cannot balloon and the
/// element reads run out of bytes.
#[test]
fn forged_operator_and_event_counts_are_rejected() {
    let maximal_varint = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let patch_len = |bytes: &mut Vec<u8>| {
        let new_len = (bytes.len() - HEADER_LEN) as u32;
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&new_len.to_le_bytes());
    };

    // Response: the operators vector is the last field of the exec stats,
    // and the exec stats the last field of the response — the payload ends
    // `..., operators-count=0`. Splice the forged count in place of the zero.
    let response = Frame::Response(ServerResponse {
        groups: Vec::new(),
        stats: ExecStats::default(),
    });
    let bytes = encode_frame(&response, DEFAULT_MAX_FRAME_LEN).expect("encode");
    let mut forged = bytes[..bytes.len() - 1].to_vec();
    forged.extend_from_slice(&maximal_varint);
    patch_len(&mut forged);
    assert!(matches!(
        decode_frame(&forged, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));

    // MetricsSnapshot: events are the last vector; same splice at the tail.
    let snapshot = Frame::MetricsSnapshot {
        metrics: seabed::obs::MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        },
        events: Vec::new(),
    };
    let bytes = encode_frame(&snapshot, DEFAULT_MAX_FRAME_LEN).expect("encode");
    let mut forged = bytes[..bytes.len() - 1].to_vec();
    forged.extend_from_slice(&maximal_varint);
    patch_len(&mut forged);
    assert!(matches!(
        decode_frame(&forged, DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
}

/// The analyze flag and the profile/event payloads were a breaking layout
/// change, so they came with a protocol version bump (to 4), as the packed ORE
/// cells, the per-group ID list and the server's half of the plan did (to 5),
/// the ID lists' three closed-form containers did (to 6), the exec stats cut
/// to what the server measured did (to 7), the shard table written by the
/// one codec did (to 8), the one event list of the scrape frames did (to 9),
/// the plan without a group-inflation factor did (to 10) and the Elias–Fano
/// container with the fixed-width statement handle did (to 11): a frame
/// stamped with any earlier version is refused at the header.
#[test]
fn analyze_extensions_bumped_the_protocol_version() {
    use seabed::net::wire::PROTOCOL_VERSION;
    assert_eq!(
        PROTOCOL_VERSION, 11,
        "one bump for the Elias–Fano container and the 8-byte handle"
    );
    let good = encode_frame(&Frame::SchemaRequest, DEFAULT_MAX_FRAME_LEN).expect("encode");
    for earlier in [3u16, 4, 5, 6, 7, 8, 9, 10] {
        let mut stamped = good.clone();
        stamped[4..6].copy_from_slice(&earlier.to_le_bytes());
        assert!(matches!(
            decode_frame(&stamped, DEFAULT_MAX_FRAME_LEN),
            Err(SeabedError::Wire(_))
        ));
    }
}

/// Unknown protocol versions and unknown frame kinds yield typed errors.
#[test]
fn unknown_version_and_kind_are_typed_errors() {
    use seabed::net::wire::PROTOCOL_VERSION;
    let good = encode_frame(&Frame::SchemaRequest, DEFAULT_MAX_FRAME_LEN).expect("encode");
    for version in [0u16, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 12, u16::MAX] {
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        let outcome = decode_frame(&bad, DEFAULT_MAX_FRAME_LEN);
        match outcome {
            Err(SeabedError::Wire(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("version {version}: {other:?}"),
        }
    }
    // Kind 0, the first unassigned kind (19), and far-out values. Known kinds
    // with a garbage (empty) payload fail at payload decode instead, which
    // the proptest sweep covers.
    for kind in [0u8, 19, 99, 255] {
        let mut bad = good.clone();
        bad[6] = kind;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
            Err(SeabedError::Wire(_))
        ));
    }
}

/// Pure garbage — wrong magic, random bytes, empty input — never panics and
/// always reports a wire error.
#[test]
fn garbage_streams_are_typed_errors() {
    let mut rng = StdRng::seed_from_u64(1234);
    assert!(matches!(
        decode_frame(&[], DEFAULT_MAX_FRAME_LEN),
        Err(SeabedError::Wire(_))
    ));
    for len in [1usize, 4, 10, 11, 64, 300] {
        for _ in 0..50 {
            let mut blob = vec![0u8; len];
            rng.fill(&mut blob);
            // Garbage almost never carries the magic; force a couple of
            // magic-prefixed blobs too so the payload paths get fuzzed.
            if rng.random_range(0..2u64) == 0 && len >= 4 {
                blob[..4].copy_from_slice(b"SBWF");
            }
            let _ = decode_frame(&blob, DEFAULT_MAX_FRAME_LEN);
        }
    }
}

/// The live service survives an adversarial volley: garbage connections may
/// be dropped, but the process keeps serving fresh, well-formed clients.
#[test]
fn live_server_survives_adversarial_volley() {
    use seabed::core::{PlainDataset, SeabedClient, SeabedServer};
    use seabed::engine::{Cluster, ClusterConfig};
    use seabed::net::{NetServer, RemoteSeabedClient, ServiceConfig};
    use seabed::query::{parse, ColumnSpec, PlannerConfig};
    use std::io::Write;

    let dataset = PlainDataset::new("t").with_uint_column("m", (0..200u64).collect());
    let columns = vec![ColumnSpec::sensitive("m")];
    let samples = vec![parse("SELECT SUM(m) FROM t").expect("parse")];
    let mut client = SeabedClient::create_plan(b"volley", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default()).expect("serve");

    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..20 {
        let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
        let len = rng.random_range(1..200u64) as usize;
        let mut blob = vec![0u8; len];
        rng.fill(&mut blob);
        if round % 3 == 0 && len >= 11 {
            // A valid header with a garbage payload exercises the decode path
            // rather than the magic check.
            blob[..4].copy_from_slice(b"SBWF");
            blob[4..6].copy_from_slice(&seabed::net::wire::PROTOCOL_VERSION.to_le_bytes());
            blob[6] = 1; // request
            blob[7..11].copy_from_slice(&((len - 11) as u32).to_le_bytes());
        }
        let _ = stream.write_all(&blob);
        // Drop the connection with the garbage half-digested.
    }

    // The service still answers a real client, end to end.
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect after volley");
    let result = seabed::core::SeabedSession::single("t", client, &remote)
        .query("SELECT SUM(m) FROM t", &[])
        .expect("query after volley");
    assert_eq!(result.rows[0][0], seabed::core::ResultValue::UInt((0..200u64).sum()));
    net.shutdown();
}

/// A forged answer must not crash the proxy that holds the keys, nor make it
/// allocate what the forger claims. A man-in-the-middle relays a real
/// service's frames but swaps the ID list of the first `Response` for a
/// `SpanBitmap` whose header and body disagree: a span far longer than its
/// body, a first identifier whose span runs past `u64::MAX`, a body one byte
/// short of its span. Each query fails with a typed error, and the same
/// connection and session answer the next query correctly.
#[test]
fn forged_span_bitmaps_are_typed_errors_and_the_session_lives() {
    let bitmap = |first: u64, bits: u64, body: &[u8]| {
        let mut list = varint::encode_all(&[first, bits]);
        list.extend_from_slice(body);
        list
    };
    for forged_list in [
        bitmap(0, 1 << 60, &[0xff; 4]),
        bitmap(u64::MAX - 8, 16, &[0xff; 2]),
        bitmap(0, 200, &[0xff; 24]),
    ] {
        assert_a_forged_id_list_is_a_typed_error_and_the_session_lives(IdListEncoding::SpanBitmap, forged_list);
    }
}

/// The same for forged Elias–Fano lists (the honest `{3, 40, 41, 99}` is
/// `3 4 97 | 50 06 19 02`): a span far longer than the body, a last
/// identifier past `u64::MAX`, a body one byte short, an identifier named
/// twice, and a last identifier past `first + span − 1`.
#[test]
fn forged_elias_fano_lists_are_typed_errors_and_the_session_lives() {
    let list = |header: &[u64], body: &[u8]| {
        let mut list = varint::encode_all(header);
        list.extend_from_slice(body);
        list
    };
    for forged_list in [
        list(&[0, 4, 1 << 60], &[0x50, 0x06, 0x19, 0x02]),
        list(&[u64::MAX - 8, 4, 97], &[0x50, 0x06, 0x19, 0x02]),
        list(&[3, 4, 97], &[0x50, 0x06, 0x19]),
        list(&[3, 4, 97], &[0x50, 0x05, 0x19, 0x02]),
        list(&[3, 4, 97], &[0x50, 0xf6, 0x19, 0x02]),
    ] {
        assert_a_forged_id_list_is_a_typed_error_and_the_session_lives(IdListEncoding::EliasFano, forged_list);
    }
}

/// The same for a list that is well-formed as bytes but names rows twice:
/// the `RangesVbDiff` pairs `(1, 9), (0, 5)` — the runs 1–10 and 10–15. It
/// used to decode into overlapping runs, and the proxy removed the masks of
/// sixteen rows from a sum over whichever rows the server had really folded:
/// a wrong number, no error.
#[test]
fn forged_overlapping_id_list_is_a_typed_error_and_the_session_lives() {
    let forged_list = varint::encode_all(&[1, 9, 0, 5]);
    assert_a_forged_id_list_is_a_typed_error_and_the_session_lives(IdListEncoding::RangesVbDiff, forged_list);
}

/// Relays one session through a man in the middle that replaces the ID list
/// of the first response with `forged_list` in the container `encoding`:
/// that query must fail with a typed encoding error, and the next one on the
/// same connection succeed.
fn assert_a_forged_id_list_is_a_typed_error_and_the_session_lives(encoding: IdListEncoding, forged_list: Vec<u8>) {
    use seabed::core::{PlainDataset, ResultValue, SeabedClient, SeabedServer, SeabedSession};
    use seabed::engine::{Cluster, ClusterConfig};
    use seabed::net::{FrameConn, NetServer, Received, RemoteSeabedClient, ServiceConfig, Wait};
    use seabed::query::{parse, ColumnSpec, PlannerConfig};
    use std::time::Instant;

    let dataset = PlainDataset::new("t").with_uint_column("m", (0..200u64).collect());
    let columns = vec![ColumnSpec::sensitive("m")];
    let samples = vec![parse("SELECT SUM(m) FROM t").expect("parse")];
    let mut client = SeabedClient::create_plan(b"forged", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let upstream_addr = net.local_addr();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let max = DEFAULT_MAX_FRAME_LEN;
    let man_in_the_middle = std::thread::spawn(move || {
        let patience = Duration::from_secs(10);
        let (stream, _) = listener.accept().expect("accept");
        let mut downstream = FrameConn::from_stream(stream, patience).expect("wrap");
        let mut upstream = FrameConn::connect(upstream_addr, patience).expect("upstream");
        let mut forged = 0;
        loop {
            let request = match downstream.recv(max, Wait::Until(Instant::now() + patience)) {
                Ok(Received::Frame(frame)) => frame,
                Ok(Received::Closed) => return forged,
                other => panic!("relay: {other:?}"),
            };
            let mut reply = upstream.round_trip(&request, max, patience).expect("upstream reply");
            if let Frame::Response(response) = &mut reply {
                if forged == 0 {
                    for ids in response.groups.iter_mut().filter_map(|g| g.ids.as_mut()) {
                        // Consecutive rows, the paper's workload: one run.
                        assert_eq!(ids.encoding, IdListEncoding::RangesVbDiff);
                        ids.id_list = forged_list.clone();
                        ids.encoding = encoding;
                        forged += 1;
                    }
                }
            }
            downstream.send(&reply, max).expect("relay reply");
        }
    });

    let remote = RemoteSeabedClient::connect(addr, client.clone()).expect("connect through the relay");
    let session = SeabedSession::single("t", client, &remote);
    let sql = "SELECT SUM(m) FROM t";
    let outcome = session.query(sql, &[]);
    assert!(matches!(outcome, Err(SeabedError::Encoding(_))), "{outcome:?}");
    // Same connection, same session, same (cached) statement: an honest answer.
    let requests_before = remote.wire_stats().requests;
    let result = session.query(sql, &[]).expect("query after the forged answer");
    assert_eq!(result.rows[0][0], ResultValue::UInt((0..200u64).sum()));
    assert!(
        remote.wire_stats().requests > requests_before,
        "answered over the same connection"
    );

    drop(session);
    drop(remote);
    assert_eq!(
        man_in_the_middle.join().expect("relay thread"),
        1,
        "exactly one list was forged"
    );
    net.shutdown();
}
