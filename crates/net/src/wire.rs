//! The Seabed wire format: a versioned, length-prefixed binary protocol for
//! the proxy ↔ server link.
//!
//! # Framing
//!
//! Every message travels as one frame:
//!
//! ```text
//! +---------+---------+------+-------------+=================+
//! | magic   | version | kind | payload_len |   payload ...   |
//! | "SBWF"  | u16 LE  | u8   | u32 LE      | payload_len B   |
//! +---------+---------+------+-------------+=================+
//!     4B        2B      1B        4B
//! ```
//!
//! The header is fixed at [`HEADER_LEN`] bytes; `payload_len` is bounded by
//! the receiver's max-frame limit *before* any allocation happens. Payloads
//! are encoded with the same variable-byte integers as the ID lists
//! ([`seabed_encoding::varint`]) and the same defensive posture as
//! `seabed_engine::storage`: every interior length prefix is capped by the
//! bytes actually remaining, so a forged count can never balloon an
//! allocation, and every decode path is total — malformed input yields
//! [`SeabedError::Wire`], never a panic.
//!
//! # Frame kinds
//!
//! | kind | direction       | payload                                        |
//! |------|-----------------|------------------------------------------------|
//! | 1    | client → server | request: `TranslatedQuery` + `Vec<PhysicalFilter>` |
//! | 2    | server → client | response: `ServerResponse`                     |
//! | 3    | server → client | typed error: `SeabedError`                     |
//! | 4    | client → server | schema request (empty payload)                 |
//! | 5    | server → client | schema: `seabed_engine::Schema`                |
//! | 6    | coord → worker  | worker handshake: shard epoch                  |
//! | 7    | worker → coord  | handshake ack: epoch + resident shard count    |
//! | 8    | coord → worker  | shard assignment: epoch, (table id, shard id), exec config, serialized `Table` |
//! | 9    | worker → coord  | shard loaded: epoch, (table id, shard id), row count |
//! | 10   | coord → worker  | shard query: epoch, (table id, shard id), sequence number, `TranslatedQuery` + filters |
//! | 11   | worker → coord  | shard partial: echoed (epoch, table, shard, seq) + mergeable `PartialResponse` |
//! | 12   | client → server | prepare statement: unbound `TranslatedQuery`   |
//! | 13   | server → client | statement handle: u64                          |
//! | 14   | client → server | execute statement: handle + bound `PhysicalFilter`s |
//! | 15   | coord → worker  | unload shard: epoch, (table id, shard id)      |
//! | 16   | worker → coord  | shard unloaded: echoed triple + remaining shard count |
//! | 17   | client → server | metrics request: scrape the live metrics registry |
//! | 18   | server → client | metrics snapshot: counters/gauges/histograms + recent traces |
//!
//! Kinds 6–11 and 15–16 are the `seabed-dist` scatter/gather sub-protocol. A worker
//! echoes the `(epoch, table, shard, seq)` tuple of the query it answers, so
//! a coordinator can never pair a late or duplicated partial with the wrong
//! in-flight request; shard identifiers carry the **table id**, so one
//! worker pool hosts shards of many encrypted tables under one epoch;
//! partials carry *mergeable* state (ASHE partial sums with ID lists, MIN/MAX
//! ORE candidates) rather than finalized aggregates, so the coordinator's
//! gather is the same [`seabed_engine::merge`] fold the in-process driver
//! runs. Kinds 15–16 move a shard *off* a worker: a replica rebalance (a
//! worker joining or leaving the pool) unloads the shards whose replica set
//! no longer includes the donor, so memory tracks the standing assignment.
//!
//! Kinds 12–14 are the prepared-statement sub-protocol: a client registers a
//! statement's (redacted, unbound) plan once and thereafter ships only the
//! 8-byte handle plus the bound, proxy-encrypted filters per execution — the
//! wire-level half of the `SeabedSession` prepare/execute lifecycle. A
//! handle the server no longer holds (evicted, restarted) is answered with a
//! typed [`SeabedError::StaleStatement`] error frame; the `seabed-net`
//! client transparently re-prepares once.
//!
//! Request frames never carry the plaintext predicate literals of DET/OPE
//! filters — those are redacted structurally at encode time (see
//! [`redact_query`]); the server only ever reads the proxy-encrypted
//! `PhysicalFilter`s. Round-trip fidelity (`decode(encode(x)) == x`, modulo
//! that redaction for requests) is pinned by unit tests here and by the
//! randomized suite in `tests/wire_robustness.rs`.

use seabed_core::{
    EncryptedAggregate, GroupResult, PartialResponse, PhysicalFilter, ServerResponse, PARTIAL_ID_ENCODING,
};
use seabed_encoding::{varint, IdListEncoding};
use seabed_engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroups};
use seabed_engine::{storage, ColumnType, ExecMode, ExecStats, OperatorProfile, Schema, Table};
use seabed_error::{ParseError, SchemaError, SeabedError};
use seabed_query::{
    ClientPostStep, CompareOp, GroupByColumn, Literal, Predicate, ServerAggregate, ServerFilter, SupportCategory,
    TranslatedQuery,
};
use std::time::Duration;

/// Magic bytes opening every frame ("SeaBed Wire Frame").
pub const MAGIC: [u8; 4] = *b"SBWF";

/// Version of the wire protocol. Receivers reject frames from any other
/// version with a typed error instead of guessing at the layout.
///
/// Version 2: shard frames carry a table id (multi-table worker pools),
/// translated queries carry `?` parameter slots, and the prepared-statement
/// frames (kinds 12–14) exist. The shard-unload frames (kinds 15–16) were
/// added within version 2: a receiver that predates them answers with a
/// typed unknown-kind error, which the coordinator treats like any other
/// failed unload (the shard stays resident, nothing desynchronizes).
///
/// Version 3: every query-carrying frame (kinds 1, 10, 14) leads with a
/// trace id varint (0 = untraced) so one query's spans correlate across
/// session, coordinator, and workers, and the metrics-scrape frames
/// (kinds 17–18) exist. The layout change to existing kinds is why this is
/// a version bump rather than an in-version addition.
///
/// Version 4: the one-shot query frames (kinds 1 and 10) carry an `analyze`
/// flag after the trace id (`EXPLAIN ANALYZE` requests a per-operator
/// profile), exec stats carry the measured operator breakdown, and the
/// metrics-scrape frames additionally negotiate the slow-query event ring
/// (`include_events` on the request, `events` on the snapshot). Layout
/// changes to existing kinds again force the version bump.
pub const PROTOCOL_VERSION: u16 = 4;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 11;

/// Default upper bound on a frame's payload size (64 MiB). Connections reject
/// larger length prefixes before allocating anything.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 << 20;

/// The kind byte of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: execute a translated query.
    Request = 1,
    /// Server → client: the query's result.
    Response = 2,
    /// Server → client: a typed error (the request failed, the connection
    /// survives).
    Error = 3,
    /// Client → server: send me the table schema.
    SchemaRequest = 4,
    /// Server → client: the table schema.
    Schema = 5,
    /// Coordinator → worker: announce the shard epoch.
    WorkerHandshake = 6,
    /// Worker → coordinator: handshake acknowledgement.
    WorkerReady = 7,
    /// Coordinator → worker: load a shard of the table.
    LoadShard = 8,
    /// Worker → coordinator: shard-assignment acknowledgement.
    ShardLoaded = 9,
    /// Coordinator → worker: execute a query over one resident shard.
    ShardQuery = 10,
    /// Worker → coordinator: the mergeable partial result of a shard query.
    ShardPartial = 11,
    /// Client → server: register a statement's unbound plan, get a handle.
    PrepareStatement = 12,
    /// Server → client: the statement handle.
    StatementPrepared = 13,
    /// Client → server: execute a registered statement with bound filters.
    ExecuteStatement = 14,
    /// Coordinator → worker: drop one resident shard (replica rebalance).
    UnloadShard = 15,
    /// Worker → coordinator: shard-unload acknowledgement.
    ShardUnloaded = 16,
    /// Client → server: scrape the live metrics registry.
    MetricsRequest = 17,
    /// Server → client: a point-in-time metrics snapshot (+ recent traces).
    MetricsSnapshot = 18,
}

impl FrameKind {
    /// Decodes a kind byte; `None` for kinds this version does not know.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        Some(match byte {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Error,
            4 => FrameKind::SchemaRequest,
            5 => FrameKind::Schema,
            6 => FrameKind::WorkerHandshake,
            7 => FrameKind::WorkerReady,
            8 => FrameKind::LoadShard,
            9 => FrameKind::ShardLoaded,
            10 => FrameKind::ShardQuery,
            11 => FrameKind::ShardPartial,
            12 => FrameKind::PrepareStatement,
            13 => FrameKind::StatementPrepared,
            14 => FrameKind::ExecuteStatement,
            15 => FrameKind::UnloadShard,
            16 => FrameKind::ShardUnloaded,
            17 => FrameKind::MetricsRequest,
            18 => FrameKind::MetricsSnapshot,
            _ => return None,
        })
    }
}

/// Execution knobs a coordinator fixes for every shard it assigns, so result
/// *timings* (never results — those are mode-invariant and differentially
/// tested) are comparable across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardExecConfig {
    /// Local scan threads of the worker-side cluster.
    pub local_threads: u32,
    /// Scan mode (scalar reference path or vectorized).
    pub exec_mode: ExecMode,
}

/// One decoded wire frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A query execution request.
    Request {
        /// The translated (literal-encrypted) query.
        query: TranslatedQuery,
        /// Physical filters with proxy-encrypted literals, one per
        /// `query.filters` entry.
        filters: Vec<PhysicalFilter>,
        /// Propagated per-query trace id ([`seabed_obs::UNTRACED`] = 0 when
        /// the request is not traced).
        trace_id: u64,
        /// When true (`EXPLAIN ANALYZE`), the response's exec stats carry
        /// the measured per-operator profile of the execution.
        analyze: bool,
    },
    /// A query response.
    Response(ServerResponse),
    /// A typed error.
    Error(SeabedError),
    /// A schema handshake request.
    SchemaRequest,
    /// The served table's schema.
    Schema(Schema),
    /// Coordinator → worker: begin (or confirm) a shard epoch. A worker that
    /// sees a new epoch drops every shard of the old one, so a coordinator
    /// restart can never query stale data.
    WorkerHandshake {
        /// The coordinator's shard epoch.
        epoch: u64,
    },
    /// Worker → coordinator: handshake acknowledgement.
    WorkerReady {
        /// The epoch now in force on the worker.
        epoch: u64,
        /// Number of shards resident under that epoch.
        shards: u64,
    },
    /// Coordinator → worker: take ownership of one shard of one table.
    LoadShard {
        /// Shard epoch the assignment belongs to.
        epoch: u64,
        /// Coordinator-assigned table identifier: one worker pool hosts
        /// shards of many encrypted tables under one epoch.
        table_id: u32,
        /// Coordinator-assigned shard identifier within the table.
        shard: u32,
        /// Execution knobs for this shard's scans.
        exec: ShardExecConfig,
        /// The shard's partitions (global row IDs preserved, so ASHE
        /// decryption works unchanged on gathered results).
        table: Table,
    },
    /// Worker → coordinator: shard-assignment acknowledgement.
    ShardLoaded {
        /// Echoed shard epoch.
        epoch: u64,
        /// Echoed table identifier.
        table_id: u32,
        /// Echoed shard identifier.
        shard: u32,
        /// Rows now resident for this shard.
        rows: u64,
    },
    /// Coordinator → worker: execute a query over one resident shard.
    ShardQuery {
        /// Shard epoch the query belongs to.
        epoch: u64,
        /// Target table.
        table_id: u32,
        /// Target shard within the table.
        shard: u32,
        /// Coordinator-assigned sequence number; echoed in the partial so a
        /// late or duplicated response can never be paired with the wrong
        /// request.
        seq: u64,
        /// The translated (literal-encrypted, DET/OPE-redacted) query.
        query: TranslatedQuery,
        /// Proxy-encrypted physical filters.
        filters: Vec<PhysicalFilter>,
        /// Propagated per-query trace id (0 = untraced), so a worker's
        /// shard-execute spans correlate with the coordinator's.
        trace_id: u64,
        /// When true, the partial's exec stats carry the shard's measured
        /// per-operator profile (the coordinator merges them shard-wise).
        analyze: bool,
    },
    /// Worker → coordinator: the mergeable partial result of a shard query.
    ShardPartial {
        /// Echoed shard epoch.
        epoch: u64,
        /// Echoed table identifier.
        table_id: u32,
        /// Echoed shard identifier.
        shard: u32,
        /// Echoed sequence number.
        seq: u64,
        /// Mergeable per-group partial aggregates plus scan statistics.
        partial: PartialResponse,
    },
    /// Client → server: register a statement's (redacted, possibly unbound)
    /// plan and receive a [`Frame::StatementPrepared`] handle for it.
    PrepareStatement {
        /// The unbound translated plan (DET/OPE literals redacted on encode,
        /// like every query that crosses the wire).
        query: TranslatedQuery,
    },
    /// Server → client: the handle a [`Frame::PrepareStatement`] registered.
    StatementPrepared {
        /// Server-side statement handle (stable for identical plans).
        handle: u64,
    },
    /// Client → server: execute a registered statement, shipping only the
    /// handle and this execution's bound, proxy-encrypted filters. Answered
    /// with a [`Frame::Response`], or a typed
    /// [`SeabedError::StaleStatement`] error frame when the handle is no
    /// longer resident.
    ExecuteStatement {
        /// The statement handle from [`Frame::StatementPrepared`].
        handle: u64,
        /// Bound, literal-encrypted filters of this execution.
        filters: Vec<PhysicalFilter>,
        /// Propagated per-query trace id (0 = untraced).
        trace_id: u64,
    },
    /// Coordinator → worker: drop one resident shard. Sent when a replica
    /// rebalance (a worker joining or leaving the pool) moves the shard off
    /// this worker, so the donor frees the memory instead of holding a
    /// replica the coordinator will never query again.
    UnloadShard {
        /// Shard epoch the unload belongs to; a mismatch is a typed error.
        epoch: u64,
        /// Target table.
        table_id: u32,
        /// Target shard within the table.
        shard: u32,
    },
    /// Worker → coordinator: shard-unload acknowledgement. Unloading a shard
    /// that is not resident is acknowledged too (the unload is idempotent).
    ShardUnloaded {
        /// Echoed shard epoch.
        epoch: u64,
        /// Echoed table identifier.
        table_id: u32,
        /// Echoed shard identifier.
        shard: u32,
        /// Shards still resident on the worker after the unload.
        remaining: u64,
    },
    /// Client → server: scrape the receiver's live metrics registry.
    /// Carries no query state; answered with [`Frame::MetricsSnapshot`].
    MetricsRequest {
        /// When true, the snapshot includes the receiver's recent traces.
        include_traces: bool,
        /// When true, the snapshot includes the receiver's recent query
        /// events (the slow-query ring).
        include_events: bool,
    },
    /// Server → client: a point-in-time snapshot of the receiver's metrics
    /// registry. Metric names are static identifiers, traces carry only
    /// span names, durations, and statement hashes, and query events carry
    /// only statement hashes, structural plan strings, operator labels, and
    /// outcome tags — the same redaction rule as [`redact_query`], extended
    /// to telemetry.
    MetricsSnapshot {
        /// Counters, gauges, and histograms at scrape time.
        metrics: seabed_obs::MetricsSnapshot,
        /// Recent traces (empty unless the request asked for them).
        traces: Vec<seabed_obs::QueryTrace>,
        /// Recent query events, oldest first (empty unless the request asked
        /// for them).
        events: Vec<seabed_obs::QueryEvent>,
    },
}

impl Frame {
    /// The kind byte this frame serializes under.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Request { .. } => FrameKind::Request,
            Frame::Response(_) => FrameKind::Response,
            Frame::Error(_) => FrameKind::Error,
            Frame::SchemaRequest => FrameKind::SchemaRequest,
            Frame::Schema(_) => FrameKind::Schema,
            Frame::WorkerHandshake { .. } => FrameKind::WorkerHandshake,
            Frame::WorkerReady { .. } => FrameKind::WorkerReady,
            Frame::LoadShard { .. } => FrameKind::LoadShard,
            Frame::ShardLoaded { .. } => FrameKind::ShardLoaded,
            Frame::ShardQuery { .. } => FrameKind::ShardQuery,
            Frame::ShardPartial { .. } => FrameKind::ShardPartial,
            Frame::PrepareStatement { .. } => FrameKind::PrepareStatement,
            Frame::StatementPrepared { .. } => FrameKind::StatementPrepared,
            Frame::ExecuteStatement { .. } => FrameKind::ExecuteStatement,
            Frame::UnloadShard { .. } => FrameKind::UnloadShard,
            Frame::ShardUnloaded { .. } => FrameKind::ShardUnloaded,
            Frame::MetricsRequest { .. } => FrameKind::MetricsRequest,
            Frame::MetricsSnapshot { .. } => FrameKind::MetricsSnapshot,
        }
    }
}

/// A decoded frame header (the payload has not been read yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Raw kind byte (may be unknown to this version; see
    /// [`FrameKind::from_u8`]).
    pub kind: u8,
    /// Payload length in bytes, already validated against the frame limit.
    pub payload_len: u32,
}

/// Encodes a frame (header + payload). Fails with [`SeabedError::Wire`] if
/// the payload would exceed `max_frame_len`.
pub fn encode_frame(frame: &Frame, max_frame_len: u32) -> Result<Vec<u8>, SeabedError> {
    let mut payload = Vec::new();
    match frame {
        Frame::Request {
            query,
            filters,
            trace_id,
            analyze,
        } => {
            write_varint(&mut payload, *trace_id);
            write_bool(&mut payload, *analyze);
            write_translated_query(&mut payload, query);
            write_vec(&mut payload, filters, write_physical_filter);
        }
        Frame::Response(response) => write_server_response(&mut payload, response),
        Frame::Error(error) => write_error(&mut payload, error),
        Frame::SchemaRequest => {}
        Frame::Schema(schema) => write_schema(&mut payload, schema),
        Frame::WorkerHandshake { epoch } => write_varint(&mut payload, *epoch),
        Frame::WorkerReady { epoch, shards } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, *shards);
        }
        Frame::LoadShard {
            epoch,
            table_id,
            shard,
            exec,
            table,
        } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
            write_varint(&mut payload, u64::from(exec.local_threads));
            payload.push(match exec.exec_mode {
                ExecMode::Scalar => 0,
                ExecMode::Vectorized => 1,
            });
            write_bytes(&mut payload, &storage::serialize_table(table));
        }
        Frame::ShardLoaded {
            epoch,
            table_id,
            shard,
            rows,
        } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
            write_varint(&mut payload, *rows);
        }
        Frame::ShardQuery {
            epoch,
            table_id,
            shard,
            seq,
            query,
            filters,
            trace_id,
            analyze,
        } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
            write_varint(&mut payload, *seq);
            write_varint(&mut payload, *trace_id);
            write_bool(&mut payload, *analyze);
            write_translated_query(&mut payload, query);
            write_vec(&mut payload, filters, write_physical_filter);
        }
        Frame::ShardPartial {
            epoch,
            table_id,
            shard,
            seq,
            partial,
        } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
            write_varint(&mut payload, *seq);
            write_partial_response(&mut payload, partial);
        }
        Frame::PrepareStatement { query } => write_translated_query(&mut payload, query),
        Frame::StatementPrepared { handle } => write_varint(&mut payload, *handle),
        Frame::ExecuteStatement {
            handle,
            filters,
            trace_id,
        } => {
            write_varint(&mut payload, *handle);
            write_varint(&mut payload, *trace_id);
            write_vec(&mut payload, filters, write_physical_filter);
        }
        Frame::UnloadShard { epoch, table_id, shard } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
        }
        Frame::ShardUnloaded {
            epoch,
            table_id,
            shard,
            remaining,
        } => {
            write_varint(&mut payload, *epoch);
            write_varint(&mut payload, u64::from(*table_id));
            write_varint(&mut payload, u64::from(*shard));
            write_varint(&mut payload, *remaining);
        }
        Frame::MetricsRequest {
            include_traces,
            include_events,
        } => {
            write_bool(&mut payload, *include_traces);
            write_bool(&mut payload, *include_events);
        }
        Frame::MetricsSnapshot {
            metrics,
            traces,
            events,
        } => {
            write_metrics_snapshot(&mut payload, metrics);
            write_vec(&mut payload, traces, write_query_trace);
            write_vec(&mut payload, events, write_query_event);
        }
    }
    if payload.len() > max_frame_len as usize {
        return Err(SeabedError::wire(format!(
            "frame payload of {} bytes exceeds the {max_frame_len}-byte limit",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(frame.kind() as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Validates a frame header: magic, protocol version and the payload length
/// against `max_frame_len`. The length check happens here, before any payload
/// allocation, so a forged multi-gigabyte prefix costs the receiver nothing.
pub fn decode_header(bytes: &[u8; HEADER_LEN], max_frame_len: u32) -> Result<FrameHeader, SeabedError> {
    if bytes[..4] != MAGIC {
        return Err(SeabedError::wire("bad frame magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != PROTOCOL_VERSION {
        return Err(SeabedError::wire(format!(
            "unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"
        )));
    }
    let payload_len = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
    if payload_len > max_frame_len {
        return Err(SeabedError::wire(format!(
            "frame payload of {payload_len} bytes exceeds the {max_frame_len}-byte limit"
        )));
    }
    Ok(FrameHeader {
        kind: bytes[6],
        payload_len,
    })
}

/// Decodes a frame payload of known kind. The payload must be consumed
/// exactly; trailing bytes are treated as corruption.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, SeabedError> {
    let kind = FrameKind::from_u8(kind).ok_or_else(|| SeabedError::wire(format!("unknown frame kind {kind}")))?;
    let mut r = Reader::new(payload);
    let frame = match kind {
        FrameKind::Request => {
            let trace_id = r.varint()?;
            let analyze = r.bool()?;
            let query = read_translated_query(&mut r)?;
            let filters = read_vec(&mut r, 2, read_physical_filter)?;
            Frame::Request {
                query,
                filters,
                trace_id,
                analyze,
            }
        }
        FrameKind::Response => Frame::Response(read_server_response(&mut r)?),
        FrameKind::Error => Frame::Error(read_error(&mut r)?),
        FrameKind::SchemaRequest => Frame::SchemaRequest,
        FrameKind::Schema => Frame::Schema(read_schema(&mut r)?),
        FrameKind::WorkerHandshake => Frame::WorkerHandshake { epoch: r.varint()? },
        FrameKind::WorkerReady => Frame::WorkerReady {
            epoch: r.varint()?,
            shards: r.varint()?,
        },
        FrameKind::LoadShard => {
            let epoch = r.varint()?;
            let table_id = read_u32(&mut r, "table id")?;
            let shard = read_u32(&mut r, "shard id")?;
            let local_threads = read_u32(&mut r, "local thread count")?;
            let exec_mode = match r.u8()? {
                0 => ExecMode::Scalar,
                1 => ExecMode::Vectorized,
                other => return Err(SeabedError::wire(format!("invalid exec-mode tag {other}"))),
            };
            let table_bytes = r.bytes()?;
            let table = storage::deserialize_table(&table_bytes)
                .ok_or_else(|| SeabedError::wire("shard table payload is corrupt or truncated"))?;
            Frame::LoadShard {
                epoch,
                table_id,
                shard,
                exec: ShardExecConfig {
                    local_threads,
                    exec_mode,
                },
                table,
            }
        }
        FrameKind::ShardLoaded => Frame::ShardLoaded {
            epoch: r.varint()?,
            table_id: read_u32(&mut r, "table id")?,
            shard: read_u32(&mut r, "shard id")?,
            rows: r.varint()?,
        },
        FrameKind::ShardQuery => Frame::ShardQuery {
            epoch: r.varint()?,
            table_id: read_u32(&mut r, "table id")?,
            shard: read_u32(&mut r, "shard id")?,
            seq: r.varint()?,
            trace_id: r.varint()?,
            analyze: r.bool()?,
            query: read_translated_query(&mut r)?,
            filters: read_vec(&mut r, 2, read_physical_filter)?,
        },
        FrameKind::ShardPartial => Frame::ShardPartial {
            epoch: r.varint()?,
            table_id: read_u32(&mut r, "table id")?,
            shard: read_u32(&mut r, "shard id")?,
            seq: r.varint()?,
            partial: read_partial_response(&mut r)?,
        },
        FrameKind::PrepareStatement => Frame::PrepareStatement {
            query: read_translated_query(&mut r)?,
        },
        FrameKind::StatementPrepared => Frame::StatementPrepared { handle: r.varint()? },
        FrameKind::ExecuteStatement => Frame::ExecuteStatement {
            handle: r.varint()?,
            trace_id: r.varint()?,
            filters: read_vec(&mut r, 2, read_physical_filter)?,
        },
        FrameKind::UnloadShard => Frame::UnloadShard {
            epoch: r.varint()?,
            table_id: read_u32(&mut r, "table id")?,
            shard: read_u32(&mut r, "shard id")?,
        },
        FrameKind::ShardUnloaded => Frame::ShardUnloaded {
            epoch: r.varint()?,
            table_id: read_u32(&mut r, "table id")?,
            shard: read_u32(&mut r, "shard id")?,
            remaining: r.varint()?,
        },
        FrameKind::MetricsRequest => Frame::MetricsRequest {
            include_traces: r.bool()?,
            include_events: r.bool()?,
        },
        FrameKind::MetricsSnapshot => Frame::MetricsSnapshot {
            metrics: read_metrics_snapshot(&mut r)?,
            traces: read_vec(&mut r, 4, read_query_trace)?,
            events: read_vec(&mut r, 5, read_query_event)?,
        },
    };
    r.finish()?;
    Ok(frame)
}

/// Serializes a translated query exactly as it travels inside frames
/// (DET/OPE literals structurally redacted). The server's statement store
/// hashes these bytes into the statement handle, so identical plans map to
/// identical handles across clients and reconnects. Two statements that
/// differ only in redacted literals share a handle by design: the server
/// side of a plan only reads its shape, and the bound `PhysicalFilter`s —
/// which do differ — travel with every execution.
pub fn write_statement_payload(out: &mut Vec<u8>, query: &TranslatedQuery) {
    write_translated_query(out, query);
}

/// Serializes a bound filter list exactly as it travels inside frames. The
/// dist coordinator hashes these bytes — together with the statement payload
/// — into its partial-result cache key, so two executes binding identical
/// literals map to the same cached entry regardless of which client sent
/// them, and any differing literal changes the key.
pub fn write_filters_payload(out: &mut Vec<u8>, filters: &[PhysicalFilter]) {
    write_vec(out, filters, write_physical_filter);
}

/// Decodes one complete frame from a byte slice (header + payload, consumed
/// exactly). This is the slice-level entry point the adversarial tests drive;
/// connections read the header and payload off the socket separately.
pub fn decode_frame(data: &[u8], max_frame_len: u32) -> Result<Frame, SeabedError> {
    let header_bytes: &[u8; HEADER_LEN] = data
        .get(..HEADER_LEN)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| SeabedError::wire("truncated frame header"))?;
    let header = decode_header(header_bytes, max_frame_len)?;
    let payload = data
        .get(HEADER_LEN..HEADER_LEN + header.payload_len as usize)
        .ok_or_else(|| SeabedError::wire("truncated frame payload"))?;
    if data.len() != HEADER_LEN + header.payload_len as usize {
        return Err(SeabedError::wire("trailing bytes after frame payload"));
    }
    decode_payload(header.kind, payload)
}

// ---------------------------------------------------------------------------
// Primitive readers / writers
// ---------------------------------------------------------------------------

/// A totalizing cursor over untrusted payload bytes: every read returns
/// [`SeabedError::Wire`] on truncation, and every collection pre-allocation
/// is capped by the bytes actually remaining (the PR-2 forged-prefix
/// hardening, applied to the network).
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Caps an element count read from the payload: at `min_size` bytes per
    /// element, no honest prefix can promise more elements than this.
    fn capped(&self, count: usize, min_size: usize) -> usize {
        count.min(self.remaining() / min_size.max(1))
    }

    fn u8(&mut self) -> Result<u8, SeabedError> {
        let byte = *self
            .data
            .get(self.pos)
            .ok_or_else(|| SeabedError::wire("truncated payload: expected a byte"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, SeabedError> {
        let (value, next) = varint::decode_u64(self.data, self.pos)
            .ok_or_else(|| SeabedError::wire("truncated or overlong varint in payload"))?;
        self.pos = next;
        Ok(value)
    }

    fn len(&mut self) -> Result<usize, SeabedError> {
        let value = self.varint()?;
        usize::try_from(value).map_err(|_| SeabedError::wire(format!("length {value} does not fit this platform")))
    }

    fn bool(&mut self) -> Result<bool, SeabedError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SeabedError::wire(format!("invalid bool byte {other}"))),
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, SeabedError> {
        let len = self.len()?;
        let slice = self
            .data
            .get(self.pos..self.pos.saturating_add(len))
            .ok_or_else(|| SeabedError::wire("byte-string length prefix exceeds remaining payload"))?;
        self.pos += len;
        Ok(slice.to_vec())
    }

    fn string(&mut self) -> Result<String, SeabedError> {
        String::from_utf8(self.bytes()?).map_err(|_| SeabedError::wire("string payload is not valid UTF-8"))
    }

    fn duration(&mut self) -> Result<Duration, SeabedError> {
        Ok(Duration::from_nanos(self.varint()?))
    }

    fn finish(self) -> Result<(), SeabedError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SeabedError::wire(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

fn write_varint(out: &mut Vec<u8>, value: u64) {
    varint::encode_u64(value, out);
}

fn write_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

fn write_duration(out: &mut Vec<u8>, d: Duration) {
    write_varint(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn write_vec<T>(out: &mut Vec<u8>, items: &[T], write_item: impl Fn(&mut Vec<u8>, &T)) {
    write_varint(out, items.len() as u64);
    for item in items {
        write_item(out, item);
    }
}

fn read_vec<T>(
    r: &mut Reader<'_>,
    min_item_size: usize,
    mut read_item: impl FnMut(&mut Reader<'_>) -> Result<T, SeabedError>,
) -> Result<Vec<T>, SeabedError> {
    let count = r.len()?;
    let mut out = Vec::with_capacity(r.capped(count, min_item_size));
    for _ in 0..count {
        out.push(read_item(r)?);
    }
    Ok(out)
}

fn read_u32(r: &mut Reader<'_>, what: &str) -> Result<u32, SeabedError> {
    let value = r.varint()?;
    u32::try_from(value).map_err(|_| SeabedError::wire(format!("{what} {value} exceeds u32")))
}

// ---------------------------------------------------------------------------
// Query-layer types (request direction)
// ---------------------------------------------------------------------------

fn write_compare_op(out: &mut Vec<u8>, op: CompareOp) {
    out.push(match op {
        CompareOp::Eq => 0,
        CompareOp::NotEq => 1,
        CompareOp::Lt => 2,
        CompareOp::LtEq => 3,
        CompareOp::Gt => 4,
        CompareOp::GtEq => 5,
    });
}

fn read_compare_op(r: &mut Reader<'_>) -> Result<CompareOp, SeabedError> {
    Ok(match r.u8()? {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        5 => CompareOp::GtEq,
        other => return Err(SeabedError::wire(format!("invalid comparison operator tag {other}"))),
    })
}

fn write_literal(out: &mut Vec<u8>, literal: &Literal) {
    match literal {
        Literal::Integer(v) => {
            out.push(0);
            write_varint(out, *v);
        }
        Literal::Text(s) => {
            out.push(1);
            write_string(out, s);
        }
        Literal::Param(ordinal) => {
            out.push(2);
            write_varint(out, *ordinal as u64);
        }
    }
}

fn read_literal(r: &mut Reader<'_>) -> Result<Literal, SeabedError> {
    Ok(match r.u8()? {
        0 => Literal::Integer(r.varint()?),
        1 => Literal::Text(r.string()?),
        2 => Literal::Param(r.len()?),
        other => return Err(SeabedError::wire(format!("invalid literal tag {other}"))),
    })
}

/// Returns the form of a translated query that crosses the wire: the
/// plaintext literals of DET and OPE filters are **redacted** (the proxy
/// encrypts them into the accompanying `PhysicalFilter`s, which is all the
/// server reads — shipping the plaintext would hand the untrusted server
/// exactly the predicate values DET/SPLASHE/ORE exist to hide). `Plain`
/// predicates target public columns whose literals already travel in the
/// clear inside `PhysicalFilter::PlainU64`/`PlainText`, so they are kept.
///
/// [`encode_frame`] applies this structurally — `write_server_filter` never
/// writes the secret bytes — so `decode(encode(request))` yields the
/// *redacted* query; this helper states the expected round-trip image.
pub fn redact_query(query: &TranslatedQuery) -> TranslatedQuery {
    let mut query = query.clone();
    for filter in &mut query.filters {
        match filter {
            ServerFilter::Plain(_) => {}
            ServerFilter::DetEquals { value, .. } => *value = String::new(),
            ServerFilter::OpeCompare { value, .. } => *value = 0,
        }
    }
    query
}

fn write_server_filter(out: &mut Vec<u8>, filter: &ServerFilter) {
    match filter {
        ServerFilter::Plain(pred) => {
            out.push(0);
            write_string(out, &pred.column);
            write_compare_op(out, pred.op);
            write_literal(out, &pred.value);
        }
        ServerFilter::DetEquals { column, .. } => {
            out.push(1);
            write_string(out, column);
            // Literal redacted: see `redact_query`.
            write_string(out, "");
        }
        ServerFilter::OpeCompare { column, op, .. } => {
            out.push(2);
            write_string(out, column);
            write_compare_op(out, *op);
            // Literal redacted: see `redact_query`.
            write_varint(out, 0);
        }
    }
}

fn read_server_filter(r: &mut Reader<'_>) -> Result<ServerFilter, SeabedError> {
    Ok(match r.u8()? {
        0 => ServerFilter::Plain(Predicate {
            column: r.string()?,
            op: read_compare_op(r)?,
            value: read_literal(r)?,
        }),
        1 => ServerFilter::DetEquals {
            column: r.string()?,
            value: r.string()?,
        },
        2 => ServerFilter::OpeCompare {
            column: r.string()?,
            op: read_compare_op(r)?,
            value: r.varint()?,
        },
        other => return Err(SeabedError::wire(format!("invalid server-filter tag {other}"))),
    })
}

fn write_server_aggregate(out: &mut Vec<u8>, agg: &ServerAggregate) {
    match agg {
        ServerAggregate::AsheSum { column } => {
            out.push(0);
            write_string(out, column);
        }
        ServerAggregate::CountRows => out.push(1),
        ServerAggregate::OpeMin { column } => {
            out.push(2);
            write_string(out, column);
        }
        ServerAggregate::OpeMax { column } => {
            out.push(3);
            write_string(out, column);
        }
    }
}

fn read_server_aggregate(r: &mut Reader<'_>) -> Result<ServerAggregate, SeabedError> {
    Ok(match r.u8()? {
        0 => ServerAggregate::AsheSum { column: r.string()? },
        1 => ServerAggregate::CountRows,
        2 => ServerAggregate::OpeMin { column: r.string()? },
        3 => ServerAggregate::OpeMax { column: r.string()? },
        other => return Err(SeabedError::wire(format!("invalid server-aggregate tag {other}"))),
    })
}

fn write_group_by_column(out: &mut Vec<u8>, g: &GroupByColumn) {
    write_string(out, &g.column);
    write_string(out, &g.physical_column);
    write_bool(out, g.encrypted);
}

fn read_group_by_column(r: &mut Reader<'_>) -> Result<GroupByColumn, SeabedError> {
    Ok(GroupByColumn {
        column: r.string()?,
        physical_column: r.string()?,
        encrypted: r.bool()?,
    })
}

fn write_client_post_step(out: &mut Vec<u8>, step: &ClientPostStep) {
    match step {
        ClientPostStep::Divide { numerator, denominator } => {
            out.push(0);
            write_varint(out, *numerator as u64);
            write_varint(out, *denominator as u64);
        }
        ClientPostStep::Variance {
            sum_squares,
            sum,
            count,
        } => {
            out.push(1);
            write_varint(out, *sum_squares as u64);
            write_varint(out, *sum as u64);
            write_varint(out, *count as u64);
        }
        ClientPostStep::SqrtOfVariance { variance_step } => {
            out.push(2);
            write_varint(out, *variance_step as u64);
        }
        ClientPostStep::MergeInflatedGroups => out.push(3),
    }
}

fn read_client_post_step(r: &mut Reader<'_>) -> Result<ClientPostStep, SeabedError> {
    Ok(match r.u8()? {
        0 => ClientPostStep::Divide {
            numerator: r.len()?,
            denominator: r.len()?,
        },
        1 => ClientPostStep::Variance {
            sum_squares: r.len()?,
            sum: r.len()?,
            count: r.len()?,
        },
        2 => ClientPostStep::SqrtOfVariance {
            variance_step: r.len()?,
        },
        3 => ClientPostStep::MergeInflatedGroups,
        other => return Err(SeabedError::wire(format!("invalid client-post-step tag {other}"))),
    })
}

fn write_support_category(out: &mut Vec<u8>, category: SupportCategory) {
    out.push(match category {
        SupportCategory::ServerOnly => 0,
        SupportCategory::ClientPreProcessing => 1,
        SupportCategory::ClientPostProcessing => 2,
        SupportCategory::TwoRoundTrips => 3,
    });
}

fn read_support_category(r: &mut Reader<'_>) -> Result<SupportCategory, SeabedError> {
    Ok(match r.u8()? {
        0 => SupportCategory::ServerOnly,
        1 => SupportCategory::ClientPreProcessing,
        2 => SupportCategory::ClientPostProcessing,
        3 => SupportCategory::TwoRoundTrips,
        other => return Err(SeabedError::wire(format!("invalid support-category tag {other}"))),
    })
}

fn write_param_slot(out: &mut Vec<u8>, slot: &seabed_query::ParamSlot) {
    write_varint(out, slot.filter_index as u64);
    write_string(out, &slot.column);
    out.push(match slot.kind {
        seabed_query::ParamKind::Plain => 0,
        seabed_query::ParamKind::Det => 1,
        seabed_query::ParamKind::Ope => 2,
    });
}

fn read_param_slot(r: &mut Reader<'_>) -> Result<seabed_query::ParamSlot, SeabedError> {
    Ok(seabed_query::ParamSlot {
        filter_index: r.len()?,
        column: r.string()?,
        kind: match r.u8()? {
            0 => seabed_query::ParamKind::Plain,
            1 => seabed_query::ParamKind::Det,
            2 => seabed_query::ParamKind::Ope,
            other => return Err(SeabedError::wire(format!("invalid param-kind tag {other}"))),
        },
    })
}

fn write_translated_query(out: &mut Vec<u8>, q: &TranslatedQuery) {
    write_string(out, &q.base_table);
    write_vec(out, &q.filters, write_server_filter);
    write_vec(out, &q.aggregates, write_server_aggregate);
    write_vec(out, &q.group_by, write_group_by_column);
    write_varint(out, u64::from(q.group_inflation));
    write_vec(out, &q.client_post, write_client_post_step);
    write_bool(out, q.preserve_row_ids);
    write_support_category(out, q.category);
    write_vec(out, &q.params, write_param_slot);
}

fn read_translated_query(r: &mut Reader<'_>) -> Result<TranslatedQuery, SeabedError> {
    let base_table = r.string()?;
    let filters = read_vec(r, 2, read_server_filter)?;
    let aggregates = read_vec(r, 1, read_server_aggregate)?;
    let group_by = read_vec(r, 3, read_group_by_column)?;
    let inflation = r.varint()?;
    let group_inflation =
        u32::try_from(inflation).map_err(|_| SeabedError::wire(format!("group inflation {inflation} exceeds u32")))?;
    let client_post = read_vec(r, 1, read_client_post_step)?;
    let preserve_row_ids = r.bool()?;
    let category = read_support_category(r)?;
    let params = read_vec(r, 3, read_param_slot)?;
    Ok(TranslatedQuery {
        base_table,
        filters,
        aggregates,
        group_by,
        group_inflation,
        client_post,
        preserve_row_ids,
        category,
        params,
    })
}

fn write_physical_filter(out: &mut Vec<u8>, filter: &PhysicalFilter) {
    match filter {
        PhysicalFilter::PlainU64 { column, op, value } => {
            out.push(0);
            write_varint(out, *column as u64);
            write_compare_op(out, *op);
            write_varint(out, *value);
        }
        PhysicalFilter::PlainText { column, value } => {
            out.push(1);
            write_varint(out, *column as u64);
            write_string(out, value);
        }
        PhysicalFilter::DetTag { column, tag } => {
            out.push(2);
            write_varint(out, *column as u64);
            write_varint(out, *tag);
        }
        PhysicalFilter::Ope { column, op, ciphertext } => {
            out.push(3);
            write_varint(out, *column as u64);
            write_compare_op(out, *op);
            write_bytes(out, &ciphertext.symbols);
        }
    }
}

fn read_physical_filter(r: &mut Reader<'_>) -> Result<PhysicalFilter, SeabedError> {
    Ok(match r.u8()? {
        0 => PhysicalFilter::PlainU64 {
            column: r.len()?,
            op: read_compare_op(r)?,
            value: r.varint()?,
        },
        1 => PhysicalFilter::PlainText {
            column: r.len()?,
            value: r.string()?,
        },
        2 => PhysicalFilter::DetTag {
            column: r.len()?,
            tag: r.varint()?,
        },
        3 => PhysicalFilter::Ope {
            column: r.len()?,
            op: read_compare_op(r)?,
            // The symbol width is validated by the server's scan kernels,
            // which treat corrupt widths as non-matching; the wire layer
            // ships the bytes verbatim.
            ciphertext: seabed_crypto::OreCiphertext { symbols: r.bytes()? },
        },
        other => return Err(SeabedError::wire(format!("invalid physical-filter tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Result-layer types (response direction)
// ---------------------------------------------------------------------------

fn write_id_list_encoding(out: &mut Vec<u8>, encoding: IdListEncoding) {
    out.push(match encoding {
        IdListEncoding::RangesVb => 0,
        IdListEncoding::RangesVbDiff => 1,
        IdListEncoding::RangesVbDiffDeflateCompact => 2,
        IdListEncoding::RangesVbDiffDeflateFast => 3,
        IdListEncoding::VbDiff => 4,
        IdListEncoding::Bitmap => 5,
    });
}

fn read_id_list_encoding(r: &mut Reader<'_>) -> Result<IdListEncoding, SeabedError> {
    Ok(match r.u8()? {
        0 => IdListEncoding::RangesVb,
        1 => IdListEncoding::RangesVbDiff,
        2 => IdListEncoding::RangesVbDiffDeflateCompact,
        3 => IdListEncoding::RangesVbDiffDeflateFast,
        4 => IdListEncoding::VbDiff,
        5 => IdListEncoding::Bitmap,
        other => return Err(SeabedError::wire(format!("invalid ID-list encoding tag {other}"))),
    })
}

fn write_encrypted_aggregate(out: &mut Vec<u8>, agg: &EncryptedAggregate) {
    match agg {
        EncryptedAggregate::AsheSum {
            value,
            id_list,
            encoding,
        } => {
            out.push(0);
            write_varint(out, *value);
            write_bytes(out, id_list);
            write_id_list_encoding(out, *encoding);
        }
        EncryptedAggregate::Count { rows } => {
            out.push(1);
            write_varint(out, *rows);
        }
        EncryptedAggregate::Extreme { value_word, row_id } => {
            out.push(2);
            write_varint(out, *value_word);
            match row_id {
                None => out.push(0),
                Some(id) => {
                    out.push(1);
                    write_varint(out, *id);
                }
            }
        }
    }
}

fn read_encrypted_aggregate(r: &mut Reader<'_>) -> Result<EncryptedAggregate, SeabedError> {
    Ok(match r.u8()? {
        0 => EncryptedAggregate::AsheSum {
            value: r.varint()?,
            id_list: r.bytes()?,
            encoding: read_id_list_encoding(r)?,
        },
        1 => EncryptedAggregate::Count { rows: r.varint()? },
        2 => EncryptedAggregate::Extreme {
            value_word: r.varint()?,
            row_id: match r.u8()? {
                0 => None,
                1 => Some(r.varint()?),
                other => return Err(SeabedError::wire(format!("invalid option tag {other}"))),
            },
        },
        other => return Err(SeabedError::wire(format!("invalid encrypted-aggregate tag {other}"))),
    })
}

fn write_group_result(out: &mut Vec<u8>, group: &GroupResult) {
    write_vec(out, &group.key, |out, k| write_varint(out, *k));
    write_vec(out, &group.aggregates, write_encrypted_aggregate);
}

fn read_group_result(r: &mut Reader<'_>) -> Result<GroupResult, SeabedError> {
    Ok(GroupResult {
        key: read_vec(r, 1, |r| r.varint())?,
        aggregates: read_vec(r, 2, read_encrypted_aggregate)?,
    })
}

fn write_exec_stats(out: &mut Vec<u8>, stats: &ExecStats) {
    write_varint(out, stats.tasks as u64);
    write_duration(out, stats.total_task_time);
    write_duration(out, stats.max_task_time);
    write_duration(out, stats.simulated_server_time);
    write_varint(out, stats.bytes_to_driver as u64);
    write_duration(out, stats.wall_time);
    write_vec(out, &stats.operators, write_operator_profile);
}

fn read_exec_stats(r: &mut Reader<'_>) -> Result<ExecStats, SeabedError> {
    Ok(ExecStats {
        tasks: r.len()?,
        total_task_time: r.duration()?,
        max_task_time: r.duration()?,
        simulated_server_time: r.duration()?,
        bytes_to_driver: r.len()?,
        wall_time: r.duration()?,
        operators: read_vec(r, 5, read_operator_profile)?,
    })
}

fn write_operator_profile(out: &mut Vec<u8>, op: &OperatorProfile) {
    write_string(out, &op.label);
    write_varint(out, op.rows_in);
    write_varint(out, op.rows_out);
    write_varint(out, op.batches);
    write_varint(out, op.nanos);
}

fn read_operator_profile(r: &mut Reader<'_>) -> Result<OperatorProfile, SeabedError> {
    Ok(OperatorProfile {
        label: r.string()?,
        rows_in: r.varint()?,
        rows_out: r.varint()?,
        batches: r.varint()?,
        nanos: r.varint()?,
    })
}

fn write_server_response(out: &mut Vec<u8>, response: &ServerResponse) {
    write_vec(out, &response.groups, write_group_result);
    write_exec_stats(out, &response.stats);
    write_varint(out, response.result_bytes as u64);
}

fn read_server_response(r: &mut Reader<'_>) -> Result<ServerResponse, SeabedError> {
    Ok(ServerResponse {
        groups: read_vec(r, 2, read_group_result)?,
        stats: read_exec_stats(r)?,
        result_bytes: r.len()?,
    })
}

// ---------------------------------------------------------------------------
// Mergeable partial results (the seabed-dist gather direction)
// ---------------------------------------------------------------------------

fn write_id_set(out: &mut Vec<u8>, ids: &seabed_ashe::IdSet) {
    write_bytes(out, &ids.encode(PARTIAL_ID_ENCODING));
}

fn read_id_set(r: &mut Reader<'_>) -> Result<seabed_ashe::IdSet, SeabedError> {
    let bytes = r.bytes()?;
    seabed_ashe::IdSet::decode(&bytes, PARTIAL_ID_ENCODING)
        .ok_or_else(|| SeabedError::wire("undecodable ID set in partial result"))
}

fn write_partial_aggregate(out: &mut Vec<u8>, partial: &PartialAggregate) {
    match partial {
        PartialAggregate::Sum { value, ids } => {
            out.push(0);
            write_varint(out, *value);
            write_id_set(out, ids);
        }
        PartialAggregate::Count { ids } => {
            out.push(1);
            write_id_set(out, ids);
        }
        PartialAggregate::Extreme { best, want_max } => {
            out.push(2);
            write_bool(out, *want_max);
            match best {
                None => out.push(0),
                Some(candidate) => {
                    out.push(1);
                    write_bytes(out, &candidate.ciphertext.symbols);
                    write_varint(out, candidate.value_word);
                    write_varint(out, candidate.row_id);
                }
            }
        }
    }
}

fn read_partial_aggregate(r: &mut Reader<'_>) -> Result<PartialAggregate, SeabedError> {
    Ok(match r.u8()? {
        0 => PartialAggregate::Sum {
            value: r.varint()?,
            ids: read_id_set(r)?,
        },
        1 => PartialAggregate::Count { ids: read_id_set(r)? },
        2 => {
            let want_max = r.bool()?;
            let best = match r.u8()? {
                0 => None,
                1 => Some(ExtremeCandidate {
                    // Width is validated by the merge algebra, which rejects
                    // corrupt-width candidates; the wire ships bytes verbatim.
                    ciphertext: seabed_crypto::OreCiphertext { symbols: r.bytes()? },
                    value_word: r.varint()?,
                    row_id: r.varint()?,
                }),
                other => return Err(SeabedError::wire(format!("invalid option tag {other}"))),
            };
            PartialAggregate::Extreme { best, want_max }
        }
        other => return Err(SeabedError::wire(format!("invalid partial-aggregate tag {other}"))),
    })
}

fn write_partial_response(out: &mut Vec<u8>, partial: &PartialResponse) {
    // HashMap iteration order is not deterministic; sort by group key so a
    // given partial always serializes to the same bytes.
    let mut groups: Vec<(&Vec<u64>, &Vec<PartialAggregate>)> = partial.groups.iter().collect();
    groups.sort_by(|a, b| a.0.cmp(b.0));
    write_varint(out, groups.len() as u64);
    for (key, partials) in groups {
        write_vec(out, key, |out, k| write_varint(out, *k));
        write_vec(out, partials, write_partial_aggregate);
    }
    write_exec_stats(out, &partial.stats);
}

fn read_partial_response(r: &mut Reader<'_>) -> Result<PartialResponse, SeabedError> {
    let count = r.len()?;
    let mut groups = PartialGroups::with_capacity(r.capped(count, 4));
    for _ in 0..count {
        let key = read_vec(r, 1, |r| r.varint())?;
        let partials = read_vec(r, 2, read_partial_aggregate)?;
        groups.insert(key, partials);
    }
    Ok(PartialResponse {
        groups,
        stats: read_exec_stats(r)?,
    })
}

// ---------------------------------------------------------------------------
// Metrics snapshots and query traces (the observability scrape direction)
// ---------------------------------------------------------------------------

fn write_scalar_metrics(out: &mut Vec<u8>, entries: &[(String, u64)]) {
    write_vec(out, entries, |out, (name, value)| {
        write_string(out, name);
        write_varint(out, *value);
    });
}

fn read_scalar_metrics(r: &mut Reader<'_>) -> Result<Vec<(String, u64)>, SeabedError> {
    read_vec(r, 2, |r| Ok((r.string()?, r.varint()?)))
}

fn write_histogram_snapshot(out: &mut Vec<u8>, h: &seabed_obs::HistogramSnapshot) {
    write_varint(out, h.count);
    write_varint(out, h.sum);
    write_varint(out, h.max);
    write_vec(out, &h.buckets, |out, (bucket, n)| {
        out.push(*bucket);
        write_varint(out, *n);
    });
}

fn read_histogram_snapshot(r: &mut Reader<'_>) -> Result<seabed_obs::HistogramSnapshot, SeabedError> {
    Ok(seabed_obs::HistogramSnapshot {
        count: r.varint()?,
        sum: r.varint()?,
        max: r.varint()?,
        buckets: read_vec(r, 2, |r| {
            let bucket = r.u8()?;
            if usize::from(bucket) >= seabed_obs::HISTOGRAM_BUCKETS {
                return Err(SeabedError::wire(format!(
                    "histogram bucket index {bucket} out of range"
                )));
            }
            Ok((bucket, r.varint()?))
        })?,
    })
}

fn write_metrics_snapshot(out: &mut Vec<u8>, snapshot: &seabed_obs::MetricsSnapshot) {
    write_scalar_metrics(out, &snapshot.counters);
    write_scalar_metrics(out, &snapshot.gauges);
    write_vec(out, &snapshot.histograms, |out, (name, h)| {
        write_string(out, name);
        write_histogram_snapshot(out, h);
    });
}

fn read_metrics_snapshot(r: &mut Reader<'_>) -> Result<seabed_obs::MetricsSnapshot, SeabedError> {
    Ok(seabed_obs::MetricsSnapshot {
        counters: read_scalar_metrics(r)?,
        gauges: read_scalar_metrics(r)?,
        histograms: read_vec(r, 4, |r| Ok((r.string()?, read_histogram_snapshot(r)?)))?,
    })
}

fn write_query_trace(out: &mut Vec<u8>, trace: &seabed_obs::QueryTrace) {
    write_varint(out, trace.trace_id);
    write_varint(out, trace.statement_id);
    write_string(out, &trace.node);
    write_vec(out, &trace.spans, |out, span| {
        write_string(out, &span.name);
        write_varint(out, span.start_ns);
        write_varint(out, span.duration_ns);
    });
}

fn read_query_trace(r: &mut Reader<'_>) -> Result<seabed_obs::QueryTrace, SeabedError> {
    Ok(seabed_obs::QueryTrace {
        trace_id: r.varint()?,
        statement_id: r.varint()?,
        node: r.string()?,
        spans: read_vec(r, 3, |r| {
            Ok(seabed_obs::TraceSpan {
                name: r.string()?,
                start_ns: r.varint()?,
                duration_ns: r.varint()?,
            })
        })?,
    })
}

fn write_query_event(out: &mut Vec<u8>, event: &seabed_obs::QueryEvent) {
    write_varint(out, event.trace_id);
    write_varint(out, event.statement_id);
    write_string(out, &event.node);
    write_string(out, &event.plan);
    write_vec(out, &event.operators, |out, op| {
        write_string(out, &op.label);
        write_varint(out, op.rows_in);
        write_varint(out, op.rows_out);
        write_varint(out, op.batches);
        write_varint(out, op.nanos);
    });
    write_varint(out, event.total_ns);
    write_bool(out, event.slow);
    write_string(out, &event.outcome);
}

fn read_query_event(r: &mut Reader<'_>) -> Result<seabed_obs::QueryEvent, SeabedError> {
    Ok(seabed_obs::QueryEvent {
        trace_id: r.varint()?,
        statement_id: r.varint()?,
        node: r.string()?,
        plan: r.string()?,
        operators: read_vec(r, 5, |r| {
            Ok(seabed_obs::EventOperator {
                label: r.string()?,
                rows_in: r.varint()?,
                rows_out: r.varint()?,
                batches: r.varint()?,
                nanos: r.varint()?,
            })
        })?,
        total_ns: r.varint()?,
        slow: r.bool()?,
        outcome: r.string()?,
    })
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

fn write_schema(out: &mut Vec<u8>, schema: &Schema) {
    write_vec(out, &schema.fields, |out, field| {
        write_string(out, &field.name);
        out.push(match field.ty {
            ColumnType::UInt64 => 0,
            ColumnType::Int64 => 1,
            ColumnType::Utf8 => 2,
            ColumnType::Bytes => 3,
        });
    });
}

fn read_schema(r: &mut Reader<'_>) -> Result<Schema, SeabedError> {
    let fields = read_vec(r, 2, |r| {
        let name = r.string()?;
        let ty = match r.u8()? {
            0 => ColumnType::UInt64,
            1 => ColumnType::Int64,
            2 => ColumnType::Utf8,
            3 => ColumnType::Bytes,
            other => return Err(SeabedError::wire(format!("invalid column-type tag {other}"))),
        };
        Ok((name, ty))
    })?;
    Ok(Schema::new(fields))
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

fn write_error(out: &mut Vec<u8>, error: &SeabedError) {
    match error {
        SeabedError::Parse(e) => {
            out.push(0);
            write_string(out, &e.message);
            write_varint(out, e.position as u64);
        }
        SeabedError::Translate(msg) => {
            out.push(1);
            write_string(out, msg);
        }
        SeabedError::Plan(msg) => {
            out.push(2);
            write_string(out, msg);
        }
        SeabedError::Crypto(msg) => {
            out.push(3);
            write_string(out, msg);
        }
        SeabedError::Encoding(msg) => {
            out.push(4);
            write_string(out, msg);
        }
        SeabedError::Engine(msg) => {
            out.push(5);
            write_string(out, msg);
        }
        SeabedError::Schema(schema_error) => {
            out.push(6);
            match schema_error {
                SchemaError::UnknownColumn(c) => {
                    out.push(0);
                    write_string(out, c);
                }
                SchemaError::UnknownPhysicalColumn(c) => {
                    out.push(1);
                    write_string(out, c);
                }
                SchemaError::TypeMismatch {
                    column,
                    expected,
                    actual,
                } => {
                    out.push(2);
                    write_string(out, column);
                    write_string(out, expected);
                    write_string(out, actual);
                }
                SchemaError::CorruptPartition { partition, detail } => {
                    out.push(3);
                    write_varint(out, *partition as u64);
                    write_string(out, detail);
                }
                SchemaError::UnknownTable(t) => {
                    out.push(4);
                    write_string(out, t);
                }
                SchemaError::ParamCount { expected, actual } => {
                    out.push(5);
                    write_varint(out, *expected as u64);
                    write_varint(out, *actual as u64);
                }
            }
        }
        SeabedError::Net(msg) => {
            out.push(7);
            write_string(out, msg);
        }
        SeabedError::Wire(msg) => {
            out.push(8);
            write_string(out, msg);
        }
        SeabedError::Dist { worker, message } => {
            out.push(9);
            write_string(out, worker);
            write_string(out, message);
        }
        SeabedError::StaleStatement(handle) => {
            out.push(10);
            write_varint(out, *handle);
        }
        // `SeabedError` is #[non_exhaustive]; a variant this protocol version
        // does not know still crosses the wire with its layer erased but its
        // message intact.
        other => {
            out.push(5);
            write_string(out, &other.to_string());
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<SeabedError, SeabedError> {
    Ok(match r.u8()? {
        0 => SeabedError::Parse(ParseError {
            message: r.string()?,
            position: r.len()?,
        }),
        1 => SeabedError::Translate(r.string()?),
        2 => SeabedError::Plan(r.string()?),
        3 => SeabedError::Crypto(r.string()?),
        4 => SeabedError::Encoding(r.string()?),
        5 => SeabedError::Engine(r.string()?),
        6 => SeabedError::Schema(match r.u8()? {
            0 => SchemaError::UnknownColumn(r.string()?),
            1 => SchemaError::UnknownPhysicalColumn(r.string()?),
            2 => SchemaError::TypeMismatch {
                column: r.string()?,
                expected: r.string()?,
                actual: r.string()?,
            },
            3 => SchemaError::CorruptPartition {
                partition: r.len()?,
                detail: r.string()?,
            },
            4 => SchemaError::UnknownTable(r.string()?),
            5 => SchemaError::ParamCount {
                expected: r.len()?,
                actual: r.len()?,
            },
            other => return Err(SeabedError::wire(format!("invalid schema-error tag {other}"))),
        }),
        7 => SeabedError::Net(r.string()?),
        8 => SeabedError::Wire(r.string()?),
        9 => SeabedError::Dist {
            worker: r.string()?,
            message: r.string()?,
        },
        10 => SeabedError::StaleStatement(r.varint()?),
        other => return Err(SeabedError::wire(format!("invalid error tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_crypto::OreCiphertext;

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
            group_by: vec![GroupByColumn {
                column: "dept".to_string(),
                physical_column: "dept__det".to_string(),
                encrypted: true,
            }],
            group_inflation: 7,
            client_post: vec![
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
            ],
            preserve_row_ids: true,
            category: SupportCategory::ClientPostProcessing,
            params: vec![
                seabed_query::ParamSlot {
                    filter_index: 1,
                    column: "country".to_string(),
                    kind: seabed_query::ParamKind::Det,
                },
                seabed_query::ParamSlot {
                    filter_index: 2,
                    column: "ts".to_string(),
                    kind: seabed_query::ParamKind::Ope,
                },
            ],
        }
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
                    symbols: (0..64u8).collect(),
                },
            },
        ]
    }

    fn sample_response() -> ServerResponse {
        ServerResponse {
            groups: vec![
                GroupResult {
                    key: vec![],
                    aggregates: vec![
                        EncryptedAggregate::AsheSum {
                            value: u64::MAX,
                            id_list: vec![1, 2, 3, 0x80, 0xff],
                            encoding: IdListEncoding::RangesVbDiffDeflateFast,
                        },
                        EncryptedAggregate::Count { rows: 42 },
                    ],
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
            stats: ExecStats {
                tasks: 8,
                total_task_time: Duration::from_micros(1234),
                max_task_time: Duration::from_micros(400),
                simulated_server_time: Duration::from_millis(52),
                bytes_to_driver: 9000,
                wall_time: Duration::from_micros(800),
                operators: vec![OperatorProfile {
                    label: "filter:det:country__det".to_string(),
                    rows_in: 100,
                    rows_out: 10,
                    batches: 1,
                    nanos: 1234,
                }],
            },
            result_bytes: 123,
        }
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
    /// OPE predicate: only the proxy-encrypted `PhysicalFilter` carries the
    /// (encrypted) value.
    #[test]
    fn request_frames_do_not_leak_det_or_ope_literals() {
        let secret = "SECRET-DET-LITERAL";
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
            aggregates: vec![ServerAggregate::CountRows],
            group_by: vec![],
            group_inflation: 1,
            client_post: vec![],
            preserve_row_ids: true,
            category: SupportCategory::ServerOnly,
            params: vec![],
        };
        let bytes = encode_frame(
            &Frame::Request {
                query,
                filters: vec![],
                trace_id: 0,
                analyze: false,
            },
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        assert!(
            !bytes.windows(secret.len()).any(|w| w == secret.as_bytes()),
            "DET literal leaked into the request frame"
        );
        let mut ope_literal = Vec::new();
        varint::encode_u64(0xfeed_beef_cafe_f00d, &mut ope_literal);
        assert!(
            !bytes.windows(ope_literal.len()).any(|w| w == ope_literal.as_slice()),
            "OPE literal leaked into the request frame"
        );
    }

    #[test]
    fn response_frame_roundtrips() {
        let frame = Frame::Response(sample_response());
        let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), frame);
    }

    #[test]
    fn schema_and_handshake_frames_roundtrip() {
        let schema = Schema::new([
            ("a".to_string(), ColumnType::UInt64),
            ("b".to_string(), ColumnType::Int64),
            ("c".to_string(), ColumnType::Utf8),
            ("d".to_string(), ColumnType::Bytes),
        ]);
        for frame in [Frame::SchemaRequest, Frame::Schema(schema)] {
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), frame);
        }
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = vec![
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
            SeabedError::Net("reset".to_string()),
            SeabedError::Wire("garbage".to_string()),
            SeabedError::Dist {
                worker: "127.0.0.1:9999".to_string(),
                message: "stalled mid-query".to_string(),
            },
            SeabedError::Schema(SchemaError::UnknownTable("ghosts".to_string())),
            SeabedError::Schema(SchemaError::ParamCount { expected: 2, actual: 0 }),
            SeabedError::StaleStatement(u64::MAX),
        ];
        for error in errors {
            let frame = Frame::Error(error.clone());
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(
                decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(),
                Frame::Error(error)
            );
        }
    }

    fn sample_partial() -> PartialResponse {
        use seabed_ashe::IdSet;
        let mut groups = PartialGroups::new();
        groups.insert(
            vec![],
            vec![
                PartialAggregate::Sum {
                    value: u64::MAX,
                    ids: IdSet::from_sorted_ids(&[1, 2, 3, 900]),
                },
                PartialAggregate::Count {
                    ids: IdSet::range(5, 10),
                },
            ],
        );
        groups.insert(
            vec![7, u64::MAX],
            vec![
                PartialAggregate::Extreme {
                    best: Some(ExtremeCandidate {
                        ciphertext: seabed_crypto::OreCiphertext {
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
        PartialResponse {
            groups,
            stats: ExecStats {
                tasks: 3,
                total_task_time: Duration::from_micros(500),
                max_task_time: Duration::from_micros(300),
                simulated_server_time: Duration::from_millis(4),
                bytes_to_driver: 1234,
                wall_time: Duration::from_micros(450),
                operators: vec![OperatorProfile {
                    label: "aggregate".to_string(),
                    rows_in: 10,
                    rows_out: 2,
                    batches: 1,
                    nanos: 777,
                }],
            },
        }
    }

    #[test]
    fn dist_frames_roundtrip() {
        let table = seabed_engine::Table::from_columns(
            Schema::new([
                ("m__ashe".to_string(), ColumnType::UInt64),
                ("g".to_string(), ColumnType::UInt64),
            ]),
            vec![
                seabed_engine::ColumnData::UInt64((0..50).collect()),
                seabed_engine::ColumnData::UInt64((0..50).map(|i| i % 3).collect()),
            ],
            4,
        );
        let frames = vec![
            Frame::WorkerHandshake { epoch: u64::MAX },
            Frame::WorkerReady { epoch: 7, shards: 3 },
            Frame::LoadShard {
                epoch: 7,
                table_id: 1,
                shard: 2,
                exec: ShardExecConfig {
                    local_threads: 4,
                    exec_mode: ExecMode::Scalar,
                },
                table,
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
        ];
        for frame in frames {
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), frame);
        }
    }

    fn sample_metrics_snapshot() -> seabed_obs::MetricsSnapshot {
        seabed_obs::MetricsSnapshot {
            counters: vec![("net_requests".to_string(), 42), ("hedged_reads".to_string(), 3)],
            gauges: vec![("shard_store_size".to_string(), 8)],
            histograms: vec![(
                "shard_execute_ns".to_string(),
                seabed_obs::HistogramSnapshot {
                    count: 5,
                    sum: 1_000_000,
                    max: 400_000,
                    buckets: vec![(12, 2), (19, 3)],
                },
            )],
        }
    }

    fn sample_traces() -> Vec<seabed_obs::QueryTrace> {
        vec![seabed_obs::QueryTrace {
            trace_id: 0xfeed_f00d,
            statement_id: 0xdead_beef,
            node: "worker:9042".to_string(),
            spans: vec![seabed_obs::TraceSpan {
                name: "shard-execute".to_string(),
                start_ns: 100,
                duration_ns: 250_000,
            }],
        }]
    }

    fn sample_events() -> Vec<seabed_obs::QueryEvent> {
        vec![seabed_obs::QueryEvent {
            trace_id: 0xfeed_f00d,
            statement_id: 0xdead_beef,
            node: "coordinator".to_string(),
            plan: "aggregate\n  scan sales".to_string(),
            operators: vec![seabed_obs::EventOperator {
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

    #[test]
    fn metrics_frames_roundtrip() {
        for frame in [
            Frame::MetricsRequest {
                include_traces: true,
                include_events: true,
            },
            Frame::MetricsRequest {
                include_traces: false,
                include_events: false,
            },
            Frame::MetricsSnapshot {
                metrics: sample_metrics_snapshot(),
                traces: sample_traces(),
                events: sample_events(),
            },
            Frame::MetricsSnapshot {
                metrics: seabed_obs::MetricsSnapshot::default(),
                traces: vec![],
                events: vec![],
            },
        ] {
            let bytes = encode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(), frame);
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
}
