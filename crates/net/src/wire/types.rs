//! The layout of every type that travels inside a frame: one [`Wire`] impl
//! per type, most of them a one-line table. Field and tag order here **is**
//! the protocol — `tests/wire_golden.rs` pins the bytes of every arm — so a
//! line moves only together with [`super::PROTOCOL_VERSION`].

use super::codec::{invalid_tag, put_bytes, Reader, Wire};
use seabed_ashe::IdSet;
use seabed_core::{EncryptedAggregate, GroupIds, GroupResult, PartialResponse, PhysicalFilter, ServerResponse};
use seabed_crypto::OreCiphertext;
use seabed_encoding::IdListEncoding;
use seabed_engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroup};
use seabed_engine::{storage, ColumnType, ExecMode, ExecStats, Field, OperatorProfile, Schema, Table};
use seabed_error::{ParseError, SchemaError, SeabedError};
use seabed_obs::{
    EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, QueryTrace, TraceSpan, HISTOGRAM_BUCKETS,
};
use seabed_query::{
    CompareOp, GroupByColumn, Literal, ParamKind, ParamSlot, Predicate, ServerAggregate, ServerFilter, TranslatedQuery,
};

// ---------------------------------------------------------------------------
// Query-layer types (request direction)
// ---------------------------------------------------------------------------

wire_enum!(CompareOp as "comparison operator" { 0 => Eq, 1 => NotEq, 2 => Lt, 3 => LtEq, 4 => Gt, 5 => GtEq });
wire_enum!(Literal as "literal" { 0 => Integer(value), 1 => Text(text), 2 => Param(ordinal) });
wire_struct!(Predicate { column, op, value });

// A plan travels as the half of it the server executes. What only the key
// holder reads is `unsent`, so no request, prepare or shard-query frame can
// carry it and `decode` yields the plan [`super::redact_query`] states: the
// plaintext literals of DET and OPE filters (the proxy encrypts them into the
// `PhysicalFilter`s beside the plan), the post-processing steps, the support
// category, the row-ID flag, and the *logical* column names of group keys and
// placeholders.
wire_enum!(ServerFilter as "server-filter" {
    0 => Plain(predicate),
    1 => DetEquals { column, value: unsent },
    2 => OpeCompare { column, op, value: unsent },
});
wire_enum!(ServerAggregate as "server-aggregate" {
    0 => AsheSum { column },
    1 => CountRows,
    2 => OpeMin { column },
    3 => OpeMax { column },
});
wire_struct!(GroupByColumn {
    column: unsent,
    physical_column,
    encrypted
});
wire_enum!(ParamKind as "param-kind" { 0 => Plain, 1 => Det, 2 => Ope });
wire_struct!(ParamSlot {
    filter_index,
    column: unsent,
    kind
});
wire_struct!(TranslatedQuery {
    base_table,
    filters,
    aggregates,
    group_by,
    group_inflation,
    client_post: unsent,
    preserve_row_ids: unsent,
    category: unsent,
    params,
});

// The width of an ORE ciphertext is not checked here: the server refuses a
// filter literal that is not one cell wide before it scans and the merge
// algebra rejects a corrupt-width candidate; the wire ships the packed bytes
// verbatim.
wire_struct!(OreCiphertext { symbols: bytes });
wire_enum!(PhysicalFilter as "physical-filter" {
    0 => PlainU64 { column, op, value },
    1 => PlainText { column, value },
    2 => DetTag { column, tag },
    3 => Ope { column, op, ciphertext },
});

// ---------------------------------------------------------------------------
// Result-layer types (response direction)
// ---------------------------------------------------------------------------

wire_enum!(IdListEncoding as "ID-list encoding" { 0 => RangesVbDiff, 1 => VbDiff, 2 => SpanBitmap });
wire_enum!(EncryptedAggregate as "encrypted-aggregate" {
    0 => AsheSum { value },
    1 => Count { rows },
    2 => Extreme { value_word, row_id },
});
wire_struct!(GroupIds {
    id_list: bytes,
    encoding
});
wire_struct!(GroupResult { key, ids, aggregates });
wire_struct!(OperatorProfile {
    label,
    rows_in,
    rows_out,
    batches,
    nanos
});
wire_struct!(ExecStats {
    tasks,
    total_task_time,
    max_task_time,
    simulated_server_time,
    bytes_to_driver,
    wall_time,
    operators,
});
wire_struct!(ServerResponse {
    groups,
    stats,
    result_bytes
});

// ---------------------------------------------------------------------------
// Mergeable partial results (the seabed-dist gather direction)
// ---------------------------------------------------------------------------

/// An ID set travels as a response group's list does: the tag of its
/// smallest container, then the list in it, parsed straight out of the frame.
impl Wire for IdSet {
    fn encode(&self, out: &mut Vec<u8>) {
        let (encoding, _) = self.smallest_encoding();
        encoding.encode(out);
        put_bytes(out, &IdSet::encode(self, encoding));
    }

    fn decode(r: &mut Reader<'_>) -> Result<IdSet, SeabedError> {
        let encoding: IdListEncoding = r.get()?;
        IdSet::decode(r.bytes()?, encoding).ok_or_else(|| SeabedError::wire("undecodable ID set in partial result"))
    }
}

wire_struct!(ExtremeCandidate {
    ciphertext,
    value_word,
    row_id
});
wire_enum!(PartialAggregate as "partial-aggregate" {
    0 => Sum { value },
    1 => Count,
    2 => Extreme { want_max, best },
});
wire_struct!(PartialGroup { ids, aggregates });
wire_struct!(PartialResponse { groups, stats });

// ---------------------------------------------------------------------------
// Metrics snapshots, query traces and events (the observability scrape)
// ---------------------------------------------------------------------------

/// One histogram bucket, `(index, count)`. The index is range-checked on
/// arrival so a decoded snapshot can be rendered without bounds checks.
impl Wire for (u8, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.0);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(u8, u64), SeabedError> {
        let bucket = r.u8()?;
        if usize::from(bucket) >= HISTOGRAM_BUCKETS {
            return Err(SeabedError::wire(format!(
                "histogram bucket index {bucket} out of range"
            )));
        }
        Ok((bucket, r.get()?))
    }
}

wire_struct!(HistogramSnapshot {
    count,
    sum,
    max,
    buckets
});
wire_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms
});
wire_struct!(TraceSpan {
    name,
    start_ns,
    duration_ns
});
wire_struct!(QueryTrace {
    trace_id,
    statement_id,
    node,
    spans
});
wire_struct!(EventOperator {
    label,
    rows_in,
    rows_out,
    batches,
    nanos
});
wire_struct!(QueryEvent {
    trace_id,
    statement_id,
    node,
    plan,
    operators,
    total_ns,
    slow,
    outcome,
});

// ---------------------------------------------------------------------------
// Schema, shard tables, exec config
// ---------------------------------------------------------------------------

wire_enum!(ColumnType as "column-type" { 0 => UInt64, 1 => Int64, 2 => Utf8, 3 => Bytes });
wire_struct!(Field { name, ty });
wire_struct!(Schema { fields });
wire_enum!(ExecMode as "exec-mode" { 0 => Scalar, 1 => Vectorized });

/// A shard's table travels in the stored-table format of
/// [`seabed_engine::storage`] as one byte string: written straight into the
/// frame behind its length, which the storage layer computes exactly, and
/// parsed straight out of it.
impl Wire for Table {
    fn encode(&self, out: &mut Vec<u8>) {
        let len = storage::serialized_len(self);
        len.encode(out);
        let start = out.len();
        storage::serialize_table_into(self, out);
        debug_assert_eq!(
            out.len() - start,
            len,
            "serialized_len is the length serialize_table_into writes"
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Table, SeabedError> {
        storage::deserialize_table(r.bytes()?)
            .ok_or_else(|| SeabedError::wire("shard table payload is corrupt or truncated"))
    }
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

wire_struct!(ParseError { message, position });
wire_enum!(SchemaError as "schema-error" {
    0 => UnknownColumn(column),
    1 => UnknownPhysicalColumn(column),
    2 => TypeMismatch { column, expected, actual },
    3 => CorruptPartition { partition, detail },
    4 => UnknownTable(table),
    5 => ParamCount { expected, actual },
});
wire_enum!(SeabedError as "error" {
    0 => Parse(error),
    1 => Translate(message),
    2 => Plan(message),
    3 => Crypto(message),
    4 => Encoding(message),
    5 => Engine(message),
    6 => Schema(error),
    7 => Net(message),
    8 => Wire(message),
    9 => Dist { worker, message },
    10 => StaleStatement(handle),
    // `SeabedError` is #[non_exhaustive]; a variant this protocol version does
    // not know still crosses the wire with its layer erased but its message
    // intact.
    _(other) => SeabedError::Engine(other.to_string()),
});
