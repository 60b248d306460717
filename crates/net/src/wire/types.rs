//! The layout of every type that travels inside a frame: one [`Wire`] impl
//! per type, most of them a one-line table. Field and tag order here **is**
//! the protocol — `tests/wire_golden.rs` pins the bytes of every arm — so a
//! line moves only together with [`super::PROTOCOL_VERSION`].

use super::codec::{invalid_tag, put_bytes, put_words, Reader, Wire};
use seabed_ashe::IdSet;
use seabed_core::{EncryptedAggregate, GroupIds, GroupResult, PartialResponse, PhysicalFilter, ServerResponse};
use seabed_crypto::OreCiphertext;
use seabed_encoding::IdListEncoding;
use seabed_engine::merge::{ExtremeCandidate, PartialAggregate, PartialGroup};
use seabed_engine::{
    BytesColumn, ColumnData, ColumnType, ExecMode, ExecStats, Field, OperatorProfile, Partition, Schema, Table,
};
use seabed_error::{ParseError, SchemaError, SeabedError};
use seabed_obs::{EventOperator, HistogramSnapshot, MetricsSnapshot, QueryEvent, TraceSpan, HISTOGRAM_BUCKETS};
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

wire_enum!(IdListEncoding as "ID-list encoding" {
    0 => RangesVbDiff,
    1 => VbDiff,
    2 => SpanBitmap,
    3 => EliasFano
});
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
wire_struct!(ExecStats { wall_time, operators });
wire_struct!(ServerResponse { groups, stats });

// ---------------------------------------------------------------------------
// Mergeable partial results (the seabed-dist gather direction)
// ---------------------------------------------------------------------------

/// An ID set travels as a response group's list does: the tag of its
/// smallest container, then the list in it, parsed straight out of the frame.
impl Wire for IdSet {
    fn encode(&self, out: &mut Vec<u8>) {
        let (encoding, size) = self.smallest_encoding();
        encoding.encode(out);
        // A byte string's layout (`put_bytes`), written in place.
        size.encode(out);
        self.append_encoded(encoding, size, out);
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
// Metrics snapshots and query events (the observability scrape)
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
    spans,
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

// A shard's table: its schema, then each partition's first row ID and
// columns. A column leads with its type's tag; words travel as their raw
// bytes, text as strings. A column whose tag contradicts the schema decodes,
// and is refused by `Table::validate_layout`, which the server runs on every
// table it loads.
wire_struct!(Table { schema, partitions });
wire_struct!(Partition { start_row, columns });
wire_enum!(ColumnData as "column" {
    0 => UInt64(values: words),
    1 => Int64(values: words),
    2 => Utf8(values),
    3 => Bytes(values),
});

/// A `Bytes` column travels in the layout it has in memory. Cells of one
/// width (an ORE column's 16 bytes) are `Uniform`: the width, the cell count
/// and the cells back to back as one byte string, copied in one piece each
/// way. Any other column — ragged, empty, or of empty cells — is `Offsets`:
/// a count, then each cell as a byte string, pushed as it arrives. Every row
/// a frame declares is backed by bytes of the frame: a `Uniform` arm's data
/// must be exactly `width × cells` bytes, and a zero width claims no cells.
impl Wire for BytesColumn {
    fn encode(&self, out: &mut Vec<u8>) {
        match self.uniform_cells() {
            Some((width, data)) if width > 0 => {
                out.push(0);
                width.encode(out);
                self.len().encode(out);
                put_bytes(out, data);
            }
            _ => {
                out.push(1);
                self.len().encode(out);
                for cell in self.iter() {
                    put_bytes(out, cell);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<BytesColumn, SeabedError> {
        match r.u8()? {
            0 => {
                let (width, cells): (usize, usize) = (r.get()?, r.get()?);
                let data = r.bytes()?;
                let len = width
                    .checked_mul(cells)
                    .ok_or_else(|| SeabedError::wire(format!("{cells} cells of {width} bytes overflow")))?;
                if width == 0 && cells > 0 {
                    return Err(SeabedError::wire(format!("{cells} cells of no width")));
                }
                if data.len() != len {
                    return Err(SeabedError::wire(format!(
                        "{cells} cells of {width} bytes shipped as {} bytes",
                        data.len()
                    )));
                }
                Ok(BytesColumn::uniform(width, cells, data.to_vec()))
            }
            1 => {
                let count: usize = r.get()?;
                let mut column = BytesColumn::new();
                for _ in 0..count {
                    column.push(r.bytes()?);
                }
                Ok(column)
            }
            other => Err(invalid_tag("bytes-column layout", other)),
        }
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
    10 => StaleStatement(handle: fixed),
    // `SeabedError` is #[non_exhaustive]; a variant this protocol version does
    // not know still crosses the wire with its layer erased but its message
    // intact.
    _(other) => SeabedError::Engine(other.to_string()),
});
