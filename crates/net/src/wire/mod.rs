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
//! ([`seabed_encoding::varint`]), and **a decoder never reserves more bytes
//! than remain unread in the frame** — an element count is untrusted, so it
//! buys room for at most as many elements as fit, at their size in memory, in
//! the bytes still to be read — and every decode path is total: malformed
//! input yields [`SeabedError::Wire`], never a panic. One function owns that
//! reservation (`Vec<T>`'s decode in `codec.rs`; a shard table's words and
//! cells are sized by the bytes that carry them, checked before they are
//! copied), and `tests/wire_alloc_bound.rs` holds it with a counting
//! allocator: frames of 1 MiB and 8 MiB whose one count is forged to
//! `u64::MAX` may not make a decode request any single allocation above 2×
//! the frame. (What a frame *honestly* contains can still be larger in memory
//! than on the wire — an empty group is 2 bytes here and two `Vec`s there;
//! the rule bounds what a count alone can claim, and the frame limit bounds
//! the rest.)
//!
//! # Where a layout is written
//!
//! Once. Every type that crosses the link has one `impl Wire` (`codec.rs`
//! has the trait, the primitives and the containers; `types.rs` one impl per
//! type, most of them a one-line field or tag table that serves both
//! directions), and this file has the frames: [`Frame`], and the kind table —
//! one row per kind giving its byte, its name and its fields in wire order.
//! To add a frame kind: one [`Frame`] variant and one row of the table below
//! (the byte appears nowhere else — [`FrameKind`], [`FrameKind::from_u8`],
//! [`FrameKind::ALL`], the server's per-kind counters, [`Frame::kind`] and
//! both directions of the payload codec are generated from the row); a new
//! type inside it is one `wire_struct!` / `wire_enum!` line. Adding a kind is
//! compatible within a protocol version (an older receiver answers a typed
//! unknown-kind error); moving any existing byte is not, and
//! `tests/wire_golden.rs` — SHA-256 of a fully populated sample of every kind
//! — fails when one does.
//!
//! # Frame kinds
//!
//! | kind | direction       | payload                                        |
//! |------|-----------------|------------------------------------------------|
//! | 1    | client → server | request: the server's half of a `TranslatedQuery` + `Vec<PhysicalFilter>` (an ORE literal is 16 bytes) |
//! | 2    | server → client | response: `ServerResponse` — per group its key, its ID list once (absent without an ASHE sum), one word per sum / count, two per MIN/MAX |
//! | 3    | server → client | typed error: `SeabedError`                     |
//! | 4    | client → server | schema request (empty payload)                 |
//! | 5    | server → client | schema: `seabed_engine::Schema`                |
//! | 6    | coord → worker  | worker handshake: shard epoch                  |
//! | 7    | worker → coord  | handshake ack: epoch + resident shard count    |
//! | 8    | coord → worker  | shard assignment: epoch, (table id, shard id), exec config, `Table` (an ORE column is its width, its cell count and 16 bytes a cell) |
//! | 9    | worker → coord  | shard loaded: epoch, (table id, shard id), row count |
//! | 10   | coord → worker  | shard query: epoch, (table id, shard id), sequence number, the server's half of a `TranslatedQuery` + filters |
//! | 11   | worker → coord  | shard partial: echoed (epoch, table, shard, seq) + mergeable `PartialResponse` — per group its key, its ID set once, one partial per aggregate |
//! | 12   | client → server | prepare statement: the server's half of an unbound `TranslatedQuery` |
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
//! partials carry *mergeable* state (per group one ID set, ASHE partial sums,
//! MIN/MAX ORE candidates) rather than finalized aggregates, so the coordinator's
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
//! filters, nor anything else of a plan that only the key holder reads (its
//! post-processing steps, its support category, logical column names) — those
//! are redacted structurally at encode time (see [`redact_query`]); the server
//! only ever reads the physical plan and the proxy-encrypted
//! `PhysicalFilter`s. Round-trip fidelity (`decode(encode(x)) == x`, modulo
//! that redaction for requests), rejection of every strict prefix, of a
//! trailing byte and of a forged count are checked for **every** `Wire` type
//! by one generic harness in this module's unit tests, and for whole frames
//! by the randomized suite in `tests/wire_robustness.rs`.

#[macro_use]
mod codec;
mod tests;
mod types;

use codec::{put_seq, Put, Reader, Wire};
use seabed_core::{PartialResponse, PhysicalFilter, ServerResponse};
use seabed_engine::{ExecMode, Schema, Table};
use seabed_error::SeabedError;
use seabed_query::{ServerFilter, TranslatedQuery};

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
///
/// Version 5: four layouts changed at once, so that the bump is spent once.
/// ORE ciphertexts — filter literals, MIN/MAX candidates, the cells of a
/// shipped table — are 16 bytes, two bits a symbol, where they were 64. A
/// result group (kind 2) and a partial group (kind 11) carry their ID list
/// once, beside one word per ASHE sum, where every sum and count carried its
/// own copy. A translated query (kinds 1, 10, 12) is the half of the plan the
/// server executes: `client_post`, `category`, `preserve_row_ids` and the
/// logical column names of group keys and placeholders no longer travel. And,
/// a fourth change of its own in the same kinds: a redacted DET or OPE
/// literal, which version 4 marked with an empty string or a zero, is no
/// longer marked at all (one byte per such filter).
///
/// Version 6: every ID list — a result group's (kind 2) and a partial group's
/// (kind 11) — travels in the smallest of three containers, `RangesVbDiff`,
/// `VbDiff` or `SpanBitmap`, behind its one-byte tag; the `IdListEncoding`
/// tags are those three, where version 5 listed six encodings, DEFLATE among
/// them, and a partial's list was bare range bounds.
///
/// Version 7: exec stats — in a response (kind 2) and a shard partial
/// (kind 11) — carry only what the server measured, its `wall_time` and its
/// operator profiles; the task count, the task times, the modelled server
/// time and the bytes-to-driver count no longer travel, and a response no
/// longer carries a `result_bytes` count, which the receiver sums from the
/// groups it decoded. A response frame is six varints shorter, a partial
/// frame five.
///
/// Version 8: a shard's table (kind 8) is written by this codec, like every
/// other value, where version 7 shipped the engine's stored-table format as
/// one byte string. A column leads with its type's tag; a word column is a
/// count and raw 8-byte words, and a `Bytes` column of one cell width is its
/// width, its cell count and its cells as one byte string, where version 7
/// put a 4-byte length before every cell: an ORE cell ships in 16 bytes, not
/// 20.
///
/// There is no decoder for an older version: such a peer is refused by
/// [`decode_header`] with the typed version error, like any other.
pub const PROTOCOL_VERSION: u16 = 8;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 11;

/// Default upper bound on a frame's payload size (64 MiB). Connections reject
/// larger length prefixes before allocating anything.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 << 20;

/// The kind table: one row per frame kind — its byte, its name (the name of
/// its [`Frame`] variant) and the variant's fields in wire order, in the arm
/// shapes of `wire_enum!` (unit, tuple, struct). [`FrameKind`],
/// [`FrameKind::from_u8`], [`FrameKind::ALL`], [`Frame::kind`] and the payload
/// codec of both directions are generated from it, so they cannot disagree —
/// and every generated `match` is exhaustive over [`Frame`] or names the
/// variant it builds, so a row without a variant, a variant without a row, or
/// a row that misses or misnames a field does not compile. A row marked
/// `also Borrowed` gives the named struct of the same fields the same encoder.
macro_rules! frame_kinds {
    ($($(#[$doc:meta])* $byte:literal => $name:ident
        $({ $($field:ident),+ } $(also $borrowed:ident)?)?
        $(( $($item:ident),+ ))?
    ,)+) => {
        /// The kind byte of a frame.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FrameKind {
            $($(#[$doc])* $name = $byte,)+
        }

        impl FrameKind {
            /// Every kind this version knows, in the order of the table.
            pub const ALL: &'static [FrameKind] = &[$(FrameKind::$name),+];

            /// Decodes a kind byte; `None` for kinds this version does not know.
            pub fn from_u8(byte: u8) -> Option<FrameKind> {
                match byte {
                    $($byte => Some(FrameKind::$name),)+
                    _ => None,
                }
            }
        }

        impl Frame {
            /// The kind byte this frame serializes under: the kind of its
            /// variant's name.
            pub fn kind(&self) -> FrameKind {
                match self {
                    $(Frame::$name { .. } => FrameKind::$name,)+
                }
            }

            fn encode_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Frame::$name $({ $($field),+ })? $(( $($item),+ ))? => {
                        $($(wire_field!(put out, $field);)+)?
                        $($(wire_field!(put out, $item);)+)?
                    })+
                }
            }

            fn decode_payload(kind: FrameKind, r: &mut Reader<'_>) -> Result<Frame, SeabedError> {
                Ok(match kind {
                    $(FrameKind::$name => {
                        $($(let $field = wire_field!(get r);)+)?
                        $($(let $item = wire_field!(get r);)+)?
                        Frame::$name $({ $($field),+ })? $(( $($item),+ ))?
                    })+
                })
            }
        }

        $($(frame_kinds!(@borrowed $name $($borrowed)? { $($field),+ });)?)+
    };
    (@borrowed $name:ident { $($field:ident),+ }) => {};
    (@borrowed $name:ident $borrowed:ident { $($field:ident),+ }) => {
        impl $borrowed<'_> {
            /// The frame, byte for byte what [`encode_frame`] makes of the
            /// owned variant; over `max_frame_len` it is the same typed error.
            pub fn encode(&self, max_frame_len: u32) -> Result<Vec<u8>, SeabedError> {
                frame_of(FrameKind::$name, max_frame_len, |out| {
                    // Method syntax on purpose: where the variant owns a `T`
                    // the twin may hold a `&T` (a `&[T]` for a `Vec<T>`), and
                    // auto-deref finds `Put` for both.
                    $(self.$field.put(out);)+
                })
            }
        }
    };
}

frame_kinds! {
    /// Client → server: execute a translated query.
    1 => Request { trace_id, analyze, query, filters },
    /// Server → client: the query's result.
    2 => Response(response),
    /// Server → client: a typed error (the request failed, the connection
    /// survives).
    3 => Error(error),
    /// Client → server: send me the table schema.
    4 => SchemaRequest,
    /// Server → client: the table schema.
    5 => Schema(schema),
    /// Coordinator → worker: announce the shard epoch.
    6 => WorkerHandshake { epoch },
    /// Worker → coordinator: handshake acknowledgement.
    7 => WorkerReady { epoch, shards },
    /// Coordinator → worker: load a shard of the table.
    8 => LoadShard { epoch, table_id, shard, exec, table } also LoadShardRef,
    /// Worker → coordinator: shard-assignment acknowledgement.
    9 => ShardLoaded { epoch, table_id, shard, rows },
    /// Coordinator → worker: execute a query over one resident shard.
    10 => ShardQuery { epoch, table_id, shard, seq, trace_id, analyze, query, filters } also ShardQueryRef,
    /// Worker → coordinator: the mergeable partial result of a shard query.
    11 => ShardPartial { epoch, table_id, shard, seq, partial },
    /// Client → server: register a statement's unbound plan, get a handle.
    12 => PrepareStatement { query },
    /// Server → client: the statement handle.
    13 => StatementPrepared { handle },
    /// Client → server: execute a registered statement with bound filters.
    14 => ExecuteStatement { handle, trace_id, filters },
    /// Coordinator → worker: drop one resident shard (replica rebalance).
    15 => UnloadShard { epoch, table_id, shard },
    /// Worker → coordinator: shard-unload acknowledgement.
    16 => ShardUnloaded { epoch, table_id, shard, remaining },
    /// Client → server: scrape the live metrics registry.
    17 => MetricsRequest { include_traces, include_events },
    /// Server → client: a point-in-time metrics snapshot (+ recent traces).
    18 => MetricsSnapshot { metrics, traces, events },
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

wire_struct!(ShardExecConfig {
    local_threads,
    exec_mode
});

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

/// A decoded frame header (the payload has not been read yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Raw kind byte (may be unknown to this version; see
    /// [`FrameKind::from_u8`]).
    pub kind: u8,
    /// Payload length in bytes, already validated against the frame limit.
    pub payload_len: u32,
}

/// Encodes a frame (header + payload) into one buffer: the header goes first
/// with its length left open, the payload is encoded in place behind it, and
/// the length is patched in. Fails with [`SeabedError::Wire`] if the payload
/// would exceed `max_frame_len`.
pub fn encode_frame(frame: &Frame, max_frame_len: u32) -> Result<Vec<u8>, SeabedError> {
    frame_of(frame.kind(), max_frame_len, |out| frame.encode_payload(out))
}

/// A [`Frame::LoadShard`] over a table it borrows: what a coordinator encodes
/// a shard's load from, once, for every member of the shard's replica set,
/// without first cloning the retained table into an owned frame. The fields
/// are the variant's; the bytes are the variant's too — both encoders are
/// generated from the `LoadShard` row of the kind table, the one statement of
/// the layout.
///
/// The table is written once, straight into the frame. The buffer grows as
/// the payload is written, as every frame's does. It is deliberately not
/// reserved up front, although the size is knowable: one request of a
/// shard's size (150 KB in the ingest benchmark) crosses the allocator's
/// mmap threshold, after which glibc keeps the heap top padded — with the
/// reservation seabench's `ingest_load` read 11.0 MB peak RSS where it read
/// 9.0 without, and no time to show for it.
#[derive(Clone, Copy, Debug)]
pub struct LoadShardRef<'a> {
    /// Shard epoch the assignment belongs to.
    pub epoch: u64,
    /// Coordinator-assigned table identifier.
    pub table_id: u32,
    /// Coordinator-assigned shard identifier within the table.
    pub shard: u32,
    /// Execution knobs for this shard's scans.
    pub exec: ShardExecConfig,
    /// The shard's partitions.
    pub table: &'a Table,
}

/// A [`Frame::ShardQuery`] over a plan and filters it borrows: what a
/// coordinator encodes every shard query, hedge and re-dispatch from, without
/// first cloning the plan and the filters into an owned frame. Generated from
/// the `ShardQuery` row of the kind table, like [`LoadShardRef`] from its own.
#[derive(Clone, Copy, Debug)]
pub struct ShardQueryRef<'a> {
    /// Shard epoch the query belongs to.
    pub epoch: u64,
    /// Target table.
    pub table_id: u32,
    /// Target shard within the table.
    pub shard: u32,
    /// Coordinator-assigned sequence number, echoed in the partial.
    pub seq: u64,
    /// Propagated per-query trace id (0 = untraced).
    pub trace_id: u64,
    /// When true, the partial carries the shard's per-operator profile.
    pub analyze: bool,
    /// The translated query (DET/OPE literals redacted on encode).
    pub query: &'a TranslatedQuery,
    /// Proxy-encrypted physical filters.
    pub filters: &'a [PhysicalFilter],
}

/// A payload length as the header carries it, or the typed error of one over
/// `max_frame_len` — on the way out before anything is written, on the way in
/// before anything is allocated.
fn within_limit(payload_len: usize, max_frame_len: u32) -> Result<u32, SeabedError> {
    let fits = u32::try_from(payload_len).ok().filter(|len| *len <= max_frame_len);
    fits.ok_or_else(|| {
        SeabedError::wire(format!(
            "frame payload of {payload_len} bytes exceeds the {max_frame_len}-byte limit"
        ))
    })
}

/// The framing of every encoder: header, `payload` written in place behind
/// it, the limit checked, the length patched in.
fn frame_of(kind: FrameKind, max_frame_len: u32, payload: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>, SeabedError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&[0; 4]);
    payload(&mut out);
    let payload_len = within_limit(out.len() - HEADER_LEN, max_frame_len)?;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
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
    let payload_len = within_limit(payload_len as usize, max_frame_len)?;
    Ok(FrameHeader {
        kind: bytes[6],
        payload_len,
    })
}

/// The kind of a frame [`encode_frame`] wrote, read back off its header; `None`
/// for bytes too short to hold one or a kind this version does not know.
pub fn encoded_kind(frame: &[u8]) -> Option<FrameKind> {
    frame.get(6).and_then(|&kind| FrameKind::from_u8(kind))
}

/// Decodes a frame payload of known kind. The payload must be consumed
/// exactly; trailing bytes are treated as corruption.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, SeabedError> {
    let kind = FrameKind::from_u8(kind).ok_or_else(|| SeabedError::wire(format!("unknown frame kind {kind}")))?;
    let mut r = Reader::new(payload);
    let frame = Frame::decode_payload(kind, &mut r)?;
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
    query.encode(out);
}

/// The content-derived identity of a plan: FNV-1a over its statement payload.
/// It is the handle a server registers a prepared statement under, the key of
/// the client's handle cache, the statement half of the coordinator's
/// partial-cache key, and the statement id of a server- or coordinator-side
/// event — one function, so the four cannot drift apart.
pub fn statement_hash(query: &TranslatedQuery) -> u64 {
    let mut payload = Vec::new();
    write_statement_payload(&mut payload, query);
    seabed_core::fnv1a64(&payload)
}

/// Serializes a bound filter list exactly as it travels inside frames. The
/// dist coordinator hashes these bytes — together with the statement payload
/// — into its partial-result cache key, so two executes binding identical
/// literals map to the same cached entry regardless of which client sent
/// them, and any differing literal changes the key.
pub fn write_filters_payload(out: &mut Vec<u8>, filters: &[PhysicalFilter]) {
    put_seq(out, filters);
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

/// Returns the form of a translated query that crosses the wire: the
/// plaintext literals of DET and OPE filters are **redacted** (the proxy
/// encrypts them into the accompanying `PhysicalFilter`s, which is all the
/// server reads — shipping the plaintext would hand the untrusted server
/// exactly the predicate values DET/SPLASHE/ORE exist to hide). `Plain`
/// predicates target public columns whose literals already travel in the
/// clear inside `PhysicalFilter::PlainU64`/`PlainText`, so they are kept.
///
/// The same goes for everything in a plan that only the key holder reads: the
/// client-side post-processing steps, the support category, the row-ID flag,
/// and the *logical* column names of group keys and `?` placeholders (the
/// server groups and filters on physical columns). Those come back empty.
///
/// [`encode_frame`] applies this structurally — the layout tables of
/// `ServerFilter`, `TranslatedQuery`, `GroupByColumn` and `ParamSlot` mark
/// those fields `unsent`, so no encoder reads them — and
/// `decode(encode(request))` yields the *redacted* query; this helper states
/// the expected round-trip image.
pub fn redact_query(query: &TranslatedQuery) -> TranslatedQuery {
    let mut query = query.clone();
    for filter in &mut query.filters {
        match filter {
            ServerFilter::Plain(_) => {}
            ServerFilter::DetEquals { value, .. } => *value = String::new(),
            ServerFilter::OpeCompare { value, .. } => *value = 0,
        }
    }
    for group in &mut query.group_by {
        group.column.clear();
    }
    for param in &mut query.params {
        param.column.clear();
    }
    query.client_post.clear();
    query.preserve_row_ids = false;
    query.category = Default::default();
    query
}
