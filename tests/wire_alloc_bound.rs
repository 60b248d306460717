//! The reservation bound of the wire decoder, measured.
//!
//! The rule (`seabed_net::wire`): a decoder never
//! reserves more bytes than remain unread in the frame, whatever element
//! count the frame claims. The forged-count cases in `wire_robustness` use
//! frames under 100 bytes and can only see the typed error; this binary
//! installs a counting allocator and decodes 1 MiB and 8 MiB frames whose one
//! element count is forged to the maximum, and requires the largest single
//! allocation the decode asked for to stay within 2× the frame. Before the
//! rule counted the element's size in memory, the same frames asked for 24×
//! (`Response` groups), 25.6× (`MetricsSnapshot` events) and 6× (a `LoadShard`
//! table's `Utf8` rows) — 1.6 GB at the default 64 MiB frame limit, requested
//! by the untrusted side of the link from the proxy that holds the keys.
//!
//! It is a binary of its own because a `#[global_allocator]` is per binary —
//! and the one binary that has one, so the other allocation bound the suite
//! holds lives here too: a `GROUP BY` execute allocates per partition and per
//! result group, never per (partition, group)
//! (`group_by_allocations_grow_with_partitions_not_partitions_times_groups`),
//! and one ORE literal allocates nothing but its ciphertext
//! (`one_ore_literal_allocates_nothing_but_its_ciphertext`).

use seabed::core::{
    EncryptedAggregate, GroupIds, GroupResult, PartialResponse, PhysicalFilter, SeabedServer, ServerResponse,
};
use seabed::crypto::ore::ORE_CELL_BYTES;
use seabed::crypto::OreScheme;
use seabed::encoding::varint;
use seabed::encoding::IdListEncoding;
use seabed::engine::merge::{PartialAggregate, PartialGroup, PartialGroups};
use seabed::engine::{Cluster, ClusterConfig, ColumnData, ColumnType, ExecMode, ExecStats, Schema, Table};
use seabed::error::SeabedError;
use seabed::net::wire::{decode_frame, encode_frame, Frame, ShardExecConfig, DEFAULT_MAX_FRAME_LEN, HEADER_LEN};
use seabed::query::{CompareOp, GroupByColumn, ServerAggregate, SupportCategory, TranslatedQuery};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread has requested since it last
    /// reset the cell. Per thread, so tests running side by side (and the
    /// harness's own threads) do not see each other's requests. `const`
    /// initialised and without a destructor, so reading it never allocates.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
    /// Number of allocations (and reallocations) this thread has requested.
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording the size of every request first.
struct Counting;

impl Counting {
    fn record(size: usize) {
        // `try_with`: a thread may allocate while its locals are torn down.
        let _ = LARGEST_REQUEST.try_with(|largest| largest.set(largest.get().max(size)));
        let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording a size touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A varint claiming `u64::MAX` elements.
const FORGED_COUNT: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

const FRAME_LENS: [usize; 2] = [1 << 20, 8 << 20];

/// Keeps the first `count_at` payload bytes of an honest frame, claims
/// `u64::MAX` elements there, and fills the frame up to `frame_len` with
/// `0xff` — which no element decoder accepts, so the decode fails on the
/// first element and what is measured is the reservation alone.
fn forge(honest: &[u8], count_at: usize, frame_len: usize) -> Vec<u8> {
    let mut frame = honest[..HEADER_LEN + count_at].to_vec();
    frame.extend_from_slice(&FORGED_COUNT);
    frame.resize(frame_len, 0xff);
    let payload_len = (frame_len - HEADER_LEN) as u32;
    frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    frame
}

/// Decodes `frame`, requires a wire error, and returns the largest single
/// allocation the decode requested as a multiple of the frame length.
fn decode_and_measure(what: &str, frame: &[u8]) -> f64 {
    LARGEST_REQUEST.with(|largest| largest.set(0));
    let outcome = decode_frame(frame, DEFAULT_MAX_FRAME_LEN);
    let largest = LARGEST_REQUEST.with(Cell::get);
    assert!(
        matches!(outcome, Err(SeabedError::Wire(_))),
        "{what}: expected a wire error"
    );
    let ratio = largest as f64 / frame.len() as f64;
    println!(
        "{what}: a {}-byte frame asked for one allocation of {largest} bytes ({ratio:.1}x)",
        frame.len()
    );
    ratio
}

fn assert_bounded(what: &str, honest: &Frame, count_at: impl Fn(&[u8]) -> usize) {
    let honest = encode_frame(honest, DEFAULT_MAX_FRAME_LEN).expect("encode");
    decode_frame(&honest, DEFAULT_MAX_FRAME_LEN).expect("the honest frame decodes");
    let count_at = count_at(&honest[HEADER_LEN..]);
    for frame_len in FRAME_LENS {
        let ratio = decode_and_measure(what, &forge(&honest, count_at, frame_len));
        assert!(
            ratio <= 2.0,
            "{what}: a forged count made the decoder reserve {ratio:.1}x the frame"
        );
    }
}

/// What the **proxy** decodes from the untrusted server: the group count is
/// the first payload byte.
#[test]
fn response_with_a_forged_group_count() {
    let honest = Frame::Response(ServerResponse {
        groups: Vec::new(),
        stats: ExecStats::default(),
    });
    assert_bounded("Response groups", &honest, |_| 0);
}

/// A result group carries its ID list once, as a length-prefixed byte string
/// behind the (empty) key and the option tag: a forged length buys nothing —
/// the list is a slice of the frame until it is parsed — and neither does a
/// forged aggregate count behind an absent list.
#[test]
fn response_group_with_a_forged_id_list_length_or_aggregate_count() {
    let group = |ids: Option<GroupIds>| {
        Frame::Response(ServerResponse {
            groups: vec![GroupResult {
                key: Vec::new(),
                ids,
                aggregates: vec![EncryptedAggregate::AsheSum { value: 1 }],
            }],
            stats: ExecStats::default(),
        })
    };
    let listed = group(Some(GroupIds {
        id_list: vec![1, 2],
        encoding: IdListEncoding::RangesVbDiff,
    }));
    // group count, key count, option tag, then the list's length.
    assert_bounded("Response group ID-list length", &listed, |payload| {
        assert_eq!(payload[..6], [1, 0, 1, 2, 1, 2]);
        3
    });
    assert_bounded("Response group aggregates", &group(None), |payload| {
        assert_eq!(payload[..4], [1, 0, 0, 1]);
        3
    });
}

/// Events are the last vector of a snapshot: the count is the last byte.
#[test]
fn metrics_snapshot_with_a_forged_event_count() {
    let honest = Frame::MetricsSnapshot {
        metrics: seabed::obs::MetricsSnapshot::default(),
        events: Vec::new(),
    };
    assert_bounded("MetricsSnapshot events", &honest, |payload| payload.len() - 1);
}

/// The groups map follows the echoed `(epoch, table, shard, seq)`, one byte
/// each at these values.
#[test]
fn shard_partial_with_a_forged_group_count() {
    let honest = Frame::ShardPartial {
        epoch: 1,
        table_id: 0,
        shard: 0,
        seq: 1,
        partial: PartialResponse {
            groups: PartialGroups::new(),
            stats: ExecStats::default(),
        },
    };
    assert_bounded("ShardPartial groups", &honest, |_| 4);
}

/// A partial group is its ID set — a container tag, then a length-prefixed
/// ID list — then its aggregates: forge the list's length, then the
/// aggregate count behind it.
#[test]
fn shard_partial_group_with_a_forged_id_list_length_or_aggregate_count() {
    let mut groups = PartialGroups::new();
    groups.insert(
        Vec::new(),
        PartialGroup {
            ids: seabed::ashe::IdSet::range(3, 9),
            aggregates: vec![PartialAggregate::Sum { value: 1 }, PartialAggregate::Count],
        },
    );
    let honest = Frame::ShardPartial {
        epoch: 1,
        table_id: 0,
        shard: 0,
        seq: 1,
        partial: PartialResponse {
            groups,
            stats: ExecStats::default(),
        },
    };
    // (epoch, table, shard, seq), group count, key count, then the ID list
    // (`RangesVbDiff`'s tag, then a one-byte gap and span) and the aggregate
    // count.
    assert_bounded("ShardPartial group ID-list length", &honest, |payload| {
        assert_eq!(payload[4..11], [1, 0, 0, 2, 3, 6, 2]);
        7
    });
    assert_bounded("ShardPartial group aggregates", &honest, |_| 10);
}

/// A one-aggregate request with nothing else in it.
fn bare_request() -> Frame {
    Frame::Request {
        query: TranslatedQuery {
            base_table: "t".to_string(),
            filters: Vec::new(),
            aggregates: vec![ServerAggregate::CountRows],
            group_by: Vec::new(),
            client_post: Vec::new(),
            preserve_row_ids: false,
            category: SupportCategory::ServerOnly,
            params: Vec::new(),
        },
        filters: Vec::new(),
        trace_id: 0,
        analyze: false,
    }
}

/// What the **server** decodes from a client: the filter list closes a
/// request, so its count is the last byte.
#[test]
fn request_with_a_forged_filter_count() {
    assert_bounded("Request filters", &bare_request(), |payload| payload.len() - 1);
}

/// The plan inside a request is the server's half of it: trace id, analyze,
/// "t", no plan filters, one aggregate; then the group-by count and the
/// placeholder count.
#[test]
fn request_plan_with_a_forged_group_by_or_param_count() {
    assert_bounded("Request plan group-by", &bare_request(), |payload| {
        assert_eq!(payload[..10], [0, 0, 1, b't', 0, 1, 1, 0, 0, 0]);
        7
    });
    assert_bounded("Request plan placeholders", &bare_request(), |_| 8);
}

/// A shard's load of the one-column, one-partition `table`.
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

/// Where a one-column, one-partition table's column starts in its
/// `LoadShard` payload, given its schema, `(name, type tag)`: behind epoch,
/// table id, shard id, local threads and exec mode (a byte each), the
/// schema (field count, name length, name, type tag), the partition count,
/// `start_row`, the column count and the column's own type tag.
fn column_at(payload: &[u8], name: u8, tag: u8) -> usize {
    assert_eq!(payload[..13], [1, 0, 0, 1, 1, 1, 1, name, tag, 1, 0, 1, tag]);
    13
}

/// A `Utf8` column is a `Vec<String>`: forge its row count, whose cells are
/// 24 bytes in memory and 1 on the wire.
#[test]
fn load_shard_with_a_forged_utf8_row_count() {
    let table = Table::from_columns(
        Schema::new([("s".to_string(), ColumnType::Utf8)]),
        vec![ColumnData::Utf8(vec!["x".to_string()])],
        1,
    );
    assert_bounded("LoadShard Utf8 rows", &load_shard(table), |payload| {
        column_at(payload, b's', 2)
    });
}

/// A word column is a count and the raw words: one extent check against the
/// bytes left, so a forged count fails having reserved nothing.
#[test]
fn load_shard_with_a_forged_uint64_word_count() {
    let table = Table::from_columns(
        Schema::new([("w".to_string(), ColumnType::UInt64)]),
        vec![ColumnData::UInt64(vec![u64::MAX])],
        1,
    );
    assert_bounded("LoadShard UInt64 words", &load_shard(table), |payload| {
        column_at(payload, b'w', 0)
    });
}

/// A ragged `Bytes` column travels cell by cell behind its count (the
/// `Offsets` arm, layout tag 1) and is pushed as its cells arrive: a forged
/// count (and, with the `0xff` fill, a forged first cell length) fails
/// before anything is reserved.
#[test]
fn load_shard_with_a_forged_bytes_cell_count() {
    let table = Table::from_columns(
        Schema::new([("b".to_string(), ColumnType::Bytes)]),
        vec![ColumnData::Bytes([&[7u8; 16][..], &[7]].into_iter().collect())],
        1,
    );
    assert_bounded("LoadShard Bytes cells", &load_shard(table), |payload| {
        let at = column_at(payload, b'b', 3);
        assert_eq!(payload[at..at + 3], [1, 2, 16]);
        at + 1
    });
}

/// A `Bytes` column of one cell width travels as its width, its cell count
/// and its cells as one byte string (the `Uniform` arm, layout tag 0), and
/// is copied in one piece once the data is checked to be exactly its cells.
/// Forge the cell count of an honest 16-byte column that fills the frame —
/// to one more cell than it holds, and to `u32::MAX` — and the decode fails
/// having reserved nothing beyond the bytes left.
#[test]
fn load_shard_with_a_forged_count_on_a_uniform_column() {
    for frame_len in FRAME_LENS {
        let cells = (frame_len - 64) / 16;
        let table = Table::from_columns(
            Schema::new([("o".to_string(), ColumnType::Bytes)]),
            vec![ColumnData::Bytes((0..cells).map(|i| [i as u8; 16]).collect())],
            1,
        );
        let honest = encode_frame(&load_shard(table), DEFAULT_MAX_FRAME_LEN).expect("encode");
        decode_frame(&honest, DEFAULT_MAX_FRAME_LEN).expect("the honest frame decodes");
        let at = HEADER_LEN + column_at(&honest[HEADER_LEN..], b'o', 3);
        assert_eq!(honest[at..at + 2], [0, 16]);
        let count_at = at + 2;
        let mut count = Vec::new();
        varint::encode_u64(cells as u64, &mut count);
        assert_eq!(honest[count_at..count_at + count.len()], count);
        for forged in [cells as u64 + 1, u64::from(u32::MAX)] {
            let mut frame = honest[..count_at].to_vec();
            varint::encode_u64(forged, &mut frame);
            frame.extend_from_slice(&honest[count_at + count.len()..]);
            let payload_len = (frame.len() - HEADER_LEN) as u32;
            frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
            let ratio = decode_and_measure("LoadShard uniform Bytes cells", &frame);
            assert!(
                ratio <= 1.0,
                "a forged count of {forged} on a one-width column reserved {ratio:.2}x the frame"
            );
        }
    }
}

/// Allocations of one `GROUP BY g` execute (a sum and a count under a filter
/// that keeps every other row, so ID lists are fragmented) over `rows` rows
/// in `partitions` partitions, every partition meeting every one of `groups`
/// group keys. The scan runs on this thread, whose requests are the ones
/// counted.
fn group_by_allocations(rows: u64, partitions: usize, groups: u64) -> usize {
    let table = Table::from_columns(
        Schema::new([
            ("f".to_string(), ColumnType::UInt64),
            ("g".to_string(), ColumnType::UInt64),
            ("m__ashe".to_string(), ColumnType::UInt64),
        ]),
        vec![
            ColumnData::UInt64((0..rows).map(|i| (i / 3) % 2).collect()),
            ColumnData::UInt64(
                (0..rows)
                    .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % groups)
                    .collect(),
            ),
            ColumnData::UInt64((0..rows).collect()),
        ],
        partitions,
    );
    let server = SeabedServer::new(table, Cluster::new(ClusterConfig::default().local_threads(1)));
    let query = TranslatedQuery {
        base_table: "t".to_string(),
        filters: Vec::new(),
        aggregates: vec![
            ServerAggregate::AsheSum {
                column: "m__ashe".to_string(),
            },
            ServerAggregate::CountRows,
        ],
        group_by: vec![GroupByColumn {
            column: "g".to_string(),
            physical_column: "g".to_string(),
            encrypted: false,
        }],
        client_post: Vec::new(),
        preserve_row_ids: true,
        category: SupportCategory::ServerOnly,
        params: Vec::new(),
    };
    let filters = [PhysicalFilter::PlainU64 {
        column: 0,
        op: CompareOp::Eq,
        value: 1,
    }];
    // Once to warm anything lazy, then the measured execute.
    let warm = server.execute(&query, &filters).expect("execute");
    assert_eq!(warm.groups.len() as u64, groups);
    let before = REQUESTS.with(Cell::get);
    let response = server.execute(&query, &filters).expect("execute");
    let requests = REQUESTS.with(Cell::get) - before;
    assert_eq!(response.groups, warm.groups);
    requests
}

/// The structural property of the flat per-partition partial and the driver's
/// fold: what eight partitions allocate beyond one is a constant per
/// partition (its selection, its group index, its five flat vectors), not a
/// key, an aggregate vector and a growing run list per (partition, group).
/// The per-row `HashMap` build and pairwise merge this replaced asked for
/// about seven allocations per (partition, group): 1 154 more at 8 × 24,
/// where this asks for 141.
#[test]
fn group_by_allocations_grow_with_partitions_not_partitions_times_groups() {
    const PARTITIONS: usize = 8;
    /// Per partition: about 20 at 24 groups; the group index doubles its
    /// table twice more and its key list four times more on the way to 96.
    const PER_PARTITION: usize = 32;
    let mut extras = Vec::new();
    for groups in [24u64, 96] {
        let one = group_by_allocations(9_600, 1, groups);
        let many = group_by_allocations(9_600, PARTITIONS, groups);
        println!("{groups} groups: {one} allocations over 1 partition, {many} over {PARTITIONS}");
        let extra = many.saturating_sub(one);
        assert!(
            extra <= PARTITIONS * PER_PARTITION,
            "{groups} groups: {PARTITIONS} partitions cost {extra} allocations more than one"
        );
        extras.push(extra);
    }
    // Four times the groups: four times the (partition, group) pairs, and
    // only the index's growth steps more per partition.
    assert!(
        extras[1] <= extras[0] + PARTITIONS * 8,
        "allocations beyond one partition grew with the groups: {extras:?}"
    );
}

/// A bind-time ORE literal: `encrypt_into` one value, on a fresh cursor each
/// time, asks the allocator for nothing — its 64 PRF blocks go through one
/// dispatch on the stack — and `encrypt` for the one 16-byte symbol vector
/// it returns. Both went through a heap dispatch buffer before, one more
/// allocation a literal.
#[test]
fn one_ore_literal_allocates_nothing_but_its_ciphertext() {
    let ore = OreScheme::new(&[7; 16]);
    let values: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let mut cell = [0u8; ORE_CELL_BYTES];
    let before = REQUESTS.with(Cell::get);
    for &value in &values {
        ore.encrypt_into(value, &mut cell);
    }
    assert_eq!(REQUESTS.with(Cell::get) - before, 0, "encrypt_into allocated");
    assert_eq!(cell.as_slice(), ore.encrypt_scalar(values[63]).symbols);

    let before = REQUESTS.with(Cell::get);
    let ciphertexts: Vec<_> = values.iter().map(|&value| ore.encrypt(value)).collect();
    let requests = REQUESTS.with(Cell::get) - before;
    // One for the collected vector, one symbol vector a value.
    assert_eq!(requests, 1 + values.len(), "encrypt allocated beyond its ciphertext");
    assert!(ciphertexts.iter().all(|ct| ct.symbols.len() == ORE_CELL_BYTES));
}
