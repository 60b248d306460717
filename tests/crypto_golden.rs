//! Golden digests of the stored and wire formats of the crypto layer.
//!
//! The differential suites pin every fast path to a slow path *of the same
//! commit*; they cannot see a change that moves both. This file pins the
//! bytes themselves: SHA-256 of the serialized `encrypt_dataset` table, of
//! the proxy's DET dictionaries and of one encrypted request frame, for a
//! fixed dataset, master key and generator seed. The digests were recorded
//! from the commit *before* the AES kernel was given a hardware backend and
//! the column paths were rewritten (PR 13), so a green run proves that no
//! ciphertext, tag or frame moved — on whichever AES backend this machine
//! selects. Protocol version 5 re-recorded the table and the request, each
//! with its reason beside it; the table's PR 13 digest is still re-derived
//! (by spreading every ORE cell back to a byte a symbol), so "only the
//! packing moved" is checked, not claimed. Protocol versions 6, 7 and 8 each
//! re-recorded the request for its version field alone; the previous
//! version's digest is re-derived by writing `7` back into its header.
//!
//! The table is hashed in the stored-table layout its digests were recorded
//! in, which this file keeps as the table's canonical form
//! ([`canonical_table`]) since protocol version 8 ships a table in the wire
//! codec's own layout: the table digests did not move, and so no ciphertext
//! byte did.

use rand::SeedableRng;
use seabed_core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_crypto::sha256::digest_hex;
use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, Table};
use seabed_net::wire::{encode_frame, Frame};
use seabed_query::{parse, ColumnSpec, PlannerConfig};

const ROWS: u64 = 300;

/// A fixed dataset touching every encryption choice: a skewed dimension
/// (enhanced SPLASHE with a balanced DET column), a 16-value DET column full
/// of duplicates, an ORE column, two ASHE measures (one with squares) and a
/// public column.
fn dataset() -> PlainDataset {
    let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
    let country = |i: u64| match i % 10 {
        0..=4 => "USA",
        5..=7 => "Canada",
        8 => ["India", "Chile", "Japan"][(i / 10 % 3) as usize],
        _ => ["India", "Chile", "Japan"][(i / 7 % 3) as usize],
    };
    PlainDataset::new("sales")
        .with_text_column("country", (0..ROWS).map(|i| country(i).to_string()).collect())
        .with_text_column("dept", (0..ROWS).map(|i| format!("d{:02}", mix(i) % 16)).collect())
        .with_uint_column("ts", (0..ROWS).map(|i| 1_400_000_000 + mix(i) % 86_400).collect())
        .with_uint_column("revenue", (0..ROWS).map(|i| mix(i) % 5_000 + 1).collect())
        .with_uint_column("clicks", (0..ROWS).map(|i| mix(i + 7) % 9).collect())
        .with_uint_column("hour", (0..ROWS).map(|i| i % 24).collect())
}

struct Digests {
    table: String,
    /// The table with every ORE cell spread back to one byte per symbol.
    table_a_byte_a_symbol: String,
    dictionary: String,
    request: String,
    /// The request under a version-7 header.
    request_as_version_7: String,
}

/// A table in the engine's stored-table layout, little-endian throughout: a
/// `u32` field count, each field's name behind its `u32` length and its type
/// tag (0–3: `UInt64`, `Int64`, `Utf8`, `Bytes`); a `u32` partition count;
/// per partition its `u64` first row ID, then per column a `u32` row count
/// and the values — a word as 8 bytes, a string or a cell behind its `u32`
/// length.
fn canonical_table(table: &Table) -> Vec<u8> {
    let count = |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u32).to_le_bytes());
    let put = |out: &mut Vec<u8>, bytes: &[u8]| {
        count(out, bytes.len());
        out.extend_from_slice(bytes);
    };
    let mut out = Vec::new();
    count(&mut out, table.schema.fields.len());
    for field in &table.schema.fields {
        put(&mut out, field.name.as_bytes());
        let types = [
            ColumnType::UInt64,
            ColumnType::Int64,
            ColumnType::Utf8,
            ColumnType::Bytes,
        ];
        out.push(types.iter().position(|ty| *ty == field.ty).expect("listed") as u8);
    }
    count(&mut out, table.partitions.len());
    for partition in &table.partitions {
        out.extend_from_slice(&partition.start_row.to_le_bytes());
        for column in &partition.columns {
            count(&mut out, column.len());
            match column {
                ColumnData::UInt64(words) => words.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
                ColumnData::Int64(words) => words.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes())),
                ColumnData::Utf8(text) => text.iter().for_each(|s| put(&mut out, s.as_bytes())),
                ColumnData::Bytes(cells) => cells.iter().for_each(|cell| put(&mut out, cell)),
            }
        }
    }
    out
}

fn digests() -> Digests {
    let dataset = dataset();
    let columns = [
        ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").unwrap()),
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("clicks"),
        ColumnSpec::public("hour"),
    ];
    let samples: Vec<_> = [
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE dept = 'd03' AND ts >= 100 AND ts < 200",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT VARIANCE(clicks) FROM sales",
    ]
    .iter()
    .map(|sql| parse(sql).unwrap())
    .collect();
    let mut client = SeabedClient::create_plan(b"golden-master-key", &columns, &samples, &PlannerConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eab_ed13);
    let encrypted = client.encrypt_dataset(&dataset, 3, &mut rng);
    // The plan must keep exercising every kind of encrypted column.
    for kind in ["__ashe", "__ashe_sq", "__ope", "__ope_val", "__det", "__ind_", "__spl_"] {
        let covered = encrypted.table.schema.fields.iter().any(|f| f.name.contains(kind));
        assert!(covered, "golden table lost its {kind} column");
    }

    // Canonical form of the proxy-side dictionaries: sorted, length-prefixed.
    let mut entries: Vec<(&String, u64, &String)> = encrypted
        .det_dictionary
        .iter()
        .flat_map(|(column, dict)| dict.iter().map(move |(tag, text)| (column, *tag, text)))
        .collect();
    entries.sort();
    let mut dictionary = Vec::new();
    for (column, tag, text) in entries {
        dictionary.extend_from_slice(&(column.len() as u32).to_le_bytes());
        dictionary.extend_from_slice(column.as_bytes());
        dictionary.extend_from_slice(&tag.to_le_bytes());
        dictionary.extend_from_slice(&(text.len() as u32).to_le_bytes());
        dictionary.extend_from_slice(text.as_bytes());
    }

    // One request carrying a DET tag and two ORE ciphertexts.
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let prepared = SeabedSession::single("sales", client.clone(), &server)
        .prepare("SELECT SUM(revenue), COUNT(*) FROM sales WHERE dept = 'd07' AND ts >= 1400010000 AND ts < 1400050000")
        .unwrap();
    let query = prepared.translated().clone();
    let filters = client.encrypt_filters(&encrypted.table.schema, &query).unwrap();
    assert_eq!(
        filters.len(),
        3,
        "the golden request must carry the DET and both ORE filters"
    );
    let request = encode_frame(
        &Frame::Request {
            query,
            filters,
            trace_id: 0,
            analyze: false,
        },
        u32::MAX,
    )
    .unwrap();
    let mut as_version_7 = request.clone();
    as_version_7[4..6].copy_from_slice(&7u16.to_le_bytes());

    let mut spread = encrypted.table.clone();
    for column in spread.partitions.iter_mut().flat_map(|p| p.columns.iter_mut()) {
        if let ColumnData::Bytes(cells) = column {
            *cells = cells
                .iter()
                .map(|cell| {
                    assert_eq!(cell.len(), 16, "an ORE cell is 64 symbols at two bits each");
                    let lanes = cell
                        .iter()
                        .flat_map(|byte| [byte >> 6, byte >> 4 & 3, byte >> 2 & 3, byte & 3]);
                    lanes.collect::<Vec<u8>>()
                })
                .collect();
        }
    }

    Digests {
        table: digest_hex(&canonical_table(&encrypted.table)),
        table_a_byte_a_symbol: digest_hex(&canonical_table(&spread)),
        dictionary: digest_hex(&dictionary),
        request: digest_hex(&request),
        request_as_version_7: digest_hex(&as_version_7),
    }
}

#[test]
fn stored_table_dictionary_and_request_frame_did_not_move() {
    let got = digests();
    println!("table      {}", got.table);
    println!("dictionary {}", got.dictionary);
    println!("request    {}", got.request);
    // Moved by (b): the `ts__ope` cells are 16 packed bytes, not 64 — and by
    // nothing else: a byte a symbol, it is the table recorded before PR 13.
    assert_eq!(
        got.table, "674b43aba5bd73e0a989175a06a77c32d9228503f4a94cf94f42962356770c8a",
        "serialized encrypt_dataset table"
    );
    assert_eq!(
        got.table_a_byte_a_symbol, "34e5eee27dd13e12e7d303e2df2241b43a58065135da19722f37438b2952dcb2",
        "the symbols themselves moved, not only their packing"
    );
    assert_eq!(
        got.dictionary, "9e340d77a7dfb7df5a05a158b7f174d0657a4b4c3a44440a20477014cec9cf67",
        "DET dictionaries"
    );
    // Moved by the header's version field, 8, and by nothing else: under a
    // version-7 header it is the frame recorded for version 7, which differed
    // from version 6's (`ee12c85c…`) in its version field alone, as that did
    // from version 5's (`5128f0a4…`). Version 5's was moved by the version
    // field, by (a) — the plan travels without
    // `client_post`, `category`, `preserve_row_ids` and the empty placeholders
    // of its three redacted literals — and by (b): its two ORE literals are 16
    // bytes each.
    assert_eq!(
        got.request, "6bc43df42c355772be74a7d5323e1e6321db358008361acaa1f131599e1d0987",
        "encrypted request frame"
    );
    assert_eq!(
        got.request_as_version_7, "5310dcee417c5860745bc7d976227131a4b9f67842df46b7a243f098bb41ab1d",
        "more than the version field of the request frame moved"
    );
}
