//! Differential query-fuzzing suite for the execution engine.
//!
//! The vectorized scan (`ExecMode::Vectorized`) is only allowed to be fast:
//! it must compute *exactly* what the scalar reference path and a plaintext
//! evaluation of the same query compute. This suite generates random tables
//! and random filter/aggregate/group-by queries and pins all three against
//! each other:
//!
//! 1. `scalar_vectorized_and_reference_agree` — 256 randomized cases over
//!    hand-built tables covering every filter variant (plain u64 with all six
//!    operators, string equality, DET tags, ORE range predicates), SUM /
//!    COUNT / MIN / MAX aggregates and 0–2 group-by columns. The scalar and
//!    vectorized responses must be *identical* (keys, aggregate values, ID
//!    lists, result and shuffle byte accounting), and they must match an
//!    independent plaintext evaluation (sums, group keys, group counts, exact
//!    selected-row ID sets, MIN/MAX winners).
//!    `flat_fold_matches_the_row_at_a_time_oracle_on_the_hard_shapes` runs
//!    the same check over the shapes a per-partition group index and an
//!    in-order driver fold can get wrong and random small tables never reach.
//! 2. `server_matches_noenc_baseline` — pins both modes against
//!    `seabed_bench::baselines::NoEncSystem` for global and group-by sums.
//! 3. `full_pipeline_modes_match_plaintext` — end-to-end through
//!    `SeabedClient` with real ASHE/SPLASHE/DET/ORE encryption: the decrypted
//!    answers of both modes must equal a plaintext evaluation of the SQL.

use proptest::prelude::*;
use seabed_ashe::IdSet;
use seabed_bench::baselines::NoEncSystem;
use seabed_core::{
    EncryptedAggregate, PhysicalFilter, PlainDataset, ResultValue, SeabedClient, SeabedServer, SeabedSession,
    ServerResponse,
};
use seabed_crypto::{OreCiphertext, OreScheme};
use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, ExecMode, Schema, Table};
use seabed_query::planner::{ColumnSpec, PlannerConfig};
use seabed_query::{parse, CompareOp, GroupByColumn, ServerAggregate, SupportCategory, TranslatedQuery};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Domain of the ORE-encrypted column; ciphertexts are cached because ORE
/// encryption costs 64 PRF evaluations per value.
const OPE_DOMAIN: u64 = 32;

fn ore_cts() -> &'static Vec<OreCiphertext> {
    static CTS: OnceLock<Vec<OreCiphertext>> = OnceLock::new();
    CTS.get_or_init(|| {
        let scheme = OreScheme::new(&[42u8; 16]);
        (0..OPE_DOMAIN).map(|v| scheme.encrypt(v)).collect()
    })
}

/// SplitMix64: deterministic per-(seed, row, salt) column data.
fn mix(seed: u64, row: u64, salt: u64) -> u64 {
    let mut z = seed ^ row.wrapping_mul(0x9e3779b97f4a7c15) ^ salt.wrapping_mul(0xd1b54a32d192ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

const TEXTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One randomly generated table, kept in plaintext form for the reference
/// evaluation and as an engine `Table` for the servers. The "ASHE" words are
/// plain values — the server folds them without interpreting them, so the
/// differential property is exactly wrapping-sum equality.
struct FuzzTable {
    rows: usize,
    words: Vec<u64>,
    fvals: Vec<u64>,
    svals: Vec<String>,
    dvals: Vec<u64>,
    ovals: Vec<u64>,
    gvals: Vec<u64>,
    hvals: Vec<u64>,
    ope_words: Vec<u64>,
    table: Table,
}

impl FuzzTable {
    fn generate(seed: u64, rows: usize, partitions: usize) -> FuzzTable {
        let fvals: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 2) % 16).collect();
        let gvals: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 6) % 6).collect();
        FuzzTable::with_columns(seed, partitions, fvals, gvals)
    }

    /// A table whose plain filter column `f` and first group column `g` are
    /// given (one cell per row); every other column is drawn from `seed`.
    fn with_columns(seed: u64, partitions: usize, fvals: Vec<u64>, gvals: Vec<u64>) -> FuzzTable {
        let rows = fvals.len();
        assert_eq!(gvals.len(), rows);
        let words: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 1)).collect();
        let svals: Vec<String> = (0..rows as u64)
            .map(|i| TEXTS[(mix(seed, i, 3) % TEXTS.len() as u64) as usize].to_string())
            .collect();
        let dvals: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 4) % 8).collect();
        let ovals: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 5) % OPE_DOMAIN).collect();
        let hvals: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 7) % 4).collect();
        let ope_words: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 8)).collect();
        let schema = Schema::new([
            ("f".to_string(), ColumnType::UInt64),
            ("s".to_string(), ColumnType::Utf8),
            ("d__det".to_string(), ColumnType::UInt64),
            ("o__ope".to_string(), ColumnType::Bytes),
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("g".to_string(), ColumnType::UInt64),
            ("h".to_string(), ColumnType::UInt64),
            ("o__ope_val".to_string(), ColumnType::UInt64),
        ]);
        let table = Table::from_columns(
            schema,
            vec![
                ColumnData::UInt64(fvals.clone()),
                ColumnData::Utf8(svals.clone()),
                ColumnData::UInt64(dvals.clone()),
                ColumnData::Bytes(ovals.iter().map(|&v| ore_cts()[v as usize].symbols.clone()).collect()),
                ColumnData::UInt64(words.clone()),
                ColumnData::UInt64(gvals.clone()),
                ColumnData::UInt64(hvals.clone()),
                ColumnData::UInt64(ope_words.clone()),
            ],
            partitions,
        );
        FuzzTable {
            rows,
            words,
            fvals,
            svals,
            dvals,
            ovals,
            gvals,
            hvals,
            ope_words,
            table,
        }
    }

    fn ope_word(&self, row: usize) -> u64 {
        self.ope_words[row]
    }
}

fn op_of(code: u8) -> CompareOp {
    match code % 6 {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        _ => CompareOp::GtEq,
    }
}

/// Independent plaintext evaluation of a filter: reads the generated column
/// data directly. The ORE arm compares *plaintext* values, so it also
/// cross-checks the ORE comparison itself.
fn reference_matches(t: &FuzzTable, row: usize, filter: &FuzzFilter) -> bool {
    match filter {
        FuzzFilter::PlainU64(op, v) => op.eval_u64(t.fvals[row], *v),
        FuzzFilter::PlainText(s) => t.svals[row] == *s,
        FuzzFilter::DetTag(tag) => t.dvals[row] == *tag,
        FuzzFilter::Ope(op, v) => op.eval_ordering(t.ovals[row].cmp(v)),
    }
}

enum FuzzFilter {
    PlainU64(CompareOp, u64),
    PlainText(String),
    DetTag(u64),
    Ope(CompareOp, u64),
}

impl FuzzFilter {
    fn physical(&self) -> PhysicalFilter {
        match self {
            FuzzFilter::PlainU64(op, v) => PhysicalFilter::PlainU64 {
                column: 0,
                op: *op,
                value: *v,
            },
            FuzzFilter::PlainText(s) => PhysicalFilter::PlainText {
                column: 1,
                value: s.clone(),
            },
            FuzzFilter::DetTag(tag) => PhysicalFilter::DetTag { column: 2, tag: *tag },
            FuzzFilter::Ope(op, v) => PhysicalFilter::Ope {
                column: 3,
                op: *op,
                ciphertext: ore_cts()[*v as usize].clone(),
            },
        }
    }
}

fn query(group_cols: &[&str], extreme: Option<bool>) -> TranslatedQuery {
    let mut aggregates = vec![
        ServerAggregate::AsheSum {
            column: "m__ashe".to_string(),
        },
        ServerAggregate::CountRows,
    ];
    if let Some(want_max) = extreme {
        aggregates.push(if want_max {
            ServerAggregate::OpeMax {
                column: "o__ope".to_string(),
            }
        } else {
            ServerAggregate::OpeMin {
                column: "o__ope".to_string(),
            }
        });
    }
    TranslatedQuery {
        base_table: "t".to_string(),
        filters: vec![],
        aggregates,
        group_by: group_cols
            .iter()
            .map(|c| GroupByColumn {
                column: c.to_string(),
                physical_column: c.to_string(),
                encrypted: false,
            })
            .collect(),
        client_post: vec![],
        preserve_row_ids: true,
        category: SupportCategory::ServerOnly,
        params: vec![],
    }
}

fn server(table: &Table, mode: ExecMode) -> SeabedServer {
    SeabedServer::new(table.clone(), Cluster::new(ClusterConfig::default().exec_mode(mode)))
}

/// Per-group reference aggregate: wrapping sum, selected row IDs, and the
/// extreme ORE plaintext value (unique winners are not required — only the
/// winning *value* is pinned, which is unambiguous even with ties).
#[derive(Default)]
struct RefGroup {
    sum: u64,
    ids: Vec<u64>,
    extreme: Option<u64>,
}

/// A server response group, decoded.
#[derive(Default)]
struct Decoded {
    sum: u64,
    count: u64,
    ids: Vec<u64>,
    /// (ORE plaintext value, companion word) of the winner.
    extreme: Option<(u64, u64)>,
}

/// The response's groups by key; a key answered twice is an error.
fn decode(t: &FuzzTable, resp: &ServerResponse) -> Result<HashMap<Vec<u64>, Decoded>, String> {
    let mut out: HashMap<Vec<u64>, Decoded> = HashMap::new();
    for group in &resp.groups {
        let mut decoded = Decoded::default();
        // The group's rows: one list, whatever the number of sums over them.
        if let Some(ids) = &group.ids {
            let ids = IdSet::decode(&ids.id_list, ids.encoding).ok_or("undecodable ID list")?;
            decoded.ids = ids.iter().collect();
        }
        for agg in &group.aggregates {
            match agg {
                EncryptedAggregate::AsheSum { value } => {
                    if group.ids.is_none() {
                        return Err("an ASHE sum in a group without an ID list".to_string());
                    }
                    decoded.sum = *value;
                }
                EncryptedAggregate::Count { rows } => decoded.count = *rows,
                EncryptedAggregate::Extreme { value_word, row_id } => {
                    let Some(id) = row_id else { continue };
                    let row = *id as usize;
                    if row >= t.rows {
                        return Err(format!("extreme winner row {row} out of range"));
                    }
                    // The companion word must be the o__ope_val cell of the
                    // reported winner.
                    if *value_word != t.ope_word(row) {
                        return Err(format!("extreme companion word mismatch at row {row}"));
                    }
                    decoded.extreme = Some((t.ovals[row], *value_word));
                }
            }
        }
        if out.insert(group.key.clone(), decoded).is_some() {
            return Err(format!("group {:?} answered twice", group.key));
        }
    }
    Ok(out)
}

/// One differential case: scalar ≡ vectorized (groups, result bytes and the
/// scan's shuffle bytes) ≡ a plaintext evaluation of the same filters, keys
/// and aggregates. `group_mode` is the number of group columns (`g`, then
/// `h`). Returns the response for shape-specific assertions.
fn check_case(
    t: &FuzzTable,
    fuzz_filters: &[FuzzFilter],
    group_mode: u8,
    extreme: Option<bool>,
) -> Result<ServerResponse, TestCaseError> {
    let filters: Vec<PhysicalFilter> = fuzz_filters.iter().map(|f| f.physical()).collect();
    let group_cols: &[&str] = match group_mode {
        0 => &[],
        1 => &["g"],
        _ => &["g", "h"],
    };
    let want_max = extreme.unwrap_or(false);
    let q = query(group_cols, extreme);

    // 1. The two execution modes must agree exactly.
    let scalar = server(&t.table, ExecMode::Scalar).execute(&q, &filters);
    let vectorized = server(&t.table, ExecMode::Vectorized).execute(&q, &filters);
    let (scalar, vectorized) = match (scalar, vectorized) {
        (Ok(s), Ok(v)) => (s, v),
        (s, v) => {
            prop_assert!(false, "execution failed: scalar {s:?} vectorized {v:?}");
            unreachable!()
        }
    };
    prop_assert_eq!(&scalar.groups, &vectorized.groups);
    prop_assert_eq!(scalar.result_bytes(), vectorized.result_bytes());

    // 2. Plaintext reference evaluation (independent of the engine).
    let selected: Vec<usize> = (0..t.rows)
        .filter(|&row| fuzz_filters.iter().all(|f| reference_matches(t, row, f)))
        .collect();
    let mut reference: HashMap<Vec<u64>, RefGroup> = HashMap::new();
    for &row in &selected {
        let key: Vec<u64> = match group_mode {
            0 => vec![],
            1 => vec![t.gvals[row]],
            _ => vec![t.gvals[row], t.hvals[row]],
        };
        let entry = reference.entry(key).or_default();
        entry.sum = entry.sum.wrapping_add(t.words[row]);
        entry.ids.push(row as u64);
        let v = t.ovals[row];
        entry.extreme = Some(match entry.extreme {
            None => v,
            Some(cur) => {
                if want_max {
                    cur.max(v)
                } else {
                    cur.min(v)
                }
            }
        });
    }
    if group_mode == 0 {
        // Global aggregation always reports exactly one (possibly empty)
        // group.
        reference.entry(vec![]).or_default();
    }

    // 3. Decode the server response and compare.
    let decoded = match decode(t, &scalar) {
        Ok(d) => d,
        Err(msg) => {
            prop_assert!(false, "{}", msg);
            unreachable!()
        }
    };
    prop_assert_eq!(decoded.len(), reference.len(), "group key sets differ");
    for (key, expected) in &reference {
        let Some(actual) = decoded.get(key) else {
            prop_assert!(false, "server is missing group {key:?}");
            unreachable!()
        };
        prop_assert_eq!(actual.sum, expected.sum, "sum mismatch for group {:?}", key);
        prop_assert_eq!(
            actual.count,
            expected.ids.len() as u64,
            "count mismatch for group {:?}",
            key
        );
        prop_assert_eq!(&actual.ids, &expected.ids, "ID set mismatch for group {:?}", key);
        if extreme.is_some() {
            prop_assert_eq!(
                actual.extreme.map(|(v, _)| v),
                expected.extreme,
                "MIN/MAX winner mismatch for group {:?}",
                key
            );
        }
    }
    Ok(scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The main differential property: scalar ≡ vectorized ≡ plaintext
    /// reference over random tables and random queries.
    #[test]
    fn scalar_vectorized_and_reference_agree(
        seed in any::<u64>(),
        rows in 0usize..220,
        partitions in 1usize..8,
        filter_mask in 0u32..16,
        op1 in 0u8..6,
        v1 in 0u64..18,
        spick in 0usize..5,
        dtag in 0u64..10,
        op2 in 0u8..6,
        ov in 0u64..32,
        group_mode in 0u8..3,
        extreme_on in any::<bool>(),
        want_max in any::<bool>(),
    ) {
        let t = FuzzTable::generate(seed, rows, partitions);

        // Assemble the random conjunctive filter set.
        let mut fuzz_filters: Vec<FuzzFilter> = Vec::new();
        if filter_mask & 1 != 0 {
            fuzz_filters.push(FuzzFilter::PlainU64(op_of(op1), v1));
        }
        if filter_mask & 2 != 0 {
            let s = if spick == 4 { "missing".to_string() } else { TEXTS[spick].to_string() };
            fuzz_filters.push(FuzzFilter::PlainText(s));
        }
        if filter_mask & 4 != 0 {
            fuzz_filters.push(FuzzFilter::DetTag(dtag));
        }
        if filter_mask & 8 != 0 {
            fuzz_filters.push(FuzzFilter::Ope(op_of(op2), ov));
        }
        check_case(&t, &fuzz_filters, group_mode, extreme_on.then_some(want_max))?;
    }
}

/// The shapes the flat per-partition fold can get wrong and the random cases
/// above (six values of `g`, at most 220 rows) never reach: a group index that
/// has to grow, keys that collide or differ in one half of the word only,
/// composite keys, MIN/MAX states beside sums under GROUP BY,
/// partitions that select nothing or one row, and a run of selected rows
/// running across a partition boundary.
#[test]
fn flat_fold_matches_the_row_at_a_time_oracle_on_the_hard_shapes() {
    let check = |name: &str, t: &FuzzTable, filters: &[FuzzFilter], group_mode, extreme| match check_case(
        t, filters, group_mode, extreme,
    ) {
        Ok(response) => response,
        Err(TestCaseError::Fail(message)) => panic!("{name}: {message}"),
        Err(TestCaseError::Reject(message)) => panic!("{name}: rejected: {message}"),
    };
    let unfiltered = |rows: usize| vec![0u64; rows];

    // More than 300 distinct keys in each partition: the index doubles its
    // table three times over.
    let many = FuzzTable::with_columns(1, 2, unfiltered(700), (0..700u64).map(|i| i % 331).collect());
    let response = check("many keys", &many, &[], 1, None);
    assert!(response.groups.len() >= 331, "{} groups", response.groups.len());

    // Keys equal in their low 32 bits, keys differing only there, and both.
    type KeyFamily = (&'static str, fn(u64) -> u64);
    let halves: [KeyFamily; 3] = [
        ("high halves differ", |i| (i % 7) << 32 | 0xdead_beef),
        ("low halves differ", |i| 0xabcd_0000_0000_0000 | (i % 7)),
        ("both halves", |i| (i % 5) << 32 | (i % 3)),
    ];
    for (name, key) in halves {
        let t = FuzzTable::with_columns(2, 3, unfiltered(300), (0..300u64).map(key).collect());
        let response = check(name, &t, &[], 1, None);
        let expected = if name == "both halves" { 15 } else { 7 };
        assert_eq!(response.groups.len(), expected, "{name}");
        check(name, &t, &[FuzzFilter::Ope(CompareOp::Lt, 20)], 1, Some(true));
    }

    // Two group columns, filtered and not; MIN and MAX beside SUM and COUNT
    // under one and two group columns.
    let t = FuzzTable::generate(3, 400, 5);
    for filters in [vec![], vec![FuzzFilter::PlainU64(CompareOp::GtEq, 4)]] {
        check("two columns", &t, &filters, 2, None);
        for want_max in [false, true] {
            check("extremes under GROUP BY", &t, &filters, 1, Some(want_max));
            check("extremes under GROUP BY", &t, &filters, 2, Some(want_max));
        }
    }

    // Four partitions of 20 rows selecting none, one, none and three rows.
    let picked = |rows: &[u64]| (0..80u64).map(|i| u64::from(rows.contains(&i))).collect::<Vec<u64>>();
    let selected = [FuzzFilter::PlainU64(CompareOp::Eq, 1)];
    let sparse = FuzzTable::with_columns(4, 4, picked(&[25, 60, 61, 62]), (0..80u64).map(|i| i % 3).collect());
    for group_mode in [0, 1, 2] {
        check("sparse partitions", &sparse, &selected, group_mode, Some(true));
    }

    // Rows 15 to 24 of 20-row partitions: one run across the boundary, and
    // the response's list is that one run.
    let across: Vec<u64> = (15..25).collect();
    let spanning = FuzzTable::with_columns(5, 4, picked(&across), vec![9; 80]);
    for group_mode in [0, 1] {
        let response = check("spanning run", &spanning, &selected, group_mode, None);
        assert_eq!(response.groups.len(), 1);
        let ids = response.groups[0].ids.as_ref().expect("a sum carries its ID list");
        let decoded = IdSet::decode(&ids.id_list, ids.encoding).expect("decodable");
        assert_eq!(decoded, IdSet::range(15, 24), "group_mode {group_mode}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both execution modes must reproduce the NoEnc plaintext baseline for
    /// global and group-by sums (selectivity 1.0 — the baseline's filter
    /// model is hash-based row sampling, which has no PhysicalFilter form).
    #[test]
    fn server_matches_noenc_baseline(
        seed in any::<u64>(),
        rows in 1usize..400,
        partitions in 1usize..8,
        groups in 1u64..12,
    ) {
        let values: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 1) % 1_000_000).collect();
        let keys: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 2) % groups).collect();
        let noenc = NoEncSystem::new(&values, Some(&keys), partitions);
        let expected_sum = noenc.sum(1.0);
        let (want_groups, _) = noenc.group_by_sum(1.0);

        let table = Table::from_columns(
            Schema::new([
                ("m__ashe".to_string(), ColumnType::UInt64),
                ("g".to_string(), ColumnType::UInt64),
            ]),
            vec![ColumnData::UInt64(values.clone()), ColumnData::UInt64(keys.clone())],
            partitions,
        );
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server(&table, mode);
            // Global sum.
            let q = TranslatedQuery {
                base_table: "t".to_string(),
                filters: vec![],
                aggregates: vec![
                    ServerAggregate::AsheSum { column: "m__ashe".to_string() },
                    ServerAggregate::CountRows,
                ],
                group_by: vec![],
                client_post: vec![],
                preserve_row_ids: true,
                category: SupportCategory::ServerOnly,
                params: vec![],
            };
            let resp = match s.execute(&q, &[]) {
                Ok(r) => r,
                Err(e) => { prop_assert!(false, "{mode:?}: {e}"); unreachable!() }
            };
            prop_assert!(matches!(
                &resp.groups[0].aggregates[0],
                EncryptedAggregate::AsheSum { value, .. } if *value == expected_sum.sum
            ), "{:?}: global sum diverges from NoEnc", mode);
            prop_assert!(matches!(
                &resp.groups[0].aggregates[1],
                EncryptedAggregate::Count { rows } if *rows == expected_sum.rows
            ), "{:?}: global count diverges from NoEnc", mode);

            // Group-by sum.
            let mut q = q.clone();
            q.group_by = vec![GroupByColumn {
                column: "g".to_string(),
                physical_column: "g".to_string(),
                encrypted: false,
            }];
            let resp = match s.execute(&q, &[]) {
                Ok(r) => r,
                Err(e) => { prop_assert!(false, "{mode:?}: {e}"); unreachable!() }
            };
            prop_assert_eq!(resp.groups.len(), want_groups.len());
            for group in &resp.groups {
                let expected = want_groups.get(&group.key[0]).copied();
                prop_assert!(matches!(
                    &group.aggregates[0],
                    EncryptedAggregate::AsheSum { value, .. } if Some(*value) == expected
                ), "{:?}: group {} diverges from NoEnc", mode, group.key[0]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full-pipeline differential: SQL in, plaintext out, real encryption between.
// ---------------------------------------------------------------------------

const COUNTRIES: [&str; 4] = ["USA", "Canada", "India", "Chile"];
const DEPTS: [&str; 3] = ["eng", "ops", "sales"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end: both execution modes, behind real ASHE/SPLASHE/DET/ORE
    /// encryption, must decrypt to the plaintext evaluation of the SQL.
    #[test]
    fn full_pipeline_modes_match_plaintext(
        seed in any::<u64>(),
        rows in 5usize..48,
        partitions in 1usize..5,
        kind in 0u8..4,
        where_pick in 0u8..4,
        k in 1u64..12,
        cpick in 0usize..4,
    ) {
        let country: Vec<String> = (0..rows as u64)
            .map(|i| COUNTRIES[(mix(seed, i, 1) % 4) as usize].to_string())
            .collect();
        let dept: Vec<String> = (0..rows as u64)
            .map(|i| DEPTS[(mix(seed, i, 2) % 3) as usize].to_string())
            .collect();
        let revenue: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 3) % 10_000).collect();
        let ts: Vec<u64> = (0..rows as u64).map(|i| mix(seed, i, 4) % 12 + 1).collect();
        let dataset = PlainDataset::new("sales")
            .with_text_column("country", country.clone())
            .with_uint_column("revenue", revenue.clone())
            .with_uint_column("ts", ts.clone())
            .with_text_column("dept", dept.clone());

        let distribution = dataset.distribution("country").expect("country column exists");
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", distribution),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::sensitive("dept"),
        ];
        let samples: Vec<_> = [
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            "SELECT AVG(revenue) FROM sales",
        ]
        .iter()
        .map(|s| parse(s).expect("sample parses"))
        .collect();
        let mut client = SeabedClient::create_plan(b"diff", &columns, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(&dataset, partitions, &mut rand::rng());

        // GROUP BY queries take no WHERE in this family; the others draw one
        // of {none, ts >= k, ts < k, country = c}.
        let where_clause = if kind == 3 {
            String::new()
        } else {
            match where_pick {
                0 => String::new(),
                1 => format!(" WHERE ts >= {k}"),
                2 => format!(" WHERE ts < {k}"),
                _ => format!(" WHERE country = '{}'", COUNTRIES[cpick]),
            }
        };
        let sql = match kind {
            0 => format!("SELECT SUM(revenue) FROM sales{where_clause}"),
            1 => format!("SELECT COUNT(*) FROM sales{where_clause}"),
            2 => format!("SELECT AVG(revenue) FROM sales{where_clause}"),
            _ => "SELECT dept, SUM(revenue) FROM sales GROUP BY dept".to_string(),
        };

        // Plaintext evaluation.
        let selected: Vec<usize> = (0..rows)
            .filter(|&i| {
                if kind == 3 {
                    return true;
                }
                match where_pick {
                    0 => true,
                    1 => ts[i] >= k,
                    2 => ts[i] < k,
                    _ => country[i] == COUNTRIES[cpick],
                }
            })
            .collect();

        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let srv = SeabedServer::new(
                encrypted.table.clone(),
                Cluster::new(ClusterConfig::default().exec_mode(mode)),
            );
            let result = match SeabedSession::single("sales", client.clone(), &srv).query(&sql, &[]) {
                Ok(r) => r,
                Err(e) => {
                    prop_assert!(false, "{mode:?}: query '{sql}' failed: {e}");
                    unreachable!()
                }
            };
            match kind {
                0 => {
                    let expected: u64 = selected.iter().map(|&i| revenue[i]).sum();
                    prop_assert_eq!(&result.rows, &vec![vec![ResultValue::UInt(expected)]], "{:?}: {}", mode, sql);
                }
                1 => {
                    prop_assert_eq!(
                        &result.rows,
                        &vec![vec![ResultValue::UInt(selected.len() as u64)]],
                        "{:?}: {}", mode, sql
                    );
                }
                2 => {
                    let sum: u64 = selected.iter().map(|&i| revenue[i]).sum();
                    let expected = if selected.is_empty() { 0.0 } else { sum as f64 / selected.len() as f64 };
                    prop_assert_eq!(result.rows.len(), 1);
                    let ResultValue::Float(actual) = result.rows[0][0] else {
                        prop_assert!(false, "{mode:?}: AVG returned {:?}", result.rows[0][0]);
                        unreachable!()
                    };
                    prop_assert!((actual - expected).abs() < 1e-9, "{mode:?}: AVG {actual} != {expected}");
                }
                _ => {
                    let mut expected: HashMap<&str, u64> = HashMap::new();
                    for i in 0..rows {
                        *expected.entry(dept[i].as_str()).or_insert(0) += revenue[i];
                    }
                    prop_assert_eq!(result.rows.len(), expected.len(), "{:?}: group count", mode);
                    for row in &result.rows {
                        let ResultValue::Text(key) = &row[0] else {
                            prop_assert!(false, "{mode:?}: group key not decrypted: {row:?}");
                            unreachable!()
                        };
                        prop_assert_eq!(
                            row[1].as_u64(),
                            expected.get(key.as_str()).copied(),
                            "{:?}: group {} sum", mode, key
                        );
                    }
                }
            }
        }
    }
}
