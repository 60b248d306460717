//! SQL-level differential: SQL text in → decrypted rows out.
//!
//! `tests/differential_exec.rs` stops at the server (it compares
//! `ServerResponse`s); this suite closes the loop the analyst sees. A seeded
//! generator draws SELECT lists of 1–4 items from every aggregate function
//! (repeats allowed), a grouping (global / a DET dimension / a public
//! column), a group-inflation hint and up to two filters of every class, and
//! runs each case through a session twice — with its literals inline
//! (`query`) **and** as placeholders (`prepare` + `execute`) — on one
//! `SeabedServer`, a handful also over a two-worker `DistCoordinator`. Every answer must equal a plaintext evaluation of the
//! parsed query over the plaintext dataset, order-insensitively and within
//! 1e-9 on floats.
//!
//! The plaintext evaluator below shares no code with `translate` or
//! `decrypt_response`: it reads the `Query` AST and the `PlainDataset` only.
//! Empty selections follow the documented conventions: one all-zero row for
//! a global aggregate, no row for a group-by.
//!
//! Two rules of the SPLASHE dimension are part of the expectation, because
//! the first run of this suite found the encrypted side breaking them
//! silently:
//!
//! * an equality on a splayed column is answered by *which column* the server
//!   sums, and only sums and counts have splayed columns — so with MIN, MAX,
//!   VARIANCE or STDDEV in the list, or with a second such equality, the
//!   statement must be refused as a typed `SeabedError::Translate` on every
//!   path (it used to aggregate rows the predicate excludes);
//! * under such an equality a group-by answers every group of the *wider*
//!   selection (the server cannot tell which rows matched — that is the
//!   point of splaying), a group without a matching row reading all-zero; the
//!   comparison therefore drops all-zero rows on both sides for these cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed_core::{PlainColumn, PlainDataset, ResultValue, SeabedClient, SeabedServer, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_error::SeabedError;
use seabed_net::wire::{decode_frame, encode_frame, redact_query, write_statement_payload, Frame};
use seabed_net::ServiceConfig;
use seabed_query::{
    parse, translate, AggregateFunction, ColumnSpec, CompareOp, Literal, PlannerConfig, Predicate, Query, SelectItem,
    SupportCategory, TranslatedQuery,
};
use std::collections::BTreeMap;

const ROWS: usize = 240;
const CASES: u64 = 240;
/// Every `DIST_EVERY`-th case also runs through the coordinator.
const DIST_EVERY: u64 = 16;

const DEPTS: [&str; 4] = ["d0", "d1", "d2", "d3"];
const REGIONS: [&str; 3] = ["r0", "r1", "r2"];
/// Skewed so the planner splays USA and Canada and leaves India and Chile to
/// the "others" column plus the balanced DET tag.
const COUNTRIES: [&str; 10] = [
    "USA", "USA", "USA", "USA", "Canada", "Canada", "Canada", "USA", "India", "Chile",
];

/// SplitMix64: deterministic per-(row, salt) column data.
fn mix(row: u64, salt: u64) -> u64 {
    let mut z = row.wrapping_mul(0x9e3779b97f4a7c15) ^ salt.wrapping_mul(0xd1b54a32d192ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One fixture: a squared ASHE measure (`revenue`), an ORE column (`ts`), a
/// DET dimension (`dept`), a SPLASHE dimension (`country`) and two public
/// columns (`hour` integer, `region` text).
fn fixture() -> (SeabedClient, SeabedServer, PlainDataset) {
    let rows = ROWS as u64;
    let text = |values: &[&str], salt: u64| -> Vec<String> {
        (0..rows)
            .map(|i| values[(mix(i, salt) % values.len() as u64) as usize].to_string())
            .collect()
    };
    let dataset = PlainDataset::new("sales")
        .with_uint_column("revenue", (0..rows).map(|i| mix(i, 1) % 500).collect())
        .with_uint_column("ts", (0..rows).map(|i| mix(i, 2) % 1000).collect())
        .with_text_column("dept", text(&DEPTS, 3))
        .with_text_column("country", text(&COUNTRIES, 4))
        .with_uint_column("hour", (0..rows).map(|i| mix(i, 5) % 6).collect())
        .with_text_column("region", text(&REGIONS, 6));
    let columns = vec![
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").expect("country")),
        ColumnSpec::public("hour"),
        ColumnSpec::public("region"),
    ];
    let samples: Vec<Query> = [
        "SELECT VARIANCE(revenue) FROM sales WHERE country = 'USA'",
        "SELECT MIN(ts) FROM sales WHERE ts >= 3",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
    ]
    .iter()
    .map(|sql| parse(sql).expect("sample"))
    .collect();
    let mut client = SeabedClient::create_plan(b"select-list", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 5, &mut StdRng::seed_from_u64(7));
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

// ---------------------------------------------------------------------------
// The plaintext evaluator: `Query` AST + `PlainDataset` → rows.
// ---------------------------------------------------------------------------

fn row_matches(data: &PlainDataset, predicate: &Predicate, row: usize) -> bool {
    match (data.column(&predicate.column).expect("filter column"), &predicate.value) {
        (PlainColumn::UInt(values), Literal::Integer(literal)) => predicate.op.eval_u64(values[row], *literal),
        (PlainColumn::Text(values), Literal::Text(literal)) => match predicate.op {
            CompareOp::Eq => values[row] == *literal,
            other => panic!("the generator only emits text equality, got {other:?}"),
        },
        (column, literal) => panic!("literal {literal:?} does not fit column {column:?}"),
    }
}

fn plain_aggregate(data: &PlainDataset, func: AggregateFunction, column: &str, rows: &[usize]) -> ResultValue {
    if func == AggregateFunction::Count {
        return ResultValue::UInt(rows.len() as u64);
    }
    let PlainColumn::UInt(values) = data.column(column).expect("measure") else {
        panic!("measure {column} is not numeric");
    };
    let selected = || rows.iter().map(|&row| values[row]);
    let n = rows.len() as u128;
    let sum: u128 = selected().map(u128::from).sum();
    // Exact in integers, so the reference carries no rounding of its own.
    let variance = || {
        if n == 0 {
            return 0.0;
        }
        let sum_squares: u128 = selected().map(|v| u128::from(v) * u128::from(v)).sum();
        (n * sum_squares - sum * sum) as f64 / (n * n) as f64
    };
    match func {
        AggregateFunction::Sum => ResultValue::UInt(sum as u64),
        AggregateFunction::Avg if n == 0 => ResultValue::Float(0.0),
        AggregateFunction::Avg => ResultValue::Float(sum as f64 / n as f64),
        AggregateFunction::Min => ResultValue::UInt(selected().min().unwrap_or(0)),
        AggregateFunction::Max => ResultValue::UInt(selected().max().unwrap_or(0)),
        AggregateFunction::Variance => ResultValue::Float(variance()),
        AggregateFunction::Stddev => ResultValue::Float(variance().sqrt()),
        AggregateFunction::Count => unreachable!("answered above"),
    }
}

/// Group keys first (in `GROUP BY` order), then one value per aggregate item
/// of the SELECT list — the row shape `QueryResult::rows` documents.
fn plain_rows(data: &PlainDataset, query: &Query) -> Vec<Vec<ResultValue>> {
    let selected: Vec<usize> = (0..data.num_rows())
        .filter(|&row| query.predicates.iter().all(|p| row_matches(data, p, row)))
        .collect();
    let key_of = |row: usize| -> Vec<String> {
        query
            .group_by
            .iter()
            .map(|column| data.column(column).expect("group column").text_at(row))
            .collect()
    };
    let mut groups: BTreeMap<Vec<String>, Vec<usize>> = BTreeMap::new();
    if query.group_by.is_empty() {
        groups.insert(Vec::new(), selected);
    } else {
        for row in selected {
            groups.entry(key_of(row)).or_default().push(row);
        }
    }
    groups
        .into_iter()
        .map(|(key, rows)| {
            let mut out: Vec<ResultValue> = query
                .group_by
                .iter()
                .zip(key)
                .map(|(column, text)| match data.column(column).expect("group column") {
                    PlainColumn::UInt(_) => ResultValue::UInt(text.parse().expect("numeric key")),
                    PlainColumn::Text(_) => ResultValue::Text(text),
                })
                .collect();
            for item in &query.select {
                if let SelectItem::Aggregate { func, column } = item {
                    out.push(plain_aggregate(data, *func, column, &rows));
                }
            }
            out
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Comparison: order-insensitive, 1e-9 on floats.
// ---------------------------------------------------------------------------

fn sorted(mut rows: Vec<Vec<ResultValue>>, key_columns: usize) -> Vec<Vec<ResultValue>> {
    rows.sort_by_key(|row| format!("{:?}", &row[..key_columns.min(row.len())]));
    rows
}

fn values_agree(a: &ResultValue, b: &ResultValue) -> bool {
    match (a, b) {
        (ResultValue::Float(x), ResultValue::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

fn rows_agree(got: &[Vec<ResultValue>], want: &[Vec<ResultValue>]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| values_agree(a, b)))
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

const ITEMS: [&str; 7] = [
    "SUM(revenue)",
    "COUNT(*)",
    "AVG(revenue)",
    "MIN(ts)",
    "MAX(ts)",
    "VARIANCE(revenue)",
    "STDDEV(revenue)",
];
const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

/// One generated case: the same statement with every literal inline, and
/// with the bindable literals as `?` plus their values.
struct Case {
    inline_sql: String,
    prepared_sql: String,
    params: Vec<Literal>,
    expected_groups: Option<usize>,
    /// Equality filters on the SPLASHE dimension.
    splashe_equalities: usize,
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.random_range(0..from.len())]
}

fn generate(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut select: Vec<String> = Vec::new();
    let group = match rng.random_range(0..3u32) {
        0 => None,
        1 => Some("dept"),
        _ => Some("hour"),
    };
    select.extend(group.map(str::to_string));
    for _ in 0..rng.random_range(1..5usize) {
        select.push(pick(&mut rng, &ITEMS).to_string());
    }
    let expected_groups = [None, Some(1), Some(3)][rng.random_range(0..3usize)];

    // (column, operator, literal as SQL, literal as a bindable value — `None`
    // for a SPLASHE equality, whose literal must stay inline).
    let mut filters: Vec<(&str, &str, String, Option<Literal>)> = Vec::new();
    for _ in 0..rng.random_range(0..3usize) {
        filters.push(match rng.random_range(0..5u32) {
            0 => {
                let v = rng.random_range(0..7u64);
                ("hour", pick(&mut rng, &OPS), v.to_string(), Some(Literal::Integer(v)))
            }
            1 => {
                let v = pick(&mut rng, &REGIONS);
                ("region", "=", format!("'{v}'"), Some(Literal::Text(v.to_string())))
            }
            2 => {
                let v = pick(&mut rng, &DEPTS);
                ("dept", "=", format!("'{v}'"), Some(Literal::Text(v.to_string())))
            }
            3 => {
                let v = rng.random_range(0..1100u64);
                ("ts", pick(&mut rng, &OPS), v.to_string(), Some(Literal::Integer(v)))
            }
            _ => {
                let v = pick(&mut rng, &["USA", "Canada", "India", "Chile"]);
                ("country", "=", format!("'{v}'"), None)
            }
        });
    }

    let mut params = Vec::new();
    let mut render = |placeholders: bool| -> String {
        let mut sql = format!("SELECT {} FROM sales", select.join(", "));
        for (i, (column, op, literal, bindable)) in filters.iter().enumerate() {
            sql.push_str(if i == 0 { " WHERE " } else { " AND " });
            // A coin per literal, so prepared statements mix inline and
            // bound positions.
            let text = match bindable {
                Some(value) if placeholders && rng.random_range(0..4u32) > 0 => {
                    params.push(value.clone());
                    "?"
                }
                _ => literal.as_str(),
            };
            sql.push_str(&format!("{column} {op} {text}"));
        }
        if let Some(group) = group {
            sql.push_str(&format!(" GROUP BY {group}"));
        }
        sql
    };
    let inline_sql = render(false);
    let prepared_sql = render(true);
    Case {
        inline_sql,
        prepared_sql,
        params,
        expected_groups,
        splashe_equalities: filters.iter().filter(|(column, ..)| *column == "country").count(),
    }
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

/// What a case must answer on every path.
enum Expected {
    /// These rows (sorted), all-zero rows dropped first when `drop_zero_rows`.
    Rows {
        rows: Vec<Vec<ResultValue>>,
        key_columns: usize,
        drop_zero_rows: bool,
    },
    /// A typed `SeabedError::Translate`: the encrypted schema cannot answer.
    Refused,
}

fn is_zero(value: &ResultValue) -> bool {
    matches!(value, ResultValue::UInt(0)) || matches!(value, ResultValue::Float(f) if *f == 0.0)
}

fn normalized(mut rows: Vec<Vec<ResultValue>>, key_columns: usize, drop_zero_rows: bool) -> Vec<Vec<ResultValue>> {
    if drop_zero_rows {
        rows.retain(|row| !row[key_columns..].iter().all(is_zero));
    }
    sorted(rows, key_columns)
}

fn expectation(data: &PlainDataset, case: &Case) -> Expected {
    let query = parse(&case.inline_sql).expect("generated SQL parses");
    let splayed_columns_cover = |item: &SelectItem| match item {
        SelectItem::Aggregate { func, .. } => matches!(
            func,
            AggregateFunction::Sum | AggregateFunction::Count | AggregateFunction::Avg
        ),
        SelectItem::Column(_) => true,
    };
    if case.splashe_equalities > 1 || (case.splashe_equalities == 1 && !query.select.iter().all(splayed_columns_cover))
    {
        return Expected::Refused;
    }
    let key_columns = query.group_by.len();
    let drop_zero_rows = case.splashe_equalities == 1 && key_columns > 0;
    Expected::Rows {
        rows: normalized(plain_rows(data, &query), key_columns, drop_zero_rows),
        key_columns,
        drop_zero_rows,
    }
}

/// Holds one path's answer to one case against the expectation, returning a
/// description of the divergence if there is one.
fn check(
    path: &str,
    case: &Case,
    seed: u64,
    expected: &Expected,
    got: Result<Vec<Vec<ResultValue>>, SeabedError>,
) -> Option<String> {
    let (agrees, got, want) = match (expected, got) {
        (Expected::Refused, Err(SeabedError::Translate(_))) => return None,
        (Expected::Refused, got) => (false, format!("{got:?}"), "a SeabedError::Translate".to_string()),
        (Expected::Rows { rows: want, .. }, Err(err)) => (false, format!("error: {err:?}"), format!("{want:?}")),
        (
            Expected::Rows {
                rows: want,
                key_columns,
                drop_zero_rows,
            },
            Ok(rows),
        ) => {
            let rows = normalized(rows, *key_columns, *drop_zero_rows);
            (rows_agree(&rows, want), format!("{rows:?}"), format!("{want:?}"))
        }
    };
    (!agrees).then(|| {
        format!(
            "seed {seed} [{path}] expected_groups={:?}\n  sql: {}\n  decrypted: {got}\n  plaintext: {want}",
            case.expected_groups, case.inline_sql
        )
    })
}

#[test]
fn decrypted_rows_equal_a_plaintext_evaluation_of_the_sql() {
    let (client, server, data) = fixture();
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), server.table().clone())],
        DistConfig::default(),
    )
    .expect("coordinator must connect");

    // One proxy (and one session over it) per inflation hint: the hint is
    // client-side translation state.
    let hinted = |expected_groups: Option<usize>| {
        let mut hinted = client.clone();
        hinted.translate_options.expected_groups = expected_groups;
        hinted
    };
    let proxies = [hinted(None), hinted(Some(1)), hinted(Some(3))];
    let sessions: Vec<_> = proxies
        .iter()
        .map(|proxy| SeabedSession::single("sales", proxy.clone(), &server))
        .collect();
    let dist_sessions: Vec<_> = proxies
        .iter()
        .map(|proxy| SeabedSession::single("sales", proxy.clone(), &coordinator))
        .collect();

    let mut failures: Vec<String> = Vec::new();
    // What the seeds actually exercised, so a change to the generator cannot
    // quietly stop covering the interesting corners.
    let (mut refused, mut inflated_extremes, mut bound_params) = (0, 0, 0);
    for seed in 0..CASES {
        let case = generate(seed);
        let which = match case.expected_groups {
            None => 0,
            Some(1) => 1,
            _ => 2,
        };
        let session = &sessions[which];
        let expected = expectation(&data, &case);
        let sql = &case.inline_sql;
        match expected {
            Expected::Refused => refused += 1,
            Expected::Rows { key_columns, .. } => {
                let extremes = sql.contains("MIN(") || sql.contains("MAX(");
                inflated_extremes += usize::from(key_columns > 0 && case.expected_groups.is_some() && extremes);
            }
        }
        bound_params += case.params.len();

        let inline = session.query(&case.inline_sql, &[]).map(|result| result.rows);
        failures.extend(check("inline", &case, seed, &expected, inline));
        let prepared = session
            .prepare(&case.prepared_sql)
            .and_then(|prepared| session.execute(&prepared, &case.params))
            .map(|result| result.rows);
        failures.extend(check("prepared", &case, seed, &expected, prepared));
        if seed % DIST_EVERY == 0 {
            let dist = dist_sessions[which]
                .query(&case.inline_sql, &[])
                .map(|result| result.rows);
            failures.extend(check("dist", &case, seed, &expected, dist));
        }
    }
    drop(dist_sessions);
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
    assert!(
        refused >= 10 && inflated_extremes >= 30 && bound_params >= 100,
        "thin coverage: {refused} refused, {inflated_extremes} inflated MIN/MAX, {bound_params} bound literals"
    );
    assert!(
        failures.is_empty(),
        "{} answers (each of {CASES} cases gives two or three) diverged from plaintext; first {}:\n{}",
        failures.len(),
        failures.len().min(8),
        failures[..failures.len().min(8)].join("\n")
    );
}

/// The same generator over the wire format of a plan: what travels is the
/// server's half. For every generated statement (inline and with
/// placeholders) the plan encodes to the bytes of the plan with its
/// client-only fields cleared — so the statement handle and the coordinator's
/// cache key, which hash those bytes, cannot depend on them — and decodes to
/// exactly `redact_query(plan)`.
#[test]
fn every_generated_plan_travels_as_its_server_half() {
    let (client, _, _) = fixture();
    let statement_bytes = |plan: &TranslatedQuery| {
        let mut out = Vec::new();
        write_statement_payload(&mut out, plan);
        out
    };
    let (mut plans, mut with_post_steps, mut with_group_names, mut with_param_names) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let case = generate(seed);
        let mut proxy = client.clone();
        proxy.translate_options.expected_groups = case.expected_groups;
        for sql in [&case.inline_sql, &case.prepared_sql] {
            let parsed = parse(sql).expect("generated SQL parses");
            let Ok(plan) = translate(&parsed, proxy.plan(), &proxy.translate_options) else {
                continue; // a refused statement has no plan to ship
            };
            plans += 1;
            with_post_steps += usize::from(!plan.client_post.is_empty());
            with_group_names += usize::from(!plan.group_by.is_empty());
            with_param_names += usize::from(!plan.params.is_empty());

            // Cleared by hand, not by `redact_query`: the filter literals stay,
            // so this also holds that they never reach the bytes.
            let mut cleared = plan.clone();
            cleared.client_post.clear();
            cleared.preserve_row_ids = false;
            cleared.category = SupportCategory::ServerOnly;
            cleared.group_by.iter_mut().for_each(|group| group.column.clear());
            cleared.params.iter_mut().for_each(|param| param.column.clear());
            assert_eq!(statement_bytes(&plan), statement_bytes(&cleared), "seed {seed}: {sql}");

            let frame = Frame::PrepareStatement { query: plan.clone() };
            let bytes = encode_frame(&frame, u32::MAX).expect("encode");
            let image = Frame::PrepareStatement {
                query: redact_query(&plan),
            };
            assert_eq!(
                decode_frame(&bytes, u32::MAX).as_ref(),
                Ok(&image),
                "seed {seed}: {sql}"
            );
            assert_eq!(
                encode_frame(&image, u32::MAX).expect("encode"),
                bytes,
                "seed {seed}: {sql}"
            );
        }
    }
    assert!(
        plans >= 400 && with_post_steps >= 100 && with_group_names >= 100 && with_param_names >= 60,
        "thin coverage: {plans} plans, {with_post_steps} with post steps, {with_group_names} grouped, \
         {with_param_names} with placeholders"
    );
}
