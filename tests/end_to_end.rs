//! End-to-end integration test: plan -> encrypt -> query across all schemes.

use seabed_core::{PlainDataset, QueryResult, ResultValue, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use std::collections::HashMap;

/// SQL text in, decrypted rows out: a one-table session over `server`.
fn query(client: &SeabedClient, server: &SeabedServer, sql: &str) -> QueryResult {
    let table = parse(sql).unwrap().from.base_table().to_string();
    SeabedSession::single(table, client.clone(), server)
        .query(sql, &[])
        .unwrap()
}

fn build_world(rows: usize) -> (SeabedClient, SeabedServer, PlainDataset) {
    let countries = ["USA", "Canada", "India", "Chile", "Japan"];
    let country_col: Vec<String> = (0..rows)
        .map(|i| {
            // Skewed: USA and Canada dominate.
            match i % 10 {
                0..=4 => "USA".to_string(),
                5..=7 => "Canada".to_string(),
                8 => countries[2 + (i / 10) % 3].to_string(),
                _ => countries[2 + (i / 7) % 3].to_string(),
            }
        })
        .collect();
    let dataset = PlainDataset::new("sales")
        .with_text_column("country", country_col)
        .with_uint_column("revenue", (0..rows as u64).map(|i| i % 500 + 1).collect())
        .with_uint_column("clicks", (0..rows as u64).map(|i| i % 7).collect())
        .with_uint_column("ts", (0..rows as u64).collect())
        .with_text_column("dept", (0..rows).map(|i| format!("d{}", i % 4)).collect());
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").unwrap()),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("clicks"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("dept"),
    ];
    let samples: Vec<_> = [
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 100",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT VARIANCE(clicks) FROM sales",
        "SELECT AVG(revenue) FROM sales",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let mut client = SeabedClient::create_plan(b"it-master", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

fn plain_sum<F: Fn(usize) -> bool>(ds: &PlainDataset, measure: &str, pred: F) -> u64 {
    let col = ds.column(measure).unwrap();
    (0..ds.num_rows())
        .filter(|&i| pred(i))
        .map(|i| col.u64_at(i).unwrap())
        .sum()
}

#[test]
fn global_and_filtered_sums_match_plaintext() {
    let (client, server, ds) = build_world(2000);
    let total = query(&client, &server, "SELECT SUM(revenue) FROM sales");
    assert_eq!(total.rows[0][0], ResultValue::UInt(plain_sum(&ds, "revenue", |_| true)));

    let country = ds.column("country").unwrap();
    for value in ["USA", "Canada", "India", "Chile", "Japan"] {
        let sql = format!("SELECT SUM(revenue) FROM sales WHERE country = '{value}'");
        let result = query(&client, &server, &sql);
        let expected = plain_sum(&ds, "revenue", |i| country.text_at(i) == value);
        assert_eq!(result.rows[0][0], ResultValue::UInt(expected), "country {value}");
    }
}

#[test]
fn range_filters_and_counts_match_plaintext() {
    let (client, server, ds) = build_world(1500);
    let ts = ds.column("ts").unwrap();
    let result = query(&client, &server, "SELECT SUM(revenue) FROM sales WHERE ts >= 700");
    let expected = plain_sum(&ds, "revenue", |i| ts.u64_at(i).unwrap() >= 700);
    assert_eq!(result.rows[0][0], ResultValue::UInt(expected));

    let count = query(&client, &server, "SELECT COUNT(*) FROM sales WHERE ts < 300");
    assert_eq!(count.rows[0][0], ResultValue::UInt(300));
}

#[test]
fn group_by_matches_plaintext_per_group() {
    let (client, server, ds) = build_world(1200);
    let result = query(&client, &server, "SELECT dept, SUM(revenue) FROM sales GROUP BY dept");
    assert_eq!(result.rows.len(), 4);
    let dept = ds.column("dept").unwrap();
    let mut expected: HashMap<String, u64> = HashMap::new();
    for i in 0..ds.num_rows() {
        *expected.entry(dept.text_at(i)).or_insert(0) += ds.column("revenue").unwrap().u64_at(i).unwrap();
    }
    for row in &result.rows {
        let ResultValue::Text(key) = &row[0] else {
            panic!("expected text key")
        };
        assert_eq!(row[1].as_u64().unwrap(), expected[key], "group {key}");
    }
}

#[test]
fn avg_and_variance_match_plaintext() {
    let (client, server, ds) = build_world(900);
    let revenue: Vec<f64> = (0..ds.num_rows())
        .map(|i| ds.column("revenue").unwrap().u64_at(i).unwrap() as f64)
        .collect();
    let mean = revenue.iter().sum::<f64>() / revenue.len() as f64;
    let avg = query(&client, &server, "SELECT AVG(revenue) FROM sales");
    assert!((avg.rows[0][0].as_f64() - mean).abs() < 1e-9);

    let clicks: Vec<f64> = (0..ds.num_rows())
        .map(|i| ds.column("clicks").unwrap().u64_at(i).unwrap() as f64)
        .collect();
    let cmean = clicks.iter().sum::<f64>() / clicks.len() as f64;
    let cvar = clicks.iter().map(|v| (v - cmean) * (v - cmean)).sum::<f64>() / clicks.len() as f64;
    let var = query(&client, &server, "SELECT VARIANCE(clicks) FROM sales");
    assert!(
        (var.rows[0][0].as_f64() - cvar).abs() < 1e-6,
        "variance {} vs {}",
        var.rows[0][0].as_f64(),
        cvar
    );
}

#[test]
fn server_never_sees_plaintext_columns() {
    let (_, server, _) = build_world(500);
    let names: Vec<&str> = server.table().schema.fields.iter().map(|f| f.name.as_str()).collect();
    for leaked in ["revenue", "clicks", "ts", "country", "dept"] {
        assert!(!names.contains(&leaked), "plaintext column {leaked} must not be stored");
    }
}

#[test]
fn timings_are_populated() {
    let (client, server, _) = build_world(800);
    let result = query(&client, &server, "SELECT SUM(revenue) FROM sales");
    // The server's time is the one it measured, not a model of another
    // cluster; the proxy's is its own decryption.
    assert!(result.server_stats.wall_time > std::time::Duration::ZERO);
    assert!(result.client_time > std::time::Duration::ZERO);
    assert!(result.result_bytes > 0);
    assert!(
        result.client_prf_evals >= 2,
        "at least one telescoped run must be decrypted"
    );
}

/// 200 rows in two contiguous departments (`a`: rows 0–99, `b`: rows
/// 100–199), an OPE timestamp that is not monotonic in the row order, and an
/// ASHE measure. Returns the proxy, the server and the data.
fn two_dept_world() -> (SeabedClient, SeabedServer, PlainDataset) {
    let rows = 200u64;
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "dept",
            (0..rows).map(|i| if i < 100 { "a" } else { "b" }.to_string()).collect(),
        )
        .with_uint_column("ts", (0..rows).map(|i| (i * 7919) % 1000).collect())
        .with_uint_column("revenue", (0..rows).map(|i| (i * 13) % 500 + 1).collect());
    let columns = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("revenue"),
    ];
    let samples: Vec<_> = [
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT MIN(ts) FROM sales",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let mut client = SeabedClient::create_plan(b"two-dept", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

/// MIN/MAX per group: the decrypted rows equal plaintext, for MIN, MAX and a
/// list mixing them with SUM / COUNT / AVG.
#[test]
fn grouped_min_max_match_plaintext() {
    let (client, server, ds) = two_dept_world();
    let dept = ds.column("dept").unwrap();
    let column = |name: &str, key: &str| -> Vec<u64> {
        (0..ds.num_rows())
            .filter(|&i| dept.text_at(i) == key)
            .map(|i| ds.column(name).unwrap().u64_at(i).unwrap())
            .collect()
    };
    // Per SELECT item: its plaintext value over the rows of one department.
    type Item = (&'static str, fn(&[u64], &[u64]) -> ResultValue);
    let items: [Item; 5] = [
        ("MIN(ts)", |ts, _| ResultValue::UInt(*ts.iter().min().unwrap())),
        ("MAX(ts)", |ts, _| ResultValue::UInt(*ts.iter().max().unwrap())),
        ("SUM(revenue)", |_, revenue| ResultValue::UInt(revenue.iter().sum())),
        ("COUNT(*)", |ts, _| ResultValue::UInt(ts.len() as u64)),
        ("AVG(revenue)", |_, revenue| {
            ResultValue::Float(revenue.iter().sum::<u64>() as f64 / revenue.len() as f64)
        }),
    ];
    for list in [vec![0], vec![1], vec![0, 1], vec![2, 0, 3, 4, 1]] {
        let select: Vec<&str> = list.iter().map(|&i| items[i].0).collect();
        let sql = format!("SELECT dept, {} FROM sales GROUP BY dept", select.join(", "));

        let plaintext: Vec<Vec<ResultValue>> = ["a", "b"]
            .iter()
            .map(|key| {
                let (ts, revenue) = (column("ts", key), column("revenue", key));
                let mut row = vec![ResultValue::Text(key.to_string())];
                row.extend(list.iter().map(|&i| items[i].1(&ts, &revenue)));
                row
            })
            .collect();
        let by_dept = |mut rows: Vec<Vec<ResultValue>>| {
            rows.sort_by_key(|row| format!("{:?}", row[0]));
            rows
        };
        let rows = by_dept(query(&client, &server, &sql).rows);
        assert_eq!(rows, plaintext, "{sql}");
    }
}

/// Each department's rows are one contiguous run, so a grouped SUM costs the
/// proxy two PRF evaluations per department: telescoping unmasks a run from
/// its two ends.
#[test]
fn a_grouped_sum_costs_the_proxy_two_prf_evaluations_per_group() {
    let (client, server, _) = two_dept_world();
    let flat = query(&client, &server, "SELECT dept, SUM(revenue) FROM sales GROUP BY dept");
    assert_eq!(flat.rows.len(), 2);
    assert_eq!(flat.client_prf_evals, 4);
}

/// The byte accounting follows the layout: a group's ID list is built, charged
/// and encoded once, so a second sum and a count over one (fragmented)
/// selection cost a word each — `SUM(a)`'s bytes plus 16 — not a second and a
/// third copy of the list, in the response, in its frame and in the partials.
/// And beside its groups a frame carries only what the server measured.
#[test]
fn a_second_sum_and_a_count_cost_sixteen_bytes_not_another_id_list() {
    use seabed_core::{PartialResponse, ServerResponse};
    use seabed_engine::{merge::PartialGroups, ExecStats};
    use seabed_net::wire::{encode_frame, Frame, HEADER_LEN};
    let rows = 2_000u64;
    let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    let dataset = PlainDataset::new("t")
        .with_uint_column("a", (0..rows).map(|i| mix(i) % 1_000).collect())
        .with_uint_column("b", (0..rows).map(|i| mix(i + 1) % 1_000).collect())
        .with_text_column("dept", (0..rows).map(|i| format!("d{}", mix(i + 2) % 4)).collect());
    let columns = ["a", "b", "dept"].map(ColumnSpec::sensitive);
    let samples = [parse("SELECT SUM(a), SUM(b) FROM t WHERE dept = 'd1'").unwrap()];
    let mut client = SeabedClient::create_plan(b"bytes", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    // An un-analyzed execution's stats travel as the LEB128 varint of the
    // wall time's nanoseconds and a zero operator count: nothing else.
    let stats_len = |stats: &ExecStats| {
        assert!(stats.operators.is_empty());
        let nanos = u64::try_from(stats.wall_time.as_nanos()).unwrap();
        (64 - nanos.leading_zeros()).max(1).div_ceil(7) as usize + 1
    };
    let session = SeabedSession::single("t", client.clone(), &server);
    let run = |sql: &str| {
        let prepared = session.prepare(sql).unwrap();
        let (plan, response) = session.execute_encrypted(&prepared, &[]).unwrap();
        let filters = client.encrypt_filters(server.schema(), &plan).unwrap();
        let partial = server.execute_partial(&plan, &filters).unwrap();
        let frame = encode_frame(&Frame::Response(response.clone()), u32::MAX)
            .unwrap()
            .len();
        let stats = encode_frame(
            &Frame::Response(ServerResponse {
                groups: Vec::new(),
                stats: response.stats.clone(),
            }),
            u32::MAX,
        )
        .unwrap()
        .len();
        // Header, the zero group count, the stats.
        assert_eq!(stats, HEADER_LEN + 1 + stats_len(&response.stats), "{sql}");
        // A shard partial's: header, the one-byte echoes of epoch, table,
        // shard and sequence, the zero group count, the stats.
        let shard_stats = encode_frame(
            &Frame::ShardPartial {
                epoch: 1,
                table_id: 0,
                shard: 0,
                seq: 0,
                partial: PartialResponse {
                    groups: PartialGroups::new(),
                    stats: partial.stats.clone(),
                },
            },
            u32::MAX,
        )
        .unwrap()
        .len();
        assert_eq!(shard_stats, HEADER_LEN + 4 + 1 + stats_len(&partial.stats), "{sql}");
        (response, frame - stats, partial)
    };
    let (one, one_frame, one_partial) = run("SELECT SUM(a) FROM t WHERE dept = 'd1'");
    let (three, three_frame, three_partial) = run("SELECT SUM(a), SUM(b), COUNT(*) FROM t WHERE dept = 'd1'");

    let list = one.groups[0].ids.as_ref().expect("a sum ships its rows").id_list.len();
    assert!(list > 100, "the selection must be fragmented for this to bite: {list}");
    assert_eq!(one.result_bytes(), 8 + list);
    assert_eq!(three.result_bytes(), one.result_bytes() + 16);
    assert_eq!(three.groups[0].ids, one.groups[0].ids);
    // On the wire the two extra aggregates are a tag and a varint each.
    assert!(
        three_frame > one_frame && three_frame <= one_frame + 2 * 11,
        "{three_frame} vs {one_frame}"
    );
    // The partial's one group holds one ID set beside its three states.
    let (one_group, three_group) = (&one_partial.groups[&Vec::new()], &three_partial.groups[&Vec::new()]);
    assert_eq!(three_group.ids, one_group.ids);
    assert_eq!((one_group.aggregates.len(), three_group.aggregates.len()), (1, 3));

    let answer = query(
        &client,
        &server,
        "SELECT SUM(a), SUM(b), COUNT(*) FROM t WHERE dept = 'd1'",
    );
    let selected: Vec<u64> = (0..rows).filter(|i| mix(i + 2) % 4 == 1).collect();
    assert_eq!(
        answer.rows,
        vec![vec![
            ResultValue::UInt(selected.iter().map(|i| mix(*i) % 1_000).sum()),
            ResultValue::UInt(selected.iter().map(|i| mix(i + 1) % 1_000).sum()),
            ResultValue::UInt(selected.len() as u64),
        ]]
    );
}
