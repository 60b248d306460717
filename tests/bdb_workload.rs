//! Integration test: the Big Data Benchmark queries run end-to-end over
//! encrypted tables and produce the same answers as a plaintext evaluation.

use seabed_core::{PlainDataset, QueryResult, ResultValue, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use seabed_workloads::bdb;
use std::collections::HashMap;

/// SQL text in, decrypted rows out: a one-table session over `server`.
fn query(client: &SeabedClient, server: &SeabedServer, sql: &str) -> QueryResult {
    let table = parse(sql).unwrap().from.base_table().to_string();
    SeabedSession::single(table, client.clone(), server)
        .query(sql, &[])
        .expect("query failed")
}

fn build(dataset: &PlainDataset, sensitive: &[&str]) -> (SeabedClient, SeabedServer) {
    let specs: Vec<ColumnSpec> = dataset
        .columns
        .iter()
        .map(|(n, _)| {
            if sensitive.contains(&n.as_str()) {
                ColumnSpec::sensitive(n)
            } else {
                ColumnSpec::public(n)
            }
        })
        .collect();
    let samples: Vec<_> = bdb::queries()
        .iter()
        .filter(|q| dataset.name == q.table)
        .map(|q| parse(&q.sql).unwrap())
        .collect();
    let mut client = SeabedClient::create_plan(b"bdb-it", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server)
}

#[test]
fn q1_scan_counts_match_plaintext() {
    let rankings = bdb::rankings(&mut rand::rng(), 2_000);
    let (client, server) = build(&rankings, &["pageRank", "avgDuration"]);
    let rank = rankings.column("pageRank").unwrap();
    for threshold in [10u64, 100, 1000] {
        let expected = (0..rankings.num_rows())
            .filter(|&i| rank.u64_at(i).unwrap() > threshold)
            .count() as u64;
        let result = query(
            &client,
            &server,
            &format!("SELECT COUNT(*) FROM rankings WHERE pageRank > {threshold}"),
        );
        assert_eq!(result.rows[0][0], ResultValue::UInt(expected), "threshold {threshold}");
    }
}

#[test]
fn q2_prefix_aggregation_matches_plaintext() {
    let uservisits = bdb::uservisits(&mut rand::rng(), 3_000, 500);
    let (client, server) = build(&uservisits, &["adRevenue", "duration", "visitDate", "ipPrefix"]);
    let result = query(
        &client,
        &server,
        "SELECT ipPrefix, SUM(adRevenue) FROM uservisits GROUP BY ipPrefix",
    );
    let prefix = uservisits.column("ipPrefix").unwrap();
    let revenue = uservisits.column("adRevenue").unwrap();
    let mut expected: HashMap<String, u64> = HashMap::new();
    for i in 0..uservisits.num_rows() {
        *expected.entry(prefix.text_at(i)).or_insert(0) += revenue.u64_at(i).unwrap();
    }
    assert_eq!(result.rows.len(), expected.len());
    for row in &result.rows {
        let ResultValue::Text(key) = &row[0] else {
            panic!("expected decrypted group key")
        };
        assert_eq!(row[1].as_u64().unwrap(), expected[key], "prefix {key}");
    }
}

#[test]
fn q3_date_filtered_join_side_matches_plaintext() {
    let uservisits = bdb::uservisits(&mut rand::rng(), 3_000, 200);
    let (client, server) = build(&uservisits, &["adRevenue", "visitDate", "destURL"]);
    let result = query(
        &client,
        &server,
        "SELECT destURL, SUM(adRevenue) FROM uservisits WHERE visitDate >= 1000 AND visitDate < 4000 GROUP BY destURL",
    );
    let url = uservisits.column("destURL").unwrap();
    let date = uservisits.column("visitDate").unwrap();
    let revenue = uservisits.column("adRevenue").unwrap();
    let mut expected: HashMap<String, u64> = HashMap::new();
    for i in 0..uservisits.num_rows() {
        let d = date.u64_at(i).unwrap();
        if (1000..4000).contains(&d) {
            *expected.entry(url.text_at(i)).or_insert(0) += revenue.u64_at(i).unwrap();
        }
    }
    assert_eq!(result.rows.len(), expected.len());
    let total: u64 = result.rows.iter().map(|r| r[1].as_u64().unwrap()).sum();
    assert_eq!(total, expected.values().sum::<u64>());
}

#[test]
fn q4_country_counts_match_plaintext() {
    let uservisits = bdb::uservisits(&mut rand::rng(), 2_000, 100);
    let (client, server) = build(&uservisits, &["adRevenue", "countryCode"]);
    let result = query(
        &client,
        &server,
        "SELECT countryCode, COUNT(*) FROM uservisits GROUP BY countryCode",
    );
    let country = uservisits.column("countryCode").unwrap();
    let mut expected: HashMap<String, u64> = HashMap::new();
    for i in 0..uservisits.num_rows() {
        *expected.entry(country.text_at(i)).or_insert(0) += 1;
    }
    assert_eq!(result.rows.len(), expected.len());
    for row in &result.rows {
        let ResultValue::Text(key) = &row[0] else { panic!() };
        assert_eq!(row[1].as_u64().unwrap(), expected[key]);
    }
}
