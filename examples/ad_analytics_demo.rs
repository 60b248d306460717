//! Runs the Ad-Analytics style workload end-to-end: hour-of-day group-by
//! aggregations over an encrypted fact table (§6.6 of the paper).
//!
//! Run with: `cargo run -p seabed-core --release --example ad_analytics_demo`

use seabed_core::{SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use seabed_workloads::ad_analytics;

fn main() {
    let rows = 50_000;
    let mut rng = rand::rng();
    println!(
        "Generating {} rows with {} dimensions and {} measures...",
        rows,
        ad_analytics::NUM_DIMENSIONS,
        ad_analytics::NUM_MEASURES
    );
    let dataset = ad_analytics::generate(&mut rng, rows);
    let queries = ad_analytics::performance_query_set(&mut rng);

    // Sensitive columns: the hour dimension (range-filtered -> OPE) and the
    // first two measures (ASHE).
    let specs: Vec<ColumnSpec> = dataset
        .columns
        .iter()
        .map(|(n, _)| {
            if n == "measure00" || n == "measure01" {
                ColumnSpec::sensitive(n)
            } else {
                ColumnSpec::public(n)
            }
        })
        .collect();
    let samples: Vec<_> = queries.iter().map(|q| parse(&q.sql).unwrap()).collect();
    let mut client = SeabedClient::create_plan(b"ad-analytics-master", &specs, &samples, &PlannerConfig::default());

    println!("Encrypting and uploading...");
    let encrypted = client.encrypt_dataset(&dataset, 32, &mut rng);
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    let session = SeabedSession::single("ad_analytics", client, &server);

    println!("Running the 15-query performance set:\n");
    let mut latencies: Vec<f64> = Vec::new();
    for q in &queries {
        let result = session.query(&q.sql, &[]).expect("query failed");
        let (server, client) = (result.server_stats.wall_time, result.client_time);
        let total = (server + client).as_secs_f64();
        latencies.push(total);
        println!(
            "  groups={:<2} rows_out={:<3} total={:>8.4}s (server {:>8.4}s, client {:>8.4}s, {} bytes)",
            q.groups,
            result.rows.len(),
            total,
            server.as_secs_f64(),
            client.as_secs_f64(),
            result.result_bytes
        );
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("\nMedian response time: {:.4}s", latencies[latencies.len() / 2]);
}
