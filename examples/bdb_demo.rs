//! Runs the AmpLab Big Data Benchmark queries over encrypted tables
//! (§6.7 / Figure 9(b,c) of the paper).
//!
//! Run with: `cargo run -p seabed-core --release --example bdb_demo`

use seabed_core::{SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use seabed_workloads::bdb;

fn main() {
    let mut rng = rand::rng();
    let tables = bdb::generate(&mut rng, 5_000, 50_000);
    println!(
        "Rankings: {} rows, UserVisits: {} rows",
        tables.rankings.num_rows(),
        tables.uservisits.num_rows()
    );

    let build = |dataset: &seabed_core::PlainDataset, sensitive: &[&str], rng: &mut rand::rngs::ThreadRng| {
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
        let mut client = SeabedClient::create_plan(b"bdb-master", &specs, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(dataset, 16, rng);
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
        (client, server)
    };
    let (rank_client, rank_server) = build(&tables.rankings, &["pageRank", "avgDuration"], &mut rng);
    let (uv_client, uv_server) = build(
        &tables.uservisits,
        &[
            "adRevenue",
            "duration",
            "visitDate",
            "ipPrefix",
            "destURL",
            "countryCode",
        ],
        &mut rng,
    );

    let rankings = SeabedSession::single("rankings", rank_client, &rank_server);
    let uservisits = SeabedSession::single("uservisits", uv_client, &uv_server);

    for query in bdb::queries() {
        let session = if query.table == "rankings" {
            &rankings
        } else {
            &uservisits
        };
        // Scan queries are measured as count-scans (server-side work only).
        let sql = if query.name.starts_with("Q1") {
            query.sql.replace("SELECT pageURL, pageRank", "SELECT COUNT(*)")
        } else {
            query.sql.clone()
        };
        match session.query(&sql, &[]) {
            Ok(result) => println!(
                "{:<4} groups={:<6} total={:>8.4}s   [{}]",
                query.name,
                result.rows.len(),
                (result.server_stats.wall_time + result.client_time).as_secs_f64(),
                query.notes
            ),
            Err(err) => println!("{:<4} unsupported: {err}", query.name),
        }
    }
}
