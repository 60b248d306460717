//! Quickstart: plan, encrypt, upload and query a small dataset with Seabed —
//! through the session API: a [`Catalog`] of encrypted tables, a
//! [`SeabedSession`] over an execution target, and prepared, parameterized
//! statements.
//!
//! Run with: `cargo run --release --example quickstart`

use seabed_core::{Catalog, PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig};

fn main() {
    // 1. The data collector's plaintext table.
    let countries: Vec<String> = ["USA", "USA", "Canada", "India", "USA", "Canada", "Chile", "India"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let data = PlainDataset::new("sales")
        .with_text_column("country", countries)
        .with_uint_column("revenue", vec![120, 80, 200, 40, 160, 90, 30, 55])
        .with_uint_column("year", vec![2014, 2015, 2015, 2016, 2016, 2016, 2016, 2016]);

    // 2. Create the plan: country is a sensitive dimension with a known
    //    distribution (so it gets enhanced SPLASHE), revenue a sensitive
    //    measure (ASHE), year a range-filtered dimension (OPE).
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", data.distribution("country").unwrap()),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("year"),
    ];
    let samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE country = 'USA'").unwrap(),
        parse("SELECT SUM(revenue) FROM sales WHERE year >= 2015").unwrap(),
        parse("SELECT AVG(revenue) FROM sales").unwrap(),
    ];
    let mut client = SeabedClient::create_plan(b"tenant-master-key", &columns, &samples, &PlannerConfig::default());
    println!("Schema plan:");
    for col in &client.plan().columns {
        println!("  {:<10} {:?} -> {:?}", col.name, col.role, col.encryption);
    }

    // 3. Encrypt and upload; stand up the (untrusted) server.
    let encrypted = client.encrypt_dataset(&data, 4, &mut rand::rng());
    println!("\nEncrypted physical columns:");
    for field in &encrypted.table.schema.fields {
        println!("  {}", field.name);
    }
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    // 4. Open a session: the catalog registers the table's proxy state (plan,
    //    keys, DET dictionaries) under its name; the session resolves every
    //    query's FROM against it and caches prepared statements.
    let catalog = Catalog::new().with_table("sales", client);
    let session = SeabedSession::new(catalog, &server);

    // 5. One-shot style through the session (prepare + execute in one call;
    //    the statement cache absorbs repeats).
    for sql in [
        "SELECT SUM(revenue) FROM sales",
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT AVG(revenue) FROM sales",
    ] {
        let result = session.query(sql, &[]).expect("query failed");
        println!(
            "\n{sql}\n  -> {:?}  (server {:?}, client {:?})",
            result.rows, result.server_stats.wall_time, result.client_time
        );
    }

    // 6. Prepared, parameterized execution: parse/plan/translate happen once;
    //    each execute binds the `?` literals, encrypts only those, and ships.
    let prepared = session
        .prepare("SELECT COUNT(*) FROM sales WHERE year >= ?")
        .expect("prepare failed");
    println!(
        "\nprepared: {} ({} parameter(s))",
        prepared.sql(),
        prepared.param_count()
    );
    for year in [2014u64, 2015, 2016] {
        let result = session
            .execute(&prepared, &[Literal::Integer(year)])
            .expect("execute failed");
        println!("  year >= {year} -> {:?}", result.rows);
    }
    let stats = session.stats();
    println!(
        "\nsession: {} statement(s) prepared, {} cache hit(s), {} execution(s)",
        stats.statements_prepared, stats.cache_hits, stats.executes
    );
}
