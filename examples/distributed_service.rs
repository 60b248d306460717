//! Multi-tenant sharded scatter/gather across real workers: spin up four
//! [`seabed_net::NetServer`] worker services on ephemeral ports, shard TWO
//! encrypted tables — the Ad-Analytics fact table and a sales table — across
//! the same pool with one [`seabed_dist::DistCoordinator`], and drive both
//! through a multi-table [`seabed_core::SeabedSession`]: queries route by
//! their `FROM` name, prepared statements bind `?` parameters per execution,
//! and only ciphertexts ever cross the sockets.
//!
//! Run with: `cargo run --release --example distributed_service`

use seabed_core::{Catalog, PlainDataset, SeabedClient, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_net::ServiceConfig;
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig};
use seabed_workloads::ad_analytics;

fn main() {
    let mut rng = rand::rng();

    // 1. Tenant A: the Ad-Analytics fact table (two ASHE measures, public
    //    dimensions), planned and encrypted.
    let ada = ad_analytics::generate(&mut rng, 20_000);
    let ada_queries = ad_analytics::performance_query_set(&mut rng);
    let ada_specs: Vec<ColumnSpec> = ada
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
    let ada_samples: Vec<_> = ada_queries.iter().map(|q| parse(&q.sql).expect("sample")).collect();
    let mut ada_client =
        SeabedClient::create_plan(b"tenant-a-key", &ada_specs, &ada_samples, &PlannerConfig::default());
    let ada_encrypted = ada_client.encrypt_dataset(&ada, 16, &mut rng);

    // 2. Tenant B: a sales table with a DET dimension and an OPE timestamp.
    let n = 10_000usize;
    let sales = PlainDataset::new("sales")
        .with_text_column("dept", (0..n).map(|i| format!("d{}", i % 6)).collect())
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 1_000).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7919) % 50_000).collect());
    let sales_specs = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
    ];
    let sales_samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE dept = 'd1'").expect("sample"),
        parse("SELECT SUM(revenue) FROM sales WHERE ts >= 3").expect("sample"),
        parse("SELECT dept, SUM(revenue) FROM sales GROUP BY dept").expect("sample"),
    ];
    let mut sales_client =
        SeabedClient::create_plan(b"tenant-b-key", &sales_specs, &sales_samples, &PlannerConfig::default());
    let sales_encrypted = sales_client.encrypt_dataset(&sales, 12, &mut rng);

    // 3. Four untrusted workers on ephemeral ports. Each starts empty; the
    //    coordinator shards BOTH tables across the one pool under a fresh
    //    epoch — shard identifiers carry the table id on the wire.
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let w = spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start");
            println!("worker {i} listening on {}", w.local_addr());
            w
        })
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![
            ("ad_analytics".to_string(), ada_encrypted.table.clone()),
            ("sales".to_string(), sales_encrypted.table.clone()),
        ],
        DistConfig::default(),
    )
    .expect("coordinator must connect");
    println!(
        "coordinator: epoch {}, tables {:?}, {} shards across {} workers\n",
        coordinator.epoch(),
        coordinator.table_names(),
        coordinator.num_shards(),
        addrs.len()
    );

    // 4. One session over both tenants: the catalog holds each table's keys
    //    and plan; queries route by FROM.
    let catalog = Catalog::new()
        .with_table("ad_analytics", ada_client)
        .with_table("sales", sales_client);
    let session = SeabedSession::new(catalog, &coordinator);

    for q in ada_queries.iter().take(3) {
        let result = session.query(&q.sql, &[]).expect("distributed query");
        let report = coordinator.last_report();
        println!("{}", q.sql);
        println!(
            "  -> {} group(s), scatter/gather {:.2} ms over {} shard quer{}",
            result.rows.len(),
            result.server_stats.wall_time.as_secs_f64() * 1e3,
            report.runs.len(),
            if report.runs.len() == 1 { "y" } else { "ies" }
        );
    }

    // 5. A prepared, parameterized statement against the second tenant: the
    //    plan is fixed once; each execution binds and encrypts only the two
    //    literals before scattering.
    let prepared = session
        .prepare("SELECT SUM(revenue) FROM sales WHERE dept = ? AND ts >= ?")
        .expect("prepare");
    println!(
        "\nprepared: {} ({} parameter(s))",
        prepared.sql(),
        prepared.param_count()
    );
    for (dept, min_ts) in [("d0", 0u64), ("d3", 25_000), ("d5", 40_000)] {
        let result = session
            .execute(&prepared, &[Literal::Text(dept.to_string()), Literal::Integer(min_ts)])
            .expect("prepared execute");
        println!("  dept={dept} ts>={min_ts} -> {:?}", result.rows);
    }

    // 6. Per-worker accounting: (table, shard) pairs held, queries, traffic.
    println!("\nper-worker stats:");
    for summary in coordinator.worker_summaries() {
        println!(
            "  {} alive={} shards={:?} queries={} sent={}B received={}B",
            summary.label, summary.alive, summary.shards, summary.queries, summary.bytes_sent, summary.bytes_received
        );
    }
    let stats = session.stats();
    println!(
        "session: {} statement(s) prepared, {} cache hit(s), {} execution(s)",
        stats.statements_prepared, stats.cache_hits, stats.executes
    );

    drop(session);
    drop(coordinator);
    for w in workers {
        let totals = w.shutdown();
        let count = |name: &str| totals.counter(name).unwrap_or(0);
        println!(
            "worker closed: {} connections, {} requests, {} B in, {} B out",
            count("net_connections"),
            count("net_requests_served"),
            count("net_bytes_in"),
            count("net_bytes_out")
        );
    }
}
