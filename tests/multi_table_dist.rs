//! Multi-table / multi-tenant sharding: one coordinator and one worker pool
//! host several encrypted tables at once (ROADMAP item shipped by the
//! SeabedSession PR). Shard identifiers carry the table id on the wire, so
//! the same workers hold shards of every table under one epoch; queries
//! route by their `FROM` name; results are byte-identical to per-table
//! single-server execution — including under concurrent cross-table load —
//! and a `FROM` naming an unhosted table is a typed prepare-time error.

use seabed_core::{Catalog, PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_error::{SchemaError, SeabedError};
use seabed_net::{NetServer, ServiceConfig};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig, Query};
use std::time::Duration;

/// Builds a (client, single server) pair for a table of `n` rows whose
/// values are derived from `salt`, so the two tables hold different data.
fn fixture(name: &str, n: usize, salt: u64) -> (SeabedClient, SeabedServer, PlainDataset) {
    let dataset = PlainDataset::new(name)
        .with_text_column("dept", (0..n).map(|i| format!("d{}", (i as u64 + salt) % 4)).collect())
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13 + salt * 7) % 900).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7919 + salt) % 5_000).collect());
    let columns = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
    ];
    let samples: Vec<Query> = [
        format!("SELECT SUM(revenue) FROM {name} WHERE dept = 'd1'"),
        format!("SELECT SUM(revenue) FROM {name} WHERE ts >= 3"),
        format!("SELECT dept, SUM(revenue) FROM {name} GROUP BY dept"),
    ]
    .iter()
    .map(|sql| parse(sql).expect("sample"))
    .collect();
    let mut client = SeabedClient::create_plan(name.as_bytes(), &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 9, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

struct TwoTableCluster {
    workers: Vec<NetServer>,
    coordinator: DistCoordinator,
    sales: (SeabedClient, SeabedServer),
    ads: (SeabedClient, SeabedServer),
}

fn two_table_cluster(workers: usize) -> TwoTableCluster {
    let (sales_client, sales_server, _) = fixture("sales", 2_000, 1);
    let (ads_client, ads_server, _) = fixture("ads", 1_400, 1_000_003);
    let services: Vec<NetServer> = (0..workers)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = services.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![
            ("sales".to_string(), sales_server.table().clone()),
            ("ads".to_string(), ads_server.table().clone()),
        ],
        DistConfig::default(),
    )
    .expect("coordinator must connect");
    TwoTableCluster {
        workers: services,
        coordinator,
        sales: (sales_client, sales_server),
        ads: (ads_client, ads_server),
    }
}

/// Prepared execution through the shared coordinator must be byte-identical
/// to the same statement against the table's own single server.
fn assert_identical(
    table: &str,
    client: &SeabedClient,
    single: &SeabedServer,
    coordinator: &DistCoordinator,
    sql: &str,
    params: &[Literal],
) {
    let via_single = SeabedSession::single(table, client.clone(), single);
    let via_dist = SeabedSession::single(table, client.clone(), coordinator);
    let p1 = via_single.prepare(sql).expect("prepare single");
    let p2 = via_dist.prepare(sql).expect("prepare dist");
    let (_, r1) = via_single.execute_encrypted(&p1, params).expect("single execute");
    let (_, r2) = via_dist.execute_encrypted(&p2, params).expect("dist execute");
    assert_eq!(r1.groups, r2.groups, "{table}: {sql}");
    assert_eq!(r1.result_bytes(), r2.result_bytes(), "{table}: {sql}");
}

#[test]
fn one_pool_serves_two_tables_byte_identically() {
    let cluster = two_table_cluster(3);
    let coordinator = &cluster.coordinator;
    assert_eq!(coordinator.table_names(), vec!["sales".to_string(), "ads".to_string()]);
    assert!(coordinator.num_shards() >= 2, "both tables must be sharded");

    for (sql, params) in [
        ("SELECT SUM(revenue) FROM sales", vec![]),
        (
            "SELECT SUM(revenue) FROM sales WHERE ts >= ?",
            vec![Literal::Integer(2_500)],
        ),
        ("SELECT dept, SUM(revenue) FROM sales GROUP BY dept", vec![]),
    ] {
        assert_identical("sales", &cluster.sales.0, &cluster.sales.1, coordinator, sql, &params);
    }
    for (sql, params) in [
        ("SELECT SUM(revenue) FROM ads", vec![]),
        (
            "SELECT SUM(revenue) FROM ads WHERE dept = ?",
            vec![Literal::Text("d3".to_string())],
        ),
        ("SELECT dept, SUM(revenue) FROM ads GROUP BY dept", vec![]),
    ] {
        assert_identical("ads", &cluster.ads.0, &cluster.ads.1, coordinator, sql, &params);
    }

    // Every worker holds shards, and shards of both tables are spread over
    // the pool (not all of one table piled on one worker).
    let summaries = coordinator.worker_summaries();
    assert!(
        summaries.iter().all(|s| s.alive && !s.shards.is_empty()),
        "{summaries:?}"
    );
    let tables_seen: std::collections::HashSet<u32> = summaries
        .iter()
        .flat_map(|s| s.shards.iter().map(|&(t, _)| t))
        .collect();
    assert_eq!(tables_seen.len(), 2, "{summaries:?}");

    for w in cluster.workers {
        w.shutdown();
    }
}

/// Concurrent sessions over both tables through the one coordinator: every
/// thread's results must match that table's single-server reference.
#[test]
fn concurrent_cross_table_queries_are_isolated() {
    let cluster = two_table_cluster(3);
    let coordinator = &cluster.coordinator;

    // Reference decrypted rows per table.
    let reference = |table: &str, client: &SeabedClient, server: &SeabedServer| {
        let session = SeabedSession::single(table, client.clone(), server);
        session
            .query(&format!("SELECT dept, SUM(revenue) FROM {table} GROUP BY dept"), &[])
            .expect("reference query")
            .rows
    };
    let sales_rows = reference("sales", &cluster.sales.0, &cluster.sales.1);
    let ads_rows = reference("ads", &cluster.ads.0, &cluster.ads.1);
    assert_ne!(sales_rows, ads_rows, "the two tenants must hold different data");

    std::thread::scope(|scope| {
        for round in 0..3 {
            let sales_rows = &sales_rows;
            let ads_rows = &ads_rows;
            let sales_client = &cluster.sales.0;
            let ads_client = &cluster.ads.0;
            scope.spawn(move || {
                let session = SeabedSession::single("sales", sales_client.clone(), coordinator);
                let prepared = session
                    .prepare("SELECT dept, SUM(revenue) FROM sales GROUP BY dept")
                    .expect("prepare");
                for _ in 0..=round {
                    let rows = session.execute(&prepared, &[]).expect("sales execute").rows;
                    assert_eq!(&rows, sales_rows);
                }
            });
            scope.spawn(move || {
                let session = SeabedSession::single("ads", ads_client.clone(), coordinator);
                let prepared = session
                    .prepare("SELECT dept, SUM(revenue) FROM ads GROUP BY dept")
                    .expect("prepare");
                for _ in 0..=round {
                    let rows = session.execute(&prepared, &[]).expect("ads execute").rows;
                    assert_eq!(&rows, ads_rows);
                }
            });
        }
    });

    for w in cluster.workers {
        w.shutdown();
    }
}

/// A multi-table session over the coordinator: one catalog holding both
/// tenants' keys, queries routed by `FROM`, unknown tables rejected before
/// anything is scattered.
#[test]
fn multi_table_session_routes_and_rejects() {
    let cluster = two_table_cluster(2);
    let coordinator = &cluster.coordinator;
    let catalog = Catalog::new()
        .with_table("sales", cluster.sales.0.clone())
        .with_table("ads", cluster.ads.0.clone());
    let session = SeabedSession::new(catalog, coordinator);

    let sales_total = session.query("SELECT SUM(revenue) FROM sales", &[]).expect("sales");
    let ads_total = session.query("SELECT SUM(revenue) FROM ads", &[]).expect("ads");
    assert_ne!(sales_total.rows, ads_total.rows);

    // Unknown table: typed Schema error at prepare, from the catalog; the
    // coordinator independently enforces the same rule.
    assert!(matches!(
        session.prepare("SELECT SUM(revenue) FROM ghosts"),
        Err(SeabedError::Schema(SchemaError::UnknownTable(_)))
    ));
    use seabed_core::QueryTarget;
    assert!(matches!(
        coordinator.schema_of("ghosts"),
        Err(SeabedError::Schema(SchemaError::UnknownTable(_)))
    ));

    for w in cluster.workers {
        w.shutdown();
    }
}

/// Registering the same table name twice is rejected up front.
#[test]
fn duplicate_table_names_are_rejected() {
    let (_, server, _) = fixture("sales", 200, 1);
    let worker = spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker");
    let outcome = DistCoordinator::connect_tables(
        &[worker.local_addr()],
        vec![
            ("sales".to_string(), server.table().clone()),
            ("sales".to_string(), server.table().clone()),
        ],
        DistConfig::default(),
    );
    assert!(
        matches!(&outcome, Err(SeabedError::Dist { message, .. }) if message.contains("twice")),
        "{:?}",
        outcome.err()
    );
    worker.shutdown();
}

/// Two tables on two workers: the placement rotation puts `sales`' shard 0
/// on worker 0 and `ads`' shard 0 on worker 1, so their scatters meet the two
/// links in opposite shard order. A scatter holds the links of a round at
/// once, which would deadlock two such queries unless every scatter locks
/// its links in worker order. The cache is off, so every execute scatters; a
/// watchdog ends the binary after 60 s rather than let a deadlock hang it.
#[test]
fn opposite_primaries_under_concurrent_cold_queries_never_deadlock() {
    const EXECUTES: usize = 200;
    let (sales_client, sales_server, _) = fixture("sales", 2_000, 1);
    let (ads_client, ads_server, _) = fixture("ads", 1_400, 1_000_003);
    let services: Vec<NetServer> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = services.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![
            ("sales".to_string(), sales_server.table().clone()),
            ("ads".to_string(), ads_server.table().clone()),
        ],
        DistConfig::default().partial_cache_capacity(0),
    )
    .expect("coordinator must connect");

    let tenants = [
        ("sales", &sales_client, &sales_server),
        ("ads", &ads_client, &ads_server),
    ];
    let mut expected = Vec::new();
    for (first_worker, (table, client, server)) in tenants.iter().enumerate() {
        let sql = format!("SELECT dept, SUM(revenue) FROM {table} GROUP BY dept");
        let reference = SeabedSession::single(*table, (*client).clone(), *server);
        let rows = reference.query(&sql, &[]).expect("reference query").rows;
        let via_dist = SeabedSession::single(*table, (*client).clone(), &coordinator);
        assert_eq!(via_dist.query(&sql, &[]).expect("dist query").rows, rows);
        let mut runs = coordinator.last_report().runs;
        runs.sort_by_key(|run| run.shard);
        let primaries: Vec<String> = runs.iter().map(|run| run.worker.clone()).collect();
        let rotated = [first_worker, 1 - first_worker].map(|w| addrs[w].to_string());
        assert_eq!(primaries, rotated, "{table}: the placement rotation moved");
        expected.push((sql, rows));
    }

    let (done, finished) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            eprintln!("opposite_primaries_under_concurrent_cold_queries_never_deadlock: no progress in 60 s");
            std::process::exit(1);
        }
    });
    let start = std::sync::Barrier::new(tenants.len());
    std::thread::scope(|scope| {
        for ((table, client, _), (sql, rows)) in tenants.iter().zip(&expected) {
            let (coordinator, start) = (&coordinator, &start);
            scope.spawn(move || {
                let session = SeabedSession::single(*table, (*client).clone(), coordinator);
                let prepared = session.prepare(sql).expect("prepare");
                start.wait();
                for _ in 0..EXECUTES {
                    assert_eq!(&session.execute(&prepared, &[]).expect("execute").rows, rows, "{table}");
                }
            });
        }
    });
    drop(done);
    watchdog.join().expect("watchdog");
    assert_eq!(coordinator.cache_len(), 0, "every execute scattered");
    for w in services {
        w.shutdown();
    }
}
