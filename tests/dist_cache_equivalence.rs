//! Warm partial-cache executions ≡ cold scatter/gather, byte for byte.
//!
//! The coordinator's statement-keyed partial cache is a pure throughput
//! device: a repeated prepared execute may skip the scatter for shards whose
//! partials are cached, but the merged encrypted response — group keys, ASHE
//! sums, exact encoded ID lists, result-byte accounting — must be identical
//! to what a cold scatter/gather produces. This file pins that on the sales
//! fixture, the Ad-Analytics workload and the BDB `rankings` table: a
//! cache-disabled coordinator (capacity 0) provides the cold reference, a
//! default coordinator answers the same statements warm, and every warm
//! response (and its decryption) must match. Cache keying by bound-filter
//! hash is exercised by re-binding different literals.

use seabed_core::{SeabedClient, SeabedSession, ServerResponse};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::Table;
use seabed_net::{NetServer, ServiceConfig};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig, Query};
use seabed_workloads::{ad_analytics, bdb};
use std::net::SocketAddr;

/// One statement to compare: parameterized SQL plus its bindings.
struct Case {
    sql: &'static str,
    params: Vec<Literal>,
}

fn case(sql: &'static str, params: Vec<Literal>) -> Case {
    Case { sql, params }
}

/// Two real workers for one coordinator. A worker only hosts one coordinator
/// generation at a time (the epoch handshake evicts prior shards), so each
/// coordinator in this file gets a fresh pair.
fn spawn_pair() -> (Vec<NetServer>, Vec<SocketAddr>) {
    let workers: Vec<NetServer> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs = workers.iter().map(|w| w.local_addr()).collect();
    (workers, addrs)
}

/// For every case: runs it through a cache-disabled coordinator (the cold
/// scatter/gather reference), then through a caching coordinator — once cold
/// to populate, then repeatedly warm — asserting byte-identical encrypted
/// responses, identical decrypted rows, and that the warm executes really
/// were answered from the cache.
fn assert_warm_equals_cold(table_name: &str, client: &SeabedClient, table: &Table, cases: &[Case]) {
    // Cold reference: capacity 0 disables the cache entirely.
    let (workers, addrs) = spawn_pair();
    let cold = DistCoordinator::connect_tables(
        &addrs,
        vec![(table_name.into(), table.clone())],
        DistConfig::default().partial_cache_capacity(0),
    )
    .expect("cold coordinator");
    let mut references: Vec<(ServerResponse, Vec<Vec<seabed_core::ResultValue>>)> = Vec::new();
    {
        let session = SeabedSession::single(table_name, client.clone(), &cold);
        for c in cases {
            let prepared = session
                .prepare(c.sql)
                .unwrap_or_else(|e| panic!("cold prepare {}: {e}", c.sql));
            let (bound, response) = session
                .execute_encrypted(&prepared, &c.params)
                .unwrap_or_else(|e| panic!("cold execute {}: {e}", c.sql));
            let report = cold.last_report();
            assert_eq!(report.cache_hits, 0, "capacity 0 must never hit: {}", c.sql);
            let rows = client
                .decrypt_response(prepared.query(), &bound, response.clone())
                .unwrap_or_else(|e| panic!("cold decrypt {}: {e}", c.sql))
                .rows;
            references.push((response, rows));
        }
    }
    assert_eq!(cold.cache_len(), 0, "capacity 0 must not retain partials");
    drop(cold);
    for w in workers {
        w.shutdown();
    }

    // Warm side: default config, cache enabled.
    let (workers, addrs) = spawn_pair();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![(table_name.into(), table.clone())], DistConfig::default())
            .expect("warm coordinator");
    let session = SeabedSession::single(table_name, client.clone(), &coordinator);
    for (c, (cold_response, cold_rows)) in cases.iter().zip(&references) {
        let prepared = session
            .prepare(c.sql)
            .unwrap_or_else(|e| panic!("prepare {}: {e}", c.sql));

        // First execute: a cold miss on every shard, populating the cache.
        let (_, first) = session
            .execute_encrypted(&prepared, &c.params)
            .unwrap_or_else(|e| panic!("populate execute {}: {e}", c.sql));
        let report = coordinator.last_report();
        assert_eq!(report.cache_hits, 0, "first execute must be cold: {}", c.sql);
        assert!(report.cache_misses > 0, "first execute must record misses: {}", c.sql);
        assert_eq!(first.groups, cold_response.groups, "cold populate diverged: {}", c.sql);
        assert_eq!(first.result_bytes(), cold_response.result_bytes(), "{}", c.sql);

        // Warm executes: answered from cached partials, byte-identical.
        for round in 0..3 {
            let (bound, warm) = session
                .execute_encrypted(&prepared, &c.params)
                .unwrap_or_else(|e| panic!("warm execute {}: {e}", c.sql));
            let report = coordinator.last_report();
            assert!(
                report.cache_hits > 0,
                "warm round {round} must hit the cache: {} ({report:?})",
                c.sql
            );
            assert_eq!(
                report.cache_misses, 0,
                "warm round {round} must not miss: {} ({report:?})",
                c.sql
            );
            assert_eq!(
                warm.groups, cold_response.groups,
                "warm round {round} groups diverged from cold scatter/gather: {}",
                c.sql
            );
            assert_eq!(
                warm.result_bytes(),
                cold_response.result_bytes(),
                "warm round {round} result bytes diverged: {}",
                c.sql
            );
            let rows = client
                .decrypt_response(prepared.query(), &bound, warm)
                .unwrap_or_else(|e| panic!("warm decrypt {}: {e}", c.sql))
                .rows;
            assert_eq!(
                &rows, cold_rows,
                "warm round {round} decrypted rows diverged: {}",
                c.sql
            );
        }

        // An analyzed execute of the warm statement neither probes nor fills
        // the cache: every shard runs and reports its operators.
        let before = coordinator.cache_stats();
        let explanation = session
            .explain(&format!("EXPLAIN ANALYZE {}", c.sql), &c.params)
            .unwrap_or_else(|e| panic!("explain analyze {}: {e}", c.sql));
        assert_eq!(
            coordinator.cache_stats(),
            before,
            "an analyzed execute touched the cache: {}",
            c.sql
        );
        let report = coordinator.last_report();
        assert_eq!((report.cache_hits, report.cache_misses), (0, 0), "{}", c.sql);
        assert_eq!(report.runs.len(), coordinator.num_shards(), "{}", c.sql);
        assert_eq!(&explanation.result.as_ref().expect("rows").rows, cold_rows, "{}", c.sql);
        assert!(explanation.render().contains(", 0 cached"), "{}", explanation.render());
        // ... and the next plain execute still answers from the cache, with
        // no operator rows: nothing ran.
        let (_, warm) = session
            .execute_encrypted(&prepared, &c.params)
            .unwrap_or_else(|e| panic!("warm execute after analyze {}: {e}", c.sql));
        let report = coordinator.last_report();
        assert!(report.cache_hits > 0 && report.cache_misses == 0, "{report:?}");
        assert!(warm.stats.operators.is_empty(), "a cached answer carries no profile");
        assert_eq!(warm.groups, cold_response.groups, "{}", c.sql);
    }
    let stats = coordinator.cache_stats();
    assert!(
        stats.hits > 0 && stats.insertions > 0,
        "cache must have been used: {stats:?}"
    );
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}

fn sales_fixture() -> (SeabedClient, Table) {
    use seabed_core::PlainDataset;
    let n = 2_400usize;
    let dataset = PlainDataset::new("sales")
        .with_text_column("dept", (0..n).map(|i| format!("d{}", i % 5)).collect())
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7919) % 10_000).collect());
    let columns = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
    ];
    let samples: Vec<Query> = [
        "SELECT SUM(revenue) FROM sales WHERE dept = 'd1'",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT AVG(revenue) FROM sales",
    ]
    .iter()
    .map(|sql| parse(sql).expect("sample"))
    .collect();
    let mut client = SeabedClient::create_plan(b"cache-eq", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    (client, encrypted.table)
}

#[test]
fn sales_warm_cache_equals_cold_scatter() {
    let (client, table) = sales_fixture();
    let cases = vec![
        case(
            "SELECT SUM(revenue) FROM sales WHERE dept = ? AND ts >= ?",
            vec![Literal::Text("d2".to_string()), Literal::Integer(4_000)],
        ),
        case("SELECT COUNT(*) FROM sales WHERE ts < ?", vec![Literal::Integer(2_500)]),
        case("SELECT dept, SUM(revenue) FROM sales GROUP BY dept", vec![]),
        case(
            "SELECT AVG(revenue) FROM sales WHERE ts >= ?",
            vec![Literal::Integer(1_000)],
        ),
    ];
    assert_warm_equals_cold("sales", &client, &table, &cases);
}

/// Different bound literals are a different filter hash: the cache must not
/// answer a new binding from another binding's partials, and each binding's
/// entries stay independently warm.
#[test]
fn distinct_bindings_key_the_cache_independently() {
    let (client, table) = sales_fixture();
    let (workers, addrs) = spawn_pair();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![("sales".into(), table.clone())], DistConfig::default())
            .expect("coordinator");
    let session = SeabedSession::single("sales", client.clone(), &coordinator);
    let prepared = session
        .prepare("SELECT SUM(revenue) FROM sales WHERE dept = ?")
        .expect("prepare");

    let mut answers = Vec::new();
    for dept in ["d0", "d1", "d2"] {
        let (_, response) = session
            .execute_encrypted(&prepared, &[Literal::Text(dept.to_string())])
            .expect("cold execute");
        assert_eq!(
            coordinator.last_report().cache_hits,
            0,
            "first sight of binding {dept} must miss"
        );
        answers.push(response);
    }
    // Re-binding in a different order: every execute is warm now, and each
    // binding still gets its own answer.
    for (original, dept) in [(2usize, "d2"), (0, "d0"), (1, "d1")] {
        let (_, response) = session
            .execute_encrypted(&prepared, &[Literal::Text(dept.to_string())])
            .expect("warm execute");
        let report = coordinator.last_report();
        assert!(report.cache_hits > 0 && report.cache_misses == 0, "{report:?}");
        assert_eq!(
            response.groups, answers[original].groups,
            "binding {dept} crossed cache keys"
        );
    }
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn ad_analytics_warm_cache_equals_cold_scatter() {
    let mut rng = rand::rng();
    let dataset = ad_analytics::generate(&mut rng, 2_500);
    let queries = ad_analytics::performance_query_set(&mut rng);
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
    let samples: Vec<Query> = queries.iter().map(|q| parse(&q.sql).expect("sample")).collect();
    let mut client = SeabedClient::create_plan(b"cache-ada", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 6, &mut rng);
    let cases = vec![
        case(
            "SELECT hour, SUM(measure00) FROM ad_analytics WHERE hour >= ? AND hour < ? GROUP BY hour",
            vec![Literal::Integer(6), Literal::Integer(14)],
        ),
        case(
            "SELECT SUM(measure01) FROM ad_analytics WHERE hour = ?",
            vec![Literal::Integer(3)],
        ),
    ];
    assert_warm_equals_cold("ad_analytics", &client, &encrypted.table, &cases);
}

#[test]
fn bdb_warm_cache_equals_cold_scatter() {
    let mut rng = rand::rng();
    let tables = bdb::generate(&mut rng, 1_200, 2_000);
    let dataset = &tables.rankings;
    let specs: Vec<ColumnSpec> = dataset
        .columns
        .iter()
        .map(|(n, _)| {
            if ["pageRank", "avgDuration"].contains(&n.as_str()) {
                ColumnSpec::sensitive(n)
            } else {
                ColumnSpec::public(n)
            }
        })
        .collect();
    let samples: Vec<Query> = bdb::queries()
        .iter()
        .filter(|q| q.table == "rankings")
        .map(|q| parse(&q.sql).expect("sample"))
        .collect();
    let mut client = SeabedClient::create_plan(b"cache-bdb", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(dataset, 6, &mut rng);
    let cases = vec![
        case(
            "SELECT SUM(avgDuration) FROM rankings WHERE pageRank > ?",
            vec![Literal::Integer(100)],
        ),
        case(
            "SELECT COUNT(*) FROM rankings WHERE pageRank > ?",
            vec![Literal::Integer(500)],
        ),
    ];
    assert_warm_equals_cold("rankings", &client, &encrypted.table, &cases);
}

/// The partial cache's counters have one home, the coordinator's registry:
/// `cache_stats()` equals its `dist_cache_*` counters, field by field,
/// through a hit, an eviction (capacity 1), and a miss that fails once every
/// worker is gone and fences the cache. A probe counts when it happens, so a
/// query that then fails still counts its misses, and a scrape shows the
/// evictions and invalidations.
#[test]
fn cache_counters_have_one_home_in_the_registry() {
    let (client, table) = sales_fixture();
    let (workers, addrs) = spawn_pair();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), table)],
        DistConfig::default().partial_cache_capacity(1),
    )
    .expect("coordinator");
    assert_eq!(coordinator.num_shards(), 2);
    let session = SeabedSession::single("sales", client, &coordinator);
    let prepared = session
        .prepare("SELECT SUM(revenue) FROM sales WHERE dept = ?")
        .expect("prepare");
    let bind = |dept: &str| [Literal::Text(dept.to_string())];

    // Cold: two misses, two insertions, the first evicted by the second.
    session.execute_encrypted(&prepared, &bind("d0")).expect("cold execute");
    // Warm: the one resident shard hits, the other misses and is re-inserted.
    session.execute_encrypted(&prepared, &bind("d0")).expect("warm execute");
    let report = coordinator.last_report();
    assert_eq!((report.cache_hits, report.cache_misses), (1, 1), "{report:?}");
    // A new binding misses both shards, and with every worker gone the
    // scatter fails, fencing the one resident entry.
    for w in workers {
        w.shutdown();
    }
    let failed = session.execute_encrypted(&prepared, &bind("d1"));
    assert!(failed.is_err(), "no worker is left to answer: {failed:?}");

    let stats = coordinator.cache_stats();
    let snapshot = coordinator.registry().snapshot();
    for (field, value, counter) in [
        ("hits", stats.hits, "dist_cache_hits"),
        ("misses", stats.misses, "dist_cache_misses"),
        ("insertions", stats.insertions, "dist_cache_insertions"),
        ("evictions", stats.evictions, "dist_cache_evictions"),
        ("invalidated", stats.invalidated, "dist_cache_invalidated"),
    ] {
        assert_eq!(
            snapshot.counter(counter),
            Some(value),
            "cache_stats().{field} disagrees with the registry's {counter}"
        );
    }
    let counted = (
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.evictions,
        stats.invalidated,
    );
    assert_eq!(counted, (1, 5, 3, 2, 1), "{stats:?}");
}
