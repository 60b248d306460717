//! Distributed ≡ single-server equivalence.
//!
//! Every query here runs twice: in-process against one `SeabedServer`, and
//! through a `DistCoordinator` scattering shards over real `seabed-net`
//! workers on loopback sockets. The *encrypted* responses must be
//! byte-identical — group keys, ASHE sums, exact encoded ID lists, MIN/MAX
//! winners, result-byte accounting — and the decrypted rows must match, on
//! the sales fixture, the Ad-Analytics workload and the BDB tables.

use seabed_core::{
    PlainDataset, PreparedQuery, QueryTarget, ResultValue, SeabedClient, SeabedServer, SeabedSession, ServerResponse,
};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig, ExecMode, Table};
use seabed_error::SeabedError;
use seabed_net::{NetServer, ServiceConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig, Query};
use seabed_workloads::{ad_analytics, bdb};
use std::sync::Arc;

/// Stands up `n` workers plus a coordinator hosting `table` as `name`.
fn cluster_of(n: usize, name: &str, table: Table) -> (Vec<NetServer>, DistCoordinator) {
    cluster_with(n, name, table, DistConfig::default())
}

fn cluster_with(n: usize, name: &str, table: Table, config: DistConfig) -> (Vec<NetServer>, DistCoordinator) {
    let workers: Vec<NetServer> = (0..n)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator =
        DistCoordinator::connect_tables(&addrs, vec![(name.into(), table)], config).expect("coordinator must connect");
    (workers, coordinator)
}

/// `sql` through a one-table session over `target`, up to and including the
/// execution: the prepared statement and the still-encrypted response.
fn run_encrypted(
    client: &SeabedClient,
    target: &impl QueryTarget,
    sql: &str,
) -> Result<(Arc<PreparedQuery>, ServerResponse), SeabedError> {
    let table = parse(sql)?.from.base_table().to_string();
    let session = SeabedSession::single(table, client.clone(), target);
    let prepared = session.prepare(sql)?;
    let (_, response) = session.execute_encrypted(&prepared, &[])?;
    Ok((prepared, response))
}

fn decrypted(client: &SeabedClient, prepared: &PreparedQuery, response: ServerResponse) -> Vec<Vec<ResultValue>> {
    client
        .decrypt_response(prepared.query(), prepared.translated(), response)
        .expect("decrypt")
        .rows
}

/// Runs `sql` against both targets and asserts encrypted responses and
/// decrypted rows are identical.
fn assert_equivalent(client: &SeabedClient, server: &SeabedServer, coordinator: &DistCoordinator, sql: &str) {
    let (prepared, local) = match run_encrypted(client, server, sql) {
        Ok(executed) => executed,
        Err(local_err) => {
            // A query the engine rejects (e.g. a non-u64 group key) must be
            // rejected identically by the distributed path — as the same
            // typed error, not a panic or a divergent answer.
            let dist_err = run_encrypted(client, coordinator, sql)
                .map(|_| ())
                .expect_err("local rejected the query; dist must too");
            assert_eq!(local_err, dist_err, "error divergence for {sql}");
            return;
        }
    };
    let (_, dist) = run_encrypted(client, coordinator, sql).expect("dist execute");
    assert_eq!(local.groups, dist.groups, "encrypted groups diverged for {sql}");
    assert_eq!(
        local.result_bytes(),
        dist.result_bytes(),
        "result bytes diverged for {sql}"
    );
    assert_eq!(
        decrypted(client, &prepared, local),
        decrypted(client, &prepared, dist),
        "decrypted rows diverged for {sql}"
    );
}

fn sales_fixture() -> (SeabedClient, SeabedServer, PlainDataset) {
    let n = 3_000usize;
    let countries = ["USA", "USA", "Canada", "India", "USA", "Canada", "Chile", "India"];
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7919) % 10_000).collect())
        .with_text_column("dept", (0..n).map(|i| format!("d{}", i % 5)).collect());
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").expect("column exists")),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("dept"),
    ];
    let samples: Vec<Query> = [
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT MIN(ts) FROM sales",
        "SELECT AVG(revenue) FROM sales",
    ]
    .iter()
    .map(|sql| parse(sql).expect("sample"))
    .collect();
    let mut client = SeabedClient::create_plan(b"dist-eq", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 12, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

#[test]
fn sales_fixture_is_byte_identical_across_three_workers() {
    let (client, server, _) = sales_fixture();
    let (workers, coordinator) = cluster_of(3, "sales", server.table().clone());
    for sql in [
        "SELECT SUM(revenue) FROM sales",
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE country = 'India'",
        "SELECT COUNT(*) FROM sales WHERE ts < 4000",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 6000",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT MIN(ts) FROM sales",
        "SELECT MAX(ts) FROM sales",
        "SELECT AVG(revenue) FROM sales",
    ] {
        assert_equivalent(&client, &server, &coordinator, sql);
    }
    // The scatter really spread work: every worker answered shard queries.
    let summaries = coordinator.worker_summaries();
    assert_eq!(summaries.len(), 3);
    assert!(summaries.iter().all(|s| s.alive && s.queries > 0), "{summaries:?}");
    for w in workers {
        w.shutdown();
    }
}

const FAN_OUT_QUERIES: [&str; 6] = [
    "SELECT SUM(revenue) FROM sales",
    "SELECT SUM(revenue) FROM sales WHERE country = 'India'",
    "SELECT COUNT(*) FROM sales WHERE ts < 4000",
    "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
    "SELECT MAX(ts) FROM sales",
    "SELECT SUM(revenue) FROM sales WHERE ts >= 20000",
];

/// The fan-out rule only decides which thread runs a lane: with one, two or
/// three lanes (one per worker) the scatter — the caller's thread plus a
/// helper per further lane — answers byte-for-byte what the single server
/// does.
#[test]
fn scatter_is_byte_identical_at_one_two_and_three_lanes() {
    let (client, server, _) = sales_fixture();
    for lanes in 1..=3 {
        let (workers, coordinator) = cluster_of(lanes, "sales", server.table().clone());
        for sql in FAN_OUT_QUERIES {
            assert_equivalent(&client, &server, &coordinator, sql);
        }
        assert!(coordinator.worker_summaries().iter().all(|s| s.alive && s.queries > 0));
        for w in workers {
            w.shutdown();
        }
    }
}

/// `SeabedServer::execute` answers the same bytes whether its scan runs on
/// the calling thread alone (`local_threads = 1`) or fans out to helpers, in
/// both execution modes — and accounts the same bytes to the driver.
#[test]
fn server_responses_do_not_depend_on_local_threads() {
    let (client, server, _) = sales_fixture();
    for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
        let with_threads = |threads: usize| {
            let config = ClusterConfig::default().local_threads(threads).exec_mode(mode);
            SeabedServer::new(server.table().clone(), Cluster::new(config))
        };
        let on_the_caller = with_threads(1);
        for threads in [2, 4] {
            let fanned_out = with_threads(threads);
            for sql in FAN_OUT_QUERIES {
                let (_, a) = run_encrypted(&client, &on_the_caller, sql).expect("one thread");
                let (_, b) = run_encrypted(&client, &fanned_out, sql).expect("several threads");
                assert_eq!(a.groups, b.groups, "{mode:?} x{threads}: groups diverged for {sql}");
                assert_eq!(a.result_bytes(), b.result_bytes(), "{mode:?} x{threads}: {sql}");
            }
        }
    }
}

/// With the hedge trigger forced to zero, *every* shard query abandons its
/// primary immediately and is answered by a replica — the most hostile
/// hedging schedule possible. The encrypted responses must still be
/// byte-identical to single-server execution on every query: hedge winners
/// merge exactly once and the abandoned primaries' late partials never leak
/// into any response.
#[test]
fn always_hedged_execution_is_byte_identical() {
    let (client, server, _) = sales_fixture();
    let config = DistConfig::default().hedge_after(std::time::Duration::ZERO);
    let (workers, coordinator) = cluster_with(3, "sales", server.table().clone(), config);
    let mut hedged_total = 0;
    for sql in [
        "SELECT SUM(revenue) FROM sales",
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT MIN(ts) FROM sales",
        "SELECT MAX(ts) FROM sales",
        "SELECT AVG(revenue) FROM sales",
    ] {
        assert_equivalent(&client, &server, &coordinator, sql);
        hedged_total += coordinator.last_report().hedged_reads;
    }
    assert!(hedged_total > 0, "a zero hedge trigger must actually hedge");
    // Hedging routes around slow primaries without condemning them.
    assert!(coordinator.worker_summaries().iter().all(|s| s.alive));
    for w in workers {
        w.shutdown();
    }
}

/// A group-by through the coordinator: each group's shard partials merge into
/// the single server's group, exact ID set included, and the decrypted
/// per-dept sums match a plaintext evaluation.
#[test]
fn grouped_sums_are_byte_identical_and_match_plaintext() {
    let (client, server, dataset) = sales_fixture();
    let (workers, coordinator) = cluster_of(2, "sales", server.table().clone());
    let sql = "SELECT dept, SUM(revenue) FROM sales GROUP BY dept";
    let (prepared, local) = run_encrypted(&client, &server, sql).expect("local");
    let (_, dist) = run_encrypted(&client, &coordinator, sql).expect("dist");
    assert_eq!(local.groups, dist.groups);

    // And the decrypted per-dept sums match a plaintext evaluation.
    let rows = decrypted(&client, &prepared, dist);
    let dept = dataset.column("dept").expect("dept");
    let revenue = dataset.column("revenue").expect("revenue");
    for row in rows {
        let ResultValue::Text(key) = &row[0] else {
            panic!("expected a decrypted dept key, got {row:?}");
        };
        let expected: u64 = (0..dataset.num_rows())
            .filter(|&i| dept.text_at(i) == key.as_str())
            .map(|i| revenue.u64_at(i).unwrap_or_default())
            .sum();
        assert_eq!(row[1], ResultValue::UInt(expected), "dept {key}");
    }
    for w in workers {
        w.shutdown();
    }
}

/// MIN/MAX per group: the coordinator merges each group's shard winners
/// into the single server's, and through both the decrypted rows equal a
/// plaintext evaluation.
#[test]
fn grouped_min_max_decrypt_to_the_plaintext_extremes() {
    let (client, server, dataset) = sales_fixture();
    let (workers, coordinator) = cluster_of(2, "sales", server.table().clone());
    let sql = "SELECT dept, MIN(ts), SUM(revenue), MAX(ts) FROM sales GROUP BY dept";
    let (prepared, local) = run_encrypted(&client, &server, sql).expect("local");
    let (_, dist) = run_encrypted(&client, &coordinator, sql).expect("dist");
    assert_eq!(local.groups, dist.groups);

    let (dept, ts, revenue) = (
        dataset.column("dept").expect("dept"),
        dataset.column("ts").expect("ts"),
        dataset.column("revenue").expect("revenue"),
    );
    for response in [local, dist] {
        let rows = decrypted(&client, &prepared, response);
        assert_eq!(rows.len(), 5);
        for row in rows {
            let ResultValue::Text(key) = &row[0] else {
                panic!("expected a decrypted dept key, got {row:?}");
            };
            let of_dept = |column: &seabed_core::PlainColumn| -> Vec<u64> {
                (0..dataset.num_rows())
                    .filter(|&i| dept.text_at(i) == key.as_str())
                    .map(|i| column.u64_at(i).unwrap_or_default())
                    .collect()
            };
            let expected = [
                of_dept(ts).into_iter().min().unwrap_or_default(),
                of_dept(revenue).into_iter().sum(),
                of_dept(ts).into_iter().max().unwrap_or_default(),
            ];
            assert_eq!(row[1..], expected.map(ResultValue::UInt), "dept {key}");
        }
    }
    for w in workers {
        w.shutdown();
    }
}

/// A session works unchanged over the coordinator (`QueryTarget`), end to end
/// through real encryption.
#[test]
fn seabed_client_targets_the_coordinator_directly() {
    let (client, server, dataset) = sales_fixture();
    let (workers, coordinator) = cluster_of(2, "sales", server.table().clone());

    let revenue = dataset.column("revenue").expect("revenue");
    let expected: u64 = (0..dataset.num_rows())
        .map(|i| revenue.u64_at(i).unwrap_or_default())
        .sum();
    // Same call shape as against an in-process server.
    let result = SeabedSession::single("sales", client, &coordinator)
        .query("SELECT SUM(revenue) FROM sales", &[])
        .expect("query via coordinator");
    assert_eq!(result.rows, vec![vec![ResultValue::UInt(expected)]]);
    // The server's time is the coordinator's measured scatter and gather,
    // the gather included.
    let gather_time = coordinator.last_report().gather_time;
    assert!(gather_time > std::time::Duration::ZERO);
    assert!(result.server_stats.wall_time > gather_time);
    assert_eq!(coordinator.schema_of("sales"), Ok(&server.table().schema));
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn ad_analytics_workload_is_byte_identical() {
    let mut rng = rand::rng();
    let dataset = ad_analytics::generate(&mut rng, 3_000);
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
    let mut client = SeabedClient::create_plan(b"dist-ada", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rng);
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let (workers, coordinator) = cluster_of(4, "ad_analytics", encrypted.table.clone());
    for q in queries.iter().take(6) {
        assert_equivalent(&client, &server, &coordinator, &q.sql);
    }
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn bdb_workload_is_byte_identical() {
    let mut rng = rand::rng();
    let tables = bdb::generate(&mut rng, 1_500, 2_500);
    for (dataset, sensitive) in [
        (&tables.rankings, vec!["pageRank", "avgDuration"]),
        (
            &tables.uservisits,
            vec!["adRevenue", "duration", "visitDate", "ipPrefix"],
        ),
    ] {
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
        let samples: Vec<Query> = bdb::queries()
            .iter()
            .filter(|q| dataset.name == q.table)
            .map(|q| parse(&q.sql).expect("sample"))
            .collect();
        let mut client = SeabedClient::create_plan(b"dist-bdb", &specs, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(dataset, 6, &mut rng);
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
        let (workers, coordinator) = cluster_of(2, &dataset.name, encrypted.table.clone());
        for q in bdb::queries().iter().filter(|q| q.table == dataset.name) {
            // Scan queries (Q1*) have no aggregate; approximate as COUNT as
            // the bench harness does.
            let sql = if q.name.starts_with("Q1") {
                q.sql.replace("SELECT pageURL, pageRank", "SELECT COUNT(*)")
            } else {
                q.sql.clone()
            };
            if SeabedSession::single(&dataset.name, client.clone(), &server)
                .prepare(&sql)
                .is_err()
            {
                continue; // unsupported under this plan, same on both paths
            }
            assert_equivalent(&client, &server, &coordinator, &sql);
        }
        for w in workers {
            w.shutdown();
        }
    }
}
