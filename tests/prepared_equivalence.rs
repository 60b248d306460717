//! Bound ≡ inline equivalence, across all three execution targets.
//!
//! Every query here runs twice per target through one [`SeabedSession`]: once
//! as a statement with its literals inline in the SQL (encrypted at prepare)
//! and once as a prepared statement with the literals bound as `?` parameters
//! at execute time (encrypted at bind, through the memo). The *encrypted*
//! responses must be byte-identical — group keys, ASHE
//! sums, exact encoded ID lists, result-byte accounting — and the decrypted
//! rows must match, on the sales fixture, the Ad-Analytics workload and the
//! BDB tables, against an in-process `SeabedServer`, a
//! `RemoteSeabedClient`/`NetServer` pair (where prepared executions ship
//! only the statement handle plus bound filters), and a `DistCoordinator`
//! over real workers. Group-by inflation is exercised explicitly.

use seabed_core::{Catalog, PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_net::{NetServer, RemoteSeabedClient, ServiceConfig};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig, Query};
use seabed_workloads::{ad_analytics, bdb};

/// One equivalence case: a parameterized statement, its bindings, and the
/// equivalent inline SQL.
struct Case {
    parameterized: &'static str,
    params: Vec<Literal>,
    inline: String,
}

fn case(parameterized: &'static str, params: Vec<Literal>, inline: impl Into<String>) -> Case {
    Case {
        parameterized,
        params,
        inline: inline.into(),
    }
}

/// Asserts that executing with bound parameters and executing the inline
/// statement produce byte-identical encrypted payloads and identical
/// decrypted rows on `target`.
fn assert_case(table: &str, client: &SeabedClient, target: &impl seabed_core::QueryTarget, case: &Case, label: &str) {
    let session = SeabedSession::single(table, client.clone(), target);
    let prepared = session
        .prepare(case.parameterized)
        .unwrap_or_else(|e| panic!("{label}: prepare {}: {e}", case.parameterized));
    let (bound, prepared_response) = session
        .execute_encrypted(&prepared, &case.params)
        .unwrap_or_else(|e| panic!("{label}: execute {}: {e}", case.parameterized));

    let inline = session
        .prepare(&case.inline)
        .unwrap_or_else(|e| panic!("{label}: inline prepare {}: {e}", case.inline));
    let (translated, one_shot) = session
        .execute_encrypted(&inline, &[])
        .unwrap_or_else(|e| panic!("{label}: inline execute {}: {e}", case.inline));

    // Byte-identical encrypted payload (stats carry measured wall times and
    // may differ).
    assert_eq!(
        prepared_response.groups, one_shot.groups,
        "{label}: encrypted groups diverged for {}",
        case.parameterized
    );
    assert_eq!(
        prepared_response.result_bytes(),
        one_shot.result_bytes(),
        "{label}: result bytes diverged for {}",
        case.parameterized
    );

    // The bound plan decrypts to the same rows the inline plan does.
    let prepared_rows = client
        .decrypt_response(prepared.query(), &bound, prepared_response)
        .unwrap_or_else(|e| panic!("{label}: decrypt prepared: {e}"))
        .rows;
    let one_shot_rows = client
        .decrypt_response(inline.query(), &translated, one_shot)
        .unwrap_or_else(|e| panic!("{label}: decrypt inline: {e}"))
        .rows;
    assert_eq!(
        prepared_rows, one_shot_rows,
        "{label}: decrypted rows diverged for {}",
        case.parameterized
    );

    // Re-executing the same prepared statement again is stable.
    let (_, again) = session
        .execute_encrypted(&prepared, &case.params)
        .unwrap_or_else(|e| panic!("{label}: re-execute: {e}"));
    assert_eq!(
        again.groups,
        session.execute_encrypted(&prepared, &case.params).unwrap().1.groups
    );
}

/// Runs every case against the three targets built over `server`'s table.
fn assert_cases_across_targets(table: &str, client: &SeabedClient, server: &SeabedServer, cases: &[Case]) {
    // Target 1: in-process SeabedServer.
    for case in cases {
        assert_case(table, client, server, case, "in-process");
    }

    // Target 2: RemoteSeabedClient over a NetServer (prepared executions go
    // out as statement handles + bound filters).
    let net = NetServer::serve(
        SeabedServer::new(server.table().clone(), Cluster::new(ClusterConfig::default())),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("net server must start");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("remote client must connect");
    for case in cases {
        assert_case(table, client, &remote, case, "remote");
    }
    let counters = net.shutdown();
    assert!(
        counters.counter("net_statements_prepared") > Some(0),
        "prepared executions must register statements on the wire"
    );

    // Target 3: DistCoordinator over two real workers.
    let workers: Vec<NetServer> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![(table.into(), server.table().clone())],
        DistConfig::default(),
    )
    .expect("coordinator");
    for case in cases {
        assert_case(table, client, &coordinator, case, "dist");
    }
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}

fn sales_fixture() -> (SeabedClient, SeabedServer, PlainDataset) {
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
        "SELECT MIN(ts) FROM sales",
        "SELECT AVG(revenue) FROM sales",
    ]
    .iter()
    .map(|sql| parse(sql).expect("sample"))
    .collect();
    let mut client = SeabedClient::create_plan(b"prep-eq", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, dataset)
}

#[test]
fn sales_fixture_prepared_equals_one_shot_on_all_targets() {
    let (client, server, _) = sales_fixture();
    let cases = vec![
        case(
            "SELECT SUM(revenue) FROM sales WHERE dept = ? AND ts >= ?",
            vec![Literal::Text("d2".to_string()), Literal::Integer(4_000)],
            "SELECT SUM(revenue) FROM sales WHERE dept = 'd2' AND ts >= 4000",
        ),
        case(
            "SELECT COUNT(*) FROM sales WHERE ts < ?",
            vec![Literal::Integer(2_500)],
            "SELECT COUNT(*) FROM sales WHERE ts < 2500",
        ),
        // Mixed inline + placeholder: the inline DET literal is encrypted
        // once at prepare (filter template), only the OPE literal per
        // execute.
        case(
            "SELECT SUM(revenue) FROM sales WHERE dept = 'd1' AND ts >= ?",
            vec![Literal::Integer(3_000)],
            "SELECT SUM(revenue) FROM sales WHERE dept = 'd1' AND ts >= 3000",
        ),
        case(
            "SELECT AVG(revenue) FROM sales WHERE ts >= ?",
            vec![Literal::Integer(1_000)],
            "SELECT AVG(revenue) FROM sales WHERE ts >= 1000",
        ),
        case("SELECT MIN(ts) FROM sales", vec![], "SELECT MIN(ts) FROM sales"),
        case(
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            vec![],
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        ),
    ];
    assert_cases_across_targets("sales", &client, &server, &cases);
}

/// Group inflation produces inflated (suffixed) group keys on the server;
/// prepared execution must keep the exact same inflated shape so the proxy's
/// de-inflation sees identical input.
#[test]
fn inflated_group_by_prepared_equals_one_shot() {
    let (mut client, server, _) = sales_fixture();
    client.translate_options.expected_groups = Some(1);
    // Confirm the fixture really inflates.
    let prepared = SeabedSession::single("sales", client.clone(), &server)
        .prepare("SELECT dept, SUM(revenue) FROM sales GROUP BY dept")
        .expect("prepare");
    assert!(prepared.translated().group_inflation > 1, "fixture must inflate groups");
    let cases = vec![
        case(
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            vec![],
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        ),
        case(
            "SELECT dept, SUM(revenue) FROM sales WHERE ts >= ? GROUP BY dept",
            vec![Literal::Integer(2_000)],
            "SELECT dept, SUM(revenue) FROM sales WHERE ts >= 2000 GROUP BY dept",
        ),
    ];
    assert_cases_across_targets("sales", &client, &server, &cases);
}

#[test]
fn ad_analytics_prepared_equals_one_shot_on_all_targets() {
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
    let mut client = SeabedClient::create_plan(b"prep-ada", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 6, &mut rng);
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    // The hourly aggregation with the window as bound parameters.
    let cases = vec![
        case(
            "SELECT hour, SUM(measure00) FROM ad_analytics WHERE hour >= ? AND hour < ? GROUP BY hour",
            vec![Literal::Integer(6), Literal::Integer(14)],
            "SELECT hour, SUM(measure00) FROM ad_analytics WHERE hour >= 6 AND hour < 14 GROUP BY hour",
        ),
        case(
            "SELECT SUM(measure01) FROM ad_analytics WHERE hour = ?",
            vec![Literal::Integer(3)],
            "SELECT SUM(measure01) FROM ad_analytics WHERE hour = 3",
        ),
    ];
    assert_cases_across_targets("ad_analytics", &client, &server, &cases);
}

#[test]
fn bdb_prepared_equals_one_shot_on_all_targets() {
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
    let mut client = SeabedClient::create_plan(b"prep-bdb", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(dataset, 6, &mut rng);
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let cases = vec![
        case(
            "SELECT SUM(avgDuration) FROM rankings WHERE pageRank > ?",
            vec![Literal::Integer(100)],
            "SELECT SUM(avgDuration) FROM rankings WHERE pageRank > 100",
        ),
        case(
            "SELECT COUNT(*) FROM rankings WHERE pageRank > ?",
            vec![Literal::Integer(500)],
            "SELECT COUNT(*) FROM rankings WHERE pageRank > 500",
        ),
    ];
    assert_cases_across_targets("rankings", &client, &server, &cases);
}

/// The statement cache amortizes across executions: one prepare, many
/// executes, and the remote path registers the statement on the server
/// exactly once.
#[test]
fn remote_prepared_statements_ship_only_bound_filters() {
    let (client, server, _) = sales_fixture();
    let net = NetServer::serve(
        SeabedServer::new(server.table().clone(), Cluster::new(ClusterConfig::default())),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("net server");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");
    let session = SeabedSession::single("sales", client, &remote);
    let prepared = session
        .prepare("SELECT SUM(revenue) FROM sales WHERE ts >= ?")
        .expect("prepare");
    let baseline = remote.wire_stats();
    for threshold in [0u64, 1_000, 5_000, 9_000] {
        session
            .execute(&prepared, &[Literal::Integer(threshold)])
            .expect("execute");
    }
    let after = remote.wire_stats();
    // 4 executions + exactly 1 statement registration crossed the wire.
    assert_eq!(after.requests - baseline.requests, 5);
    let counters = net.shutdown();
    assert_eq!(counters.counter("net_statements_prepared"), Some(1));
    assert_eq!(counters.counter("net_requests_served"), Some(4));
    assert_eq!(session.stats().executes, 4);
    assert_eq!(session.stats().statements_prepared, 1);
}

/// A session over a multi-table catalog resolves `FROM` per statement; an
/// unregistered table is a typed prepare-time error on every target.
#[test]
fn unknown_tables_fail_at_prepare_on_every_target() {
    use seabed_error::{SchemaError, SeabedError};
    let (client, server, _) = sales_fixture();
    let catalog = Catalog::new().with_table("sales", client.clone());

    let session = SeabedSession::new(catalog.clone(), &server);
    assert!(matches!(
        session.prepare("SELECT SUM(revenue) FROM ghosts"),
        Err(SeabedError::Schema(SchemaError::UnknownTable(_)))
    ));

    let net = NetServer::serve(
        SeabedServer::new(server.table().clone(), Cluster::new(ClusterConfig::default())),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("net server");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client).expect("connect");
    let session = SeabedSession::new(catalog, &remote);
    assert!(matches!(
        session.prepare("SELECT SUM(revenue) FROM ghosts"),
        Err(SeabedError::Schema(SchemaError::UnknownTable(_)))
    ));
    net.shutdown();
}

/// A target that records the filters of every execution before handing it to
/// the server behind it.
struct Recording<'s> {
    server: &'s SeabedServer,
    filters: std::sync::Mutex<Vec<Vec<seabed_core::PhysicalFilter>>>,
}

impl seabed_core::QueryTarget for Recording<'_> {
    fn schema_of(&self, _table: &str) -> Result<&seabed_engine::Schema, seabed_error::SeabedError> {
        Ok(self.server.schema())
    }

    fn execute_query(
        &self,
        query: &seabed_query::TranslatedQuery,
        filters: &[seabed_core::PhysicalFilter],
    ) -> Result<seabed_core::ServerResponse, seabed_error::SeabedError> {
        self.filters.lock().unwrap().push(filters.to_vec());
        self.server.execute(query, filters)
    }
}

/// The proxy's schemes are one value shared by every clone of it, and nothing
/// around them holds a lock. Eight threads, each with its own session over
/// its own clone of one proxy and all over one server, prepare two
/// statements, bind 200 seeded literals and decrypt — released together by a
/// barrier, so the binds overlap. Every encrypted filter that reached the
/// server and every decrypted row must equal the single-threaded run's.
#[test]
fn eight_threads_over_one_proxys_schemes_encrypt_and_decrypt_like_one() {
    let (client, server, _) = sales_fixture();
    let bindings: Vec<(String, u64)> = (0..200u64)
        .map(|i| {
            let mixed = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            (format!("d{}", mixed % 5), mixed % 10_000)
        })
        .collect();
    let run = |proxy: SeabedClient| {
        let target = Recording {
            server: &server,
            filters: Default::default(),
        };
        let session = SeabedSession::single("sales", proxy, &target);
        let filtered = session
            .prepare("SELECT SUM(revenue), COUNT(*) FROM sales WHERE dept = ? AND ts >= ?")
            .expect("prepare");
        let grouped = session
            .prepare("SELECT dept, SUM(revenue), MIN(ts) FROM sales WHERE ts < ? GROUP BY dept")
            .expect("prepare");
        let mut rows = Vec::new();
        for (dept, ts) in &bindings {
            let params = [Literal::Text(dept.clone()), Literal::Integer(*ts)];
            rows.push(session.execute(&filtered, &params).expect("execute").rows);
            rows.push(session.execute(&grouped, &params[1..]).expect("execute").rows);
        }
        drop(session);
        (target.filters.into_inner().unwrap(), rows)
    };
    let alone = run(client.clone());
    assert_eq!(alone.0.len(), 2 * bindings.len());
    assert!(
        alone.1.iter().any(|rows| rows.len() == 5),
        "a group-by answered every dept"
    );

    let threads = 8;
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let proxy = client.clone();
                scope.spawn(|| {
                    barrier.wait();
                    run(proxy)
                })
            })
            .collect();
        for (thread, handle) in handles.into_iter().enumerate() {
            let together = handle.join().expect("session thread panicked");
            assert_eq!(together.0, alone.0, "thread {thread}: encrypted filters diverged");
            assert_eq!(together.1, alone.1, "thread {thread}: decrypted rows diverged");
        }
    });
}
