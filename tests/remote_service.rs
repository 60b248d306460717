//! Integration tests for the `seabed-net` service layer: existing workloads
//! must run unchanged — and produce byte-identical decrypted results — when
//! the proxy talks to the server over a real TCP socket instead of an
//! in-process call.

use seabed::core::{PlainDataset, QueryTarget, ResultValue, SeabedClient, SeabedServer, SeabedSession};
use seabed::engine::{Cluster, ClusterConfig};
use seabed::error::SeabedError;
use seabed::net::{NetServer, RemoteSeabedClient, ServiceConfig};
use seabed::query::{parse, ColumnSpec, PlannerConfig, Query};
use seabed::workloads::ad_analytics;
use seabed_bench::baselines::NetworkModel;

/// The rich-filter fixture of the core client tests: SPLASHE country, OPE
/// timestamp, DET group-by department — every `ServerFilter` variant crosses
/// the wire at least once.
fn sales_fixture() -> (SeabedClient, seabed::core::EncryptedTable) {
    let countries = [
        "USA", "USA", "Canada", "USA", "Canada", "India", "Chile", "India", "USA", "Canada",
    ];
    let n = 400usize;
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 7) % 1000).collect())
        .with_uint_column("ts", (0..n as u64).collect())
        .with_text_column("dept", (0..n).map(|i| ["a", "b", "c"][i % 3].to_string()).collect());
    let distribution = dataset.distribution("country").expect("country column exists");
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", distribution),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("dept"),
    ];
    let queries: Vec<Query> = [
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
        "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
        "SELECT VARIANCE(revenue) FROM sales",
        "SELECT MIN(ts), MAX(ts) FROM sales",
    ]
    .iter()
    .map(|sql| parse(sql).expect("fixture query must parse"))
    .collect();
    let mut client = SeabedClient::create_plan(b"remote-it", &columns, &queries, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    (client, encrypted)
}

fn local_server(encrypted: &seabed::core::EncryptedTable) -> SeabedServer {
    SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()))
}

const SALES_QUERIES: [&str; 8] = [
    "SELECT SUM(revenue) FROM sales",
    "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
    "SELECT SUM(revenue) FROM sales WHERE country = 'India'",
    "SELECT SUM(revenue) FROM sales WHERE ts >= 100",
    "SELECT COUNT(*) FROM sales WHERE ts < 42",
    "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
    "SELECT AVG(revenue) FROM sales",
    "SELECT VARIANCE(revenue) FROM sales",
];

#[test]
fn remote_results_are_identical_to_in_process_results() {
    let (client, encrypted) = sales_fixture();
    let in_process = local_server(&encrypted);
    let net = NetServer::serve(local_server(&encrypted), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");
    let local = SeabedSession::single("sales", client.clone(), &in_process);
    let over_wire = SeabedSession::single("sales", client, &remote);

    for sql in SALES_QUERIES {
        let local = local.query(sql, &[]).expect("in-process query");
        let over_wire = over_wire.query(sql, &[]).expect("remote query");
        assert_eq!(local.rows, over_wire.rows, "results diverged for {sql}");
        assert_eq!(
            local.result_bytes, over_wire.result_bytes,
            "result size diverged for {sql}"
        );
        assert_eq!(
            local.client_prf_evals, over_wire.client_prf_evals,
            "decryption work diverged for {sql}"
        );
    }

    let counters = net.shutdown();
    assert_eq!(
        counters.counter("net_requests_served"),
        Some(SALES_QUERIES.len() as u64)
    );
    assert_eq!(counters.counter("net_error_frames"), Some(0));
}

#[test]
fn ad_analytics_workload_runs_unchanged_over_the_socket() {
    let mut rng = rand::rng();
    let rows = 2_000;
    let dataset = ad_analytics::generate(&mut rng, rows);
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
    let samples: Vec<Query> = queries.iter().map(|q| parse(&q.sql).expect("workload query")).collect();
    let mut client = SeabedClient::create_plan(b"ada-remote", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rng);

    let in_process = local_server(&encrypted);
    let net = NetServer::serve(local_server(&encrypted), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");
    let local = SeabedSession::single("ad_analytics", client.clone(), &in_process);
    let over_wire = SeabedSession::single("ad_analytics", client, &remote);

    for q in queries.iter().take(6) {
        let local = local.query(&q.sql, &[]).expect("in-process query");
        let over_wire = over_wire.query(&q.sql, &[]).expect("remote query");
        assert_eq!(local.rows, over_wire.rows, "results diverged for {}", q.sql);
        // Sanity: the hourly group-by actually returns data.
        assert!(!over_wire.rows.is_empty(), "no groups for {}", q.sql);
        for row in &over_wire.rows {
            assert!(matches!(row[0], ResultValue::UInt(h) if h < 24));
        }
    }
    net.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_results() {
    let (client, encrypted) = sales_fixture();
    let in_process = local_server(&encrypted);
    let local = SeabedSession::single("sales", client.clone(), &in_process);
    let expected: Vec<_> = SALES_QUERIES
        .iter()
        .map(|sql| local.query(sql, &[]).expect("in-process query").rows)
        .collect();

    let clients = 8usize;
    let net = NetServer::serve(
        local_server(&encrypted),
        "127.0.0.1:0",
        ServiceConfig::default().worker_threads(clients),
    )
    .expect("serve");
    let addr = net.local_addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                let proxy = client.clone();
                let expected = &expected;
                scope.spawn(move || {
                    let remote = RemoteSeabedClient::connect(addr, proxy.clone()).expect("connect");
                    let session = SeabedSession::single("sales", proxy, &remote);
                    // Each worker walks the query list from a different offset
                    // so distinct queries are in flight simultaneously.
                    for i in 0..SALES_QUERIES.len() * 2 {
                        let q = (worker + i) % SALES_QUERIES.len();
                        let result = session.query(SALES_QUERIES[q], &[]).expect("remote query");
                        assert_eq!(
                            result.rows, expected[q],
                            "client {worker} diverged on {}",
                            SALES_QUERIES[q]
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread panicked");
        }
    });

    let counters = net.shutdown();
    assert_eq!(counters.counter("net_connections"), Some(clients as u64));
    assert_eq!(
        counters.counter("net_requests_served"),
        Some((clients * SALES_QUERIES.len() * 2) as u64)
    );
    assert_eq!(counters.counter("net_error_frames"), Some(0));
    assert!(counters.counter("net_bytes_in") > Some(0) && counters.counter("net_bytes_out") > Some(0));
}

#[test]
fn query_errors_cross_the_wire_typed_and_do_not_kill_the_connection() {
    let (client, encrypted) = sales_fixture();
    let net = NetServer::serve(local_server(&encrypted), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");
    let session = SeabedSession::single("sales", client, &remote);

    // Malformed SQL fails locally, before anything is sent.
    assert!(matches!(
        session.query("not sql at all", &[]),
        Err(SeabedError::Parse(_))
    ));
    // An unknown column passes translation against the *plan* but must be
    // rejected — the error arrives as a typed frame from the server side when
    // the plan and schema disagree, or from local preparation; either way the
    // connection survives.
    assert!(session.query("SELECT SUM(no_such_column) FROM sales", &[]).is_err());
    // A filter the encryption scheme cannot support -> Translate.
    assert!(matches!(
        session.query("SELECT COUNT(*) FROM sales WHERE revenue = 10", &[]),
        Err(SeabedError::Translate(_))
    ));
    // A forged filter shipped straight to the server: engine error over the
    // wire, typed, connection still alive.
    let prepared = session.prepare("SELECT SUM(revenue) FROM sales").expect("prepare");
    let forged = vec![seabed::core::PhysicalFilter::PlainU64 {
        column: 9_999,
        op: seabed::query::CompareOp::Eq,
        value: 1,
    }];
    assert!(matches!(
        remote.execute_query(prepared.translated(), &forged),
        Err(SeabedError::Engine(_))
    ));
    // The same connection keeps serving.
    let result = session
        .query("SELECT SUM(revenue) FROM sales", &[])
        .expect("follow-up query");
    assert_eq!(result.rows.len(), 1);

    let counters = net.shutdown();
    assert!(
        counters.counter("net_error_frames") >= Some(1),
        "typed error frames must be accounted"
    );
}

/// §6.6 unification: the byte counts the TCP layer *measures* feed the
/// [`NetworkModel`] the paper harness simulates with. Compressed ID
/// lists keep the response frame so small that even the 10 Mbps WAN link's
/// serialization cost stays negligible next to its RTT — the paper's claim,
/// reproduced with real bytes on a real wire.
#[test]
fn measured_wire_bytes_cross_check_the_network_model() {
    let (client, encrypted) = sales_fixture();
    let rows = encrypted.table.num_rows();
    let net = NetServer::serve(local_server(&encrypted), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");

    // 100 % selectivity: every row id is in the ASHE ID list.
    let result = SeabedSession::single("sales", client, &remote)
        .query("SELECT SUM(revenue) FROM sales", &[])
        .expect("query");
    let wire = remote.wire_stats();
    let measured = wire.last_response_bytes as usize;
    assert!(wire.bytes_received > 0 && wire.bytes_sent > 0);
    // The frame that actually crossed the wire carries the encrypted result
    // (plus fixed framing/stats overhead): it cannot be smaller than the
    // payload the server accounted, and the overhead is bounded.
    assert!(
        measured >= result.result_bytes,
        "frame ({measured} B) smaller than the result it carries ({} B)",
        result.result_bytes
    );
    assert!(
        measured < result.result_bytes + 512,
        "framing overhead exploded: {measured} B for a {} B result",
        result.result_bytes
    );

    // A naive uncompressed ID list would ship 8 bytes per selected row.
    let uncompressed = rows * 8;
    assert!(
        measured * 10 < uncompressed,
        "compressed response ({measured} B) should be far below uncompressed ({uncompressed} B)"
    );

    for model in [
        NetworkModel::datacenter(),
        NetworkModel::wan_100mbps(),
        NetworkModel::wan_10mbps(),
    ] {
        // Prediction from real bytes: serialization time of the measured
        // frame stays under a millisecond on every §6.6 preset, so the WAN
        // penalty is (almost) pure RTT...
        let serialization = model.transfer_time(measured) - model.rtt;
        assert!(
            serialization < std::time::Duration::from_millis(2),
            "serialization of {measured} B should be negligible on {model:?}"
        );
        // ...while the uncompressed list would add real transfer time on the
        // degraded links.
        assert!(model.transfer_time(uncompressed) >= model.transfer_time(measured));
    }
    net.shutdown();
}
