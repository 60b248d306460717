//! Prepared-statement lifecycle robustness on the wire.
//!
//! The server's statement store is capacity-bounded and forgets handles on
//! restart, so the client must treat [`SeabedError::StaleStatement`] as a
//! recoverable signal: re-prepare once, retry once, and only surface the
//! error if the server stays stale. A scripted fake server pins the exact
//! recovery sequence (regression test for the transparent re-prepare), and a
//! real `NetServer` with a capacity-1 store exercises eviction end to end
//! through a `SeabedSession`.

use seabed_core::{EncryptedAggregate, GroupResult, PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_core::{QueryTarget, ResultValue, ServerResponse};
use seabed_engine::{Cluster, ClusterConfig, ExecStats};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame};
use seabed_net::{FrameConn, NetServer, Received, RemoteSeabedClient, ServiceConfig, Wait};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX: u32 = wire::DEFAULT_MAX_FRAME_LEN;

fn canned_response() -> ServerResponse {
    ServerResponse {
        groups: vec![GroupResult {
            key: vec![],
            ids: None,
            aggregates: vec![EncryptedAggregate::Count { rows: 7 }],
        }],
        stats: ExecStats::default(),
    }
}

/// Counters the fake server exposes so tests can pin the recovery sequence.
#[derive(Default)]
struct FakeCounters {
    prepares: AtomicU64,
    executes: AtomicU64,
}

/// A scripted statement server: answers the schema handshake, hands out
/// handles on PREPARE, and replies `StaleStatement` to the first
/// `stale_executes` EXECUTE frames before serving real responses.
fn fake_statement_server(stale_executes: u64) -> (SocketAddr, Arc<FakeCounters>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let counters = Arc::new(FakeCounters::default());
    let thread_counters = Arc::clone(&counters);
    let handle = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let timeout = Duration::from_secs(10);
        let mut conn = FrameConn::from_stream(stream, timeout).expect("wrap");
        // Serves until the client hangs up (or stays silent for `timeout`).
        while let Ok(Received::Frame(frame)) = conn.recv(MAX, Wait::Until(Instant::now() + timeout)) {
            match frame {
                Frame::SchemaRequest => {
                    let _ = conn.send(
                        &Frame::Schema(seabed_engine::Schema::new([(
                            "x".to_string(),
                            seabed_engine::ColumnType::UInt64,
                        )])),
                        MAX,
                    );
                }
                Frame::PrepareStatement { .. } => {
                    let n = thread_counters.prepares.fetch_add(1, Ordering::SeqCst) + 1;
                    let _ = conn.send(&Frame::StatementPrepared { handle: 1000 + n }, MAX);
                }
                Frame::ExecuteStatement { handle, .. } => {
                    let n = thread_counters.executes.fetch_add(1, Ordering::SeqCst) + 1;
                    if n <= stale_executes {
                        let _ = conn.send(&Frame::Error(SeabedError::StaleStatement(handle)), MAX);
                    } else {
                        let _ = conn.send(&Frame::Response(canned_response()), MAX);
                    }
                }
                _ => return,
            }
        }
    });
    (addr, counters, handle)
}

fn trivial_client() -> SeabedClient {
    let columns = vec![ColumnSpec::public("x")];
    let samples = vec![parse("SELECT COUNT(*) FROM t").expect("sample")];
    SeabedClient::create_plan(b"stale", &columns, &samples, &PlannerConfig::default())
}

fn count_statement() -> seabed_query::TranslatedQuery {
    let client = trivial_client();
    let plan = client.plan().clone();
    let query = parse("SELECT COUNT(*) FROM t").expect("parse");
    seabed_query::translate(&query, &plan, &seabed_query::TranslateOptions).expect("translate")
}

/// One stale EXECUTE: the client re-prepares exactly once and the retry
/// succeeds — the caller never sees the staleness.
#[test]
fn client_transparently_reprepares_once_on_stale_handle() {
    let (addr, counters, server) = fake_statement_server(1);
    let remote = RemoteSeabedClient::connect(addr, trivial_client()).expect("connect");
    let statement = count_statement();

    let response = remote
        .execute_prepared(&statement, 42, &[])
        .expect("stale handle must be recovered transparently");
    assert_eq!(response, canned_response());
    // Sequence on the wire: PREPARE, EXECUTE (stale), PREPARE, EXECUTE (ok).
    assert_eq!(counters.prepares.load(Ordering::SeqCst), 2);
    assert_eq!(counters.executes.load(Ordering::SeqCst), 2);

    // A later execution reuses the refreshed handle: no further prepares.
    let response = remote.execute_prepared(&statement, 42, &[]).expect("execute");
    assert_eq!(response, canned_response());
    assert_eq!(counters.prepares.load(Ordering::SeqCst), 2);
    drop(remote);
    server.join().expect("fake server");
}

/// A server that stays stale after the re-prepare: the client retries exactly
/// once, then surfaces the typed error instead of looping.
#[test]
fn repeated_staleness_surfaces_after_one_retry() {
    let (addr, counters, server) = fake_statement_server(u64::MAX);
    let remote = RemoteSeabedClient::connect(addr, trivial_client()).expect("connect");
    let statement = count_statement();

    let outcome = remote.execute_prepared(&statement, 7, &[]);
    assert!(matches!(outcome, Err(SeabedError::StaleStatement(_))), "{outcome:?}");
    // Exactly one recovery attempt: PREPARE, EXECUTE, PREPARE, EXECUTE.
    assert_eq!(counters.prepares.load(Ordering::SeqCst), 2);
    assert_eq!(counters.executes.load(Ordering::SeqCst), 2);
    drop(remote);
    server.join().expect("fake server");
}

/// The remote handle cache keys on the statement's *plan content*, not the
/// caller's statement id: a different plan under the same id (re-planned
/// SQL, or an SQL-hash collision) must trigger a fresh registration and run
/// its own plan — never the previously registered one.
#[test]
fn changed_plan_under_same_statement_id_registers_fresh() {
    let n = 120usize;
    let dataset = PlainDataset::new("t").with_uint_column("m", (1..=n as u64).collect());
    let columns = vec![ColumnSpec::sensitive("m")];
    let samples = vec![parse("SELECT SUM(m) FROM t").expect("sample")];
    let mut client = SeabedClient::create_plan(b"replan", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");

    let plan = client.plan().clone();
    let opts = seabed_query::TranslateOptions;
    let count_plan =
        seabed_query::translate(&parse("SELECT COUNT(*) FROM t").expect("parse"), &plan, &opts).expect("translate");
    let sum_plan =
        seabed_query::translate(&parse("SELECT SUM(m) FROM t").expect("parse"), &plan, &opts).expect("translate");

    // Same statement_id (99) for two different plans: each must execute its
    // own plan.
    let count_resp = remote.execute_prepared(&count_plan, 99, &[]).expect("count plan");
    assert!(
        matches!(
            count_resp.groups[0].aggregates[0],
            EncryptedAggregate::Count { rows } if rows == n as u64
        ),
        "{:?}",
        count_resp.groups[0].aggregates[0]
    );
    let sum_resp = remote.execute_prepared(&sum_plan, 99, &[]).expect("sum plan");
    // The frame that carried it is the connection's last measured response.
    assert!(remote.wire_stats().last_response_bytes as usize > sum_resp.result_bytes());
    assert!(
        matches!(&sum_resp.groups[0].aggregates[0], EncryptedAggregate::AsheSum { .. }),
        "the second plan must run, not the cached first one: {:?}",
        sum_resp.groups[0].aggregates[0]
    );

    let counters = net.shutdown();
    assert_eq!(
        counters.counter("net_statements_prepared"),
        Some(2),
        "each distinct plan registers once"
    );
}

/// End to end against a real server with a capacity-1 statement store:
/// preparing a second statement evicts the first; executing the first again
/// triggers the transparent re-prepare and still returns correct data.
#[test]
fn eviction_on_a_real_server_is_recovered_through_the_session() {
    let n = 300usize;
    let dataset = PlainDataset::new("sales")
        .with_uint_column("revenue", (0..n as u64).map(|i| i % 100).collect())
        .with_uint_column("ts", (0..n as u64).collect());
    let columns = vec![ColumnSpec::sensitive("revenue"), ColumnSpec::sensitive("ts")];
    let samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE ts >= 10").expect("sample"),
        parse("SELECT COUNT(*) FROM sales WHERE ts >= 10").expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"evict", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let expected_sum = |min_ts: u64| -> u64 { (0..n as u64).filter(|&i| i >= min_ts).map(|i| i % 100).sum() };

    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default().statement_capacity(1)).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client.clone()).expect("connect");
    let session = SeabedSession::single("sales", client, &remote);

    let sum = session
        .prepare("SELECT SUM(revenue) FROM sales WHERE ts >= ?")
        .expect("prepare sum");
    let count = session
        .prepare("SELECT COUNT(*) FROM sales WHERE ts >= ?")
        .expect("prepare count");

    // Register + run the sum statement, then the count statement (evicting
    // the sum's handle on the capacity-1 server), then the sum again.
    let r = session.execute(&sum, &[Literal::Integer(100)]).expect("sum 1");
    assert_eq!(r.rows, vec![vec![ResultValue::UInt(expected_sum(100))]]);
    let r = session.execute(&count, &[Literal::Integer(200)]).expect("count");
    assert_eq!(r.rows, vec![vec![ResultValue::UInt(100)]]);
    let r = session
        .execute(&sum, &[Literal::Integer(250)])
        .expect("evicted handle must be recovered transparently");
    assert_eq!(r.rows, vec![vec![ResultValue::UInt(expected_sum(250))]]);

    let counters = net.shutdown();
    // Three registrations: sum, count, and the transparent re-prepare of sum.
    assert_eq!(counters.counter("net_statements_prepared"), Some(3));
    assert!(counters.counter("net_statements_evicted") >= Some(2));
    assert_eq!(counters.counter("net_requests_served"), Some(3));
}

/// "Fails at prepare, never at execute" for the second column a MIN/MAX
/// reads. The plan names only `ts__ope`; the server also reads the ASHE
/// companion `ts__ope_val` at the winning row. Prepare-time validation used to
/// check the first and forget the second, so a target without the companion
/// prepared fine and failed at its first execute. Both the session (locally)
/// and a `NetServer` (on `PrepareStatement`) now resolve an aggregate's
/// columns with the server's own rule.
#[test]
fn a_missing_ope_companion_column_is_refused_at_prepare() {
    use seabed_error::SchemaError;
    let n = 60u64;
    let dataset = PlainDataset::new("sales")
        .with_uint_column("revenue", (0..n).collect())
        .with_uint_column("ts", (0..n).map(|i| (i * 7) % 50).collect());
    let columns = vec![ColumnSpec::sensitive("revenue"), ColumnSpec::sensitive("ts")];
    let samples = vec![parse("SELECT MIN(ts) FROM sales WHERE ts >= 10").expect("sample")];
    let mut client = SeabedClient::create_plan(b"companion", &columns, &samples, &PlannerConfig::default());
    let mut table = client.encrypt_dataset(&dataset, 3, &mut rand::rng()).table;

    let companion = seabed_query::encnames::ope_value("ts");
    let dropped = table
        .schema
        .index_of(&companion)
        .expect("an OPE column has its companion");
    assert!(table.schema.index_of(&seabed_query::encnames::ope("ts")).is_some());
    table.schema.fields.remove(dropped);
    for partition in &mut table.partitions {
        partition.columns.remove(dropped);
    }
    let server = SeabedServer::new(table, Cluster::new(ClusterConfig::default()));
    let refused = |outcome: Result<(), SeabedError>, at: &str| {
        assert!(
            matches!(&outcome, Err(SeabedError::Schema(SchemaError::UnknownPhysicalColumn(c))) if *c == companion),
            "{at}: {outcome:?}"
        );
    };

    // Locally: the session's prepare.
    let sql = "SELECT MAX(ts) FROM sales";
    let session = SeabedSession::single("sales", client.clone(), &server);
    refused(session.prepare(sql).map(|_| ()), "session prepare");
    // A plan that does not read the companion still prepares and runs.
    let count = session
        .query("SELECT COUNT(*) FROM sales WHERE ts >= 10", &[])
        .expect("count");
    assert_eq!(
        count.rows,
        vec![vec![ResultValue::UInt(
            (0..n).filter(|i| (i * 7) % 50 >= 10).count() as u64
        )]]
    );

    // On the wire: PREPARE is refused, so nothing is registered and nothing
    // ever executes.
    let plan = seabed_query::translate(
        &parse(sql).expect("parse"),
        client.plan(),
        &seabed_query::TranslateOptions,
    )
    .expect("translate");
    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let remote = RemoteSeabedClient::connect(net.local_addr(), client).expect("connect");
    refused(remote.execute_prepared(&plan, 7, &[]).map(|_| ()), "PrepareStatement");
    drop(remote);
    let counters = net.shutdown();
    assert_eq!(counters.counter("net_statements_prepared"), Some(0));
    assert_eq!(
        counters.counter("net_requests_served"),
        Some(0),
        "refused at PREPARE, not at first EXECUTE"
    );
}
