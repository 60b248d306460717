//! End-to-end observability acceptance tests.
//!
//! Pins the three headline guarantees of the `seabed-obs` layer:
//!
//! 1. **Propagation** — one distributed prepared query carries a single
//!    `TraceId` minted at the session through the coordinator's scatter and
//!    over the wire into every worker, and the spans stitched back together
//!    cover the whole lifecycle (parse → translate → encrypt-filters →
//!    dispatch → scatter → shard-execute → gather → merge → decrypt). A
//!    remote scrape of a live worker returns non-zero shard-execute
//!    histograms and the propagated id. Every node leaves exactly one event
//!    per execution, refused and failed ones included.
//! 2. **Redaction** — nothing a scrape ships (metric names, events with
//!    their spans and node labels, either exposition format) ever contains
//!    a plaintext query literal.
//! 3. **Invisibility** — instrumented execution is byte-identical to
//!    execution under a disabled registry, and its overhead is bounded.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use seabed_core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_net::{scrape_metrics, NetServer, ServiceConfig};
use seabed_obs::{ObsConfig, Registry, UNTRACED};
use seabed_query::{parse, ColumnSpec, PlannerConfig, Query};

/// The plaintext literal the propagation query filters on; redaction asserts
/// it never leaves the session.
const SECRET_LITERAL: &str = "USA";

fn sales_fixture() -> (SeabedClient, SeabedServer) {
    let n = 1_200usize;
    let countries = ["USA", "USA", "Canada", "India", "USA", "Chile"];
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect());
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").expect("column exists")),
        ColumnSpec::sensitive("revenue"),
    ];
    let samples: Vec<Query> = ["SELECT SUM(revenue) FROM sales WHERE country = 'USA'"]
        .iter()
        .map(|sql| parse(sql).expect("sample"))
        .collect();
    let mut client = SeabedClient::create_plan(b"obs-e2e", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 6, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server)
}

fn cluster_of(n: usize, server: &SeabedServer) -> (Vec<NetServer>, DistCoordinator) {
    let workers: Vec<NetServer> = (0..n)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), server.table().clone())],
        DistConfig::default(),
    )
    .expect("coordinator connects");
    (workers, coordinator)
}

/// The headline acceptance test: one distributed prepared query, one trace
/// id, spans from session + coordinator + workers, and a live remote scrape
/// that both proves shard-level histograms and stays redacted.
#[test]
fn distributed_query_propagates_one_trace_id_from_parse_to_merge() {
    let (client, server) = sales_fixture();
    let (workers, coordinator) = cluster_of(2, &server);
    // Sharing the coordinator's registry is what lets `merged_trace` stitch
    // session spans and coordinator spans into one timeline.
    let session = SeabedSession::single("sales", client, &coordinator).with_obs(coordinator.registry());

    let sql = "SELECT SUM(revenue) FROM sales WHERE country = 'USA'";
    let result = session.query(sql, &[]).expect("traced query");
    let trace_id = result.trace_id;
    assert!(!result.rows.is_empty(), "query must return rows");
    assert_ne!(trace_id, UNTRACED, "an enabled session mints a real trace id");

    // --- The stitched local timeline covers every lifecycle stage. ---
    let merged = session.registry().merged_trace(trace_id).expect("trace recorded");
    let names: HashSet<&str> = merged.spans.iter().map(|s| s.name.as_str()).collect();
    for stage in [
        "parse",
        "translate",
        "encrypt-filters",
        "dispatch",
        "scatter",
        "shard-execute",
        "gather",
        "merge",
        "decrypt",
    ] {
        assert!(names.contains(stage), "merged trace missing {stage:?}: {names:?}");
    }
    assert!(
        merged.node.contains("session") && merged.node.contains("coordinator"),
        "both components must contribute spans, got node {:?}",
        merged.node
    );
    assert_eq!(
        merged.statement_id,
        seabed_core::fnv1a64(sql.as_bytes()),
        "the trace is keyed to the statement by hash, never by text"
    );

    // --- A remote scrape of the live workers sees the same id. ---
    let mut propagated_spans = 0usize;
    let mut shard_execute_count = 0u64;
    for worker in &workers {
        let (snapshot, events) =
            scrape_metrics(worker.local_addr(), true, Duration::from_secs(5)).expect("worker scrape");
        shard_execute_count += snapshot.histogram("shard_execute_ns").map(|h| h.count).unwrap_or(0);
        propagated_spans += events
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .flat_map(|e| e.spans.iter())
            .filter(|s| s.name == "shard-execute")
            .count();

        // --- Redaction: nothing scraped carries the plaintext literal. ---
        assert!(
            !snapshot.to_json().contains(SECRET_LITERAL),
            "JSON exposition leaked a query literal"
        );
        assert!(
            !snapshot.to_prometheus().contains(SECRET_LITERAL),
            "Prometheus exposition leaked a query literal"
        );
        for event in &events {
            let rendered = event.to_json();
            assert!(
                !rendered.contains(SECRET_LITERAL),
                "scraped query event leaked a literal: {rendered}"
            );
            assert!(
                !rendered.contains("SELECT"),
                "scraped query event leaked SQL text: {rendered}"
            );
        }
    }
    assert!(
        shard_execute_count > 0,
        "live workers must expose non-zero shard-execute histograms"
    );
    assert!(
        propagated_spans > 0,
        "the session's trace id must reach worker-side shard-execute spans"
    );

    // The coordinator's own metrics saw the scatter.
    let snapshot = session.registry().snapshot();
    assert!(
        snapshot.counter("dist_cache_misses").unwrap_or(0) > 0,
        "first run scatters"
    );
    assert!(
        snapshot.histogram("dist_scatter_ns").map(|h| h.count).unwrap_or(0) > 0,
        "scatter latency must be recorded"
    );
    assert!(
        !snapshot.to_json().contains(SECRET_LITERAL),
        "local exposition redacted"
    );
    for event in session.registry().recent_events() {
        let rendered = event.to_json();
        assert!(
            !rendered.contains(SECRET_LITERAL) && !rendered.contains("SELECT"),
            "local query event leaked: {rendered}"
        );
    }

    for worker in workers {
        worker.shutdown();
    }
}

/// Instrumentation must be invisible in the data plane: the same prepared
/// query under an enabled and a disabled registry produces byte-identical
/// encrypted responses and identical decrypted rows, and the enabled path's
/// overhead stays bounded.
#[test]
fn instrumented_execution_is_byte_identical_and_overhead_bounded() {
    let n = 24_000usize;
    let dataset = PlainDataset::new("big").with_uint_column("v", (0..n as u64).map(|i| (i * 31) % 10_000).collect());
    let columns = vec![ColumnSpec::sensitive("v")];
    let samples = vec![parse("SELECT SUM(v) FROM big").expect("sample")];
    let mut client = SeabedClient::create_plan(b"obs-overhead", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    // Two sessions over the same server: one fully instrumented (the
    // default), one with observability switched off.
    let instrumented = SeabedSession::single("big", client.clone(), &server);
    let disabled = SeabedSession::single("big", client, &server).with_obs(Registry::new(ObsConfig::disabled()));
    assert!(instrumented.registry().enabled());
    assert!(!disabled.registry().enabled());

    let sql = "SELECT SUM(v) FROM big";
    let prepared_on = instrumented.prepare(sql).expect("prepare instrumented");
    let prepared_off = disabled.prepare(sql).expect("prepare disabled");

    // Byte-identity of the encrypted server responses...
    let (_, response_on) = instrumented.execute_encrypted(&prepared_on, &[]).expect("encrypted on");
    let (_, response_off) = disabled.execute_encrypted(&prepared_off, &[]).expect("encrypted off");
    assert_eq!(response_on.groups, response_off.groups, "encrypted groups diverged");
    assert_eq!(
        response_on.result_bytes(),
        response_off.result_bytes(),
        "result bytes diverged"
    );

    // ...and of the decrypted results through the traced vs. untraced path.
    let traced = instrumented.query(sql, &[]).expect("traced query");
    let untraced = disabled.query(sql, &[]).expect("untraced query");
    assert_ne!(traced.trace_id, UNTRACED);
    assert_eq!(untraced.trace_id, UNTRACED);
    assert_eq!(traced.rows, untraced.rows, "decrypted rows diverged");
    assert_eq!(traced.result_bytes, untraced.result_bytes);

    // The disabled session recorded nothing; the instrumented one did.
    assert!(disabled.registry().recent_events().is_empty());
    assert!(instrumented.registry().merged_trace(traced.trace_id).is_some());

    // Overhead guard: best-of-N prepared executes. The bound is deliberately
    // generous (3x + absolute slack) — this is a regression tripwire against
    // instrumentation on the hot path, not a microbenchmark.
    let best_of = |session: &SeabedSession<'_, SeabedServer>, prepared: &seabed_core::PreparedQuery| {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            session.execute(prepared, &[]).expect("timed execute");
            best = best.min(start.elapsed());
        }
        best
    };
    let on = best_of(&instrumented, &prepared_on);
    let off = best_of(&disabled, &prepared_off);
    assert!(
        on <= off * 3 + Duration::from_millis(50),
        "instrumented execution too slow: {on:?} vs uninstrumented {off:?}"
    );
}

/// A target that answers like the server it wraps until it is told to fail,
/// and then fails every execution the way a dead link does.
struct FailsOnDemand<'a> {
    server: &'a SeabedServer,
    failing: std::sync::atomic::AtomicBool,
}

impl seabed_core::QueryTarget for FailsOnDemand<'_> {
    fn schema_of(&self, table: &str) -> Result<&seabed_engine::Schema, seabed_error::SeabedError> {
        self.server.schema_of(table)
    }

    fn execute_query(
        &self,
        query: &seabed_query::TranslatedQuery,
        filters: &[seabed_core::PhysicalFilter],
    ) -> Result<seabed_core::ServerResponse, seabed_error::SeabedError> {
        if self.failing.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(seabed_error::SeabedError::net("connection reset by peer"));
        }
        self.server.execute_query(query, filters)
    }
}

/// The query an operator most wants to look at is the one that failed: its
/// event — spans included — is recorded whatever the outcome.
#[test]
fn a_failed_execute_still_records_its_trace() {
    use seabed_query::Literal;
    use std::sync::atomic::Ordering;

    let dataset = PlainDataset::new("sales")
        .with_uint_column("ts", (0..400u64).collect())
        .with_uint_column("revenue", (0..400u64).map(|i| (i * 13) % 500).collect());
    let columns = vec![ColumnSpec::sensitive("ts"), ColumnSpec::sensitive("revenue")];
    let samples = vec![parse("SELECT SUM(revenue) FROM sales WHERE ts >= 100").expect("sample")];
    let mut client = SeabedClient::create_plan(b"obs-failed", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let target = FailsOnDemand {
        server: &server,
        failing: std::sync::atomic::AtomicBool::new(false),
    };
    let session = SeabedSession::single("sales", client, &target);
    let registry = session.registry();
    let sql = "SELECT SUM(revenue) FROM sales WHERE ts >= ?";

    session
        .query(sql, &[Literal::Integer(100)])
        .expect("the honest execute");
    let events_before = registry.recent_events().len();
    let executes_before = registry.snapshot().counter("session_executes");
    assert_eq!((events_before, executes_before), (1, Some(1)));

    target.failing.store(true, Ordering::SeqCst);
    let outcome = session.query(sql, &[Literal::Integer(200)]);
    assert!(matches!(outcome, Err(seabed_error::SeabedError::Net(_))), "{outcome:?}");

    let events = registry.recent_events();
    assert_eq!(events.len(), events_before + 1, "the failed execute leaves one event");
    let failed = events.last().expect("just counted");
    assert_eq!(failed.outcome, "net-error");
    assert_ne!(failed.trace_id, UNTRACED);
    let names: Vec<&str> = failed.spans.iter().map(|span| span.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["bind", "dispatch"],
        "the spans it got through before it died"
    );
    assert_eq!(
        registry.snapshot().counter("session_executes"),
        executes_before,
        "a failed execute is not counted as an execute"
    );
}

/// One record per node per execution: N executes through a session sharing
/// the coordinator's registry leave N `session` and N `coordinator` events
/// under the results' trace ids, and each worker's ring one event per shard
/// query it answered. A shard query a worker refuses leaves one too.
#[test]
fn every_node_leaves_one_event_per_execution() {
    let (client, server) = sales_fixture();
    let (workers, coordinator) = cluster_of(2, &server);
    let session = SeabedSession::single("sales", client, &coordinator).with_obs(coordinator.registry());

    // The repeated statement is answered from the partial cache: its
    // execution scatters nothing, and still leaves its two events.
    let mut trace_ids = HashSet::new();
    for country in ["USA", "Canada", "India", "USA", "Chile"] {
        let sql = format!("SELECT SUM(revenue) FROM sales WHERE country = '{country}'");
        let result = session.query(&sql, &[]).expect("query");
        assert!(trace_ids.insert(result.trace_id), "a fresh trace id per execution");
    }
    let events = session.registry().recent_events();
    for node in ["session", "coordinator"] {
        let ids: HashSet<u64> = events.iter().filter(|e| e.node == node).map(|e| e.trace_id).collect();
        assert_eq!(
            events.iter().filter(|e| e.node == node).count(),
            trace_ids.len(),
            "{node} leaves one event per execution"
        );
        assert_eq!(ids, trace_ids, "{node} events under the results' trace ids");
    }

    let summaries = coordinator.worker_summaries();
    let mut answered = 0;
    for (worker, summary) in workers.iter().zip(&summaries) {
        let (_, events) = scrape_metrics(worker.local_addr(), true, Duration::from_secs(5)).expect("scrape");
        assert_eq!(
            events.len() as u64,
            summary.queries,
            "{}: one event per shard query answered",
            summary.label
        );
        for event in &events {
            assert!(trace_ids.contains(&event.trace_id), "{event:?}");
            assert_eq!(event.outcome, "ok");
            let names: Vec<&str> = event.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["shard-execute"]);
        }
        answered += summary.queries;
    }
    assert!(answered > 0, "the executes scattered");

    // A shard query under an epoch the worker does not hold is refused — and
    // still leaves its one event, under the frame's trace id.
    let worker = workers[0].local_addr();
    let refused_trace = 0x5eab_ed00_u64;
    let mut conn = seabed_net::FrameConn::connect(worker, Duration::from_secs(5)).expect("connect");
    let stale = seabed_net::Frame::ShardQuery {
        epoch: coordinator.epoch().wrapping_add(1),
        table_id: 0,
        shard: 0,
        seq: 1,
        trace_id: refused_trace,
        query: session
            .prepare("SELECT SUM(revenue) FROM sales")
            .expect("prepare")
            .translated()
            .clone(),
        filters: vec![],
        analyze: false,
    };
    let reply = conn
        .round_trip(&stale, seabed_net::DEFAULT_MAX_FRAME_LEN, Duration::from_secs(5))
        .expect("a reply");
    assert!(
        matches!(reply, seabed_net::Frame::Error(seabed_error::SeabedError::Dist { .. })),
        "{reply:?}"
    );
    let (_, events) = scrape_metrics(worker, true, Duration::from_secs(5)).expect("scrape");
    let refused: Vec<_> = events.iter().filter(|e| e.trace_id == refused_trace).collect();
    assert_eq!(refused.len(), 1, "the refusal leaves one event: {events:?}");
    assert_eq!(refused[0].outcome, "dist-error");

    drop(session);
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}
