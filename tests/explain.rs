//! Acceptance tests for `EXPLAIN` / `EXPLAIN ANALYZE`.
//!
//! Pins the three contract points of the profiling surface:
//!
//! 1. **`EXPLAIN` never executes** — the structural plan comes back without
//!    a single call into the query target (locally) and without a single
//!    frame reaching a worker (distributed).
//! 2. **`EXPLAIN ANALYZE` is invisible in the data plane** — the analyzed
//!    execution's decrypted rows are identical to a plain execution of the
//!    same statement, on both the sales fixture and the Ad-Analytics
//!    workload, locally and through a distributed coordinator (whose
//!    stitched plan must carry per-shard per-operator measurements).
//! 3. **Redaction** — nothing an explanation or a captured query event
//!    renders ever contains a predicate literal or raw SQL text.
//! 4. **An analyzed plan is the plan of its own execution** — two sessions
//!    explaining concurrently on one coordinator each get their own table's
//!    stitched subtree, and `EXPLAIN ANALYZE` counts, traces and logs like
//!    any other execute, failures included.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use seabed_core::{
    PhysicalFilter, PlainDataset, QueryTarget, SeabedClient, SeabedServer, SeabedSession, ServerResponse,
};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_engine::{Cluster, ClusterConfig, Schema};
use seabed_error::SeabedError;
use seabed_net::{scrape_metrics, ServiceConfig};
use seabed_query::{parse, ColumnSpec, PlanNode, PlannerConfig, TranslatedQuery};

/// The plaintext literal the explained queries filter on; redaction asserts
/// it never shows up in any explain surface.
const SECRET_LITERAL: &str = "retail";

fn sales_fixture() -> (SeabedClient, SeabedServer) {
    fixture("sales", 6)
}

/// The sales columns as table `name`, stored in `partitions` partitions.
fn fixture(name: &str, partitions: usize) -> (SeabedClient, SeabedServer) {
    let n = 1_200usize;
    let depts = ["retail", "wholesale", "online", "partner"];
    let dataset = PlainDataset::new(name)
        .with_text_column("dept", (0..n).map(|i| depts[i % depts.len()].to_string()).collect())
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7) % 1000).collect());
    let columns = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
    ];
    let samples = vec![
        parse(&format!("SELECT SUM(revenue) FROM {name} WHERE dept = 'retail'")).expect("sample"),
        parse(&format!("SELECT SUM(revenue) FROM {name} WHERE ts >= 100")).expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"explain-it", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, partitions, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server)
}

/// A query target that counts every execution reaching it, so a test can
/// assert that `EXPLAIN` performed exactly zero of them. It provides only the
/// two required methods: the default `QueryTarget::run` reaches it through
/// `execute_query`.
struct CountingTarget<'a> {
    inner: &'a SeabedServer,
    executes: AtomicU64,
}

impl QueryTarget for CountingTarget<'_> {
    fn schema_of(&self, table: &str) -> Result<&Schema, SeabedError> {
        self.inner.schema_of(table)
    }

    fn execute_query(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        self.executes.fetch_add(1, Ordering::Relaxed);
        self.inner.execute_query(query, filters)
    }
}

#[test]
fn explain_returns_the_plan_without_executing() {
    let (client, server) = sales_fixture();
    let target = CountingTarget {
        inner: &server,
        executes: AtomicU64::new(0),
    };
    let session = SeabedSession::single("sales", client, &target);

    let sql = "EXPLAIN SELECT SUM(revenue) FROM sales WHERE dept = 'retail' AND ts >= 100";
    let explanation = session.explain(sql, &[]).expect("explain");
    assert_eq!(
        target.executes.load(Ordering::Relaxed),
        0,
        "EXPLAIN must not execute anything"
    );
    assert!(!explanation.analyzed);
    assert!(explanation.result.is_none(), "EXPLAIN returns no rows");

    // The structural tree covers scan → filter chain → aggregate, labelled
    // by operator class and physical column.
    let rendered = explanation.render();
    assert!(rendered.contains("scan sales"), "{rendered}");
    assert!(rendered.contains("filter det:"), "{rendered}");
    assert!(rendered.contains("aggregate"), "{rendered}");
    // No node carries a profile: nothing was measured.
    fn no_profiles(node: &PlanNode) {
        assert!(node.profile.is_none(), "EXPLAIN node {} has a profile", node.op);
        node.children.iter().for_each(no_profiles);
    }
    no_profiles(&explanation.plan);

    // EXPLAIN ANALYZE on the same target executes exactly once.
    let analyzed = session
        .explain(
            "EXPLAIN ANALYZE SELECT SUM(revenue) FROM sales WHERE dept = 'retail' AND ts >= 100",
            &[],
        )
        .expect("explain analyze");
    assert_eq!(target.executes.load(Ordering::Relaxed), 1);
    assert!(analyzed.analyzed);
    assert!(analyzed.result.is_some());
}

#[test]
fn explain_analyze_rows_match_plain_execution_on_sales() {
    let (client, server) = sales_fixture();
    let session = SeabedSession::single("sales", client, &server);

    let sql = "SELECT SUM(revenue) FROM sales WHERE dept = 'retail' AND ts >= 100";
    let plain = session.query(sql, &[]).expect("plain query");
    let explanation = session
        .explain(&format!("EXPLAIN ANALYZE {sql}"), &[])
        .expect("explain analyze");
    let analyzed = explanation.result.as_ref().expect("EXPLAIN ANALYZE returns the rows");
    assert_eq!(analyzed.rows, plain.rows, "analyzed execution diverged");
    assert_eq!(analyzed.result_bytes, plain.result_bytes);

    // The annotated plan carries measured per-operator profiles.
    let rendered = explanation.render();
    assert!(rendered.contains("rows_in="), "no measured profiles: {rendered}");
}

#[test]
fn explain_analyze_rows_match_plain_execution_on_ad_analytics() {
    let mut rng = rand::rng();
    let dataset = seabed_workloads::ad_analytics::generate(&mut rng, 2_000);
    let queries = seabed_workloads::ad_analytics::performance_query_set(&mut rng);
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
    let samples: Vec<_> = queries.iter().map(|q| parse(&q.sql).expect("sample")).collect();
    let mut client = SeabedClient::create_plan(b"explain-ada", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rng);
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let session = SeabedSession::single("ad_analytics", client, &server);

    for q in queries.iter().take(4) {
        let plain = session.query(&q.sql, &[]).expect("plain query");
        let explanation = session
            .explain(&format!("EXPLAIN ANALYZE {}", q.sql), &[])
            .expect("explain analyze");
        let analyzed = explanation.result.expect("rows");
        assert_eq!(analyzed.rows, plain.rows, "diverged on {}", q.sql);
    }
}

/// `EXPLAIN ANALYZE` of a statement with placeholders explains the plan *that
/// ran*. A filter's class — where it sits in the execution order, the label
/// its measurements come back under — is a fact of the bound plan: the session
/// used to annotate the unbound one, whose plain `?` was guessed to be an
/// integer compare, so `region = ?` bound to a string rendered an unmeasured
/// `filter plain:region` and hung `operator filter:text:region` off the root.
/// One case per placeholder class: the tree must equal, op for op, detail for
/// detail and row count for row count, that of the same statement with its
/// literals inline.
#[test]
fn explain_analyze_with_placeholders_renders_the_inline_statements_tree() {
    use seabed_query::Literal;
    let n = 1_200usize;
    let depts = ["retail", "wholesale", "online", "partner"];
    let dataset = PlainDataset::new("sales")
        .with_text_column("dept", (0..n).map(|i| depts[i % depts.len()].to_string()).collect())
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect())
        .with_uint_column("ts", (0..n as u64).map(|i| (i * 7) % 1000).collect())
        .with_uint_column("hour", (0..n as u64).map(|i| i % 24).collect())
        .with_text_column("region", (0..n).map(|i| format!("r{}", i % 3)).collect());
    let columns = vec![
        ColumnSpec::sensitive("dept"),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::public("hour"),
        ColumnSpec::public("region"),
    ];
    let samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE dept = 'retail'").expect("sample"),
        parse("SELECT SUM(revenue) FROM sales WHERE ts >= 100").expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"explain-params", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 6, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let session = SeabedSession::single("sales", client, &server);

    // Pre-order (op, detail, rows in and out) of every node.
    type Shape = Vec<(String, String, Option<(u64, u64)>)>;
    fn shape(node: &PlanNode, out: &mut Shape) {
        let rows = node.profile.map(|p| (p.rows_in, p.rows_out));
        out.push((node.op.clone(), node.detail.clone(), rows));
        node.children.iter().for_each(|child| shape(child, out));
    }
    let text = |s: &str| Literal::Text(s.to_string());
    for (class, bound, params, inline) in [
        (
            "public integer",
            "hour = ? AND ts >= 100",
            vec![Literal::Integer(5)],
            "hour = 5 AND ts >= 100",
        ),
        (
            "public text",
            "region = ? AND ts >= ?",
            vec![text("r1"), Literal::Integer(100)],
            "region = 'r1' AND ts >= 100",
        ),
        (
            "DET",
            "dept = ? AND region = 'r0'",
            vec![text("retail")],
            "dept = 'retail' AND region = 'r0'",
        ),
        (
            "ORE",
            "ts >= ? AND hour < 12",
            vec![Literal::Integer(100)],
            "ts >= 100 AND hour < 12",
        ),
    ] {
        let explain = |predicates: &str, params: &[Literal]| {
            let sql = format!("EXPLAIN ANALYZE SELECT SUM(revenue) FROM sales WHERE {predicates}");
            session.explain(&sql, params).expect("explain analyze")
        };
        let with_params = explain(bound, &params);
        let with_literals = explain(inline, &[]);
        let rendered = with_params.render();

        let (mut got, mut want) = (Vec::new(), Vec::new());
        shape(&with_params.plan, &mut got);
        shape(&with_literals.plan, &mut want);
        assert_eq!(
            got, want,
            "{class}: the bound statement's tree is not the inline statement's:\n{rendered}"
        );
        assert_eq!(
            with_params.result.expect("rows").rows,
            with_literals.result.expect("rows").rows,
            "{class}"
        );

        // And, spelled out: every filter measured, the deepest one fed the
        // whole table, nothing left over at the root.
        let filters: Vec<_> = got.iter().filter(|(op, ..)| op == "filter").collect();
        assert_eq!(filters.len(), 2, "{class}:\n{rendered}");
        assert!(
            filters.iter().all(|(.., rows)| rows.is_some()),
            "{class}: unmeasured filter:\n{rendered}"
        );
        let deepest = filters.last().expect("two filters");
        assert_eq!(
            deepest.2.map(|(rows_in, _)| rows_in),
            Some(n as u64),
            "{class}:\n{rendered}"
        );
        assert!(
            with_params.plan.children.iter().all(|child| child.op != "operator"),
            "{class}: a measurement matched no plan node:\n{rendered}"
        );
    }
}

/// The distributed acceptance criterion: one `EXPLAIN ANALYZE` through a
/// coordinator returns the whole cluster's stitched plan — coordinator
/// scatter/gather/merge stages plus one node per shard with its worker and
/// its measured per-operator rows — while a plain `EXPLAIN` generates no
/// worker traffic at all.
#[test]
fn distributed_explain_analyze_stitches_shard_profiles() {
    let (client, server) = sales_fixture();
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), server.table().clone())],
        DistConfig::default(),
    )
    .expect("coordinator connects");
    let session = SeabedSession::single("sales", client, &coordinator).with_obs(coordinator.registry());

    let sql = "SELECT SUM(revenue) FROM sales WHERE dept = 'retail' AND ts >= 100";
    let plain = session.query(sql, &[]).expect("plain query");

    // --- Plain EXPLAIN: zero worker traffic. The shard-execute histogram
    // only moves when a ShardQuery actually runs on a worker (the scrapes
    // bumping `net_requests_served` don't touch it). ---
    let shard_executes = |addrs: &[std::net::SocketAddr]| -> u64 {
        addrs
            .iter()
            .map(|a| {
                let (snapshot, _, _) = scrape_metrics(*a, false, false, Duration::from_secs(5)).expect("scrape");
                snapshot.histogram("shard_execute_ns").map(|h| h.count).unwrap_or(0)
            })
            .sum()
    };
    let executed_before = shard_executes(&addrs);
    let explained = session.explain(&format!("EXPLAIN {sql}"), &[]).expect("explain");
    assert!(explained.result.is_none());
    assert_eq!(
        shard_executes(&addrs),
        executed_before,
        "EXPLAIN must not run a single shard query on any worker"
    );

    // --- EXPLAIN ANALYZE: identical rows plus the stitched cluster plan. ---
    let explanation = session
        .explain(&format!("EXPLAIN ANALYZE {sql}"), &[])
        .expect("explain analyze");
    let analyzed = explanation.result.as_ref().expect("rows");
    assert_eq!(analyzed.rows, plain.rows, "analyzed distributed execution diverged");

    let rendered = explanation.render();
    for stage in ["dist", "scatter", "shard 0/", "shard 1/", "gather", "merge"] {
        assert!(rendered.contains(stage), "stitched plan missing {stage:?}:\n{rendered}");
    }
    assert!(
        rendered.contains('@'),
        "shard nodes must name their worker:\n{rendered}"
    );

    // Each shard node carries measured per-operator children with real row
    // counts flowing through.
    fn shard_operator_rows(node: &PlanNode) -> u64 {
        let own: u64 = if node.op == "shard" {
            node.children
                .iter()
                .filter(|c| c.op == "operator")
                .filter_map(|c| c.profile.as_ref())
                .map(|p| p.rows_in)
                .sum()
        } else {
            0
        };
        own + node.children.iter().map(shard_operator_rows).sum::<u64>()
    }
    assert!(
        shard_operator_rows(&explanation.plan) > 0,
        "per-shard operator profiles must carry rows:\n{rendered}"
    );

    // The shared registry captured coordinator-side query events whose plans
    // are the same redacted trees.
    let events = session.registry().recent_events();
    assert!(
        events.iter().any(|e| e.node == "coordinator"),
        "coordinator must record query events"
    );

    // --- Redaction byte-scan over every explain surface. ---
    for payload in [
        rendered.clone(),
        explanation.plan.to_json(),
        seabed_obs::events_to_json(&events),
    ] {
        assert!(
            !payload.contains(SECRET_LITERAL),
            "explain surface leaked a predicate literal: {payload}"
        );
        assert!(!payload.contains("SELECT"), "explain surface leaked raw SQL: {payload}");
    }

    // --- EXPLAIN ANALYZE is an execute: counted like one, and with every
    // worker down it fails like one, leaving an error-tagged session event
    // (plain EXPLAIN still answers: it never leaves the proxy). ---
    assert_eq!(session.stats().executes, 2, "the plain query and the analyzed one");
    for w in workers {
        w.shutdown();
    }
    let failed = session.explain(&format!("EXPLAIN ANALYZE {sql}"), &[]);
    assert!(matches!(failed, Err(SeabedError::Dist { .. })), "{failed:?}");
    assert_eq!(session.stats().executes, 2, "a failed execute is not counted");
    let events = session.registry().recent_events();
    let event = events
        .iter()
        .rfind(|e| e.node == "session")
        .expect("the failed analyzed execution must leave a session event");
    assert_eq!(event.outcome, "dist-error");
    assert!(!event.plan.contains(SECRET_LITERAL) && !event.plan.contains("SELECT"));
    session
        .explain(&format!("EXPLAIN {sql}"), &[])
        .expect("EXPLAIN needs no worker");
}

/// A coordinator whose registry is disabled still times its stages: each
/// stage is measured once, whether or not its histogram records, and the
/// stitched plan reads that measurement, so the stages are non-zero and fit
/// inside the `dist` node.
#[test]
fn a_disabled_registry_still_times_the_coordinators_stages() {
    let (client, server) = sales_fixture();
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), server.table().clone())],
        DistConfig::default(),
    )
    .expect("coordinator connects")
    .with_obs(seabed_obs::Registry::disabled());
    let session = SeabedSession::single("sales", client, &coordinator);

    let sql = "EXPLAIN ANALYZE SELECT SUM(revenue) FROM sales WHERE dept = 'retail' AND ts >= 100";
    let explanation = session.explain(sql, &[]).expect("explain analyze");
    let rendered = explanation.render();
    let dist = explanation
        .plan
        .children
        .iter()
        .find(|c| c.op == "dist")
        .expect("a coordinator contributes its subtree");
    let nanos = |node: &PlanNode| node.profile.map_or(0, |p| p.nanos);
    let stage = |op: &str| {
        let node = dist.children.iter().find(|c| c.op == op);
        nanos(node.unwrap_or_else(|| panic!("no {op} stage:\n{rendered}")))
    };
    let (scatter, gather, merge) = (stage("scatter"), stage("gather"), stage("merge"));
    assert!(scatter > 0 && gather > 0, "untimed stage:\n{rendered}");
    assert!(merge <= gather, "the merge is part of the gather:\n{rendered}");
    assert!(scatter + gather <= nanos(dist), "stages outlast the query:\n{rendered}");

    drop(session);
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}

/// Two sessions on one coordinator, each looping `EXPLAIN ANALYZE` on its own
/// table, in lockstep so every pair of executions overlaps. The two tables
/// have different shard counts, so a stitched plan or a coordinator event
/// that belongs to the *other* session's execution shows at once. (The plan
/// used to be read back from a "most recent analyzed execution" slot on the
/// coordinator, which the other session could overwrite in between.)
#[test]
fn concurrent_explain_analyze_returns_each_executions_own_plan() {
    const ROUNDS: usize = 300;
    let (narrow_client, narrow) = fixture("narrow", 2);
    let (wide_client, wide) = fixture("wide", 6);
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![
            ("narrow".into(), narrow.table().clone()),
            ("wide".into(), wide.table().clone()),
        ],
        DistConfig::default(),
    )
    .expect("coordinator connects");

    // Per session: every analyzed execution's trace id and rendered plan.
    // Nothing in the loop may panic — the other session would wait at the
    // barrier forever — so the plans are judged after both have finished.
    let lockstep = Barrier::new(2);
    let explain_loop = |table: &str, client: SeabedClient| -> Vec<Result<(u64, PlanNode), SeabedError>> {
        let session = SeabedSession::single(table, client, &coordinator);
        let sql = format!("EXPLAIN ANALYZE SELECT SUM(revenue) FROM {table} WHERE dept = 'retail'");
        (0..ROUNDS)
            .map(|_| {
                lockstep.wait();
                let explanation = session.explain(&sql, &[])?;
                Ok((explanation.result.map_or(0, |r| r.trace_id), explanation.plan))
            })
            .collect()
    };
    let (narrow_plans, wide_plans) = std::thread::scope(|scope| {
        let narrow = scope.spawn(|| explain_loop("narrow", narrow_client));
        let wide = scope.spawn(|| explain_loop("wide", wide_client));
        (
            narrow.join().expect("narrow session"),
            wide.join().expect("wide session"),
        )
    });

    // The shard count each trace id's plan must show.
    let mut expected: HashMap<u64, usize> = HashMap::new();
    for (table, shards, plans) in [("narrow", 2usize, narrow_plans), ("wide", 3, wide_plans)] {
        for (round, explained) in plans.into_iter().enumerate() {
            let (trace_id, plan) = explained.expect("explain analyze");
            let dist = plan
                .children
                .iter()
                .find(|c| c.op == "dist")
                .expect("a coordinator contributes its subtree");
            assert_eq!(
                dist.children.iter().filter(|c| c.op == "shard").count(),
                shards,
                "round {round}: {table} has {shards} shards, its plan shows another execution:\n{}",
                plan.render()
            );
            assert!(dist.detail.contains(&format!("of {shards} shards")), "{}", dist.detail);
            expected.insert(trace_id, shards);
        }
    }
    assert_eq!(expected.len(), 2 * ROUNDS, "every execution ran under its own trace id");

    // The coordinator's event for an analyzed execution renders the plan of
    // that execution (the ring holds the most recent ones).
    let events = coordinator.registry().recent_events();
    assert!(!events.is_empty());
    for event in &events {
        let shards = expected[&event.trace_id];
        assert!(
            event.plan.starts_with("dist") && event.plan.contains(&format!("of {shards} shards")),
            "the event of a {shards}-shard execution renders another one's plan:\n{}",
            event.plan
        );
    }

    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}
