//! Live observability tour: run a small sharded cluster, trace one query
//! end-to-end, and scrape a worker's metrics over the wire mid-flight.
//!
//! Demonstrates the `seabed-obs` layer across every component:
//!
//! 1. a [`seabed_core::SeabedSession`] sharing one registry with its
//!    [`seabed_dist::DistCoordinator`], so every query runs under a single
//!    `TraceId` (`result.trace_id`) whose stitched spans cover parse →
//!    translate → encrypt-filters → dispatch → scatter → shard-execute →
//!    gather → merge → decrypt;
//! 2. a remote scrape ([`seabed_net::scrape_metrics`], wire kinds 17/18) of
//!    a live worker: counters, log-bucket latency histograms with p50/p99,
//!    and the worker's own event ring — one event per shard query it
//!    answered — carrying the propagated id;
//! 3. both exposition formats (JSON and Prometheus) — note that nothing in
//!    either ever contains a plaintext query literal.
//!
//! Run with: `cargo run --release --example observability`

use std::time::Duration;

use seabed_core::{PlainDataset, SeabedClient, SeabedSession};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_net::{scrape_metrics, ServiceConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};

fn main() {
    let mut rng = rand::rng();

    // 1. A sales table, planned and encrypted client-side.
    let n = 12_000usize;
    let countries = ["USA", "USA", "Canada", "India", "USA", "Chile"];
    let sales = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 1_000).collect());
    let specs = vec![
        ColumnSpec::sensitive_with_distribution("country", sales.distribution("country").expect("column exists")),
        ColumnSpec::sensitive("revenue"),
    ];
    let samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE country = 'USA'").expect("sample"),
        parse("SELECT SUM(revenue) FROM sales").expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"obs-demo-key", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&sales, 12, &mut rng);

    // 2. Three workers on ephemeral ports, one coordinator, one session. The
    //    session adopts the coordinator's registry so both nodes' events
    //    land in the same ring.
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let w = spawn_worker("127.0.0.1:0", ServiceConfig::default()).expect("worker must start");
            println!("worker {i} listening on {}", w.local_addr());
            w
        })
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("sales".into(), encrypted.table.clone())],
        DistConfig::default(),
    )
    .expect("coordinator connects");
    let session = SeabedSession::single("sales", client, &coordinator).with_obs(coordinator.registry());

    // 3. A few queries to warm the histograms, then one traced query.
    for _ in 0..4 {
        session
            .query("SELECT SUM(revenue) FROM sales", &[])
            .expect("warm-up query");
    }
    let sql = "SELECT SUM(revenue) FROM sales WHERE country = 'USA'";
    let result = session.query(sql, &[]).expect("traced query");
    let trace_id = result.trace_id;
    println!("\n{sql}\n  -> {:?} (trace id {trace_id:#018x})", result.rows);

    // 3b. EXPLAIN ANALYZE the same query: the structural plan annotated with
    //     measured per-operator profiles, with the coordinator's stitched
    //     scatter / per-shard / gather / merge subtree hanging underneath.
    let explanation = session
        .explain(&format!("EXPLAIN ANALYZE {sql}"), &[])
        .expect("explain analyze");
    println!("\nEXPLAIN ANALYZE {sql}\n{}", explanation.render());

    // 4. The stitched end-to-end timeline: the coordinator's event and the
    //    session's under the one propagated id, spans in ring order.
    let merged = session.registry().merged_trace(trace_id).expect("trace recorded");
    println!("\ntimeline across [{}]:", merged.node);
    for span in &merged.spans {
        println!(
            "  {:>16}  +{:>9.3} ms  ({:.3} ms)",
            span.name,
            span.start_ns as f64 / 1e6,
            span.duration_ns as f64 / 1e6
        );
    }

    // 5. Scrape a live worker over the wire (kinds 17/18): its counters and
    //    shard-execute latency histogram, plus its event ring — the same
    //    trace id shows up server-side.
    let (snapshot, events) = scrape_metrics(addrs[0], true, Duration::from_secs(5)).expect("worker scrape");
    println!("\nscraped worker {}:", addrs[0]);
    if let Some(h) = snapshot.histogram("shard_execute_ns") {
        println!(
            "  shard_execute_ns: count={} p50={:.3} ms p99={:.3} ms max={:.3} ms",
            h.count,
            h.p50() as f64 / 1e6,
            h.p99() as f64 / 1e6,
            h.max as f64 / 1e6
        );
    }
    for name in ["net_requests_served", "net_bytes_in", "net_bytes_out"] {
        println!("  {name}: {}", snapshot.counter(name).unwrap_or(0));
    }
    let propagated = events.iter().filter(|e| e.trace_id == trace_id).count();
    println!("  event ring: {} event(s), {propagated} carrying our id", events.len());
    if let Some(event) = events.last() {
        println!(
            "  last event: node={} outcome={} slow={} total={:.3} ms ({} spans, {} operator rows)",
            event.node,
            event.outcome,
            event.slow,
            event.total_ns as f64 / 1e6,
            event.spans.len(),
            event.operators.len()
        );
    }

    // 6. Both exposition formats. Everything here is metric names, span
    //    names and numbers — never a plaintext literal like 'USA'.
    println!("\nPrometheus exposition (excerpt):");
    for line in snapshot.to_prometheus().lines().take(12) {
        println!("  {line}");
    }
    println!("\nJSON exposition: {} bytes", snapshot.to_json().len());

    // 7. Coordinator-side counters from the shared registry.
    let local = session.registry().snapshot();
    println!("\ncoordinator metrics:");
    for name in ["dist_cache_hits", "dist_cache_misses", "dist_hedged_reads"] {
        println!("  {name}: {}", local.counter(name).unwrap_or(0));
    }
    if let Some(h) = local.histogram("dist_scatter_ns") {
        println!(
            "  dist_scatter_ns: count={} p50={:.3} ms",
            h.count,
            h.p50() as f64 / 1e6
        );
    }

    drop(session);
    drop(coordinator);
    for w in workers {
        w.shutdown();
    }
}
