//! The traced pass: one client replays operations through a stage-by-stage
//! pipeline assembled from the same public pieces `SeabedSession::execute`
//! uses, with a span around each call. It yields the per-layer metrics, the
//! share table of each workload, and the spans of `trace.json`.
//!
//! Per workload: set up once, warm up, run list A untraced through the
//! session (the single-client baseline), run list B — same generator, fresh
//! literals — through the traced pipeline, then the workload's own probes.
//! The workload-independent kernel probes (`probes.rs`) run in every traced
//! run.

use crate::env::Canary;
use crate::probes;
use crate::stats::{best_quartile, median, Better};
use crate::sut::{self, Bound, Failure, Local, Planned, Reply, Session, Stages, Target};
use crate::timed::{
    check, ingest_once, prepare_all, ready_ingest, ready_segments, run_op, Budget, ClusterDeployment, ReadyOp,
    RemoteDeployment, Tally,
};
use crate::trace::Recorder;
use crate::workloads::{
    ingest_plan, query_plan, QueryPlan, Workload, CLUSTER_BIG_ROWS, CLUSTER_SMALL_ROWS, INGEST_BATCH_ROWS,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Operations per list in the traced pass (fewer when a segment is shorter).
const TRACED_OPS: usize = 400;
/// Ingests traced (each is a whole encrypt + load + query).
const TRACED_INGESTS: usize = 16;

/// What a traced run produced.
#[derive(Default)]
pub struct LayerRun {
    /// Per-layer metric values by name; a metric whose layer is not on the
    /// workload's path is absent (reported as 0).
    pub values: BTreeMap<&'static str, f64>,
    /// The spans.
    pub recorder: Recorder,
    /// The share table: layer → percent of traced operation time.
    pub shares: Vec<(&'static str, f64)>,
    /// Operations of the warm-up, the untraced and traced lists and the
    /// workload's probes.
    pub tally: Tally,
    /// Canary readings taken between the phases.
    pub canary_ms: Vec<f64>,
}

impl LayerRun {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Median duration (µs) of the spans called `name`; 0 when there are none.
    fn median_span(&self, name: &str) -> f64 {
        median(&self.recorder.durations(name))
    }

    fn total_span(&self, name: &str) -> f64 {
        self.recorder.durations(name).iter().sum()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `ops` through the session, checking each; returns latencies in µs.
fn untraced_pass<'a, T: Target>(
    run: &mut LayerRun,
    session: &Session<'_, T>,
    statements: &[sut::Statement],
    ops: impl IntoIterator<Item = &'a ReadyOp>,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut outcomes = Vec::new();
    for op in ops {
        let sent = Instant::now();
        let outcome = run_op(session, statements, op);
        latencies.push(micros(sent.elapsed()));
        outcomes.push((op, outcome));
    }
    for (op, outcome) in &outcomes {
        run.tally.note(check(op, outcome));
    }
    latencies
}

/// The planned statements of a prepared workload (one-shot workloads plan
/// inside each operation instead).
fn plan_shapes<T: Target>(stages: &Stages<'_, T>, plan: &QueryPlan) -> Result<Vec<Planned>, Failure> {
    if plan.one_shot {
        return Ok(Vec::new());
    }
    plan.shapes
        .iter()
        .enumerate()
        .map(|(id, shape)| stages.translate(stages.parse(&shape.sql(None))?, id as u64))
        .collect()
}

/// Sums over a traced list.
#[derive(Default)]
struct Totals {
    /// Rows the executes scanned.
    scanned: u64,
    /// PRF evaluations the decryptions spent.
    prf_evals: u64,
    /// Per operation, the time the engine's operators measured for themselves.
    operator_us: Vec<f64>,
}

/// What a traced operation leaves behind for the replay phase, which runs
/// after the whole list so that traced operations follow one another as
/// closely as untraced ones do.
struct Kept<'a> {
    op: &'a ReadyOp,
    /// The `target.execute` span, which the replayed children hang under.
    execute: usize,
    /// The per-operation plan of a one-shot statement.
    fresh: Option<Planned>,
    bound: Bound,
    reply: Reply,
    answer: Result<sut::Answer, Failure>,
}

/// One operation through the traced pipeline. `after_execute` runs with
/// trace time paused, right after the target answered (the cluster reads the
/// coordinator's report there, before the next execute overwrites it).
fn traced_op<'a, T: Target>(
    rec: &mut Recorder,
    stages: &Stages<'_, T>,
    planned: &[Planned],
    op: &'a ReadyOp,
    number: u32,
    after_execute: impl FnOnce(&mut Recorder, usize),
) -> Result<Kept<'a>, Failure> {
    let root = rec.begin("op", None, number);
    let mut fresh = None;
    let plan = if op.sql.is_empty() {
        &planned[op.shape]
    } else {
        let span = rec.begin("query.parse", Some(root), number);
        let parsed = stages.parse(&op.sql)?;
        rec.end(span);
        let span = rec.begin("query.translate", Some(root), number);
        let translated = stages.translate(parsed, u64::from(number))?;
        rec.end(span);
        fresh.insert(translated)
    };
    let span = rec.begin("core.bind", Some(root), number);
    let bound = stages.bind(plan, &op.params)?;
    rec.end(span);
    let execute = rec.begin("target.execute", Some(root), number);
    let reply = stages.execute(plan, &bound)?;
    rec.end(execute);
    rec.pause();
    let kept_reply = reply.duplicate();
    after_execute(rec, execute);
    rec.resume();
    let span = rec.begin("core.decrypt", Some(root), number);
    let answer = stages.decrypt(plan, reply);
    rec.end(span);
    rec.end(root);
    Ok(Kept {
        op,
        execute,
        fresh,
        bound,
        reply: kept_reply,
        answer,
    })
}

/// Runs a list through [`traced_op`]; a stage that fails counts as a failed
/// operation and leaves its spans open-ended.
fn traced_list<'a, T: Target>(
    run: &mut LayerRun,
    stages: &Stages<'_, T>,
    planned: &[Planned],
    ops: &'a [ReadyOp],
    mut after_execute: impl FnMut(&mut Recorder, usize, &ReadyOp),
) -> Vec<Kept<'a>> {
    let mut kept = Vec::with_capacity(ops.len());
    for (number, op) in ops.iter().enumerate() {
        let outcome = traced_op(&mut run.recorder, stages, planned, op, number as u32, |rec, execute| {
            after_execute(rec, execute, op)
        });
        match outcome {
            Ok(done) => kept.push(done),
            Err(failure) => {
                run.recorder.resume();
                run.tally.note(Some(failure));
            }
        }
    }
    kept
}

/// Checks the kept answers (outside trace time) and counts their PRF work.
fn check_kept(run: &mut LayerRun, kept: &[Kept<'_>], totals: &mut Totals) {
    for done in kept {
        totals.prf_evals += done.answer.as_ref().map_or(0, sut::Answer::prf_evals);
        run.tally.note(check(done.op, &done.answer));
    }
}

/// The replayed children of a remote execute: the twin server's execute and
/// the client-side codec calls on the same frames.
fn remote_children(
    rec: &mut Recorder,
    execute: usize,
    twin: &Local,
    planned: &Planned,
    bound: &Bound,
    reply: &Reply,
) -> Result<(u64, Duration, f64), Failure> {
    let t = Instant::now();
    let request = sut::encode_request(bound)?;
    let encode = t.elapsed();
    std::hint::black_box(request);
    let t = Instant::now();
    sut::replay(twin, planned, bound)?;
    let server = t.elapsed();
    let frame = sut::response_frame(reply)?;
    let t = Instant::now();
    sut::decode(&frame)?;
    let decode = t.elapsed();
    rec.add_replayed("net.encode_request", execute, Duration::ZERO, encode);
    rec.add_replayed("engine.server_execute", execute, encode, server);
    rec.add_replayed("net.decode_response", execute, encode + server, decode);
    // What the remote execute took beyond its replayed parts. Not clipped at
    // zero: on scan-heavy operations the twin's scan and the server's differ
    // by more than the transport costs, in either direction, and clipping
    // would turn that noise into a bias.
    let transport = rec.spans()[execute].micros() - micros(encode + server + decode);
    let (scanned, operators) = sut::analyze(twin, planned, bound)?;
    Ok((scanned, operators, transport))
}

/// Fills the metrics every query workload derives from its spans, and the
/// trace-quality numbers against the untraced baseline.
fn span_metrics(run: &mut LayerRun, untraced: &[f64], totals: &Totals, traced_ops: usize) {
    let ops = traced_ops.max(1) as f64;
    run.set("query.parse_us", run.median_span("query.parse"));
    run.set("query.translate_us", run.median_span("query.translate"));
    run.set("core.decrypt_us", run.median_span("core.decrypt"));
    run.set("core.decrypt_prf_evals", totals.prf_evals as f64 / ops);
    run.set("engine.server_execute_us", run.median_span("engine.server_execute"));
    run.set("engine.operator_us", median(&totals.operator_us));
    run.set("engine.rows_scanned_per_op", totals.scanned as f64 / ops);
    // What the stages explain of an operation: per operation, the sum of its
    // stage spans (a workload mixes cheap and dear operations, so medians are
    // taken over whole operations, never summed across stages).
    let spans = run.recorder.spans();
    let explained: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, span)| span.name == "op")
        .map(|(root, _)| {
            spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.micros())
                .sum()
        })
        .collect();
    let baseline = median(untraced);
    if baseline > 0.0 {
        run.set(
            "trace.unattributed_pct",
            (baseline - median(&explained)) / baseline * 100.0,
        );
        run.set(
            "trace.overhead_pct",
            (run.median_span("op") - baseline) / baseline * 100.0,
        );
    }
}

fn canary_reading(run: &mut LayerRun, canary: &mut Canary) {
    run.canary_ms.push(canary.run_ms());
}

// ---------------------------------------------------------------------------
// dash_remote and scan_adhoc
// ---------------------------------------------------------------------------

fn remote_traced(workload: Workload, seed: u64, budget: Budget, run: &mut LayerRun) -> Result<(), Failure> {
    let n = workload.ops_per_segment(budget.seconds).min(TRACED_OPS);
    // Lists: warm-up, A (untraced), B (traced) and, for the obs probe, three
    // more to cut into chunks.
    let lists = if workload == Workload::DashRemote { 6 } else { 3 };
    let plan = query_plan(workload, seed, lists, n);
    let ready = ready_segments(&plan);
    let mut canary = Canary::default();

    let mut parts = Vec::new();
    let deployment = RemoteDeployment::start(&plan.tables[0], workload.partitions(), seed, true, &mut parts)?;
    run.set(
        "core.encrypt_dataset_krows_s",
        plan.tables[0].rows() as f64 / parts[0].1 / 1e3,
    );
    let remote = sut::connect(&deployment.service, &deployment.proxy)?;
    let session = Session::open(&[&deployment.proxy], &remote, true);
    let statements = prepare_all(&session, &plan.shapes, plan.one_shot)?;
    untraced_pass(run, &session, &statements, &ready[0]);

    canary_reading(run, &mut canary);
    let (hits_before, prepared_before) = session.statement_counters();
    let untraced = untraced_pass(run, &session, &statements, &ready[1]);
    let (hits, prepared) = session.statement_counters();
    let lookups = (hits - hits_before) + (prepared - prepared_before);
    if lookups > 0 {
        run.set(
            "core.stmt_cache_hit_ratio",
            (hits - hits_before) as f64 / lookups as f64,
        );
    } else {
        // Prepared statements are looked up once, at prepare; every execute
        // after that reuses the handle.
        run.set("core.stmt_cache_hit_ratio", 1.0);
    }

    canary_reading(run, &mut canary);
    let twin = sut::local(&deployment.stored);
    let stages = Stages::new(&[&deployment.proxy], &remote);
    let planned = plan_shapes(&stages, &plan)?;
    let mut totals = Totals::default();
    let wire_before = remote.wire_bytes();
    let kept = traced_list(run, &stages, &planned, &ready[2], |_, _, _| {});
    let wire_after = remote.wire_bytes();
    check_kept(run, &kept, &mut totals);
    // The replay phase: the same execute on the twin, the codec on the same
    // frames, and an analyzed execute for the counts.
    let mut transport_us = Vec::with_capacity(kept.len());
    for done in &kept {
        let plan = done.fresh.as_ref().unwrap_or_else(|| &planned[done.op.shape]);
        match remote_children(&mut run.recorder, done.execute, &twin, plan, &done.bound, &done.reply) {
            Ok((scanned, operators, transport)) => {
                totals.scanned += scanned;
                totals.operator_us.push(micros(operators));
                transport_us.push(transport);
            }
            Err(failure) => run.tally.note(Some(failure)),
        }
    }
    let ops = ready[2].len();
    span_metrics(run, &untraced, &totals, ops);
    run.set("net.req_bytes", (wire_after.0 - wire_before.0) as f64 / ops as f64);
    run.set("net.resp_bytes", (wire_after.1 - wire_before.1) as f64 / ops as f64);
    run.set("net.encode_request_us", run.median_span("net.encode_request"));
    run.set("net.decode_response_us", run.median_span("net.decode_response"));
    run.set("net.transport_us", median(&transport_us));

    let total = run.total_span("op").max(1e-9);
    let transport: f64 = transport_us.iter().sum();
    let layers = [
        (
            "query",
            run.total_span("query.parse") + run.total_span("query.translate"),
        ),
        ("core", run.total_span("core.bind") + run.total_span("core.decrypt")),
        ("engine", run.total_span("engine.server_execute")),
        (
            "net",
            transport + run.total_span("net.encode_request") + run.total_span("net.decode_response"),
        ),
    ];
    run.shares = layers.iter().map(|(layer, t)| (*layer, t / total * 100.0)).collect();
    // What no stage span covers: the self time of the operation roots.
    let uncovered: f64 = run.recorder.self_times("op").iter().sum();
    run.shares.push(("other", uncovered / total * 100.0));

    if workload == Workload::DashRemote {
        canary_reading(run, &mut canary);
        let ops: Vec<&ReadyOp> = ready[3..].iter().flatten().collect();
        obs_probe(seed, &plan, &ops, &deployment, run)?;
    }
    drop(session);
    drop(remote);
    deployment.stop();
    Ok(())
}

/// `obs.on_off_delta_pct`: the same operations against the deployment with
/// observability at its defaults and against a twin deployment with
/// `ObsConfig::disabled()` on service and session, interleaved operation by
/// operation. Positive = observability costs latency.
fn obs_probe(
    seed: u64,
    plan: &QueryPlan,
    ops: &[&ReadyOp],
    with_obs: &RemoteDeployment,
    run: &mut LayerRun,
) -> Result<(), Failure> {
    let partitions = Workload::DashRemote.partitions();
    let without_obs = RemoteDeployment::start(&plan.tables[0], partitions, seed, false, &mut Vec::new())?;
    let remote_on = sut::connect(&with_obs.service, &with_obs.proxy)?;
    let remote_off = sut::connect(&without_obs.service, &without_obs.proxy)?;
    let session_on = Session::open(&[&with_obs.proxy], &remote_on, true);
    let session_off = Session::open(&[&without_obs.proxy], &remote_off, false);
    let statements_on = prepare_all(&session_on, &plan.shapes, plan.one_shot)?;
    let statements_off = prepare_all(&session_off, &plan.shapes, plan.one_shot)?;
    // Alternate per operation, and alternate which side goes first: both
    // sides see every operation once, equally cold, and host drift cancels.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (index, op) in ops.iter().enumerate() {
        let on_first = index % 2 == 0;
        for with in [on_first, !on_first] {
            let (session, statements, latencies) = if with {
                (&session_on, &statements_on, &mut on)
            } else {
                (&session_off, &statements_off, &mut off)
            };
            let sent = Instant::now();
            let outcome = run_op(session, statements, op);
            latencies.push(micros(sent.elapsed()));
            run.tally.note(check(op, &outcome));
        }
    }
    let base = median(&off);
    if base > 0.0 {
        run.set("obs.on_off_delta_pct", (median(&on) - base) / base * 100.0);
    }
    drop((session_on, session_off));
    drop((remote_on, remote_off));
    without_obs.stop();
    Ok(())
}

// ---------------------------------------------------------------------------
// cluster_mixed
// ---------------------------------------------------------------------------

/// What the coordinator's report says about one traced execute.
struct ClusterFacts {
    /// Wall time of `target.execute`.
    execute_us: f64,
    /// Round trip of the slowest scattered shard (0 on a hit).
    round_trip_us: f64,
    /// The scan that shard's worker measured.
    scan_us: f64,
    /// Merge + finalize at the coordinator.
    gather_us: f64,
    /// True when at least one shard missed the partial cache.
    miss: bool,
}

fn cluster_traced(seed: u64, budget: Budget, run: &mut LayerRun) -> Result<(), Failure> {
    let workload = Workload::ClusterMixed;
    let n = workload.ops_per_segment(budget.seconds).min(TRACED_OPS);
    let plan = query_plan(workload, seed, 3, n);
    let ready = ready_segments(&plan);
    let mut canary = Canary::default();

    let mut parts = Vec::new();
    let deployment = ClusterDeployment::start(&plan.tables, seed, &mut parts)?;
    let rows = (CLUSTER_BIG_ROWS + CLUSTER_SMALL_ROWS) as f64;
    run.set("core.encrypt_dataset_krows_s", rows / parts[0].1 / 1e3);
    let coordinator = &deployment.coordinator;
    let session = Session::open(&deployment.proxy_refs(), coordinator, true);
    let statements = prepare_all(&session, &plan.shapes, false)?;
    untraced_pass(run, &session, &statements, &ready[0]);

    canary_reading(run, &mut canary);
    let cache_before = sut::cache_counters(coordinator);
    let untraced = untraced_pass(run, &session, &statements, &ready[1]);
    let cache_after = sut::cache_counters(coordinator);
    let probes = (cache_after.0 - cache_before.0) + (cache_after.1 - cache_before.1);
    run.set(
        "dist.cache_hit_ratio",
        (cache_after.0 - cache_before.0) as f64 / probes.max(1) as f64,
    );
    run.set("core.stmt_cache_hit_ratio", 1.0);

    canary_reading(run, &mut canary);
    let stages = Stages::new(&deployment.proxy_refs(), coordinator);
    let planned = plan_shapes(&stages, &plan)?;
    let mut facts: Vec<ClusterFacts> = Vec::new();
    let mut totals = Totals::default();
    let (mut hedged, mut redispatched) = (0, 0);
    let wire_before = coordinator.wire_bytes();
    let kept = traced_list(run, &stages, &planned, &ready[2], |rec, execute, op| {
        let report = sut::last_report(coordinator);
        let span = &rec.spans()[execute];
        let wall = Duration::from_nanos(span.end_ns - span.start_ns);
        for (round_trip, scan) in &report.shard_runs {
            let shard = rec.add_replayed("net.shard_round_trip", execute, Duration::ZERO, *round_trip);
            rec.add_replayed("engine.server_execute", shard, Duration::ZERO, *scan);
        }
        rec.add_replayed(
            "dist.gather",
            execute,
            wall.saturating_sub(report.gather),
            report.gather,
        );
        let slowest = report.shard_runs.iter().max().copied().unwrap_or_default();
        facts.push(ClusterFacts {
            execute_us: micros(wall),
            round_trip_us: micros(slowest.0),
            scan_us: micros(slowest.1),
            gather_us: micros(report.gather),
            miss: report.cache_misses > 0,
        });
        hedged += report.hedged_reads;
        redispatched += report.redispatches;
        // Each scattered shard scans its slice of the table once.
        let shards = (report.cache_hits + report.cache_misses).max(1);
        totals.scanned += plan.table_of(op.shape).rows() as u64 * report.shard_runs.len() as u64 / shards;
    });
    let wire_after = coordinator.wire_bytes();
    check_kept(run, &kept, &mut totals);
    let ops = ready[2].len();
    span_metrics(run, &untraced, &totals, ops);
    // Operators run inside the workers; nothing outside them can time those.
    run.set("engine.operator_us", 0.0);
    run.set("net.req_bytes", (wire_after.0 - wire_before.0) as f64 / ops as f64);
    run.set("net.resp_bytes", (wire_after.1 - wire_before.1) as f64 / ops as f64);
    let of = |miss: bool, pick: fn(&ClusterFacts) -> f64| -> Vec<f64> {
        facts.iter().filter(|f| f.miss == miss).map(pick).collect()
    };
    run.set("dist.execute_hit_us", median(&of(false, |f| f.execute_us)));
    run.set("dist.execute_miss_us", median(&of(true, |f| f.execute_us)));
    run.set(
        "dist.coord_overhead_us",
        median(&of(true, |f| f.execute_us - f.scan_us)),
    );
    run.set(
        "dist.gather_us",
        median(&facts.iter().map(|f| f.gather_us).collect::<Vec<_>>()),
    );
    run.set("dist.hedged_reads", hedged as f64);
    run.set("dist.redispatches", redispatched as f64);
    // On this workload the server execute is the slowest shard's scan, and
    // transport is what its round trip adds to it.
    run.set("engine.server_execute_us", median(&of(true, |f| f.scan_us)));
    run.set("net.transport_us", median(&of(true, |f| f.round_trip_us - f.scan_us)));

    let total = run.total_span("op").max(1e-9);
    let engine: f64 = facts.iter().map(|f| f.scan_us).sum();
    let net: f64 = facts.iter().map(|f| f.round_trip_us - f.scan_us).sum();
    let dist: f64 = facts.iter().map(|f| f.execute_us - f.round_trip_us).sum();
    let core = run.total_span("core.bind") + run.total_span("core.decrypt");
    run.shares = vec![
        ("core", core / total * 100.0),
        ("engine", engine / total * 100.0),
        ("net", net / total * 100.0),
        ("dist", dist / total * 100.0),
        ("other", (total - core - engine - net - dist) / total * 100.0),
    ];
    drop(session);
    deployment.stop();
    Ok(())
}

// ---------------------------------------------------------------------------
// ingest_load
// ---------------------------------------------------------------------------

fn ingest_traced(seed: u64, run: &mut LayerRun) -> Result<(), Failure> {
    let plan = ingest_plan(seed, 2, TRACED_INGESTS);
    let ready = ready_ingest(&plan);
    let mut canary = Canary::default();
    // List A untraced (the baseline), list B with spans laid over the parts
    // `ingest_once` reports.
    let mut untraced = Vec::new();
    for (index, op) in ready[0].iter().enumerate() {
        let done = ingest_once(&plan.batches[index % plan.batches.len()], &plan.shape, op, seed)?;
        run.tally.note(check(op, &done.outcome));
        untraced.push(micros(done.latency));
    }
    canary_reading(run, &mut canary);
    let mut encrypt_s = Vec::new();
    let (mut crypto, mut ashe) = (0.0, 0.0);
    for (index, op) in ready[1].iter().enumerate() {
        let batch = &plan.batches[(TRACED_INGESTS + index) % plan.batches.len()];
        let done = ingest_once(batch, &plan.shape, op, seed)?;
        run.tally.note(check(op, &done.outcome));
        let [encrypt, spawn, load, query] = done.parts;
        // The operation already ran; lay its measured parts out in order.
        let rec = &mut run.recorder;
        let root = rec.add_finished_root("op", index as u32, done.latency);
        let spans = [
            ("core.encrypt_dataset", encrypt),
            ("net.spawn_workers", spawn),
            ("dist.load_shards", load),
            ("core.verified_query", query),
        ];
        let mut offset = Duration::ZERO;
        let mut ids = Vec::new();
        for (name, duration) in spans {
            ids.push(rec.add_replayed(name, root, offset, duration));
            offset += duration;
        }
        let [ore, det, ashe_columns] = sut::column_costs(batch);
        rec.add_replayed("crypto.ore_column", ids[0], Duration::ZERO, ore);
        rec.add_replayed("crypto.det_column", ids[0], ore, det);
        rec.add_replayed("ashe.columns", ids[0], ore + det, ashe_columns);
        crypto += micros(ore + det);
        ashe += micros(ashe_columns);
        encrypt_s.push(encrypt.as_secs_f64());
    }
    let rows = INGEST_BATCH_ROWS as f64;
    run.set(
        "core.encrypt_dataset_krows_s",
        rows / best_quartile(&encrypt_s, Better::Lower) / 1e3,
    );
    let baseline = median(&untraced);
    let stages: f64 = [
        "core.encrypt_dataset",
        "net.spawn_workers",
        "dist.load_shards",
        "core.verified_query",
    ]
    .iter()
    .map(|name| run.median_span(name))
    .sum();
    run.set("trace.unattributed_pct", (baseline - stages) / baseline * 100.0);
    run.set(
        "trace.overhead_pct",
        (run.median_span("op") - baseline) / baseline * 100.0,
    );
    run.set("core.stmt_cache_hit_ratio", 0.0);
    let total = run.total_span("op").max(1e-9);
    let core = run.total_span("core.encrypt_dataset") - crypto - ashe + run.total_span("core.verified_query");
    let net = run.total_span("net.spawn_workers");
    let dist = run.total_span("dist.load_shards");
    run.shares = vec![
        ("crypto", crypto / total * 100.0),
        ("ashe", ashe / total * 100.0),
        ("core", core / total * 100.0),
        ("net", net / total * 100.0),
        ("dist", dist / total * 100.0),
        ("other", (total - crypto - ashe - core - net - dist) / total * 100.0),
    ];
    Ok(())
}

/// Runs the traced pass of `workload`.
pub fn run(workload: Workload, seed: u64, budget: Budget) -> Result<LayerRun, Failure> {
    let mut run = LayerRun::default();
    match workload {
        Workload::DashRemote | Workload::ScanAdhoc => remote_traced(workload, seed, budget, &mut run)?,
        Workload::ClusterMixed => cluster_traced(seed, budget, &mut run)?,
        Workload::IngestLoad => ingest_traced(seed, &mut run)?,
    }
    let mut canary = Canary::default();
    canary_reading(&mut run, &mut canary);
    probes::run(&mut run.values)?;
    canary_reading(&mut run, &mut canary);
    Ok(run)
}
