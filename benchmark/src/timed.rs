//! The timed pass: set-up (repeated, timed), one discarded warm-up segment,
//! then the timed segments — one closed loop (the next request leaves when
//! the previous reply is in), the program's observability at product
//! defaults, no benchmark spans. Every answer is checked against the
//! plaintext reference outside the timed region.
//!
//! Operations are recorded in *slices* of a few dozen milliseconds. The
//! metrics module ranks the slices and reports over the cleanest of them; see
//! its docs for why.

use crate::env::{peak_rss_mb, process_cpu_ms, Canary};
use crate::gen::{PlainTable, QueryOp, Shape};
use crate::reference::{evaluate, same_rows, Rows};
use crate::sut::{self, Answer, Coordinator, Failure, Params, Proxy, Service, Session, Statement, Stored, Target};
use crate::workloads::{ingest_plan, query_plan, IngestPlan, QueryPlan, Workload, PARTITIONS, SEGMENTS};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions of a full-length run: the one the run keeps, then
/// throwaway ones spread evenly between the timed segments (see
/// [`setup_due`]) — at least [`MIN_SETUP_REPEATS`] in all, and more for a
/// short set-up: up to one before every segment, within about
/// [`SETUP_BUDGET_S`]. The median repetition is reported.
const MIN_SETUP_REPEATS: usize = 3;
const MAX_SETUP_REPEATS: usize = SEGMENTS + 1;
const SETUP_BUDGET_S: f64 = 2.5;
/// A run that takes this many times `--seconds` stops after the segment in
/// progress, so a slow host cannot push a run past the driver's time limit.
const OVERRUN_FACTOR: f64 = 1.7;
/// Segments a run always completes before the overrun guard may stop it.
const MIN_SEGMENTS: usize = 4;
/// Failure messages kept for the log.
const KEPT_FAILURES: usize = 5;

/// A run of consecutive operations, the unit the estimator ranks.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Wall time from the first operation's start to the last one's end.
    pub wall_s: f64,
    /// Process CPU time spent meanwhile (client, server and workers are all
    /// threads of this process).
    pub cpu_ms: f64,
    /// Per operation: its shape and its latency in milliseconds.
    pub ops: Vec<(usize, f64)>,
}

/// Operations attempted and failed, with the first few failures kept for the
/// log. A typed error, a panic and a wrong answer each count as a failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first [`KEPT_FAILURES`] failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `failure` is `None` when it answered correctly.
    pub fn note(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(failure) = failure {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(failure);
            }
        }
    }
}

/// What the timed pass of one workload produced.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Named parts of the last set-up, in seconds.
    pub setup_parts: Vec<(&'static str, f64)>,
    /// The slices of the timed segments (the warm-up is not here).
    pub slices: Vec<Slice>,
    /// The noise canary, timed before every segment (warm-up included).
    pub canary_ms: Vec<f64>,
    /// Timed segments completed.
    pub segments: usize,
    /// Request + response bytes on the workload's sockets over the timed
    /// segments.
    pub wire_bytes: u64,
    /// Operations of the warm-up and the timed segments.
    pub tally: Tally,
    /// Encrypted bytes stored for the workload's tables.
    pub stored_bytes: u64,
    /// Plaintext bytes of the same tables.
    pub plain_bytes: u64,
    /// Session statement-cache (hits, misses) over the whole pass.
    pub statement_cache: (u64, u64),
    /// Coordinator partial-cache (hits, misses) over the timed segments.
    pub partial_cache: (u64, u64),
    /// PRF evaluations spent decrypting, over the timed segments.
    pub prf_evals: u64,
    /// Operations per segment.
    pub ops_per_segment: usize,
    /// Fingerprint of the generated inputs.
    pub fingerprint: u64,
    /// True when the overrun guard cut the run short.
    pub truncated: bool,
    /// Peak resident set size (`VmHWM`) in MB.
    pub peak_rss_mb: f64,
}

/// How long the run is meant to measure, and what follows from it.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// `--seconds`.
    pub seconds: f64,
}

impl Budget {
    /// The budget of a `--seconds` run.
    pub fn new(seconds: f64) -> Budget {
        Budget { seconds }
    }

    /// How many times to set up, given how long the first set-up took.
    fn setup_repeats(self, first_s: f64) -> usize {
        // Quick runs (a CI smoke, a test) set up once.
        if self.seconds < 5.0 {
            return 1;
        }
        let affordable = (SETUP_BUDGET_S / first_s.max(1e-3)) as usize;
        // An odd count, so the median is one of the repetitions.
        affordable.clamp(MIN_SETUP_REPEATS, MAX_SETUP_REPEATS) | 1
    }

    /// Throwaway set-ups to spread over the run, given how long the first
    /// set-up took.
    fn extra_setups(self, first_s: f64) -> usize {
        self.setup_repeats(first_s) - 1
    }

    /// True when the run has overrun so far that it should stop before
    /// segment `next` (0 is the warm-up).
    fn overrun(self, run_started: Instant, next: usize) -> bool {
        next > MIN_SEGMENTS && run_started.elapsed().as_secs_f64() > self.seconds * OVERRUN_FACTOR
    }
}

/// True when one of the `extra` throwaway set-ups is due before timed
/// segment `segment` (1 to [`SEGMENTS`]; 0 is the warm-up). They are spread
/// evenly over the run rather than repeated back to back at its start: the
/// host's slow stretches last from a few tenths of a second to a few
/// seconds, and back-to-back repetitions of a 35 ms set-up sat inside one
/// often enough that identical runs read 0.036 s and 0.064 s.
fn setup_due(extra: usize, segment: usize) -> bool {
    segment >= 1 && segment * extra / SEGMENTS > (segment - 1) * extra / SEGMENTS
}

/// Named parts of one set-up, in seconds.
pub type Parts = Vec<(&'static str, f64)>;

/// Times one set-up: what it built, how long it took, and its named parts.
fn timed_setup<D>(start: impl FnOnce(&mut Parts) -> Result<D, Failure>) -> Result<(D, f64, Parts), Failure> {
    let mut parts = Vec::new();
    let started = Instant::now();
    let built = start(&mut parts)?;
    Ok((built, seconds_since(started), parts))
}

// ---------------------------------------------------------------------------
// Operations made ready ahead of the timed region
// ---------------------------------------------------------------------------

/// An operation with its literals converted, its SQL rendered and its
/// expected answer computed.
pub struct ReadyOp {
    /// Statement shape (index into the plan's shapes).
    pub shape: usize,
    /// Inline SQL text (one-shot workloads only).
    pub sql: String,
    /// Bound literals.
    pub params: Params,
    /// The reference answer (shared between the recurrences of a hot
    /// binding, so the checker's memory stays small beside the program's).
    pub expect: Arc<Rows>,
}

/// Evaluates the reference once per distinct operation (hot bindings recur
/// thousands of times).
#[derive(Default)]
pub struct Expectations {
    memo: HashMap<QueryOp, Arc<Rows>>,
}

impl Expectations {
    /// Makes `op` ready against `table`.
    pub fn ready(&mut self, table: &PlainTable, shape: &Shape, op: &QueryOp, one_shot: bool) -> ReadyOp {
        let expect = if op.hot {
            Arc::clone(
                self.memo
                    .entry(op.clone())
                    .or_insert_with(|| Arc::new(evaluate(table, shape, op))),
            )
        } else {
            Arc::new(evaluate(table, shape, op))
        };
        ReadyOp {
            shape: op.shape,
            sql: if one_shot {
                shape.sql(Some(&op.literals))
            } else {
                String::new()
            },
            params: if one_shot {
                sut::no_params()
            } else {
                sut::params(shape, &op.literals)
            },
            expect,
        }
    }
}

/// Makes every segment of a query plan ready.
pub fn ready_segments(plan: &QueryPlan) -> Vec<Vec<ReadyOp>> {
    let mut memo = Expectations::default();
    plan.ops
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| memo.ready(plan.table_of(op.shape), &plan.shapes[op.shape], op, plan.one_shot))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// Runs one operation; a panic inside the program counts as a failure.
pub fn run_op<T: Target>(session: &Session<'_, T>, statements: &[Statement], op: &ReadyOp) -> Result<Answer, Failure> {
    catch_unwind(AssertUnwindSafe(|| {
        if op.sql.is_empty() {
            session.execute(&statements[op.shape], &op.params)
        } else {
            session.query(&op.sql)
        }
    }))
    .unwrap_or_else(|_| Err("the operation panicked".to_string()))
}

/// Compares an outcome with the reference; `None` when it is right.
pub fn check(op: &ReadyOp, outcome: &Result<Answer, Failure>) -> Option<String> {
    match outcome {
        Err(err) => Some(format!("error: {err}")),
        Ok(answer) => {
            let got = answer.rows();
            if same_rows(&got, &op.expect) {
                None
            } else {
                Some(format!("wrong answer: got {got:?}, want {:?}", op.expect))
            }
        }
    }
}

/// Prepares every shape of `shapes` on `session` (one-shot workloads prepare
/// nothing).
pub fn prepare_all<T: Target>(
    session: &Session<'_, T>,
    shapes: &[Shape],
    one_shot: bool,
) -> Result<Vec<Statement>, Failure> {
    if one_shot {
        return Ok(Vec::new());
    }
    shapes.iter().map(|shape| session.prepare(&shape.sql(None))).collect()
}

/// Cuts a segment's operations into slices as they run: `record` takes each
/// operation's shape and latency and closes a slice every `per_slice`
/// operations.
struct Slicer {
    per_slice: usize,
    started: Instant,
    cpu_started: f64,
    current: Vec<(usize, f64)>,
    done: Vec<Slice>,
}

impl Slicer {
    fn start(per_slice: usize) -> Slicer {
        Slicer {
            per_slice,
            started: Instant::now(),
            cpu_started: process_cpu_ms(),
            current: Vec::with_capacity(per_slice),
            done: Vec::new(),
        }
    }

    fn record(&mut self, shape: usize, latency: Duration) {
        self.current.push((shape, latency.as_secs_f64() * 1_000.0));
        if self.current.len() == self.per_slice {
            let (now, cpu_now) = (Instant::now(), process_cpu_ms());
            self.done.push(Slice {
                wall_s: (now - self.started).as_secs_f64(),
                cpu_ms: cpu_now - self.cpu_started,
                ops: std::mem::replace(&mut self.current, Vec::with_capacity(self.per_slice)),
            });
            (self.started, self.cpu_started) = (now, cpu_now);
        }
    }

    /// The finished slices; a shorter tail slice is dropped (it would rank
    /// on too few operations).
    fn finish(self) -> Vec<Slice> {
        self.done
    }
}

/// The timed pass of a query workload over an open session: per segment,
/// canary, then the segment's operations back to back, then (untimed) the
/// checker. `wire_meter` reads the bytes moved so far; `after_warmup` runs
/// once the warm-up segment is done (the cluster notes its cache counters
/// there); `setup_again` sets up a throwaway deployment beside the run's own
/// and returns how long that took (see [`setup_due`]).
#[allow(clippy::too_many_arguments)]
fn query_segments<T: Target>(
    run: &mut TimedRun,
    workload: Workload,
    budget: Budget,
    session: &Session<'_, T>,
    statements: &[Statement],
    segments: &[Vec<ReadyOp>],
    wire_meter: impl Fn() -> u64,
    mut after_warmup: impl FnMut(),
    setup_again: impl Fn() -> Result<f64, Failure>,
) -> Result<(), Failure> {
    let mut canary = Canary::default();
    let extra_setups = budget.extra_setups(run.setup_s[0]);
    let run_started = Instant::now();
    for (index, ops) in segments.iter().enumerate() {
        if budget.overrun(run_started, index) {
            run.truncated = true;
            break;
        }
        if setup_due(extra_setups, index) {
            // Memory is read before the first throwaway deployment stands
            // beside the run's own: set-up and the warm-up segment have
            // raised it as far as the later segments will.
            if run.peak_rss_mb == 0.0 {
                run.peak_rss_mb = peak_rss_mb();
            }
            run.setup_s.push(setup_again()?);
        }
        run.canary_ms.push(canary.run_ms());
        let wire_before = wire_meter();
        let mut slicer = Slicer::start(workload.ops_per_slice());
        let mut outcomes = Vec::with_capacity(ops.len());
        for op in ops {
            let sent = Instant::now();
            let outcome = run_op(session, statements, op);
            slicer.record(op.shape, sent.elapsed());
            outcomes.push(outcome);
        }
        let wire_bytes = wire_meter() - wire_before;
        for (op, outcome) in ops.iter().zip(&outcomes) {
            run.tally.note(check(op, outcome));
        }
        if index == 0 {
            after_warmup();
            continue; // the warm-up segment is checked but not measured
        }
        run.segments += 1;
        run.wire_bytes += wire_bytes;
        run.prf_evals += outcomes.iter().flatten().map(Answer::prf_evals).sum::<u64>();
        run.slices.extend(slicer.finish());
    }
    Ok(())
}

fn seconds_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

/// One table hosted on one TCP service (`dash_remote`, `scan_adhoc`).
pub struct RemoteDeployment {
    /// The proxy state.
    pub proxy: Proxy,
    /// The encrypted table.
    pub stored: Stored,
    /// The hosted server.
    pub service: Service,
}

impl RemoteDeployment {
    /// Encrypts `plain` and hosts it.
    pub fn start(
        plain: &PlainTable,
        partitions: usize,
        seed: u64,
        obs: bool,
        parts: &mut Parts,
    ) -> Result<RemoteDeployment, Failure> {
        let t = Instant::now();
        let (proxy, stored) = sut::encrypt(plain, partitions, seed)?;
        parts.push(("encrypt_s", seconds_since(t)));
        let t = Instant::now();
        let service = sut::serve(&stored, obs)?;
        parts.push(("serve_s", seconds_since(t)));
        Ok(RemoteDeployment { proxy, stored, service })
    }

    /// Stops the service.
    pub fn stop(self) {
        self.service.shutdown();
    }
}

/// Two tables on two workers behind one coordinator (`cluster_mixed`).
pub struct ClusterDeployment {
    /// Proxy state per table.
    pub proxies: Vec<Proxy>,
    /// The coordinator.
    pub coordinator: Coordinator,
    /// The workers.
    pub workers: Vec<Service>,
    /// Stored bytes of all tables.
    pub stored_bytes: u64,
}

impl ClusterDeployment {
    /// Encrypts the tables, spawns two workers and loads every shard.
    pub fn start(tables: &[PlainTable], seed: u64, parts: &mut Parts) -> Result<ClusterDeployment, Failure> {
        let t = Instant::now();
        let encrypted = tables
            .iter()
            .map(|plain| sut::encrypt(plain, PARTITIONS, seed))
            .collect::<Result<Vec<_>, _>>()?;
        parts.push(("encrypt_s", seconds_since(t)));
        let t = Instant::now();
        let workers = sut::spawn_workers(2)?;
        parts.push(("spawn_s", seconds_since(t)));
        let t = Instant::now();
        let pairs: Vec<(&Proxy, &Stored)> = encrypted.iter().map(|(p, s)| (p, s)).collect();
        let coordinator = sut::connect_cluster(&workers, &pairs)?;
        parts.push(("load_shards_s", seconds_since(t)));
        Ok(ClusterDeployment {
            stored_bytes: encrypted.iter().map(|(_, s)| s.stored_bytes).sum(),
            proxies: encrypted.into_iter().map(|(p, _)| p).collect(),
            coordinator,
            workers,
        })
    }

    /// Proxies by reference, as sessions take them.
    pub fn proxy_refs(&self) -> Vec<&Proxy> {
        self.proxies.iter().collect()
    }

    /// Drops the coordinator and stops the workers.
    pub fn stop(self) {
        drop(self.coordinator);
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The timed pass of each workload
// ---------------------------------------------------------------------------

/// `dash_remote` and `scan_adhoc`: one hosted server, one connection, one
/// session.
fn remote_workload(workload: Workload, seed: u64, budget: Budget) -> Result<TimedRun, Failure> {
    let per_segment = workload.ops_per_segment(budget.seconds);
    let plan = query_plan(workload, seed, SEGMENTS + 1, per_segment);
    let mut run = TimedRun {
        ops_per_segment: per_segment,
        fingerprint: plan.fingerprint,
        plain_bytes: plan.tables[0].plain_bytes(),
        ..TimedRun::default()
    };
    let ready = ready_segments(&plan);
    let set_up = |parts: &mut Parts| {
        let deployment = RemoteDeployment::start(&plan.tables[0], workload.partitions(), seed, true, parts)?;
        // Set-up includes what a client does before its first request.
        let t = Instant::now();
        let remote = sut::connect(&deployment.service, &deployment.proxy)?;
        parts.push(("connect_s", seconds_since(t)));
        let t = Instant::now();
        let session = Session::open(&[&deployment.proxy], &remote, true);
        prepare_all(&session, &plan.shapes, plan.one_shot)?;
        parts.push(("prepare_s", seconds_since(t)));
        Ok(deployment)
    };
    let (deployment, first_s, parts) = timed_setup(set_up)?;
    run.setup_s.push(first_s);
    run.setup_parts = parts;
    run.stored_bytes = deployment.stored.stored_bytes;
    {
        let remote = sut::connect(&deployment.service, &deployment.proxy)?;
        let session = Session::open(&[&deployment.proxy], &remote, true);
        let statements = prepare_all(&session, &plan.shapes, plan.one_shot)?;
        let meter = || {
            let (sent, received) = remote.wire_bytes();
            sent + received
        };
        let setup_again = || {
            let (throwaway, seconds, _) = timed_setup(set_up)?;
            throwaway.stop();
            Ok(seconds)
        };
        query_segments(
            &mut run,
            workload,
            budget,
            &session,
            &statements,
            &ready,
            meter,
            || {},
            setup_again,
        )?;
        run.statement_cache = session.statement_counters();
    }
    deployment.stop();
    Ok(run)
}

/// `cluster_mixed`: a multi-table session on the coordinator.
fn cluster_workload(seed: u64, budget: Budget) -> Result<TimedRun, Failure> {
    let workload = Workload::ClusterMixed;
    let per_segment = workload.ops_per_segment(budget.seconds);
    let plan = query_plan(workload, seed, SEGMENTS + 1, per_segment);
    let mut run = TimedRun {
        ops_per_segment: per_segment,
        fingerprint: plan.fingerprint,
        plain_bytes: plan.tables.iter().map(PlainTable::plain_bytes).sum(),
        ..TimedRun::default()
    };
    let ready = ready_segments(&plan);
    let set_up = |parts: &mut Parts| {
        let deployment = ClusterDeployment::start(&plan.tables, seed, parts)?;
        let t = Instant::now();
        let session = Session::open(&deployment.proxy_refs(), &deployment.coordinator, true);
        prepare_all(&session, &plan.shapes, false)?;
        parts.push(("prepare_s", seconds_since(t)));
        Ok(deployment)
    };
    let (deployment, first_s, parts) = timed_setup(set_up)?;
    run.setup_s.push(first_s);
    run.setup_parts = parts;
    run.stored_bytes = deployment.stored_bytes;
    {
        let coordinator = &deployment.coordinator;
        let session = Session::open(&deployment.proxy_refs(), coordinator, true);
        let statements = prepare_all(&session, &plan.shapes, false)?;
        let meter = || {
            let (sent, received) = coordinator.wire_bytes();
            sent + received
        };
        let setup_again = || {
            let (throwaway, seconds, _) = timed_setup(set_up)?;
            throwaway.stop();
            Ok(seconds)
        };
        let mut cache_after_warmup = (0, 0);
        query_segments(
            &mut run,
            workload,
            budget,
            &session,
            &statements,
            &ready,
            meter,
            || cache_after_warmup = sut::cache_counters(coordinator),
            setup_again,
        )?;
        let (hits, misses) = sut::cache_counters(coordinator);
        run.partial_cache = (hits - cache_after_warmup.0, misses - cache_after_warmup.1);
        run.statement_cache = session.statement_counters();
    }
    deployment.stop();
    Ok(run)
}

/// One `ingest_load` operation: encrypt the batch, start two fresh workers,
/// load the table onto them, prepare and run the verified query. The workers
/// are stopped afterwards, outside the latency.
pub struct IngestOutcome {
    /// Wall time of the operation.
    pub latency: Duration,
    /// The verified query's outcome.
    pub outcome: Result<Answer, Failure>,
    /// Bytes between coordinator and workers.
    pub wire_bytes: u64,
    /// Encrypted size of the batch.
    pub stored_bytes: u64,
    /// (encrypt, spawn, load, query) times.
    pub parts: [Duration; 4],
}

/// Runs one ingest operation.
pub fn ingest_once(batch: &PlainTable, shape: &Shape, op: &ReadyOp, seed: u64) -> Result<IngestOutcome, Failure> {
    let started = Instant::now();
    let (proxy, stored) = sut::encrypt(batch, PARTITIONS, seed)?;
    let encrypted = Instant::now();
    let workers = sut::spawn_workers(2)?;
    let spawned = Instant::now();
    let coordinator = sut::connect_cluster(&workers, &[(&proxy, &stored)])?;
    let loaded = Instant::now();
    let session = Session::open(&[&proxy], &coordinator, true);
    let outcome = session
        .prepare(&shape.sql(None))
        .and_then(|statement| run_op(&session, &[statement], op));
    let ended = Instant::now();
    let wire = coordinator.wire_bytes();
    drop(session);
    drop(coordinator);
    for worker in workers {
        worker.shutdown();
    }
    Ok(IngestOutcome {
        latency: ended - started,
        outcome,
        wire_bytes: wire.0 + wire.1,
        stored_bytes: stored.stored_bytes,
        parts: [
            encrypted - started,
            spawned - encrypted,
            loaded - spawned,
            ended - loaded,
        ],
    })
}

/// Makes the verified queries of an ingest plan ready.
pub fn ready_ingest(plan: &IngestPlan) -> Vec<Vec<ReadyOp>> {
    let mut memo = Expectations::default();
    let mut index = 0usize;
    plan.ops
        .iter()
        .map(|segment| {
            segment
                .iter()
                .map(|op| {
                    let batch = &plan.batches[index % plan.batches.len()];
                    index += 1;
                    memo.ready(batch, &plan.shape, op, false)
                })
                .collect()
        })
        .collect()
}

/// `ingest_load`: each operation a whole ingest.
fn ingest_workload(seed: u64, budget: Budget) -> Result<TimedRun, Failure> {
    let workload = Workload::IngestLoad;
    let per_segment = workload.ops_per_segment(budget.seconds);
    let plan = ingest_plan(seed, SEGMENTS + 1, per_segment);
    let ready = ready_ingest(&plan);
    let mut run = TimedRun {
        ops_per_segment: per_segment,
        fingerprint: plan.fingerprint,
        plain_bytes: plan.batches[0].plain_bytes(),
        ..TimedRun::default()
    };
    // Set-up is everything before the first timed ingest can run: one whole
    // priming ingest (plan, encrypt, spawn, load, prepare, query).
    let prime = || ingest_once(&plan.batches[0], &plan.shape, &ready[0][0], seed);
    let primed = prime()?;
    run.setup_s.push(primed.latency.as_secs_f64());
    run.stored_bytes = primed.stored_bytes;
    let [encrypt, spawn, load, query] = primed.parts.map(|d| d.as_secs_f64());
    run.setup_parts = vec![
        ("encrypt_s", encrypt),
        ("spawn_s", spawn),
        ("load_shards_s", load),
        ("prepare_s", query),
    ];
    let extra_setups = budget.extra_setups(run.setup_s[0]);
    let mut canary = Canary::default();
    let run_started = Instant::now();
    let mut index = 0usize;
    for (segment, ops) in ready.iter().enumerate() {
        if budget.overrun(run_started, segment) {
            run.truncated = true;
            break;
        }
        if setup_due(extra_setups, segment) {
            run.setup_s.push(prime()?.latency.as_secs_f64());
        }
        run.canary_ms.push(canary.run_ms());
        for op in ops {
            let batch = &plan.batches[index % plan.batches.len()];
            index += 1;
            // Worker teardown between operations is the benchmark's, not the
            // program's: a slice is one operation, its wall the latency.
            let cpu_before = process_cpu_ms();
            let done = ingest_once(batch, &plan.shape, op, seed)?;
            let cpu_ms = process_cpu_ms() - cpu_before;
            run.tally.note(check(op, &done.outcome));
            if segment == 0 {
                continue;
            }
            run.prf_evals += done.outcome.as_ref().map_or(0, Answer::prf_evals);
            run.wire_bytes += done.wire_bytes;
            run.slices.push(Slice {
                wall_s: done.latency.as_secs_f64(),
                cpu_ms,
                ops: vec![(op.shape, done.latency.as_secs_f64() * 1_000.0)],
            });
        }
        if segment > 0 {
            run.segments += 1;
        }
    }
    Ok(run)
}

/// Runs the timed pass of `workload`.
pub fn run(workload: Workload, seed: u64, budget: Budget) -> Result<TimedRun, Failure> {
    let mut run = match workload {
        Workload::DashRemote | Workload::ScanAdhoc => remote_workload(workload, seed, budget),
        Workload::ClusterMixed => cluster_workload(seed, budget),
        Workload::IngestLoad => ingest_workload(seed, budget),
    }?;
    // No throwaway deployment stood beside the run's own (a short run, or
    // `ingest_load`, whose ingests follow one another): the peak is the run's.
    if run.peak_rss_mb == 0.0 {
        run.peak_rss_mb = peak_rss_mb();
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_setups_are_all_placed_and_spread_over_the_run() {
        for extra in 0..=SEGMENTS {
            let due: Vec<usize> = (0..=SEGMENTS).filter(|s| setup_due(extra, *s)).collect();
            assert_eq!(due.len(), extra, "extra = {extra}");
            assert!(!due.contains(&0), "none before the warm-up: the first set-up just ran");
        }
        assert_eq!((0..=SEGMENTS).filter(|s| setup_due(2, *s)).collect::<Vec<_>>(), [5, 10]);
    }

    #[test]
    fn short_runs_set_up_once_and_long_ones_an_odd_number_of_times() {
        assert_eq!(Budget::new(2.0).extra_setups(0.03), 0);
        assert_eq!(Budget::new(20.0).extra_setups(0.03), SEGMENTS);
        assert_eq!(Budget::new(20.0).extra_setups(0.9), 2);
        assert_eq!(Budget::new(20.0).extra_setups(30.0), MIN_SETUP_REPEATS - 1);
    }
}
