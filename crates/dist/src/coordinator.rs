//! The scatter/gather coordinator.
//!
//! [`DistCoordinator::connect_tables`] shards each encrypted [`Table`]'s partitions
//! across N workers (contiguous partition ranges, so per-worker ID lists stay
//! run-compressed), announces a fresh **epoch** to every worker, and loads
//! each shard onto its **replica set** — `replication` workers per shard
//! (default 2), generalizing the old single-owner `(t + i) % N` placement to
//! `{(t + i + k) % N : k < R}`. [`QueryTarget::run`] then scatters
//! the translated query to every shard's *primary* (the first live member of
//! its replica set) — concurrently over the persistent connections — and
//! gathers the mergeable partial results into one [`ServerResponse`] via
//! [`seabed_engine::merge`] + [`seabed_core::finalize_partials`]: the *same*
//! two steps in-process execution runs, so the distributed answer is
//! byte-identical by construction.
//!
//! # Failure semantics
//!
//! Per shard query, the coordinator distinguishes:
//!
//! * **transport/protocol failures** (connect reset, mid-request stall past
//!   the round-trip deadline, framing desync, epoch/sequence mismatch, shard
//!   not resident): the worker's connection is poisoned and the shard is
//!   **re-dispatched** — first to a live replica that already holds it (no
//!   re-transfer on the critical path), then, only if no replica survives, by
//!   re-loading the coordinator's retained copy onto any other live worker.
//!   The coordinator itself never dies; only when no live replica or worker
//!   is left does the query return a typed [`SeabedError::Dist`].
//! * **query failures** (schema mismatch, corrupt shard, translation
//!   problems): deterministic — every worker would answer the same — so they
//!   propagate to the caller immediately instead of burning retries.
//!
//! # Hedged reads
//!
//! A primary that is merely *slow* — not provably dead — is hedged instead of
//! waited out: once a shard's reply is outstanding longer than
//! [`DistConfig::hedge_after`] (and a live second replica exists), the
//! coordinator abandons the wait **without poisoning the connection** (the
//! stream is still frame-aligned; nothing of the reply has arrived) and
//! re-issues the query to a replica under a fresh sequence number. The first
//! valid `(epoch, shard, seq)` echo wins; the loser's partial, arriving later
//! with an older seq, is discarded by the stale-seq rule below and can never
//! be merged twice. Hedging never engages when `hedge_after >=`
//! [`DistConfig::read_timeout`] or no live replica is available.
//!
//! # Elastic membership
//!
//! [`DistCoordinator::join_worker`] connects a new worker under the *same*
//! epoch and greedily rebalances replica slots onto it — moving only shards
//! whose replica set changed (load onto the joiner, then unload from the
//! donor). [`DistCoordinator::leave_worker`] re-homes every replica slot the
//! leaver held onto the least-loaded survivors before dropping its
//! connection, and refuses (typed error, membership unchanged) if a shard
//! would lose its last copy. Both bump the partial cache's fencing epoch, so
//! partials cached under the old membership can never answer a later probe.
//!
//! A worker's reply must echo the `(epoch, shard, seq)` triple of the
//! in-flight request. Stale triples (a duplicate, a hedge loser, or a late
//! answer to an earlier sequence number) are discarded and counted; anything
//! else poisons the connection, reusing the `seabed-net` rule that a
//! response can never be paired with the wrong request.

use crate::cache::{CacheStats, PartialCache, PartialKey};
use rand::RngCore;
use seabed_core::{
    event_operators, finalize_partials, fnv1a64, outcome_tag, plan_profile, ExecOutcome, ExecRequest, PartialResponse,
    PhysicalFilter, QueryTarget, ServerResponse,
};
use seabed_engine::merge::{merge_partial_groups, PartialGroups};
use seabed_engine::{fan_out, ExecStats, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame, ShardExecConfig};
use seabed_net::FrameConn;
use seabed_obs::{Counter, Gauge, Histogram, QueryEvent, Registry};
use seabed_query::{PlanNode, PlanProfile, TranslatedQuery};
use std::net::ToSocketAddrs;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant, SystemTime};

/// Configuration of a [`DistCoordinator`].
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Total stall budget for one worker round trip (connect, load, unload,
    /// or query): the deadline covers the request *and the whole reply* —
    /// including every stale partial drained while waiting — so a worker
    /// trickling bytes cannot stretch a single round trip past it.
    pub read_timeout: Duration,
    /// Frame limit for worker connections (shard loads carry whole partition
    /// sets, so this defaults to the wire maximum).
    pub max_frame_len: u32,
    /// Execution knobs fixed for every shard (worker-side scan threads and
    /// scalar/vectorized mode).
    pub exec: ShardExecConfig,
    /// Entry bound of the statement-keyed partial-result cache serving
    /// prepared executes ([`crate::cache`]); `0` disables caching.
    pub partial_cache_capacity: usize,
    /// Replicas per shard. Clamped to `1..=N` at connect time; `1` restores
    /// the old single-owner placement (and disables hedging for lack of a
    /// second copy).
    pub replication: usize,
    /// How long a shard query may stay outstanding on its primary before the
    /// coordinator hedges it against a replica. Hedging only engages when
    /// this is strictly below `read_timeout` and a live replica exists.
    pub hedge_after: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            read_timeout: Duration::from_secs(10),
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            exec: ShardExecConfig {
                local_threads: 1,
                exec_mode: seabed_engine::ExecMode::Vectorized,
            },
            partial_cache_capacity: 1024,
            replication: 2,
            hedge_after: Duration::from_secs(2),
        }
    }
}

impl DistConfig {
    /// Returns the configuration with the stall timeout replaced.
    pub fn read_timeout(mut self, timeout: Duration) -> DistConfig {
        self.read_timeout = timeout;
        self
    }

    /// Returns the configuration with the partial-cache bound replaced
    /// (`0` disables the cache).
    pub fn partial_cache_capacity(mut self, capacity: usize) -> DistConfig {
        self.partial_cache_capacity = capacity;
        self
    }

    /// Returns the configuration with the replica count replaced.
    pub fn replication(mut self, replicas: usize) -> DistConfig {
        self.replication = replicas;
        self
    }

    /// Returns the configuration with the hedge trigger replaced.
    pub fn hedge_after(mut self, after: Duration) -> DistConfig {
        self.hedge_after = after;
        self
    }
}

/// One shard's execution record within a query.
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Table the shard belongs to.
    pub table_id: u32,
    /// Shard identifier within the table.
    pub shard: u32,
    /// Label (address) of the worker that answered.
    pub worker: String,
    /// The worker-side scan statistics (measured on the worker).
    pub stats: ExecStats,
    /// Coordinator-observed round-trip time for this shard's query.
    pub round_trip: Duration,
    /// True when the shard had to be re-dispatched away from its original
    /// worker during this query.
    pub redispatched: bool,
    /// True when the answer came from a hedge replica because the primary
    /// left the request outstanding past the hedge trigger.
    pub hedged: bool,
}

/// What one `execute` call did, shard by shard.
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// Per-shard execution records.
    pub runs: Vec<ShardRun>,
    /// Time spent merging partials and finalizing at the coordinator.
    pub gather_time: Duration,
    /// End-to-end wall time of the scatter/gather.
    pub wall_time: Duration,
    /// Stale (duplicate, hedge-loser, or late) partials discarded during
    /// this query.
    pub discarded_partials: u64,
    /// Shards answered from the partial cache (prepared executes only).
    pub cache_hits: u64,
    /// Shards that missed the partial cache and were scattered (prepared
    /// executes only; one-shot queries never probe and count nothing).
    pub cache_misses: u64,
    /// Hedged reads launched during this query (slow primaries raced
    /// against a replica).
    pub hedged_reads: u64,
}

/// Health and traffic summary of one worker.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Worker label (resolved address).
    pub label: String,
    /// False once the connection was poisoned by a failure or the worker
    /// left the cluster.
    pub alive: bool,
    /// Shards whose replica set contains this worker, as (table id, shard
    /// id) pairs — one pool serves every registered table.
    pub shards: Vec<(u32, u32)>,
    /// Shard queries answered by this worker.
    pub queries: u64,
    /// Bytes written to this worker.
    pub bytes_sent: u64,
    /// Bytes read from this worker.
    pub bytes_received: u64,
}

/// One worker as the coordinator sees it.
struct WorkerLink {
    label: String,
    /// Guarded per worker, so concurrent scatter threads to *different*
    /// workers never contend. A poisoned connection is kept, not dropped: it
    /// refuses all traffic (the coordinator reads that as worker death) while
    /// the post-mortem summary still reports the bytes it really shipped.
    conn: Mutex<FrameConn>,
    /// The coordinator's shard epoch and frame limit, fixed for the link.
    epoch: u64,
    max_frame_len: u32,
    /// Set by [`DistCoordinator::leave_worker`]; a removed worker is never
    /// selected again (indices stay stable, the slot is retired in place).
    removed: AtomicBool,
    queries: AtomicU64,
    /// Stale partials drained off this connection and thrown away.
    discarded: AtomicU64,
}

/// A [`WorkerLink`] with its connection lock held.
struct LockedLink<'a> {
    link: &'a WorkerLink,
    conn: MutexGuard<'a, FrameConn>,
}

impl WorkerLink {
    /// Takes this worker's connection lock. A caller that numbers its
    /// request draws the number *under* the lock, so sequence numbers reach
    /// the worker in the order they were drawn.
    fn lock(&self) -> LockedLink<'_> {
        LockedLink {
            link: self,
            conn: self.conn.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// Poisons the connection (see [`FrameConn::poison`]).
    fn poison(&self, why: SeabedError) -> SeabedError {
        self.lock().conn.poison(why)
    }

    fn alive(&self) -> bool {
        !self.removed.load(Ordering::Acquire) && !self.lock().conn.is_poisoned()
    }
}

impl LockedLink<'_> {
    /// One request/reply exchange on this worker's connection under one
    /// total `budget` — the only way the coordinator talks to a worker.
    /// Sends the pre-encoded `request` (encoded *before* the connection is
    /// involved: a request that cannot be framed is a local failure, not
    /// worker death), then receives until `accept` breaks with the expected
    /// echo; a frame it hands back is not the echo. A partial of this epoch
    /// with a sequence number below `stale_below` — a duplicate, a hedge
    /// loser, a late answer — is counted and drained, never mistaken for the
    /// reply.
    ///
    /// The two failure levels of the module docs are told apart here: the
    /// exchange itself breaking (transport failure, desync, a stall past
    /// `budget`, a frame neither echo nor stale) **poisons** the connection;
    /// a well-framed error frame from the worker is returned as the error it
    /// carries and leaves the healthy connection alone. With `hedge`, a
    /// budget that runs dry before any byte of the reply is `Ok(None)`,
    /// connection healthy; a mid-frame stall always poisons.
    fn exchange<T>(
        &mut self,
        request: &[u8],
        budget: Duration,
        hedge: bool,
        stale_below: u64,
        expected: std::fmt::Arguments<'_>,
        mut accept: impl FnMut(Frame) -> ControlFlow<T, Frame>,
    ) -> Result<Option<T>, SeabedError> {
        let link = self.link;
        self.conn.send_encoded(request)?;
        let deadline = Instant::now() + budget;
        loop {
            let Some(frame) = self.conn.recv_reply(link.max_frame_len, deadline, hedge)? else {
                return Ok(None);
            };
            match accept(frame) {
                ControlFlow::Break(echo) => return Ok(Some(echo)),
                ControlFlow::Continue(Frame::ShardPartial { epoch, seq, .. })
                    if epoch == link.epoch && seq < stale_below =>
                {
                    link.discarded.fetch_add(1, Ordering::Relaxed);
                }
                ControlFlow::Continue(Frame::Error(reported)) => return Err(reported),
                ControlFlow::Continue(other) => {
                    let violation = format!("expected {expected}, got {:?}", other.kind());
                    return Err(self.conn.poison(SeabedError::dist(&link.label, violation)));
                }
            }
        }
    }
}

/// Unwraps the reply of an un-hedged [`LockedLink::exchange`], which runs to
/// a reply or an error: only a hedged one abandons its wait.
fn answered<T>(reply: Option<T>) -> T {
    reply.expect("only a hedged exchange abandons the wait")
}

/// Whether a failed shard query is worth re-dispatching to another worker:
/// transport and wire failures (this worker or its link misbehaved) and
/// dist-protocol errors (e.g. "shard not resident" after a worker restart)
/// are; deterministic query-semantics failures are not — every worker would
/// answer the same.
fn retry_elsewhere(err: &SeabedError) -> bool {
    matches!(
        err,
        SeabedError::Net(_) | SeabedError::Wire(_) | SeabedError::Dist { .. }
    )
}

/// Per-process epoch nonce: drawn once from the vendored RNG, so two
/// coordinator processes reading the same clock still derive distinct epochs.
fn epoch_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| rand::rng().next_u64() | 1)
}

/// Per-process monotonic salt: distinguishes coordinators created back to
/// back *within* one process, where the nonce alone would collide.
static EPOCH_SALT: AtomicU64 = AtomicU64::new(0);

/// SplitMix64-style finalizer over (clock, nonce, salt). The result is
/// non-zero — workers boot with epoch 0, and an epoch of 0 would make a
/// fresh coordinator look like no coordinator at all.
fn mix_epoch(nanos: u64, nonce: u64, salt: u64) -> u64 {
    let mut z = nanos ^ nonce.rotate_left(17) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1)
}

/// Derives a fresh shard epoch from `now`. A clock reading before the UNIX
/// epoch is a typed error — silently truncating it (the old behavior) would
/// let a host with a stepped-back clock claim shards under an epoch workers
/// have already retired.
fn fresh_epoch_at(now: SystemTime) -> Result<u64, SeabedError> {
    let nanos = now
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_err(|_| {
            SeabedError::dist(
                "coordinator",
                "system clock reads before the UNIX epoch; refusing to derive a shard epoch",
            )
        })?
        .as_nanos() as u64;
    let salt = EPOCH_SALT.fetch_add(1, Ordering::Relaxed);
    Ok(mix_epoch(nanos, epoch_nonce(), salt))
}

/// The replica set of shard `shard` of table `table_id` at connect time:
/// `R` consecutive workers starting at the old single-owner slot
/// `(table_id + shard) % N`, so `replication = 1` reproduces the legacy
/// placement exactly and the members are always distinct.
fn initial_replica_set(table_id: usize, shard: usize, num_workers: usize, replication: usize) -> Vec<usize> {
    let r = replication.clamp(1, num_workers);
    (0..r).map(|k| (table_id + shard + k) % num_workers).collect()
}

/// The immutable per-query inputs threaded through scatter, hedge, and
/// re-dispatch.
#[derive(Clone, Copy)]
struct QueryContext<'a> {
    table_id: u32,
    /// Its `trace_id` and `analyze` flag ship inside every `ShardQuery`
    /// frame: worker-side spans correlate with the coordinator's, and an
    /// analyzed shard comes back with its per-operator breakdown.
    request: ExecRequest<'a>,
}

/// The coordinator's registered instruments (`dist_*`). The counters mirror
/// the lifetime totals behind [`QueryReport`] and
/// [`CacheStats`](crate::cache::CacheStats) — those structs stay the
/// per-query/per-cache snapshot views — while the histograms accumulate the
/// phase latencies a single report only shows once.
struct DistMetrics {
    hedged_reads: Counter,
    redispatches: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    scatter_ns: Histogram,
    gather_ns: Histogram,
    merge_ns: Histogram,
    cache_hit_ns: Histogram,
    cache_miss_ns: Histogram,
    /// Current number of entries in the partial-result cache, re-published
    /// on every insert and every fence.
    partial_cache_len: Gauge,
    /// Workers currently alive (connected and not retired), re-published on
    /// every membership change and every cache fence.
    live_workers: Gauge,
}

impl DistMetrics {
    fn new(obs: &Registry) -> DistMetrics {
        DistMetrics {
            hedged_reads: obs.counter("dist_hedged_reads"),
            redispatches: obs.counter("dist_redispatches"),
            cache_hits: obs.counter("dist_cache_hits"),
            cache_misses: obs.counter("dist_cache_misses"),
            scatter_ns: obs.histogram("dist_scatter_ns"),
            gather_ns: obs.histogram("dist_gather_ns"),
            merge_ns: obs.histogram("dist_merge_ns"),
            cache_hit_ns: obs.histogram("dist_cache_hit_ns"),
            cache_miss_ns: obs.histogram("dist_cache_miss_ns"),
            partial_cache_len: obs.gauge("dist_partial_cache_len"),
            live_workers: obs.gauge("dist_live_workers"),
        }
    }
}

/// One encrypted table hosted by the coordinator: its shards (retained so a
/// dead worker's shards can be re-loaded onto a survivor mid-query), its
/// schema, and the standing shard → replica-set assignment.
struct TableEntry {
    name: String,
    schema: Schema,
    shards: Vec<Table>,
    /// `assignment[shard]` is the shard's replica set, primary first. Every
    /// member holds a loaded copy; queries go to the first live member.
    assignment: Mutex<Vec<Vec<usize>>>,
}

/// The scatter/gather coordinator over N `seabed-net` workers, hosting one
/// or many encrypted tables on the same worker pool.
pub struct DistCoordinator {
    tables: Vec<TableEntry>,
    /// Worker slots. Indices are stable for the coordinator's lifetime:
    /// joiners append, leavers are retired in place (`removed` flag), so
    /// replica sets and the partial cache's worker keys never dangle.
    workers: RwLock<Vec<Arc<WorkerLink>>>,
    epoch: u64,
    seq: AtomicU64,
    config: DistConfig,
    hedged: AtomicU64,
    last_report: Mutex<QueryReport>,
    /// Statement-keyed partial-result cache serving prepared executes.
    cache: Mutex<PartialCache>,
    /// Fencing epoch of the partial cache. Distinct from the wire `epoch`
    /// (which orders coordinator *generations* and is constant for this
    /// coordinator's lifetime): this one is bumped on every worker loss and
    /// every membership change, so entries cached before a recovery or a
    /// rebalance can never answer a probe after it.
    cache_epoch: AtomicU64,
    /// Metrics/trace registry; [`DistCoordinator::with_obs`] swaps in a
    /// shared one so session- and coordinator-side spans merge.
    obs: Registry,
    metrics: DistMetrics,
}

impl DistCoordinator {
    /// Connects to `addrs` and hosts every named table on the one worker
    /// pool: shards each table's partitions across the workers (contiguous
    /// ranges, one shard per worker; extra workers stay empty as hot spares
    /// for re-dispatch), announces a fresh epoch, and loads every shard onto
    /// its replica set. Workers keep their shards until a coordinator with a
    /// different epoch claims them. Shard identifiers carry the table id,
    /// queries route by their `FROM` name, and a query naming a table this
    /// coordinator does not host fails with a typed
    /// [`seabed_error::SchemaError::UnknownTable`] before anything is
    /// scattered.
    pub fn connect_tables<A: ToSocketAddrs>(
        addrs: &[A],
        tables: Vec<(String, Table)>,
        config: DistConfig,
    ) -> Result<DistCoordinator, SeabedError> {
        if tables.is_empty() {
            return Err(SeabedError::dist("coordinator", "no tables given"));
        }
        for (i, (name, _)) in tables.iter().enumerate() {
            if tables[..i].iter().any(|(other, _)| other == name) {
                return Err(SeabedError::dist(
                    "coordinator",
                    format!("table {name} registered twice"),
                ));
            }
        }
        if addrs.is_empty() {
            return Err(SeabedError::dist("coordinator", "no worker addresses given"));
        }
        let mut entries = Vec::with_capacity(tables.len());
        for (name, table) in tables {
            table.validate_layout()?;
            let schema = table.schema.clone();
            let num_shards = addrs.len().min(table.partitions.len()).max(1);
            entries.push(TableEntry {
                name,
                schema,
                shards: split_into_shards(table, num_shards),
                assignment: Mutex::new(Vec::new()),
            });
        }

        // The epoch orders coordinator generations: workers drop shards of
        // any other epoch at handshake, so a restarted coordinator can never
        // race its own stale assignments. Clock ⊕ process nonce ⊕ counter —
        // two coordinators reading the same clock still get distinct epochs.
        let epoch = fresh_epoch_at(SystemTime::now())?;

        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            workers.push(Arc::new(connect_worker(addr, epoch, &config)?));
        }
        let num_workers = workers.len();

        let obs = Registry::default();
        let metrics = DistMetrics::new(&obs);
        let coordinator = DistCoordinator {
            tables: entries,
            workers: RwLock::new(workers),
            epoch,
            seq: AtomicU64::new(0),
            hedged: AtomicU64::new(0),
            last_report: Mutex::new(QueryReport::default()),
            cache: Mutex::new(PartialCache::new(config.partial_cache_capacity)),
            cache_epoch: AtomicU64::new(1),
            config,
            obs,
            metrics,
        };
        // Initial placement: table t's shard i lives on the R consecutive
        // workers starting at (t + i) mod N, so several tables spread across
        // the pool instead of piling their first shards onto worker 0, and
        // every shard has a replica to hedge against or fail over to.
        for table_id in 0..coordinator.tables.len() {
            let shards = coordinator.tables[table_id].shards.len();
            let mut assignment = Vec::with_capacity(shards);
            for shard in 0..shards {
                let set = initial_replica_set(table_id, shard, num_workers, config.replication);
                for &worker in &set {
                    coordinator.load_shard(table_id as u32, shard as u32, worker)?;
                }
                assignment.push(set);
            }
            *coordinator.tables[table_id]
                .assignment
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = assignment;
        }
        coordinator.publish_gauges();
        Ok(coordinator)
    }

    /// Resolves a `FROM` name to a hosted table.
    fn resolve(&self, table: &str) -> Result<(u32, &TableEntry), SeabedError> {
        self.tables
            .iter()
            .enumerate()
            .find(|(_, entry)| entry.name == table)
            .map(|(id, entry)| (id as u32, entry))
            .ok_or_else(|| seabed_error::SchemaError::UnknownTable(table.to_string()).into())
    }

    /// Names of the hosted tables, in registration order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// Total number of shards across every hosted table.
    pub fn num_shards(&self) -> usize {
        self.tables.iter().map(|t| t.shards.len()).sum()
    }

    /// Number of worker slots, including retired ones (indices are stable).
    pub fn num_workers(&self) -> usize {
        self.workers.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The shard epoch in force on every worker.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The partial cache's fencing epoch (bumped on every worker loss and
    /// membership change).
    pub fn cache_epoch(&self) -> u64 {
        self.cache_epoch.load(Ordering::Acquire)
    }

    /// Lifetime counters of the partial cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).stats()
    }

    /// Number of live entries in the partial cache.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// What the most recent execution did, shard by shard.
    pub fn last_report(&self) -> QueryReport {
        self.last_report.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The coordinator's metrics/trace registry (`dist_*` instruments plus
    /// the ring of recent coordinator-side [`seabed_obs::QueryTrace`]s).
    pub fn registry(&self) -> Registry {
        self.obs.clone()
    }

    /// Replaces the registry — typically with the driving session's, so one
    /// [`Registry::merged_trace`] covers parse → … → merge — re-registering
    /// the coordinator's instruments on it.
    pub fn with_obs(mut self, obs: Registry) -> DistCoordinator {
        self.metrics = DistMetrics::new(&obs);
        self.obs = obs;
        self
    }

    fn worker(&self, index: usize) -> Result<Arc<WorkerLink>, SeabedError> {
        self.workers
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(index)
            .cloned()
            .ok_or_else(|| SeabedError::dist("coordinator", format!("worker index {index} is out of range")))
    }

    fn workers_snapshot(&self) -> Vec<Arc<WorkerLink>> {
        self.workers.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Stale partials drained and thrown away so far, over every worker.
    fn discarded_partials(&self) -> u64 {
        let workers = self.workers.read().unwrap_or_else(|p| p.into_inner());
        workers.iter().map(|link| link.discarded.load(Ordering::Relaxed)).sum()
    }

    fn worker_alive(&self, index: usize) -> bool {
        self.worker(index).is_ok_and(|link| link.alive())
    }

    /// Health and traffic summaries, one per worker slot.
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        let assignments: Vec<Vec<Vec<usize>>> = self
            .tables
            .iter()
            .map(|t| t.assignment.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .collect();
        self.workers_snapshot()
            .iter()
            .enumerate()
            .map(|(w, link)| {
                let wire = link.conn.lock().unwrap_or_else(|p| p.into_inner()).stats();
                WorkerSummary {
                    label: link.label.clone(),
                    alive: link.alive(),
                    shards: assignments
                        .iter()
                        .enumerate()
                        .flat_map(|(table_id, assignment)| {
                            assignment
                                .iter()
                                .enumerate()
                                .filter(move |(_, set)| set.contains(&w))
                                .map(move |(shard, _)| (table_id as u32, shard as u32))
                        })
                        .collect(),
                    queries: link.queries.load(Ordering::Relaxed),
                    bytes_sent: wire.bytes_sent,
                    bytes_received: wire.bytes_received,
                }
            })
            .collect()
    }

    /// Bumps the cache fencing epoch and reclaims everything it fences
    /// (entries of the named dead/departed workers first, so the purge is
    /// attributable, then every remaining stale-epoch entry).
    fn fence_cache(&self, dead: &[usize]) {
        let bumped = self.cache_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            for &worker in dead {
                cache.purge_worker(worker);
            }
            cache.purge_stale_epochs(bumped);
        }
        self.publish_gauges();
    }

    /// Re-publishes the `dist_live_workers` and `dist_partial_cache_len`
    /// gauges from the current membership and cache occupancy. Called after
    /// every membership change and cache fence (and the cache-length half
    /// after inserts), so a scrape always sees the post-transition values.
    fn publish_gauges(&self) {
        let live = self.workers_snapshot().iter().filter(|link| link.alive()).count();
        self.metrics.live_workers.set(live as u64);
        let len = self.cache.lock().unwrap_or_else(|p| p.into_inner()).len();
        self.metrics.partial_cache_len.set(len as u64);
    }

    /// The scatter/gather behind [`QueryTarget::run`]: executes the request
    /// across every shard of the table it names and merges the partial
    /// results into one response, byte-identical to single-server execution.
    /// Slow primaries are hedged against replicas; shards on a worker that
    /// died are re-dispatched (replicas first); the call fails only when a
    /// shard cannot run anywhere or a worker reports a deterministic query
    /// error. With `cache_key` (`(statement hash, filter hash)`) shards may
    /// be answered from the partial cache and fresh partials go back into
    /// it; without, the cache is not touched. An analyzed request asks every
    /// worker for a per-operator profile and returns the stitched
    /// scatter/gather/merge plan of this execution.
    fn scatter_gather(
        &self,
        request: &ExecRequest<'_>,
        cache_key: Option<(u64, u64)>,
    ) -> Result<ExecOutcome, SeabedError> {
        let started = Instant::now();
        let query = request.plan;
        let tb = self.obs.trace_builder(request.trace_id, "coordinator");
        let (table_id, entry) = self.resolve(&query.base_table)?;
        let assignment: Vec<Vec<usize>> = entry.assignment.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let discarded_before = self.discarded_partials();
        let hedged_before = self.hedged.load(Ordering::Relaxed);
        let ctx = QueryContext {
            table_id,
            request: *request,
        };

        // Probe: a prepared execute answers every shard it can from the
        // cache and scatters only to the rest. The probe epoch is re-read
        // under the lock so a concurrent bump can't resurrect fenced entries.
        let mut cached: Vec<(u32, PartialResponse)> = Vec::new();
        let mut missing: Vec<u32> = Vec::new();
        match cache_key {
            Some((statement, filter_hash)) => {
                let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
                let probe_epoch = self.cache_epoch.load(Ordering::Acquire);
                for shard in 0..assignment.len() as u32 {
                    let key = PartialKey {
                        cache_epoch: probe_epoch,
                        table_id,
                        shard,
                        statement,
                        filters: filter_hash,
                    };
                    match cache.get(&key) {
                        Some(partial) => cached.push((shard, partial.clone())),
                        None => missing.push(shard),
                    }
                }
            }
            None => missing.extend(0..assignment.len() as u32),
        }

        // Scatter: group the uncached shards by *primary* (first live member
        // of the replica set, falling back to the nominal head so a fully
        // dead set still fails over through re-dispatch), one lane per
        // worker.
        let scatter_timer = self.metrics.scatter_ns.start();
        let workers = self.workers_snapshot();
        let primary_of = |set: &[usize]| -> usize {
            set.iter()
                .copied()
                .find(|&w| workers.get(w).map(|l| l.alive()).unwrap_or(false))
                .or_else(|| set.first().copied())
                .unwrap_or(0)
        };
        let mut lanes: Vec<(usize, Vec<u32>)> = Vec::new();
        for &shard in &missing {
            let worker = primary_of(&assignment[shard as usize]);
            match lanes.iter_mut().find(|(w, _)| *w == worker) {
                Some((_, shards)) => shards.push(shard),
                None => lanes.push((worker, vec![shard])),
            }
        }

        let mut runs: Vec<LaneRun> = Vec::new();
        let mut failed: Vec<(u32, SeabedError)> = Vec::new();
        // The engine's fan-out rule: one lane per worker, this thread queries
        // a lane itself, so a one-lane scatter spawns nothing.
        let outcomes = fan_out(lanes.len(), lanes.len(), |lane| {
            let (worker, shards) = &lanes[lane];
            self.query_lane(*worker, shards, ctx, &assignment)
        });
        for (mut ok, mut bad) in outcomes {
            runs.append(&mut ok);
            failed.append(&mut bad);
        }

        // Re-dispatch: transport/protocol casualties move to a live replica
        // (or, failing that, any survivor); a deterministic query error
        // fails the whole query immediately. A worker loss also bumps the
        // cache epoch — every partial cached before this recovery is fenced
        // at once — and reclaims the fenced entries (the dead workers'
        // first, so the purge is attributable).
        if failed.iter().any(|(_, err)| retry_elsewhere(err)) {
            let dead: Vec<usize> = workers
                .iter()
                .enumerate()
                .filter(|(_, link)| !link.alive())
                .map(|(w, _)| w)
                .collect();
            self.fence_cache(&dead);
        }
        for (shard, err) in failed {
            if !retry_elsewhere(&err) {
                return Err(err);
            }
            let run = self.redispatch(shard, ctx)?;
            runs.push(run);
        }
        let scatter_ns = self.metrics.scatter_ns.stop(scatter_timer);
        tb.add_span_ns("scatter", scatter_ns);
        for run in &runs {
            tb.add_span_ns(
                "shard-execute",
                u64::try_from(run.round_trip.as_nanos()).unwrap_or(u64::MAX),
            );
        }

        // Fresh partials of a prepared execute go back into the cache under
        // the *current* epoch — post-bump if this very query lost a worker,
        // so a recovery never caches under a fenced generation.
        if let Some((statement, filter_hash)) = cache_key {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            let insert_epoch = self.cache_epoch.load(Ordering::Acquire);
            for run in &runs {
                if let Some(partial) = &run.partial {
                    let key = PartialKey {
                        cache_epoch: insert_epoch,
                        table_id,
                        shard: run.shard,
                        statement,
                        filters: filter_hash,
                    };
                    cache.insert(key, run.worker_index, partial.clone());
                }
            }
            self.metrics.partial_cache_len.set(cache.len() as u64);
        }

        // Gather: fold every shard's partial groups — cached and fresh — in
        // shard order through the shared merge implementation, then finalize
        // exactly as the in-process driver.
        let gather_started = Instant::now();
        let gather_timer = self.metrics.gather_ns.start();
        let cache_hits = cached.len() as u64;
        let cache_misses = if cache_key.is_some() { missing.len() as u64 } else { 0 };
        let mut partials: Vec<(u32, PartialResponse)> = cached;
        for run in &mut runs {
            let partial = std::mem::take(&mut run.partial);
            let Some(partial) = partial else {
                return Err(SeabedError::dist(&run.worker, "shard partial vanished before gather"));
            };
            partials.push((run.shard, partial));
        }
        partials.sort_by_key(|(shard, _)| *shard);
        let merge_timer = self.metrics.merge_ns.start();
        let mut merged: PartialGroups = PartialGroups::new();
        let mut stats = ExecStats::default();
        for (_, partial) in partials {
            stats = stats.merge(&partial.stats);
            merge_partial_groups(&mut merged, partial.groups);
        }
        let merge_ns = self.metrics.merge_ns.stop(merge_timer);
        runs.sort_by_key(|r| r.shard);
        stats.wall_time = started.elapsed();
        let response = finalize_partials(query, merged, stats);
        let gather_ns = self.metrics.gather_ns.stop(gather_timer);
        tb.add_span_ns("gather", gather_ns);
        tb.add_span_ns("merge", merge_ns);

        let report = QueryReport {
            runs: runs
                .into_iter()
                .map(|r| ShardRun {
                    table_id,
                    shard: r.shard,
                    worker: r.worker,
                    stats: r.stats,
                    round_trip: r.round_trip,
                    redispatched: r.redispatched,
                    hedged: r.hedged,
                })
                .collect(),
            gather_time: gather_started.elapsed(),
            wall_time: started.elapsed(),
            discarded_partials: self.discarded_partials() - discarded_before,
            cache_hits,
            cache_misses,
            hedged_reads: self.hedged.load(Ordering::Relaxed) - hedged_before,
        };
        self.metrics.hedged_reads.add(report.hedged_reads);
        self.metrics.cache_hits.add(report.cache_hits);
        self.metrics.cache_misses.add(report.cache_misses);
        self.metrics
            .redispatches
            .add(report.runs.iter().filter(|r| r.redispatched).count() as u64);
        // Latency split of prepared executes: a fully cached answer never
        // touched the network; anything that scattered lands in the miss
        // histogram. One-shot queries never probe and record neither.
        if cache_key.is_some() {
            let wall_ns = u64::try_from(report.wall_time.as_nanos()).unwrap_or(u64::MAX);
            if report.cache_misses == 0 {
                self.metrics.cache_hit_ns.record_ns(wall_ns);
            } else {
                self.metrics.cache_miss_ns.record_ns(wall_ns);
            }
        }
        // `EXPLAIN ANALYZE`: stitch this execution into the plan subtree the
        // session hangs under the structural plan — one node per coordinator
        // stage and one per shard, hedged/redispatched shards marked, each
        // carrying its worker's measured per-operator breakdown as children.
        // Labels name workers and physical columns only, never predicate
        // literals or SQL text.
        let plan = request.analyze.then(|| {
            let total_shards = assignment.len();
            let stage = |op: &str, label: String, nanos: u64| {
                PlanNode::new(op, label).with_profile(PlanProfile {
                    nanos,
                    ..PlanProfile::default()
                })
            };
            let mut dist = stage(
                "dist",
                format!(
                    "{} of {total_shards} shards scattered over {} lanes, {} cached",
                    report.runs.len(),
                    lanes.len(),
                    report.cache_hits
                ),
                u64::try_from(report.wall_time.as_nanos()).unwrap_or(u64::MAX),
            );
            dist.children
                .push(stage("scatter", format!("{} lanes", lanes.len()), scatter_ns));
            for run in &report.runs {
                let mut marks = String::new();
                if run.hedged {
                    marks.push_str(", hedged");
                }
                if run.redispatched {
                    marks.push_str(", redispatched");
                }
                let mut node = stage(
                    "shard",
                    format!("{}/{total_shards} @{}{marks}", run.shard, run.worker),
                    u64::try_from(run.round_trip.as_nanos()).unwrap_or(u64::MAX),
                );
                let operators = run.stats.operators.iter();
                node.children.extend(
                    operators.map(|op| PlanNode::new("operator", op.label.clone()).with_profile(plan_profile(op))),
                );
                dist.children.push(node);
            }
            dist.children
                .push(stage("gather", format!("{total_shards} partials"), gather_ns));
            dist.children
                .push(stage("merge", format!("{} groups", response.groups.len()), merge_ns));
            dist
        });
        *self.last_report.lock().unwrap_or_else(|p| p.into_inner()) = report;
        if let Some(trace) = tb.finish() {
            self.obs.record_trace(trace);
        }
        Ok(ExecOutcome { response, plan })
    }

    /// Queries every shard in one worker's lane sequentially over its
    /// persistent connection, hedging slow shards against their replicas.
    /// Once the lane's connection is actually gone (poisoned), the remaining
    /// shards are failed without further round trips and handed to
    /// re-dispatch — which tries their live replicas first.
    fn query_lane(
        &self,
        worker: usize,
        shards: &[u32],
        ctx: QueryContext<'_>,
        assignment: &[Vec<usize>],
    ) -> LaneOutcome {
        let mut ok = Vec::new();
        let mut bad = Vec::new();
        for (i, &shard) in shards.iter().enumerate() {
            let set: &[usize] = assignment.get(shard as usize).map(|s| s.as_slice()).unwrap_or(&[]);
            match self.query_shard_hedged(shard, ctx, set, worker) {
                Ok(run) => ok.push(run),
                Err(err) => {
                    bad.push((shard, err));
                    if !self.worker_alive(worker) {
                        // The lane's connection is gone; every remaining
                        // shard fails the same way without more round trips.
                        let label = self
                            .worker(worker)
                            .map(|l| l.label.clone())
                            .unwrap_or_else(|_| "coordinator".to_string());
                        for &rest in &shards[i + 1..] {
                            bad.push((rest, SeabedError::dist(&label, "lane lost before this shard ran")));
                        }
                        break;
                    }
                }
            }
        }
        (ok, bad)
    }

    /// One shard query with hedging: the primary gets `hedge_after` to
    /// answer; if the reply is still outstanding after that (and hedging is
    /// enabled and a live replica exists), the primary's wait is abandoned
    /// *without* poisoning its connection and the query is re-issued to each
    /// live replica in turn under the full round-trip budget. The abandoned
    /// primary's partial, if it ever lands, carries an older seq and is
    /// discarded by the stale-seq rule. If every hedge fails, a retryable
    /// error is returned so the shard flows into re-dispatch under a fresh
    /// sequence number.
    fn query_shard_hedged(
        &self,
        shard: u32,
        ctx: QueryContext<'_>,
        set: &[usize],
        primary: usize,
    ) -> Result<LaneRun, SeabedError> {
        let hedging = self.config.hedge_after < self.config.read_timeout
            && set.iter().any(|&w| w != primary && self.worker_alive(w));
        if !hedging {
            return self.query_shard(primary, shard, ctx);
        }
        if let Some(run) = self.query_shard_once(primary, shard, ctx, Some(self.config.hedge_after))? {
            return Ok(run);
        }
        // The primary is outstanding. Race a replica; first valid echo wins.
        self.hedged.fetch_add(1, Ordering::Relaxed);
        let mut last_err: Option<SeabedError> = None;
        for &replica in set {
            if replica == primary || !self.worker_alive(replica) {
                continue;
            }
            match self.query_shard(replica, shard, ctx) {
                Ok(mut run) => {
                    run.hedged = true;
                    return Ok(run);
                }
                Err(err) if retry_elsewhere(&err) => last_err = Some(err),
                Err(err) => return Err(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            SeabedError::dist(
                "coordinator",
                format!(
                    "hedged read of table {} shard {shard} found no live replica",
                    ctx.table_id
                ),
            )
        }))
    }

    /// One plain (non-hedged) shard query under the full round-trip budget.
    fn query_shard(&self, worker: usize, shard: u32, ctx: QueryContext<'_>) -> Result<LaneRun, SeabedError> {
        self.query_shard_once(worker, shard, ctx, None).map(answered)
    }

    /// One shard query on one worker: one [`LockedLink::exchange`] accepting
    /// the partial that echoes this request's `(epoch, table, shard, seq)`
    /// and shape-checks against the query (a malformed one poisons the
    /// connection). With `hedge_after`, a reply of which no byte arrived
    /// within it returns `Ok(None)`; without, the budget is the full
    /// `read_timeout` and the wait is never abandoned.
    fn query_shard_once(
        &self,
        worker: usize,
        shard: u32,
        ctx: QueryContext<'_>,
        hedge_after: Option<Duration>,
    ) -> Result<Option<LaneRun>, SeabedError> {
        let link = self.worker(worker)?;
        let table_id = ctx.table_id;
        let epoch = self.epoch;
        // The sequence number is drawn under the link lock: a number drawn
        // outside it could reach the worker after a later one, and the
        // earlier request's hedge-abandoned partial — neither this request's
        // echo nor below its `stale_below` — would poison a healthy link.
        let mut locked = link.lock();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let request = Frame::ShardQuery {
            epoch,
            table_id,
            shard,
            seq,
            trace_id: ctx.request.trace_id,
            analyze: ctx.request.analyze,
            query: ctx.request.plan.clone(),
            filters: ctx.request.filters.to_vec(),
        };
        let request_bytes = wire::encode_frame(&request, self.config.max_frame_len)?;
        let started = Instant::now();
        let reply = locked.exchange(
            &request_bytes,
            hedge_after.unwrap_or(self.config.read_timeout),
            hedge_after.is_some(),
            seq,
            format_args!("the partial for (table {table_id}, shard {shard}, seq {seq})"),
            |frame| match frame {
                Frame::ShardPartial {
                    epoch: e,
                    table_id: t,
                    shard: s,
                    seq: q,
                    partial,
                } if e == epoch && t == table_id && s == shard && q == seq => ControlFlow::Break(partial),
                other => ControlFlow::Continue(other),
            },
        );
        drop(locked);
        let Some(partial) = reply? else {
            return Ok(None);
        };
        // Shape-check before the partial may reach the merge: a forged or
        // buggy partial must be rejected here, never silently zip-truncated
        // by the fold.
        if let Err(detail) = validate_partial(ctx.request.plan, &partial) {
            return Err(link.poison(SeabedError::dist(&link.label, detail)));
        }
        link.queries.fetch_add(1, Ordering::Relaxed);
        Ok(Some(LaneRun {
            shard,
            worker: link.label.clone(),
            worker_index: worker,
            stats: partial.stats.clone(),
            partial: Some(partial),
            round_trip: started.elapsed(),
            redispatched: false,
            hedged: false,
        }))
    }

    /// Loads shard `shard` of table `table_id` onto `worker` and verifies
    /// the acknowledgement. Stale partials (e.g. a hedge-abandoned reply
    /// landing between requests) are drained and counted, not mistaken for
    /// a bad ack.
    fn load_shard(&self, table_id: u32, shard: u32, worker: usize) -> Result<(), SeabedError> {
        let link = self.worker(worker)?;
        let table = self.tables[table_id as usize].shards[shard as usize].clone();
        let rows = table.num_rows() as u64;
        let epoch = self.epoch;
        let frame = Frame::LoadShard {
            epoch,
            table_id,
            shard,
            exec: self.config.exec,
            table,
        };
        // A shard too large for the frame limit is a configuration problem,
        // reported as-is without condemning the worker.
        let frame_bytes = wire::encode_frame(&frame, self.config.max_frame_len)?;
        let ack = link.lock().exchange(
            &frame_bytes,
            self.config.read_timeout,
            false,
            u64::MAX,
            format_args!("the load ack for table {table_id} shard {shard}"),
            |frame| match frame {
                Frame::ShardLoaded {
                    epoch: e,
                    table_id: t,
                    shard: s,
                    rows: r,
                } if e == epoch && t == table_id && s == shard && r == rows => ControlFlow::Break(()),
                other => ControlFlow::Continue(other),
            },
        );
        ack.map(answered)
    }

    /// Asks `worker` to drop its copy of shard `shard` (after a rebalance
    /// moved the replica elsewhere) and verifies the acknowledgement. Stale
    /// partials are drained exactly as in [`DistCoordinator::load_shard`].
    fn unload_shard(&self, table_id: u32, shard: u32, worker: usize) -> Result<u64, SeabedError> {
        let link = self.worker(worker)?;
        let epoch = self.epoch;
        let frame = Frame::UnloadShard { epoch, table_id, shard };
        let frame_bytes = wire::encode_frame(&frame, self.config.max_frame_len)?;
        let ack = link.lock().exchange(
            &frame_bytes,
            self.config.read_timeout,
            false,
            u64::MAX,
            format_args!("the unload ack for table {table_id} shard {shard}"),
            |frame| match frame {
                Frame::ShardUnloaded {
                    epoch: e,
                    table_id: t,
                    shard: s,
                    remaining,
                } if e == epoch && t == table_id && s == shard => ControlFlow::Break(remaining),
                other => ControlFlow::Continue(other),
            },
        );
        ack.map(answered)
    }

    /// Moves `worker` to the front of the shard's replica set (it just
    /// proved it can answer), evicting its old slot or the first dead
    /// member so the set stays bounded. Liveness is snapshotted before the
    /// assignment lock is taken — the two locks are never held together.
    fn promote(&self, table_id: u32, shard: u32, worker: usize) {
        let workers = self.workers_snapshot();
        let alive = |w: usize| workers.get(w).map(|l| l.alive()).unwrap_or(false);
        let mut assignment = self.tables[table_id as usize]
            .assignment
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let Some(set) = assignment.get_mut(shard as usize) else {
            return;
        };
        if let Some(pos) = set.iter().position(|&w| w == worker) {
            set.remove(pos);
        } else if let Some(pos) = set.iter().position(|&w| !alive(w)) {
            set.remove(pos);
        }
        set.insert(0, worker);
    }

    /// Re-runs a failed shard query elsewhere: first on every live replica
    /// that already holds the shard (query only — no re-transfer on the
    /// critical path), then, only if no replica survives, on any other live
    /// worker by re-loading the coordinator's retained copy. Dead workers
    /// are never selected; success promotes the answering worker to primary
    /// so later queries go straight there; when nothing live is left the
    /// query fails with a typed [`SeabedError::Dist`] instead of hanging.
    fn redispatch(&self, shard: u32, ctx: QueryContext<'_>) -> Result<LaneRun, SeabedError> {
        let table_id = ctx.table_id;
        let set: Vec<usize> = self.tables[table_id as usize]
            .assignment
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(shard as usize)
            .cloned()
            .unwrap_or_default();
        let workers = self.workers_snapshot();
        let mut last_err: Option<SeabedError> = None;

        // Pass 1: live replicas already holding the shard.
        for &replica in &set {
            if !workers.get(replica).map(|l| l.alive()).unwrap_or(false) {
                continue;
            }
            match self.query_shard(replica, shard, ctx) {
                Ok(mut run) => {
                    run.redispatched = true;
                    self.promote(table_id, shard, replica);
                    return Ok(run);
                }
                Err(err) => {
                    // Deterministic query errors abort re-dispatch: another
                    // worker would answer identically.
                    if !retry_elsewhere(&err) {
                        return Err(err);
                    }
                    last_err = Some(err);
                }
            }
        }

        // Pass 2: any other live worker takes a fresh copy.
        for (worker, link) in workers.iter().enumerate() {
            if set.contains(&worker) || !link.alive() {
                continue;
            }
            let attempt = self
                .load_shard(table_id, shard, worker)
                .and_then(|()| self.query_shard(worker, shard, ctx));
            match attempt {
                Ok(mut run) => {
                    run.redispatched = true;
                    self.promote(table_id, shard, worker);
                    return Ok(run);
                }
                Err(err) => {
                    if !retry_elsewhere(&err) {
                        return Err(err);
                    }
                    last_err = Some(err);
                }
            }
        }
        let detail = match last_err {
            Some(err) => format!("table {table_id} shard {shard} could not be re-dispatched: {err}"),
            None => format!("table {table_id} shard {shard} has no live replica or worker left to run on"),
        };
        Err(SeabedError::dist("coordinator", detail))
    }

    /// Connects a new worker under this coordinator's epoch, appends it to
    /// the pool, and greedily rebalances replica slots onto it from the
    /// most-loaded live workers — moving only shards whose replica set
    /// changed (load onto the joiner, then unload from the donor). Bumps the
    /// cache fencing epoch so partials cached under the old membership never
    /// answer a later probe. Returns the joiner's stable worker index.
    pub fn join_worker<A: ToSocketAddrs>(&self, addr: A) -> Result<usize, SeabedError> {
        let link = Arc::new(connect_worker(&addr, self.epoch, &self.config)?);
        let index = {
            let mut workers = self.workers.write().unwrap_or_else(|p| p.into_inner());
            workers.push(link);
            workers.len() - 1
        };
        self.rebalance_onto(index)?;
        self.fence_cache(&[]);
        Ok(index)
    }

    /// Greedily moves replica slots from the most-loaded live workers onto
    /// `joiner` until it carries its fair share (⌊total slots / live
    /// workers⌋) or no eligible donor remains. Each move is: load the shard
    /// onto the joiner, swap the donor out of the replica set, then
    /// best-effort unload the donor's copy (a failed unload wastes memory
    /// on the donor but is otherwise harmless — the set no longer names it).
    fn rebalance_onto(&self, joiner: usize) -> Result<(), SeabedError> {
        loop {
            let workers = self.workers_snapshot();
            let alive = |w: usize| workers.get(w).map(|l| l.alive()).unwrap_or(false);
            let live_count = workers.iter().filter(|l| l.alive()).count();
            if live_count == 0 || !alive(joiner) {
                return Err(SeabedError::dist("coordinator", "rebalance target is not alive"));
            }
            let mut counts = vec![0usize; workers.len()];
            let mut slots: Vec<(u32, u32, Vec<usize>)> = Vec::new();
            for (table_id, entry) in self.tables.iter().enumerate() {
                let assignment = entry.assignment.lock().unwrap_or_else(|p| p.into_inner()).clone();
                for (shard, set) in assignment.iter().enumerate() {
                    for &w in set {
                        if let Some(slot) = counts.get_mut(w) {
                            *slot += 1;
                        }
                    }
                    slots.push((table_id as u32, shard as u32, set.clone()));
                }
            }
            let total: usize = counts.iter().sum();
            let target = (total / live_count).max(1);
            if counts[joiner] >= target {
                return Ok(());
            }
            // Donor: the most-loaded live worker holding a shard whose set
            // lacks the joiner.
            let mut pick: Option<(u32, u32, usize)> = None;
            for (t, s, set) in &slots {
                if set.contains(&joiner) {
                    continue;
                }
                for &w in set {
                    if w == joiner || !alive(w) || counts[w] <= counts[joiner] {
                        continue;
                    }
                    let better = match pick {
                        Some((_, _, best)) => counts[w] > counts[best],
                        None => true,
                    };
                    if better {
                        pick = Some((*t, *s, w));
                    }
                }
            }
            let Some((t, s, donor)) = pick else {
                return Ok(());
            };
            self.load_shard(t, s, joiner)?;
            {
                let mut assignment = self.tables[t as usize]
                    .assignment
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                if let Some(set) = assignment.get_mut(s as usize) {
                    if !set.contains(&joiner) {
                        match set.iter().position(|&w| w == donor) {
                            Some(pos) => set[pos] = joiner,
                            None => set.push(joiner),
                        }
                    }
                }
            }
            let _ = self.unload_shard(t, s, donor);
        }
    }

    /// Retires `worker` from the cluster: every replica slot it held is
    /// re-homed onto the least-loaded live worker outside the shard's set
    /// (loading a fresh copy off the critical path), its connection is
    /// dropped, and the cache fencing epoch is bumped. If a shard would lose
    /// its *last* copy — the leaver is its only live replica and no other
    /// live worker can take it — the call fails with a typed error and the
    /// membership is unchanged. Leaving twice is an idempotent no-op.
    pub fn leave_worker(&self, worker: usize) -> Result<(), SeabedError> {
        let link = self.worker(worker)?;
        if link.removed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let workers = self.workers_snapshot();
        let alive = |w: usize| workers.get(w).map(|l| l.alive()).unwrap_or(false);
        let mut counts = vec![0usize; workers.len()];
        let mut affected: Vec<(u32, u32, Vec<usize>)> = Vec::new();
        for (table_id, entry) in self.tables.iter().enumerate() {
            let assignment = entry.assignment.lock().unwrap_or_else(|p| p.into_inner()).clone();
            for (shard, set) in assignment.iter().enumerate() {
                for &w in set {
                    if let Some(slot) = counts.get_mut(w) {
                        *slot += 1;
                    }
                }
                if set.contains(&worker) {
                    affected.push((table_id as u32, shard as u32, set.clone()));
                }
            }
        }
        for (t, s, set) in affected {
            let has_survivor = set.iter().any(|&w| w != worker && alive(w));
            let candidate = workers
                .iter()
                .enumerate()
                .filter(|(w, l)| l.alive() && !set.contains(w))
                .min_by_key(|(w, _)| counts[*w])
                .map(|(w, _)| w);
            let replacement = match candidate {
                Some(c) => match self.load_shard(t, s, c) {
                    Ok(()) => {
                        counts[c] += 1;
                        Some(c)
                    }
                    // The shard still has a live copy: degrade below R
                    // rather than blocking the departure.
                    Err(_) if has_survivor => None,
                    Err(err) => {
                        link.removed.store(false, Ordering::Release);
                        return Err(SeabedError::dist(
                            &link.label,
                            format!("cannot leave: table {t} shard {s} would lose its last copy ({err})"),
                        ));
                    }
                },
                None if has_survivor => None,
                None => {
                    link.removed.store(false, Ordering::Release);
                    return Err(SeabedError::dist(
                        &link.label,
                        format!("cannot leave: table {t} shard {s} has no other live replica and no worker to take it"),
                    ));
                }
            };
            let mut assignment = self.tables[t as usize]
                .assignment
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            if let Some(slot) = assignment.get_mut(s as usize) {
                slot.retain(|&w| w != worker);
                if let Some(r) = replacement {
                    if !slot.contains(&r) {
                        slot.push(r);
                    }
                }
            }
        }
        let _ = link.poison(SeabedError::dist(&link.label, "worker left the cluster"));
        self.fence_cache(&[worker]);
        Ok(())
    }
}

/// FNV-1a over a statement's wire payload: the content-derived identity of a
/// plan in the partial cache and the event log.
fn statement_hash(statement: &TranslatedQuery) -> u64 {
    let mut bytes = Vec::new();
    wire::write_statement_payload(&mut bytes, statement);
    fnv1a64(&bytes)
}

impl QueryTarget for DistCoordinator {
    fn schema_of(&self, table: &str) -> Result<&Schema, SeabedError> {
        self.resolve(table).map(|(_, entry)| &entry.schema)
    }

    fn routes_by_table(&self) -> bool {
        true
    }

    fn execute_query(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        Ok(self.run(&ExecRequest::new(query, filters))?.response)
    }

    /// Records coordinator-side spans (scatter, per-shard execute, gather,
    /// merge) under the request's trace id and leaves one redacted
    /// [`QueryEvent`] per execution — failed ones included — in the registry
    /// (node `coordinator`, carrying this execution's stitched plan when
    /// analyzed and the plan's redacted description otherwise).
    ///
    /// A prepared execute routes through the partial cache. The cache key is
    /// *content*-derived — FNV-1a over the statement's and the bound filters'
    /// wire payloads — not the session's `statement_id`, mirroring the net
    /// client's handle cache: two sessions preparing the same SQL and binding
    /// the same literals share entries. An analyzed request never probes or
    /// fills the cache, whatever its `statement_id`: every shard node of its
    /// plan is a shard that ran.
    fn run(&self, request: &ExecRequest<'_>) -> Result<ExecOutcome, SeabedError> {
        let cache_key = (request.statement_id.is_some() && !request.analyze).then(|| {
            let mut filter_bytes = Vec::new();
            wire::write_filters_payload(&mut filter_bytes, request.filters);
            (statement_hash(request.plan), fnv1a64(&filter_bytes))
        });
        let started = self.obs.enabled().then(Instant::now);
        let outcome = self.scatter_gather(request, cache_key);
        if let Some(started) = started {
            let executed = outcome.as_ref().ok();
            self.obs.record_event(QueryEvent {
                trace_id: request.trace_id,
                // A cached execute already hashed the statement for its key.
                statement_id: cache_key.map_or_else(|| statement_hash(request.plan), |(statement, _)| statement),
                node: "coordinator".to_string(),
                plan: executed
                    .and_then(|e| e.plan.as_ref())
                    .map_or_else(|| request.plan.describe(), PlanNode::render),
                operators: event_operators(executed.map_or(&[], |e| &e.response.stats.operators)),
                total_ns: started.elapsed().as_nanos() as u64,
                slow: false,
                outcome: outcome_tag(&outcome).to_string(),
            });
        }
        outcome
    }
}

/// What one worker lane produced: completed shard runs plus the shards that
/// failed with the error that felled them.
type LaneOutcome = (Vec<LaneRun>, Vec<(u32, SeabedError)>);

/// A [`ShardRun`] still carrying its mergeable partial.
struct LaneRun {
    shard: u32,
    worker: String,
    /// Index of the answering worker, recorded so a cached copy of the
    /// partial can be purged if that worker later dies.
    worker_index: usize,
    stats: ExecStats,
    partial: Option<PartialResponse>,
    round_trip: Duration,
    redispatched: bool,
    hedged: bool,
}

/// Splits a table's partitions into exactly `min(num_shards, partitions)`
/// contiguous shard tables whose sizes differ by at most one partition (the
/// first `len % shards` shards take the remainder), so no requested worker
/// silently idles. Global row IDs travel with their partitions, so ASHE's
/// telescoping decryption — and the exact de-inflated ID sets — are
/// unchanged.
fn split_into_shards(table: Table, num_shards: usize) -> Vec<Table> {
    let schema = table.schema;
    let partitions = table.partitions;
    let total = partitions.len();
    let shards_wanted = num_shards.max(1).min(total.max(1));
    if total == 0 {
        return vec![Table {
            schema,
            partitions: Vec::new(),
        }];
    }
    let base = total / shards_wanted;
    let remainder = total % shards_wanted;
    let mut shards: Vec<Table> = Vec::with_capacity(shards_wanted);
    let mut partitions = partitions.into_iter();
    for shard in 0..shards_wanted {
        let take = base + usize::from(shard < remainder);
        shards.push(Table {
            schema: schema.clone(),
            partitions: partitions.by_ref().take(take).collect(),
        });
    }
    shards
}

/// Shape-checks a worker's partial against the query before it may reach
/// the merge: aggregate arity and kinds per group (including the MIN/MAX
/// direction) and the group-key width. A forged or buggy partial is rejected
/// with a description instead of being silently zip-truncated or inserted
/// wholesale by the fold.
fn validate_partial(query: &TranslatedQuery, partial: &PartialResponse) -> Result<(), String> {
    use seabed_engine::merge::PartialAggregate;
    use seabed_query::ServerAggregate;

    let expected_key_len = if query.group_by.is_empty() {
        0
    } else {
        query.group_by.len() + usize::from(query.group_inflation > 1)
    };
    for (key, partials) in &partial.groups {
        if key.len() != expected_key_len {
            return Err(format!(
                "partial group key has {} component(s), the query expects {expected_key_len}",
                key.len()
            ));
        }
        if partials.len() != query.aggregates.len() {
            return Err(format!(
                "partial group carries {} aggregate(s), the query expects {}",
                partials.len(),
                query.aggregates.len()
            ));
        }
        for (agg, state) in query.aggregates.iter().zip(partials) {
            let matches_plan = match (agg, state) {
                (ServerAggregate::AsheSum { .. }, PartialAggregate::Sum { .. })
                | (ServerAggregate::CountRows, PartialAggregate::Count { .. }) => true,
                (ServerAggregate::OpeMin { .. }, PartialAggregate::Extreme { want_max, .. }) => !want_max,
                (ServerAggregate::OpeMax { .. }, PartialAggregate::Extreme { want_max, .. }) => *want_max,
                _ => false,
            };
            if !matches_plan {
                return Err(format!("partial aggregate kind does not match the plan entry {agg:?}"));
            }
        }
    }
    Ok(())
}

/// Connects to one worker and performs the epoch handshake under the
/// configured round-trip budget.
fn connect_worker<A: ToSocketAddrs>(addr: &A, epoch: u64, config: &DistConfig) -> Result<WorkerLink, SeabedError> {
    let conn = FrameConn::connect(addr, config.read_timeout)?;
    let link = WorkerLink {
        label: conn.peer_addr()?.to_string(),
        conn: Mutex::new(conn),
        epoch,
        max_frame_len: config.max_frame_len,
        removed: AtomicBool::new(false),
        queries: AtomicU64::new(0),
        discarded: AtomicU64::new(0),
    };
    let hello = wire::encode_frame(&Frame::WorkerHandshake { epoch }, config.max_frame_len)?;
    // A fresh connection has no stale partials to drain.
    link.lock().exchange(
        &hello,
        config.read_timeout,
        false,
        0,
        format_args!("a handshake ack"),
        |frame| match frame {
            Frame::WorkerReady { epoch: e, .. } if e == epoch => ControlFlow::Break(()),
            other => ControlFlow::Continue(other),
        },
    )?;
    Ok(link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_engine::{ColumnData, ColumnType};

    fn table(rows: u64, partitions: usize) -> Table {
        Table::from_columns(
            Schema::new([("v".to_string(), ColumnType::UInt64)]),
            vec![ColumnData::UInt64((0..rows).collect())],
            partitions,
        )
    }

    #[test]
    fn sharding_preserves_partitions_and_row_ids() {
        let t = table(100, 8);
        let shards = split_into_shards(t.clone(), 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.num_rows()).sum::<usize>(), 100);
        // Partition start rows are preserved verbatim, in order.
        let mut starts = Vec::new();
        for shard in &shards {
            assert!(shard.validate_layout().is_ok());
            for p in &shard.partitions {
                starts.push(p.start_row);
            }
        }
        let original: Vec<u64> = t.partitions.iter().map(|p| p.start_row).collect();
        assert_eq!(starts, original);
    }

    #[test]
    fn sharding_degenerate_shapes() {
        // More shards than partitions: capped by the caller, but the splitter
        // itself never produces an empty shard unless the table is empty.
        let shards = split_into_shards(table(10, 2), 2);
        assert_eq!(shards.len(), 2);
        let empty = split_into_shards(table(0, 4), 3);
        assert_eq!(empty.iter().map(|s| s.num_rows()).sum::<usize>(), 0);
        assert!(!empty.is_empty());
    }

    /// The splitter must produce exactly the requested shard count with
    /// sizes differing by at most one partition — a greedy `div_ceil` chunking
    /// would leave workers idle (4 partitions over 3 workers used to yield
    /// shards of [2, 2] instead of [2, 1, 1]).
    #[test]
    fn sharding_spreads_the_remainder_instead_of_idling_workers() {
        for (partitions, wanted) in [(4usize, 3usize), (5, 4), (10, 4), (7, 7), (9, 2)] {
            let shards = split_into_shards(table(100, partitions), wanted);
            assert_eq!(shards.len(), wanted.min(partitions), "{partitions} over {wanted}");
            let sizes: Vec<usize> = shards.iter().map(|s| s.partitions.len()).collect();
            let min = sizes.iter().min().copied().unwrap_or(0);
            let max = sizes.iter().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "{partitions} over {wanted}: uneven sizes {sizes:?}");
            assert_eq!(
                sizes.iter().sum::<usize>(),
                shards.iter().map(|s| s.partitions.len()).sum()
            );
        }
    }

    #[test]
    fn connecting_with_no_workers_is_a_dist_error() {
        let outcome = DistCoordinator::connect_tables::<std::net::SocketAddr>(
            &[],
            vec![("t".to_string(), table(10, 2))],
            DistConfig::default(),
        );
        assert!(matches!(outcome, Err(SeabedError::Dist { .. })));
    }

    /// Two coordinators reading the *same* clock value must still derive
    /// distinct epochs — the pre-fix derivation (`SystemTime` nanos alone)
    /// collides, letting one coordinator's workers silently serve another's
    /// assignments.
    #[test]
    fn epochs_from_the_same_clock_reading_are_distinct() {
        let now = SystemTime::now();
        let a = fresh_epoch_at(now).expect("clock is past the UNIX epoch");
        let b = fresh_epoch_at(now).expect("clock is past the UNIX epoch");
        assert_ne!(a, b, "same clock reading produced colliding epochs");
        assert!(a >= 1 && b >= 1, "epoch 0 is reserved for unclaimed workers");
    }

    /// A clock stepped back before the UNIX epoch must be a typed error, not
    /// a silent truncation to a constant epoch that workers may have
    /// already retired.
    #[test]
    fn pre_unix_epoch_clock_is_a_typed_error() {
        let before = SystemTime::UNIX_EPOCH - Duration::from_secs(1);
        assert!(matches!(fresh_epoch_at(before), Err(SeabedError::Dist { .. })));
    }

    #[test]
    fn replica_sets_are_distinct_clamped_and_legacy_compatible() {
        // R = 1 reproduces the old single-owner placement.
        assert_eq!(initial_replica_set(0, 1, 4, 1), vec![1]);
        assert_eq!(initial_replica_set(2, 3, 4, 1), vec![1]);
        // R = 2 adds the next worker around the ring.
        assert_eq!(initial_replica_set(0, 1, 4, 2), vec![1, 2]);
        assert_eq!(initial_replica_set(0, 3, 4, 2), vec![3, 0]);
        // R is clamped to the pool size; members never repeat.
        assert_eq!(initial_replica_set(0, 0, 1, 3), vec![0]);
        for (t, s, n, r) in [(0usize, 0usize, 3usize, 5usize), (1, 2, 4, 4), (2, 7, 5, 3)] {
            let set = initial_replica_set(t, s, n, r);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), set.len(), "replica set {set:?} repeats a worker");
            assert!(set.iter().all(|&w| w < n));
        }
    }

    /// The epoch mix must not be degenerate: varying any single input
    /// changes the output, and the result is never 0.
    #[test]
    fn epoch_mix_varies_with_every_input() {
        let base = mix_epoch(1_000, 42, 7);
        assert_ne!(base, mix_epoch(1_001, 42, 7));
        assert_ne!(base, mix_epoch(1_000, 43, 7));
        assert_ne!(base, mix_epoch(1_000, 42, 8));
        assert!(mix_epoch(0, 0, 0) >= 1);
    }
}
