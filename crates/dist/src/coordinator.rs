//! The scatter/gather coordinator.
//!
//! [`DistCoordinator::connect_tables`] shards each encrypted [`Table`]'s partitions
//! across N workers (contiguous partition ranges, so per-worker ID lists stay
//! run-compressed), announces a fresh **epoch** to every worker, and loads
//! each shard onto its **replica set** — `replication` workers per shard
//! (default 2), one encoded load frame per shard whatever the set's size.
//! [`QueryTarget::run`] then scatters the translated query to every shard's
//! *primary* (the first live member of its replica set) over the persistent
//! connections and gathers the mergeable partial results into one
//! [`ServerResponse`] via [`seabed_engine::merge`] +
//! [`seabed_core::finalize_partials`]: the *same* two steps in-process
//! execution runs, so the distributed answer is byte-identical by
//! construction.
//!
//! This module owns the query path: probe, scatter, hedge, re-dispatch,
//! gather. *Who holds shard s* is `crate::placement`'s and *is worker w
//! alive* is `crate::link`'s — their module docs state the rules; *what did
//! this query do* is a `Tally` the query fills, never a difference of
//! process-wide counters.
//!
//! # The scatter
//!
//! The scatter only waits on sockets, so it runs on the calling thread and
//! spawns nothing. The shards to ask are grouped into one *lane* per primary,
//! and the lanes are ordered by worker index. In the **send phase** each
//! lane's link is locked and its shard query written, in that order, so
//! every worker scans while the coordinator waits; in the **receive phase**
//! the replies are read in the same order, each link released once its reply
//! is in. Only after that are the abandoned shards hedged: a hedge usually
//! targets another lane's primary, and hedging while still holding a round's
//! locks could deadlock against a concurrent query. A scatter round is the
//! only holder of several links at once, and it takes their locks in
//! ascending worker order, so two queries whose lanes meet the same workers
//! in opposite shard order cannot deadlock. What that costs, against a thread
//! per lane:
//!
//! * a link's lock is held from its send until its own reply is read — through
//!   the receives of the lanes before it — where a lane used to hold it only
//!   for its own round trip;
//! * a lane whose hedge deadline (counted from its own send) passes while an
//!   earlier lane's receive is stalled is hedged too, although its reply may
//!   be waiting. That can only happen once some primary has already exceeded
//!   `hedge_after`, and the hedge is safe: the stale-seq rule discards the
//!   loser;
//! * an un-hedged lane's budget is counted from the start of its own
//!   receive, because running out condemns the worker and a reply that waited
//!   behind another lane's stall is not its worker's fault. So k stalled
//!   un-hedged primaries cost up to k budgets, where concurrent lanes cost
//!   one.
//!
//! A pool of lane threads would keep the old overlap of stalls; it is a
//! second lifetime to manage and a size to choose, for a coordinator that
//! only waits.
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
//! with an older seq, is discarded by the exchange's stale-seq rule and can
//! never be merged twice. Hedging never engages when `hedge_after >=`
//! [`DistConfig::read_timeout`] or no live replica is available.
//!
//! # Elastic membership
//!
//! [`DistCoordinator::join_worker`] and [`DistCoordinator::leave_worker`]
//! change the pool under the *same* epoch. Each plans on a copy of the
//! placement, runs the shard loads the plan needs, and commits the copy only
//! if they went through — a refused leave changes nothing — and each bumps
//! the partial cache's fencing epoch, so partials cached under the old
//! membership can never answer a later probe.

use crate::cache::{PartialCache, PartialKey};
use crate::link::{answered, connect_worker, live, LockedLink, Tally, WorkerLink};
use crate::lock;
use crate::placement::{split_into_shards, Placement};
use rand::RngCore;
use seabed_core::{
    event_operators, finalize_partials, fnv1a64, outcome_tag, plan_profile, ExecOutcome, ExecRequest, PartialResponse,
    PhysicalFilter, QueryTarget, ServerResponse,
};
use seabed_engine::merge::{merge_partial_groups, PartialGroups};
use seabed_engine::{ExecStats, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame, LoadShardRef, ShardExecConfig, ShardQueryRef};
use seabed_obs::{Counter, Gauge, Histogram, QueryEvent, Registry, TraceBuilder};
use seabed_query::{PlanNode, PlanProfile, TranslatedQuery};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
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
    /// prepared executes; `0` disables caching.
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
    /// Time spent merging partials and finalizing at the coordinator. The
    /// whole scatter/gather's wall time is the response's
    /// `stats.wall_time`.
    pub gather_time: Duration,
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

/// The partial cache's lifetime counters: a view over the coordinator
/// registry's `dist_cache_*` counters, their only home.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Shard probes answered from the cache (`dist_cache_hits`).
    pub hits: u64,
    /// Shard probes that missed and were scattered (`dist_cache_misses`).
    pub misses: u64,
    /// Partials inserted (`dist_cache_insertions`).
    pub insertions: u64,
    /// Entries evicted by the capacity bound (`dist_cache_evictions`).
    pub evictions: u64,
    /// Entries purged by a fence (`dist_cache_invalidated`).
    pub invalidated: u64,
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

/// The coordinator's registered instruments (`dist_*`): the lifetime
/// counters, whose only home they are ([`CacheStats`] is a view over the
/// `dist_cache_*` ones; a [`QueryReport`] holds one query's figures), and the
/// histograms of each stage's one measured latency.
struct DistMetrics {
    hedged_reads: Counter,
    redispatches: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_insertions: Counter,
    cache_evictions: Counter,
    cache_invalidated: Counter,
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
            cache_insertions: obs.counter("dist_cache_insertions"),
            cache_evictions: obs.counter("dist_cache_evictions"),
            cache_invalidated: obs.counter("dist_cache_invalidated"),
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

/// One encrypted table hosted by the coordinator: its shards (never fewer
/// than one, each carrying the table's schema), retained so a dead worker's
/// shards can be re-loaded onto a survivor mid-query.
struct TableEntry {
    name: String,
    shards: Vec<Table>,
}

/// The scatter/gather coordinator over N `seabed-net` workers, hosting one
/// or many encrypted tables on the same worker pool.
pub struct DistCoordinator {
    tables: Vec<TableEntry>,
    /// Which workers hold which shard. The one placement lock: held for
    /// reads and in-place edits only, never across I/O.
    placement: Mutex<Placement>,
    /// Worker slots. Indices are stable for the coordinator's lifetime:
    /// joiners append, leavers are retired in place (their link moves to
    /// `Left`), so replica sets and the partial cache's worker keys never
    /// dangle.
    workers: RwLock<Vec<Arc<WorkerLink>>>,
    epoch: u64,
    seq: AtomicU64,
    config: DistConfig,
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
            let num_shards = addrs.len().min(table.partitions.len()).max(1);
            entries.push(TableEntry {
                name,
                shards: split_into_shards(table, num_shards),
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
        let placement = Placement::initial(
            entries.iter().map(|entry| entry.shards.len()),
            workers.len(),
            config.replication,
        );

        let obs = Registry::default();
        let coordinator = DistCoordinator {
            tables: entries,
            placement: Mutex::new(placement.clone()),
            workers: RwLock::new(workers),
            epoch,
            seq: AtomicU64::new(0),
            last_report: Mutex::new(QueryReport::default()),
            cache: Mutex::new(PartialCache::new(config.partial_cache_capacity)),
            cache_epoch: AtomicU64::new(1),
            config,
            metrics: DistMetrics::new(&obs),
            obs,
        };
        for (table_id, shard, set) in placement.sets() {
            coordinator.load_shard(table_id, shard, set)?;
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
        self.pool().len()
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

    /// Lifetime counters of the partial cache, read from the registry.
    pub fn cache_stats(&self) -> CacheStats {
        let metrics = &self.metrics;
        CacheStats {
            hits: metrics.cache_hits.get(),
            misses: metrics.cache_misses.get(),
            insertions: metrics.cache_insertions.get(),
            evictions: metrics.cache_evictions.get(),
            invalidated: metrics.cache_invalidated.get(),
        }
    }

    /// Number of live entries in the partial cache.
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// What the most recent execution did, shard by shard.
    pub fn last_report(&self) -> QueryReport {
        lock(&self.last_report).clone()
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

    fn pool(&self) -> RwLockReadGuard<'_, Vec<Arc<WorkerLink>>> {
        self.workers.read().unwrap_or_else(|p| p.into_inner())
    }

    fn worker(&self, index: usize) -> Result<Arc<WorkerLink>, SeabedError> {
        link_at(&self.pool(), index).cloned()
    }

    fn worker_alive(&self, index: usize) -> bool {
        live(&self.pool())(index)
    }

    /// Health and traffic summaries, one per worker slot. Wait-free with
    /// respect to the workers: liveness and byte totals are the values each
    /// link published when its connection was last released.
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        let pool = self.pool().clone();
        let placement = lock(&self.placement);
        let summary = |(w, link): (usize, &Arc<WorkerLink>)| WorkerSummary {
            label: link.label.clone(),
            alive: link.alive(),
            shards: placement.shards_of(w),
            queries: link.queries.load(Ordering::Relaxed),
            bytes_sent: link.bytes_sent.load(Ordering::Relaxed),
            bytes_received: link.bytes_received.load(Ordering::Relaxed),
        };
        pool.iter().enumerate().map(summary).collect()
    }

    /// Bumps the cache fencing epoch and reclaims everything it fences
    /// (entries of the named dead/departed workers first, so the purge is
    /// attributable, then every remaining stale-epoch entry).
    fn fence_cache(&self, dead: &[usize]) {
        let bumped = self.cache_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        {
            let mut cache = lock(&self.cache);
            let purged: u64 = dead.iter().map(|&worker| cache.purge_worker(worker)).sum();
            self.metrics
                .cache_invalidated
                .add(purged + cache.purge_stale_epochs(bumped));
        }
        self.publish_gauges();
    }

    /// Re-publishes the `dist_live_workers` and `dist_partial_cache_len`
    /// gauges from the current membership and cache occupancy. Called after
    /// every membership change and cache fence (and the cache-length half
    /// after inserts), so a scrape always sees the post-transition values.
    fn publish_gauges(&self) {
        let live = self.pool().iter().filter(|link| link.alive()).count();
        self.metrics.live_workers.set(live as u64);
        let len = lock(&self.cache).len();
        self.metrics.partial_cache_len.set(len as u64);
    }

    /// The scatter/gather behind [`QueryTarget::run`]: executes the request
    /// across every shard of the table it names and merges the partial
    /// results into one response, byte-identical to single-server execution;
    /// it fails only when a shard cannot run anywhere or a worker reports a
    /// deterministic query error. With `cache_key` (`(statement hash, filter
    /// hash)`) shards may be answered from the partial cache and fresh
    /// partials go back into it; without, the cache is not touched. An
    /// analyzed request asks every worker for a per-operator profile and
    /// returns the stitched plan of this execution. The response's
    /// `stats.wall_time` is the time since `started`.
    fn scatter_gather(
        &self,
        request: &ExecRequest<'_>,
        cache_key: Option<(u64, u64)>,
        started: Instant,
    ) -> Result<ExecOutcome, SeabedError> {
        let tb = self.obs.trace_builder(request.trace_id, "coordinator");
        let (table_id, entry) = self.resolve(&request.plan.base_table)?;
        let total_shards = entry.shards.len();
        let ctx = QueryContext {
            table_id,
            request: *request,
        };

        let (cached, missing) = self.probe(table_id, total_shards as u32, cache_key);
        let scatter_started = Instant::now();
        let (lanes, results, mut tally) = self.scatter(ctx, &missing);
        let fresh = self.recover(ctx, results, &mut tally)?;
        let scatter_ns = record_stage(&self.metrics.scatter_ns, &tb, "scatter", scatter_started.elapsed());
        for (run, ..) in &fresh {
            tb.add_span_ns("shard-execute", nanos(run.round_trip));
        }
        if let Some(key) = cache_key {
            self.fill_cache(table_id, key, &fresh);
        }

        let cache_hits = cached.len() as u64;
        let gather_started = Instant::now();
        let (mut response, runs, merge_time) = self.gather(request.plan, cached, fresh);
        let gather_time = gather_started.elapsed();
        let gather_ns = record_stage(&self.metrics.gather_ns, &tb, "gather", gather_time);
        let merge_ns = record_stage(&self.metrics.merge_ns, &tb, "merge", merge_time);
        response.stats.wall_time = started.elapsed();

        let report = QueryReport {
            runs,
            gather_time,
            discarded_partials: tally.discarded,
            cache_hits,
            cache_misses: if cache_key.is_some() { missing.len() as u64 } else { 0 },
            hedged_reads: tally.hedged,
        };
        // Latency split of prepared executes: a fully cached answer never
        // touched the network; anything that scattered lands in the miss
        // histogram. One-shot queries never probe and record neither.
        if cache_key.is_some() {
            let metrics = &self.metrics;
            let split = if missing.is_empty() {
                &metrics.cache_hit_ns
            } else {
                &metrics.cache_miss_ns
            };
            split.record_ns(nanos(response.stats.wall_time));
        }
        let plan = request.analyze.then(|| {
            let stage_ns = [scatter_ns, gather_ns, merge_ns];
            stitch(&report, total_shards, lanes, &response, stage_ns)
        });
        *lock(&self.last_report) = report;
        if let Some(trace) = tb.finish() {
            self.obs.record_trace(trace);
        }
        Ok(ExecOutcome { response, plan })
    }

    /// Probe: a prepared execute answers every shard it can from the cache
    /// and leaves only the rest to the scatter, counting each shard a hit or
    /// a miss; without a key every shard is missing and nothing is touched or
    /// counted. The probe epoch is read under the cache lock so a concurrent
    /// bump can't resurrect fenced entries.
    fn probe(
        &self,
        table_id: u32,
        shards: u32,
        cache_key: Option<(u64, u64)>,
    ) -> (Vec<(u32, PartialResponse)>, Vec<u32>) {
        let Some((statement, filters)) = cache_key else {
            return (Vec::new(), (0..shards).collect());
        };
        let mut cache = lock(&self.cache);
        let cache_epoch = self.cache_epoch.load(Ordering::Acquire);
        let (mut cached, mut missing) = (Vec::new(), Vec::new());
        for shard in 0..shards {
            let key = PartialKey {
                cache_epoch,
                table_id,
                shard,
                statement,
                filters,
            };
            match cache.get(&key) {
                Some(partial) => cached.push((shard, partial.clone())),
                None => missing.push(shard),
            }
        }
        self.metrics.cache_hits.add(cached.len() as u64);
        self.metrics.cache_misses.add(missing.len() as u64);
        (cached, missing)
    }

    /// Scatter (module docs): group the uncached shards by *primary*, one
    /// lane per worker, each shard with the replica set a hedge may fall back
    /// on, and order the lanes by worker index. Round `r` asks the `r`-th
    /// shard of every lane that has one — a lane has a second only after a
    /// re-dispatch promoted its worker — on the calling thread:
    ///
    /// 1. **send**: in worker order, each lane's link is locked and its shard
    ///    query written, so every worker is scanning before any reply is read;
    /// 2. **receive**: in the same order, each reply is read and its link
    ///    released;
    /// 3. **hedge**: only then, with no link of the round held, each abandoned
    ///    shard is raced against its live replicas — often another lane's
    ///    primary, whose lock this query held a moment ago.
    ///
    /// A lane whose connection is gone has the rest of its shards refused by
    /// the link without another round trip. Returns the lane count, every
    /// shard's outcome, and the query's tally.
    fn scatter(&self, ctx: QueryContext<'_>, missing: &[u32]) -> (usize, Vec<ShardResult>, Tally) {
        let pool = self.pool().clone();
        let alive = live(&pool);
        let mut lanes: Vec<Lane> = Vec::new();
        {
            let placement = lock(&self.placement);
            for &shard in missing {
                let worker = placement.primary(ctx.table_id, shard, &alive);
                let replicas = placement.replicas(ctx.table_id, shard).to_vec();
                match lanes.iter_mut().find(|(w, _)| *w == worker) {
                    Some((_, shards)) => shards.push((shard, replicas)),
                    None => lanes.push((worker, vec![(shard, replicas)])),
                }
            }
        }
        lanes.sort_unstable_by_key(|(worker, _)| *worker);
        let (mut tally, mut results) = (Tally::default(), Vec::with_capacity(missing.len()));
        let rounds = lanes.iter().map(|(_, shards)| shards.len()).max().unwrap_or(0);
        for round in 0..rounds {
            let asked = lanes
                .iter()
                .filter_map(|(worker, shards)| Some((*worker, shards.get(round)?)));
            let mut in_flight = Vec::with_capacity(lanes.len());
            for (worker, (shard, replicas)) in asked {
                let hedge_after = self.hedge_trigger(worker, replicas, &alive);
                let sent = link_at(&pool, worker).and_then(|link| {
                    let mut locked = link.lock();
                    let (seq, request) = self.shard_query(*shard, ctx)?;
                    locked.send(&request)?;
                    Ok((locked, seq, request, Instant::now()))
                });
                in_flight.push((worker, *shard, replicas, hedge_after, sent));
            }
            let mut abandoned = Vec::new();
            for (worker, shard, replicas, hedge_after, sent) in in_flight {
                let answer = sent.and_then(|(mut locked, seq, request, sent)| {
                    // A hedge deadline runs from the lane's own send: expiring
                    // behind a stalled lane only hedges, which is safe. A plain
                    // budget runs from now, as expiring condemns the worker.
                    let deadline = match hedge_after {
                        Some(after) => sent + after,
                        None => Instant::now() + self.config.read_timeout,
                    };
                    let echo = echoes(self.epoch, ctx.table_id, shard, seq);
                    let reply = locked.receive(&request, deadline, hedge_after.is_some(), seq, &mut tally, echo)?;
                    self.accept_partial(&mut locked, worker, shard, ctx, reply, sent)
                });
                match answer {
                    Ok(Some(answer)) => results.push((shard, Ok(answer))),
                    Ok(None) => abandoned.push((worker, shard, replicas)),
                    Err(err) => results.push((shard, Err(err))),
                }
            }
            for (primary, shard, replicas) in abandoned {
                results.push((shard, self.hedge(shard, ctx, replicas, primary, &mut tally)));
            }
        }
        (lanes.len(), results, tally)
    }

    /// Recover: transport/protocol casualties of the scatter are
    /// re-dispatched to a live replica (or, failing that, any survivor); a
    /// deterministic query error fails the whole query immediately. A worker
    /// loss also bumps the cache epoch — every partial cached before this
    /// recovery is fenced at once — and reclaims the fenced entries (the
    /// dead workers' first, so the purge is attributable). Returns every
    /// scattered shard's answer.
    fn recover(
        &self,
        ctx: QueryContext<'_>,
        results: Vec<ShardResult>,
        tally: &mut Tally,
    ) -> Result<Vec<ShardAnswer>, SeabedError> {
        if results
            .iter()
            .any(|(_, result)| result.as_ref().is_err_and(retry_elsewhere))
        {
            let pool = self.pool().clone();
            let dead: Vec<usize> = (0..pool.len()).filter(|&w| !pool[w].alive()).collect();
            self.fence_cache(&dead);
        }
        let mut fresh = Vec::with_capacity(results.len());
        for (shard, result) in results {
            fresh.push(match result {
                Ok(answer) => answer,
                Err(err) if retry_elsewhere(&err) => self.redispatch(shard, ctx, tally)?,
                Err(err) => return Err(err),
            });
        }
        Ok(fresh)
    }

    /// Fresh partials of a prepared execute go back into the cache under the
    /// *current* epoch — post-bump if this very query lost a worker, so a
    /// recovery never caches under a fenced generation — each counted as an
    /// insertion, with whatever the capacity bound evicts for it.
    fn fill_cache(&self, table_id: u32, (statement, filters): (u64, u64), fresh: &[ShardAnswer]) {
        let mut cache = lock(&self.cache);
        let cache_epoch = self.cache_epoch.load(Ordering::Acquire);
        for (run, worker, partial) in fresh {
            let key = PartialKey {
                cache_epoch,
                table_id,
                shard: run.shard,
                statement,
                filters,
            };
            let evicted = cache.insert(key, *worker, partial.clone());
            self.metrics.cache_evictions.add(evicted);
        }
        self.metrics.cache_insertions.add(fresh.len() as u64);
        self.metrics.partial_cache_len.set(cache.len() as u64);
    }

    /// Gather: fold every shard's partial groups — cached and fresh — in
    /// shard order through the shared merge implementation, then finalize
    /// exactly as the in-process driver. Each fresh partial's scan
    /// statistics move into its shard's run once merged. Returns the
    /// response, the runs in shard order, and the time the fold took.
    fn gather(
        &self,
        query: &TranslatedQuery,
        cached: Vec<(u32, PartialResponse)>,
        fresh: Vec<ShardAnswer>,
    ) -> (ServerResponse, Vec<ShardRun>, Duration) {
        let cached = cached.into_iter().map(|(shard, partial)| (shard, partial, None));
        let fresh = fresh
            .into_iter()
            .map(|(run, _, partial)| (run.shard, partial, Some(run)));
        let mut pieces: Vec<(u32, PartialResponse, Option<ShardRun>)> = cached.chain(fresh).collect();
        pieces.sort_by_key(|(shard, ..)| *shard);
        let merge_started = Instant::now();
        let mut merged: PartialGroups = PartialGroups::new();
        let mut stats = ExecStats::default();
        let mut runs = Vec::new();
        for (_, partial, run) in pieces {
            stats = stats.merge(&partial.stats);
            merge_partial_groups(&mut merged, partial.groups);
            runs.extend(run.map(|run| ShardRun {
                stats: partial.stats,
                ..run
            }));
        }
        let merge_time = merge_started.elapsed();
        (finalize_partials(query, merged, stats), runs, merge_time)
    }

    /// The hedge trigger of a shard query to `primary` (module docs): the
    /// configured `hedge_after` when it undercuts the read timeout and a live
    /// replica other than the primary exists to race; otherwise none, and the
    /// primary gets the whole budget.
    fn hedge_trigger(&self, primary: usize, replicas: &[usize], alive: impl Fn(usize) -> bool) -> Option<Duration> {
        let replica = replicas.iter().any(|&w| w != primary && alive(w));
        (self.config.hedge_after < self.config.read_timeout && replica).then_some(self.config.hedge_after)
    }

    /// Hedges a shard whose primary left its query outstanding past the
    /// trigger: the query is re-issued to each live replica in turn under the
    /// full round-trip budget, and the first valid echo wins. If every hedge
    /// fails, a retryable error is returned so the shard flows into
    /// re-dispatch under a fresh sequence number.
    fn hedge(
        &self,
        shard: u32,
        ctx: QueryContext<'_>,
        replicas: &[usize],
        primary: usize,
        tally: &mut Tally,
    ) -> Result<ShardAnswer, SeabedError> {
        tally.hedged += 1;
        self.metrics.hedged_reads.incr();
        let mut last_err: Option<SeabedError> = None;
        // Liveness is read as each replica's turn comes.
        for &replica in replicas.iter().filter(|&&w| w != primary && self.worker_alive(w)) {
            match self.query_shard(replica, shard, ctx, tally) {
                Ok(mut answer) => {
                    answer.0.hedged = true;
                    return Ok(answer);
                }
                Err(err) if retry_elsewhere(&err) => last_err = Some(err),
                Err(err) => return Err(err),
            }
        }
        let table_id = ctx.table_id;
        let nobody = format!("hedged read of table {table_id} shard {shard} found no live replica");
        Err(last_err.unwrap_or_else(|| SeabedError::dist("coordinator", nobody)))
    }

    /// Shard `shard`'s query under a fresh sequence number, encoded from the
    /// request's borrowed plan and filters. Called with the target link
    /// locked: a number drawn outside the lock could reach the worker after a
    /// later one, and the earlier request's hedge-abandoned partial — neither
    /// this request's echo nor below its `stale_below` — would poison a
    /// healthy link.
    fn shard_query(&self, shard: u32, ctx: QueryContext<'_>) -> Result<(u64, Vec<u8>), SeabedError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let request = ShardQueryRef {
            epoch: self.epoch,
            table_id: ctx.table_id,
            shard,
            seq,
            trace_id: ctx.request.trace_id,
            analyze: ctx.request.analyze,
            query: ctx.request.plan,
            filters: ctx.request.filters,
        };
        Ok((seq, request.encode(self.config.max_frame_len)?))
    }

    /// One un-hedged shard query on one worker — a hedge or a re-dispatch:
    /// one exchange under the full `read_timeout`, its reply accepted as
    /// `accept_partial` states.
    fn query_shard(
        &self,
        worker: usize,
        shard: u32,
        ctx: QueryContext<'_>,
        tally: &mut Tally,
    ) -> Result<ShardAnswer, SeabedError> {
        let link = self.worker(worker)?;
        let mut locked = link.lock();
        let (seq, request) = self.shard_query(shard, ctx)?;
        let started = Instant::now();
        let echo = echoes(self.epoch, ctx.table_id, shard, seq);
        let reply = locked.exchange(&request, None, seq, tally, echo)?;
        let answer = self.accept_partial(&mut locked, worker, shard, ctx, reply, started)?;
        Ok(answered(answer))
    }

    /// Accepts a shard query's reply from the held link: the partial that
    /// echoed the request (`None` when the wait was abandoned for a hedge),
    /// shape-checked against the query before it may reach the merge — a
    /// forged or buggy partial poisons the connection here, never silently
    /// zip-truncated by the fold.
    fn accept_partial(
        &self,
        locked: &mut LockedLink<'_>,
        worker: usize,
        shard: u32,
        ctx: QueryContext<'_>,
        reply: Option<Frame>,
        started: Instant,
    ) -> Result<Option<ShardAnswer>, SeabedError> {
        let Some(Frame::ShardPartial { partial, .. }) = reply else {
            return Ok(None);
        };
        let link = locked.link();
        if let Err(detail) = validate_partial(ctx.request.plan, &partial) {
            return Err(locked.poison(SeabedError::dist(&link.label, detail)));
        }
        link.queries.fetch_add(1, Ordering::Relaxed);
        let run = ShardRun {
            table_id: ctx.table_id,
            shard,
            worker: link.label.clone(),
            // Moved out of the partial by the gather, once it is merged.
            stats: ExecStats::default(),
            round_trip: started.elapsed(),
            redispatched: false,
            hedged: false,
        };
        Ok(Some((run, worker, partial)))
    }

    /// Loads shard `shard` of table `table_id` onto each of `workers` in turn
    /// and verifies every acknowledgement. The frame is encoded once, from
    /// the retained table where it lies, and the same bytes go to every
    /// worker named: a replica set costs one encode, not one clone and one
    /// encode per member.
    fn load_shard(&self, table_id: u32, shard: u32, workers: &[usize]) -> Result<(), SeabedError> {
        let table = &self.tables[table_id as usize].shards[shard as usize];
        let epoch = self.epoch;
        let load = LoadShardRef {
            epoch,
            table_id,
            shard,
            exec: self.config.exec,
            table,
        }
        .encode(self.config.max_frame_len)?;
        let ack = Frame::ShardLoaded {
            epoch,
            table_id,
            shard,
            rows: table.num_rows() as u64,
        };
        workers
            .iter()
            .try_for_each(|&worker| self.worker(worker)?.command(&load, |frame| *frame == ack))
    }

    /// Asks `worker` to drop its copy of shard `shard` (after a rebalance
    /// moved the replica elsewhere) and verifies the acknowledgement.
    fn unload_shard(&self, table_id: u32, shard: u32, worker: usize) -> Result<(), SeabedError> {
        let epoch = self.epoch;
        let link = self.worker(worker)?;
        let unload = link.encode(&Frame::UnloadShard { epoch, table_id, shard })?;
        link.command(&unload, |frame| {
            matches!(frame, Frame::ShardUnloaded { epoch: e, table_id: t, shard: s, .. }
                if (*e, *t, *s) == (epoch, table_id, shard))
        })
    }

    /// Re-runs a failed shard query elsewhere, in the order of the module
    /// docs: live replicas, then any other live worker behind a fresh load.
    /// Dead workers are never selected; success promotes the answering
    /// worker to primary so later queries go straight there; when nothing
    /// live is left the query fails with a typed [`SeabedError::Dist`]
    /// instead of hanging.
    fn redispatch(&self, shard: u32, ctx: QueryContext<'_>, tally: &mut Tally) -> Result<ShardAnswer, SeabedError> {
        let table_id = ctx.table_id;
        let replicas = lock(&self.placement).replicas(table_id, shard).to_vec();
        let pool = self.pool().clone();
        let alive = live(&pool);
        // Liveness is read as each candidate's turn comes.
        let holders = replicas.iter().map(|&w| (w, true));
        let others = (0..pool.len()).filter(|w| !replicas.contains(w)).map(|w| (w, false));
        let mut last_err: Option<SeabedError> = None;
        for (worker, holds_shard) in holders.chain(others) {
            if !alive(worker) {
                continue;
            }
            let loaded = if holds_shard {
                Ok(())
            } else {
                self.load_shard(table_id, shard, &[worker])
            };
            match loaded.and_then(|()| self.query_shard(worker, shard, ctx, tally)) {
                Ok(mut answer) => {
                    answer.0.redispatched = true;
                    self.metrics.redispatches.incr();
                    lock(&self.placement).promote(table_id, shard, worker, &alive);
                    return Ok(answer);
                }
                // Deterministic query errors abort re-dispatch: another
                // worker would answer identically.
                Err(err) if !retry_elsewhere(&err) => return Err(err),
                Err(err) => last_err = Some(err),
            }
        }
        let detail = match last_err {
            Some(err) => format!("table {table_id} shard {shard} could not be re-dispatched: {err}"),
            None => format!("table {table_id} shard {shard} has no live replica or worker left to run on"),
        };
        Err(SeabedError::dist("coordinator", detail))
    }

    /// Connects a new worker under this coordinator's epoch, appends it to
    /// the pool, and rebalances replica slots onto it as `Placement::join`
    /// plans: every moved shard is loaded onto the joiner, the plan is
    /// committed, and only then do the donors unload (best effort: a failed
    /// unload wastes memory on the donor but is otherwise harmless — no set
    /// names it any more). A failed load fails the join with the placement
    /// untouched. Returns the joiner's stable worker index.
    pub fn join_worker<A: ToSocketAddrs>(&self, addr: A) -> Result<usize, SeabedError> {
        let link = Arc::new(connect_worker(&addr, self.epoch, &self.config)?);
        let pool = {
            let mut workers = self.workers.write().unwrap_or_else(|p| p.into_inner());
            workers.push(link);
            workers.clone()
        };
        let joiner = pool.len() - 1;
        let mut planned = lock(&self.placement).clone();
        let moves = planned.join(joiner, pool.len(), live(&pool));
        for &(table, shard, _) in &moves {
            self.load_shard(table, shard, &[joiner])?;
        }
        *lock(&self.placement) = planned;
        for (table, shard, donor) in moves {
            let _ = self.unload_shard(table, shard, donor);
        }
        self.fence_cache(&[]);
        Ok(joiner)
    }

    /// Retires `worker` from the cluster as `Placement::leave` plans:
    /// every replica slot it held is re-homed (a fresh copy loaded off the
    /// critical path), the plan is committed, and its link moves to `Left`;
    /// until then the leaver keeps serving. If a shard would lose its *last*
    /// copy the call fails with a typed error, the copies it loaded
    /// meanwhile are unloaded (best effort), and placement and link state
    /// are what they were. Leaving twice is an idempotent no-op.
    pub fn leave_worker(&self, worker: usize) -> Result<(), SeabedError> {
        let link = self.worker(worker)?;
        if link.has_left() {
            return Ok(());
        }
        let pool = self.pool().clone();
        let mut planned = lock(&self.placement).clone();
        let mut loaded: Vec<(u32, u32, usize)> = Vec::new();
        let rehomed = planned.leave(worker, pool.len(), live(&pool), |table, shard, to| {
            self.load_shard(table, shard, &[to])?;
            loaded.push((table, shard, to));
            Ok::<(), SeabedError>(())
        });
        if let Err(refusal) = rehomed {
            for (table, shard, to) in loaded {
                let _ = self.unload_shard(table, shard, to);
            }
            return Err(SeabedError::dist(&link.label, format!("cannot leave: {refusal}")));
        }
        *lock(&self.placement) = planned;
        link.retire();
        self.fence_cache(&[worker]);
        Ok(())
    }
}

/// The link in slot `index` of a snapshot of the pool.
fn link_at(pool: &[Arc<WorkerLink>], index: usize) -> Result<&Arc<WorkerLink>, SeabedError> {
    let link = pool.get(index);
    link.ok_or_else(|| SeabedError::dist("coordinator", format!("worker index {index} is out of range")))
}

/// Recognises the reply to one shard query: the partial that echoes its
/// `(epoch, table, shard, seq)`.
fn echoes(epoch: u64, table_id: u32, shard: u32, seq: u64) -> impl Fn(&Frame) -> bool {
    move |frame| {
        matches!(frame, Frame::ShardPartial { epoch: e, table_id: t, shard: s, seq: q, .. }
            if (*e, *t, *s, *q) == (epoch, table_id, shard, seq))
    }
}

/// A duration as the nanosecond count spans and histograms take.
fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Records one coordinator stage's one measurement into its histogram and
/// the query's trace, and returns it for the stitched plan: every reader of a
/// stage's time reads this figure, with the registry on or off.
fn record_stage(histogram: &Histogram, tb: &TraceBuilder, name: &str, time: Duration) -> u64 {
    let ns = nanos(time);
    histogram.record_ns(ns);
    tb.add_span_ns(name, ns);
    ns
}

/// `EXPLAIN ANALYZE`: stitches one execution into the plan subtree the
/// session hangs under the structural plan — one node per coordinator stage
/// and one per shard, hedged/redispatched shards marked, each carrying its
/// worker's measured per-operator breakdown as children. Labels name workers
/// and physical columns only, never predicate literals or SQL text.
fn stitch(
    report: &QueryReport,
    total_shards: usize,
    lanes: usize,
    response: &ServerResponse,
    [scatter_ns, gather_ns, merge_ns]: [u64; 3],
) -> PlanNode {
    let stage = |op: &str, label: String, nanos: u64| {
        PlanNode::new(op, label).with_profile(PlanProfile {
            nanos,
            ..PlanProfile::default()
        })
    };
    let mut dist = stage(
        "dist",
        format!(
            "{} of {total_shards} shards scattered over {lanes} lanes, {} cached",
            report.runs.len(),
            report.cache_hits
        ),
        nanos(response.stats.wall_time),
    );
    dist.children
        .push(stage("scatter", format!("{lanes} lanes"), scatter_ns));
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
            nanos(run.round_trip),
        );
        let operators = run.stats.operators.iter();
        node.children
            .extend(operators.map(|op| PlanNode::new("operator", op.label.clone()).with_profile(plan_profile(op))));
        dist.children.push(node);
    }
    dist.children
        .push(stage("gather", format!("{total_shards} partials"), gather_ns));
    let groups = response.groups.len();
    dist.children.push(stage("merge", format!("{groups} groups"), merge_ns));
    dist
}

impl QueryTarget for DistCoordinator {
    fn schema_of(&self, table: &str) -> Result<&Schema, SeabedError> {
        self.resolve(table).map(|(_, entry)| &entry.shards[0].schema)
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
            (wire::statement_hash(request.plan), fnv1a64(&filter_bytes))
        });
        let started = Instant::now();
        let outcome = self.scatter_gather(request, cache_key, started);
        if self.obs.enabled() {
            let executed = outcome.as_ref().ok();
            // An answered query's time is its response's wall time.
            let total = executed.map_or_else(|| started.elapsed(), |e| e.response.stats.wall_time);
            self.obs.record_event(QueryEvent {
                trace_id: request.trace_id,
                // A cached execute already hashed the statement for its key.
                statement_id: cache_key.map_or_else(|| wire::statement_hash(request.plan), |(statement, _)| statement),
                node: "coordinator".to_string(),
                plan: executed
                    .and_then(|e| e.plan.as_ref())
                    .map_or_else(|| request.plan.describe(), PlanNode::render),
                operators: event_operators(executed.map_or(&[], |e| &e.response.stats.operators)),
                total_ns: nanos(total),
                slow: false,
                outcome: outcome_tag(&outcome).to_string(),
            });
        }
        outcome
    }
}

/// One worker's share of a scatter: its index and the shards whose primary
/// it is, each with the replica set a hedge may fall back on.
type Lane = (usize, Vec<(u32, Vec<usize>)>);

/// One shard's answer as a lane hands it over: its run record, the index of
/// the answering worker (recorded so a cached copy of the partial can be
/// purged if that worker later dies) and the mergeable partial, by value.
type ShardAnswer = (ShardRun, usize, PartialResponse);

/// One scattered shard's outcome: its answer, or the error that felled it.
type ShardResult = (u32, Result<ShardAnswer, SeabedError>);

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
    for (key, group) in &partial.groups {
        let partials = &group.aggregates;
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
                | (ServerAggregate::CountRows, PartialAggregate::Count) => true,
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
