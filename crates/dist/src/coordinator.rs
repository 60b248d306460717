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
//! construction. A prepared execute first probes the answer cache
//! (`crate::cache`): a hit is that finalized answer, cloned, with nothing
//! scattered, merged or finalized; a miss gathers as above and caches what it
//! gathered.
//!
//! This module is the query path's shell: probe, scatter, gather. *What the
//! scatter asks next* — each shard's walk through its primary, its hedges and
//! its re-dispatches, with every deadline, fence, promotion and failure — is
//! `crate::dispatch`'s, a value the shell drives: the shell locks, sends,
//! receives, loads, reads the clock and does what the dispatch returns. *Who
//! holds shard s* is `crate::placement`'s and *is worker w alive* is
//! `crate::link`'s; their module docs state the rules. *What did this query
//! do* is a `Tally` the query fills, never a difference of process-wide
//! counters.
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
//! Who is in the cluster is one value, `Members`: the worker pool and the
//! placement, published behind one mutex as an `Arc` that is only ever
//! cloned or swapped under it, never held across I/O. A cold scatter takes
//! the snapshot once and walks on it to the end, re-dispatch loads included;
//! health reads take one each. [`DistCoordinator::join_worker`] and
//! [`DistCoordinator::leave_worker`] change the pool under the *same* epoch.
//! Each plans on a clone, runs the shard loads the plan needs, and publishes
//! the clone whole once they went through — a refused join or leave unloads
//! what it loaded and publishes nothing — then unloads the donors, retires
//! the leaver and fences the answer cache, so answers cached under the old
//! membership can never answer a later probe. They run one at a time, under
//! the membership lock, which queries never take: a plan is always made from
//! the last published membership. A query's promotion publishes an edited
//! copy in between; a membership change that publishes after it overwrites
//! it, which costs that shard's next query one more re-dispatch, never an
//! answer.

use crate::cache::{AnswerCache, AnswerKey};
use crate::dispatch::{Action, Ask, Dispatch};
use crate::link::{connect_worker, live, Tally, WorkerLink};
use crate::lock;
use crate::placement::{split_into_shards, Placement};
use rand::RngCore;
use seabed_core::{
    event_operators, finalize_partials, outcome_tag, plan_profile, ExecOutcome, ExecRequest, PartialResponse,
    PhysicalFilter, QueryTarget, ServerResponse,
};
use seabed_engine::merge::{merge_partial_groups, PartialGroups};
use seabed_engine::{ExecStats, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame, LoadShardRef, ShardExecConfig, ShardQueryRef};
use seabed_obs::{Counter, Gauge, Histogram, Registry, TraceBuilder};
use seabed_query::{PlanNode, PlanProfile, TranslatedQuery};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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
    /// How many answers the statement-keyed answer cache serving prepared
    /// executes holds; `0` disables caching.
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

    /// Returns the configuration with the answer cache's bound replaced
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
    /// Shards answered from the answer cache (prepared executes only): a
    /// hit counts every shard of the table.
    pub cache_hits: u64,
    /// Shards that missed the answer cache and were scattered (prepared
    /// executes only; one-shot queries never probe and count nothing): a
    /// miss counts every shard of the table.
    pub cache_misses: u64,
    /// Hedged reads launched during this query (slow primaries raced
    /// against a replica).
    pub hedged_reads: u64,
}

/// The answer cache's lifetime counters: a view over the coordinator
/// registry's `dist_cache_*` counters, their only home. Hits and misses
/// count shards, the rest count answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Shards answered from the cache, every shard of a hit's table
    /// (`dist_cache_hits`).
    pub hits: u64,
    /// Shards scattered on a miss, every shard of its table
    /// (`dist_cache_misses`).
    pub misses: u64,
    /// Answers inserted (`dist_cache_insertions`).
    pub insertions: u64,
    /// Answers evicted by the capacity bound (`dist_cache_evictions`).
    pub evictions: u64,
    /// Answers dropped by a fence (`dist_cache_invalidated`).
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
    /// Current number of answers in the answer cache, re-published
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

/// Who is in the cluster, as one immutable value: a reader that took it
/// sees a pool and a placement that were published together.
#[derive(Clone)]
struct Members {
    /// Worker slots. Indices are stable for the coordinator's lifetime:
    /// joiners append, leavers are retired in place (their link poisoned),
    /// so replica sets never dangle.
    pool: Vec<Arc<WorkerLink>>,
    /// Which workers hold which shard.
    placement: Placement,
}

/// The scatter/gather coordinator over N `seabed-net` workers, hosting one
/// or many encrypted tables on the same worker pool.
pub struct DistCoordinator {
    tables: Vec<TableEntry>,
    /// The published membership. Held only to clone the `Arc` or to swap
    /// it, never across I/O.
    members: Mutex<Arc<Members>>,
    /// Taken by `join_worker` and `leave_worker` for their whole run, shard
    /// loads included, so one never publishes a plan made before the other's
    /// publish. Queries never take it.
    membership: Mutex<()>,
    epoch: u64,
    seq: AtomicU64,
    config: DistConfig,
    last_report: Mutex<QueryReport>,
    /// Statement-keyed answer cache serving prepared executes,
    /// fenced — emptied — on every worker loss and every membership change,
    /// so entries cached before a recovery or a rebalance can never answer a
    /// probe after it.
    cache: Mutex<AnswerCache>,
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

        let mut pool = Vec::with_capacity(addrs.len());
        for addr in addrs {
            pool.push(Arc::new(connect_worker(addr, epoch, &config)?));
        }
        let shards = entries.iter().map(|entry| entry.shards.len());
        let placement = Placement::initial(shards, pool.len(), config.replication);
        let members = Arc::new(Members { pool, placement });

        let obs = Registry::default();
        let coordinator = DistCoordinator {
            tables: entries,
            members: Mutex::new(members.clone()),
            membership: Mutex::new(()),
            epoch,
            seq: AtomicU64::new(0),
            last_report: Mutex::new(QueryReport::default()),
            cache: Mutex::new(AnswerCache::new(config.partial_cache_capacity)),
            config,
            metrics: DistMetrics::new(&obs),
            obs,
        };
        for (table_id, shard, set) in members.placement.sets() {
            coordinator.load_shard(&members, table_id, shard, set)?;
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
        self.members().pool.len()
    }

    /// The shard epoch in force on every worker.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The answer cache's fencing epoch: how many fences it has seen (one
    /// on every worker loss and membership change). Distinct from the wire
    /// [`DistCoordinator::epoch`], which is constant for this coordinator's
    /// lifetime.
    pub fn cache_epoch(&self) -> u64 {
        lock(&self.cache).fences()
    }

    /// Lifetime counters of the answer cache, read from the registry.
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

    /// Number of answers in the answer cache.
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// What the most recent execution did, shard by shard.
    pub fn last_report(&self) -> QueryReport {
        lock(&self.last_report).clone()
    }

    /// The coordinator's metrics registry (`dist_*` instruments plus the ring
    /// of recent [`seabed_obs::QueryEvent`]s, one per execution).
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

    /// The published membership.
    fn members(&self) -> Arc<Members> {
        lock(&self.members).clone()
    }

    /// Health and traffic summaries, one per worker slot. Wait-free with
    /// respect to the workers: liveness and byte totals are the values each
    /// link published when its connection was last released.
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        let Members { pool, placement } = &*self.members();
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

    /// Fences the answer cache, counting the answers the fence dropped.
    fn fence_cache(&self) {
        let dropped = lock(&self.cache).fence();
        self.metrics.cache_invalidated.add(dropped);
        self.publish_gauges();
    }

    /// Re-publishes the `dist_live_workers` and `dist_partial_cache_len`
    /// gauges from the current membership and cache occupancy. Called after
    /// every membership change and cache fence (and the cache-length half
    /// after inserts), so a scrape always sees the post-transition values.
    fn publish_gauges(&self) {
        let live = self.members().pool.iter().filter(|link| link.alive()).count();
        self.metrics.live_workers.set(live as u64);
        let len = lock(&self.cache).len();
        self.metrics.partial_cache_len.set(len as u64);
    }

    /// The scatter/gather behind [`QueryTarget::run`]: executes the request
    /// across every shard of the table it names and merges the partial
    /// results into one response, byte-identical to single-server execution;
    /// it fails only when a shard cannot run anywhere or a worker reports a
    /// deterministic query error. With a `key`, an answer cached under it is
    /// cloned and returned — nothing is scattered, merged or finalized — and
    /// a miss's answer goes into the cache once gathered, after any fence the
    /// query itself raised: a gather over immutable shards is the same answer
    /// whoever computed it. Without one the cache is not touched. An analyzed
    /// request asks every worker for a per-operator profile and returns the
    /// stitched plan of this execution. Each stage of a gather is a span on
    /// `tb`; the response's `stats.wall_time` is the whole call's.
    fn scatter_gather(
        &self,
        request: &ExecRequest<'_>,
        key: Option<AnswerKey>,
        tb: &mut TraceBuilder,
    ) -> Result<ExecOutcome, SeabedError> {
        let started = Instant::now();
        let (table_id, entry) = self.resolve(&request.plan.base_table)?;
        let total_shards = entry.shards.len();
        // A probe counts every shard of the table a hit or a miss.
        let (shards, probed) = (total_shards as u64, key.is_some());
        if let Some(key) = &key {
            let cached = lock(&self.cache).get(table_id, key).cloned();
            if let Some(mut response) = cached {
                self.metrics.cache_hits.add(shards);
                response.stats.wall_time = started.elapsed();
                self.metrics.cache_hit_ns.record_ns(nanos(response.stats.wall_time));
                *lock(&self.last_report) = QueryReport {
                    cache_hits: shards,
                    ..QueryReport::default()
                };
                return Ok(ExecOutcome { response, plan: None });
            }
            // Counted before the scatter: a query that then fails still
            // counts its misses.
            self.metrics.cache_misses.add(shards);
        }

        let scatter_started = Instant::now();
        let (lanes, fresh, tally) = self.scatter(table_id, request, total_shards as u32)?;
        let scatter_ns = record_stage(&self.metrics.scatter_ns, tb, "scatter", scatter_started.elapsed());
        for (run, ..) in &fresh {
            tb.add_span_ns("shard-execute", nanos(run.round_trip));
        }
        let gather_started = Instant::now();
        let (mut response, runs, merge_time) = self.gather(request.plan, fresh);
        let gather_time = gather_started.elapsed();
        let gather_ns = record_stage(&self.metrics.gather_ns, tb, "gather", gather_time);
        let merge_ns = record_stage(&self.metrics.merge_ns, tb, "merge", merge_time);
        if let Some(key) = key {
            let groups = response.groups.clone();
            let answer = ServerResponse {
                groups,
                stats: ExecStats::default(),
            };
            let mut cache = lock(&self.cache);
            self.metrics.cache_evictions.add(cache.insert(table_id, key, answer));
            self.metrics.cache_insertions.incr();
            self.metrics.partial_cache_len.set(cache.len() as u64);
        }
        response.stats.wall_time = started.elapsed();
        if probed {
            self.metrics.cache_miss_ns.record_ns(nanos(response.stats.wall_time));
        }

        let report = QueryReport {
            runs,
            gather_time,
            discarded_partials: tally.discarded,
            cache_hits: 0,
            cache_misses: if probed { shards } else { 0 },
            hedged_reads: tally.hedged,
        };
        let plan = request.analyze.then(|| {
            let stage_ns = [scatter_ns, gather_ns, merge_ns];
            stitch(&report, total_shards, lanes, &response, stage_ns)
        });
        *lock(&self.last_report) = report;
        Ok(ExecOutcome { response, plan })
    }

    /// Scatter, hedge and recover every shard of the table: the shell of a
    /// [`Dispatch`], which decides every step (`crate::dispatch`'s module
    /// docs) while this function locks, sends, receives, loads, fences,
    /// promotes and reads the clock. A link is held from its send until its
    /// own reply is read. Returns the lane count, every shard's answer in the
    /// order the shards settled, and the query's tally.
    fn scatter(
        &self,
        table_id: u32,
        request: &ExecRequest<'_>,
        shards: u32,
    ) -> Result<(usize, Vec<ShardAnswer>, Tally), SeabedError> {
        let members = self.members();
        let Members { pool, placement } = &*members;
        let alive = live(pool);
        let set = |shard| (shard, placement.replicas(table_id, shard).to_vec());
        let sets = (0..shards).map(set).collect();
        let (hedge_after, read_timeout) = (self.config.hedge_after, self.config.read_timeout);
        let hedge = (hedge_after < read_timeout).then_some(hedge_after);
        let mut dispatch = Dispatch::new(table_id, sets, pool.len(), hedge, read_timeout, &alive);
        let (origin, mut tally, mut held) = (Instant::now(), Tally::default(), Vec::new());
        loop {
            match dispatch.next(origin.elapsed(), &alive) {
                Action::Send { shard, worker, ask } => {
                    let load = ask == Ask::Redispatch { load: true };
                    let loaded = load.then(|| self.load_shard(&members, table_id, shard, &[worker]));
                    let sent = loaded.unwrap_or(Ok(())).and_then(|()| {
                        let mut locked = link_at(pool, worker)?.lock();
                        let (seq, query) = self.shard_query(table_id, shard, request)?;
                        locked.send(&query)?;
                        Ok((locked, seq, query))
                    });
                    let at = origin.elapsed();
                    dispatch.sent(at);
                    held.push((shard, ask, origin + at, sent));
                }
                Action::Receive { deadline, abandon } => {
                    let (shard, ask, sent_at, sent) = held.remove(0);
                    let reply = sent.and_then(|(mut locked, seq, query)| {
                        let echo = |frame: &Frame| {
                            let echoed = (self.epoch, table_id, shard, seq);
                            matches!(frame, Frame::ShardPartial { epoch, table_id, shard, seq, .. }
                                if (*epoch, *table_id, *shard, *seq) == echoed)
                        };
                        let reply = locked.receive(&query, origin + deadline, abandon, seq, &mut tally, echo)?;
                        let Some(Frame::ShardPartial { partial, .. }) = reply else {
                            return Ok(None);
                        };
                        // Shape-checked before it may reach the merge: a
                        // forged or buggy partial poisons the link here.
                        let link = locked.link();
                        if let Err(detail) = validate_partial(request.plan, &partial) {
                            return Err(locked.poison(SeabedError::dist(&link.label, detail)));
                        }
                        link.queries.fetch_add(1, Ordering::Relaxed);
                        let run = ShardRun {
                            table_id,
                            shard,
                            worker: link.label.clone(),
                            // Moved out of the partial by the gather.
                            stats: ExecStats::default(),
                            round_trip: sent_at.elapsed(),
                            redispatched: matches!(ask, Ask::Redispatch { .. }),
                            hedged: ask == Ask::Hedge,
                        };
                        Ok(Some((run, partial)))
                    });
                    if matches!(reply, Ok(None)) {
                        tally.hedged += 1;
                        self.metrics.hedged_reads.incr();
                    }
                    dispatch.settle(reply);
                }
                Action::Fence => self.fence_cache(),
                Action::Promote { shard, worker } => {
                    self.metrics.redispatches.incr();
                    // In place when no reader holds the published snapshot
                    // (this walk's own does, so usually a copy), with the
                    // liveness of the snapshot it replaces.
                    let mut published = lock(&self.members);
                    let next = Arc::make_mut(&mut published);
                    next.placement.promote(table_id, shard, worker, live(&next.pool));
                }
                Action::Done(answers) => return Ok((dispatch.lanes, answers, tally)),
                Action::Fail(err) => return Err(err),
            }
        }
    }

    /// Shard `shard`'s query under a fresh sequence number, encoded from the
    /// request's borrowed plan and filters. Called with the target link
    /// locked: a number drawn outside the lock could reach the worker after a
    /// later one, and the earlier request's hedge-abandoned partial — neither
    /// this request's echo nor below its `stale_below` — would poison a
    /// healthy link.
    fn shard_query(&self, table_id: u32, shard: u32, request: &ExecRequest<'_>) -> Result<(u64, Vec<u8>), SeabedError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let query = ShardQueryRef {
            epoch: self.epoch,
            table_id,
            shard,
            seq,
            trace_id: request.trace_id,
            analyze: request.analyze,
            query: request.plan,
            filters: request.filters,
        };
        Ok((seq, query.encode(self.config.max_frame_len)?))
    }

    /// Gather: fold every shard's partial groups in shard order through the
    /// shared merge implementation, then finalize exactly as the in-process
    /// driver. Each partial's scan statistics move into its shard's run once
    /// merged. Returns the response, the runs in shard order, and the time
    /// the fold took.
    fn gather(
        &self,
        query: &TranslatedQuery,
        mut fresh: Vec<ShardAnswer>,
    ) -> (ServerResponse, Vec<ShardRun>, Duration) {
        fresh.sort_by_key(|(run, _)| run.shard);
        let merge_started = Instant::now();
        let mut merged: PartialGroups = PartialGroups::new();
        let mut stats = ExecStats::default();
        let mut runs = Vec::with_capacity(fresh.len());
        for (run, partial) in fresh {
            stats = stats.merge(&partial.stats);
            merge_partial_groups(&mut merged, partial.groups);
            runs.push(ShardRun {
                stats: partial.stats,
                ..run
            });
        }
        let merge_time = merge_started.elapsed();
        (finalize_partials(query, merged, stats), runs, merge_time)
    }

    /// Loads shard `shard` of table `table_id` onto each of `workers` of
    /// `members` in turn and verifies every acknowledgement. The frame is
    /// encoded once, from the retained table where it lies, and the same
    /// bytes go to every worker named: a replica set costs one encode, not
    /// one clone and one encode per member.
    fn load_shard(&self, members: &Members, table_id: u32, shard: u32, workers: &[usize]) -> Result<(), SeabedError> {
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
            .try_for_each(|&worker| link_at(&members.pool, worker)?.command(&load, |frame| *frame == ack))
    }

    /// Asks each `(table, shard, worker)` of `members` to drop its copy of the
    /// shard — a donor after a rebalance moved the replica, or a copy a
    /// refused change loaded — best effort: a failed unload wastes memory on
    /// the worker but is otherwise harmless, as no set names it.
    fn unload_shards(&self, members: &Members, copies: &[(u32, u32, usize)]) {
        let epoch = self.epoch;
        for &(table_id, shard, worker) in copies {
            let _ = link_at(&members.pool, worker).and_then(|link| {
                let unload = link.encode(&Frame::UnloadShard { epoch, table_id, shard })?;
                link.command(&unload, |frame| {
                    matches!(frame, Frame::ShardUnloaded { epoch: e, table_id: t, shard: s, .. }
                        if (*e, *t, *s) == (epoch, table_id, shard))
                })
            });
        }
    }

    /// Connects a new worker under this coordinator's epoch and rebalances
    /// replica slots onto it as `Placement::join` plans, on a clone of the
    /// membership with the joiner appended: every moved shard is loaded onto
    /// the joiner, the clone is published, and only then do the donors
    /// unload. A worker already in the pool as a live slot is refused, and
    /// so is a join whose load fails: its loads are undone, its connection
    /// dropped, and nothing is published. Returns the joiner's stable worker
    /// index.
    pub fn join_worker<A: ToSocketAddrs>(&self, addr: A) -> Result<usize, SeabedError> {
        let _membership = lock(&self.membership);
        let link = Arc::new(connect_worker(&addr, self.epoch, &self.config)?);
        let mut next = Members::clone(&self.members());
        if next.pool.iter().any(|other| other.alive() && other.label == link.label) {
            return Err(SeabedError::dist(&link.label, "cannot join: already a live worker"));
        }
        next.pool.push(link.clone());
        let joiner = next.pool.len() - 1;
        let moves = next.placement.join(joiner, next.pool.len(), live(&next.pool));
        let mut loaded = Vec::new();
        for &(table, shard, _) in &moves {
            if let Err(err) = self.load_shard(&next, table, shard, &[joiner]) {
                self.unload_shards(&next, &loaded);
                return Err(SeabedError::dist(&link.label, format!("cannot join: {err}")));
            }
            loaded.push((table, shard, joiner));
        }
        let next = Arc::new(next);
        *lock(&self.members) = next.clone();
        self.unload_shards(&next, &moves);
        self.fence_cache();
        Ok(joiner)
    }

    /// Retires `worker` from the cluster as `Placement::leave` plans, on a
    /// clone of the placement: every replica slot it held is re-homed (a
    /// fresh copy loaded off the critical path), the clone is published with
    /// the pool, and its link is poisoned; until then the leaver keeps
    /// serving. If a shard
    /// would lose its *last* copy the call fails with a typed error, the
    /// copies it loaded meanwhile are unloaded (best effort), and nothing is
    /// published. Leaving twice is a no-op: a worker whose link is down and
    /// that no set names has nothing left to leave.
    pub fn leave_worker(&self, worker: usize) -> Result<(), SeabedError> {
        let _membership = lock(&self.membership);
        let members = self.members();
        let link = link_at(&members.pool, worker)?;
        if !link.alive() && members.placement.shards_of(worker).is_empty() {
            return Ok(());
        }
        let mut placement = members.placement.clone();
        let mut loaded = Vec::new();
        let rehomed = placement.leave(worker, members.pool.len(), live(&members.pool), |table, shard, to| {
            self.load_shard(&members, table, shard, &[to])?;
            loaded.push((table, shard, to));
            Ok::<(), SeabedError>(())
        });
        if let Err(refusal) = rehomed {
            self.unload_shards(&members, &loaded);
            return Err(SeabedError::dist(&link.label, format!("cannot leave: {refusal}")));
        }
        let pool = members.pool.clone();
        *lock(&self.members) = Arc::new(Members { pool, placement });
        link.retire();
        self.fence_cache();
        Ok(())
    }
}

/// The link in slot `index` of a snapshot of the pool.
fn link_at(pool: &[Arc<WorkerLink>], index: usize) -> Result<&Arc<WorkerLink>, SeabedError> {
    let link = pool.get(index);
    link.ok_or_else(|| SeabedError::dist("coordinator", format!("worker index {index} is out of range")))
}

/// A duration as the nanosecond count spans and histograms take.
fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Records one coordinator stage's one measurement into its histogram and
/// the query's trace, and returns it for the stitched plan: every reader of a
/// stage's time reads this figure, with the registry on or off.
fn record_stage(histogram: &Histogram, tb: &mut TraceBuilder, name: &str, time: Duration) -> u64 {
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

    /// Leaves one redacted [`seabed_obs::QueryEvent`] per execution — failed
    /// ones included — in the registry under the request's trace id (node
    /// `coordinator`): its spans (scatter, per-shard execute, gather,
    /// merge), and this execution's stitched plan when analyzed or the
    /// plan's redacted description otherwise.
    ///
    /// A prepared execute routes through the answer cache. The cache key is
    /// *content*-derived — FNV-1a over the statement's and the bound filters'
    /// wire payloads — not the session's `statement_id`, mirroring the net
    /// client's handle cache: two sessions preparing the same SQL and binding
    /// the same literals share entries. An analyzed request never probes or
    /// fills the cache, whatever its `statement_id`: every shard node of its
    /// plan is a shard that ran.
    fn run(&self, request: &ExecRequest<'_>) -> Result<ExecOutcome, SeabedError> {
        let key =
            (request.statement_id.is_some() && !request.analyze).then(|| AnswerKey::new(request.plan, request.filters));
        // A cached execute already hashed the statement for its key.
        let statement = key.as_ref().map(|key| key.statement);
        let mut tb = self.obs.trace_builder(request.trace_id, "coordinator");
        let outcome = self.scatter_gather(request, key, &mut tb);
        if tb.is_active() {
            tb.set_statement_id(statement.unwrap_or_else(|| wire::statement_hash(request.plan)));
        }
        tb.describe(|| {
            let executed = outcome.as_ref().ok();
            let plan = executed.and_then(|e| e.plan.as_ref());
            (
                plan.map_or_else(|| request.plan.describe(), PlanNode::render),
                event_operators(executed.map_or(&[], |e| &e.response.stats.operators)),
            )
        });
        tb.finish(outcome_tag(&outcome));
        outcome
    }
}

/// One shard's answer as a lane hands it over: its run record and the
/// mergeable partial, by value.
type ShardAnswer = (ShardRun, PartialResponse);

/// Shape-checks a worker's partial against the query before it may reach
/// the merge: aggregate arity and kinds per group (including the MIN/MAX
/// direction) and the group-key width. A forged or buggy partial is rejected
/// with a description instead of being silently zip-truncated or inserted
/// wholesale by the fold.
fn validate_partial(query: &TranslatedQuery, partial: &PartialResponse) -> Result<(), String> {
    use seabed_engine::merge::PartialAggregate;
    use seabed_query::ServerAggregate;

    let expected_key_len = query.group_by.len();
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
