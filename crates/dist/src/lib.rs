//! # seabed-dist
//!
//! Sharded scatter/gather execution across networked workers: the step from
//! *one* `seabed-net` service to a real coordinator/worker cluster, mirroring
//! the Spark deployment the paper evaluates on (§6).
//!
//! ```text
//!                         ┌──────────────► worker 0 (NetServer, shards 0..)
//! SeabedClient ──► DistCoordinator ──────► worker 1 (NetServer, shards ..)
//!  (keys, plan)    shard / scatter └─────► worker N-1
//!                  gather / merge ◄─────── mergeable PartialResponses
//! ```
//!
//! * [`coordinator`] — [`DistCoordinator`]: splits a table's partitions into
//!   shards, loads every shard onto its **replica set** (R workers, R = 2 by
//!   default) under a fresh collision-resistant **epoch**, scatters
//!   partition-scoped sub-queries concurrently over persistent connections,
//!   and gathers the workers' *mergeable* partial results — ASHE partial
//!   sums with ID lists, SPLASHE splayed counts, MIN/MAX ORE candidates,
//!   group-by maps — folding them with [`seabed_engine::merge`], the same
//!   implementation the in-process driver uses, so distributed responses are
//!   byte-identical to single-server execution by construction.
//! * [`worker`] — a one-call helper standing up a shard-hosting
//!   [`seabed_net::NetServer`]; the worker side of the protocol lives in
//!   `seabed-net` itself (frame kinds 6–11 plus the 15/16 unload pair).
//!
//! Resilience: a worker that leaves a shard query outstanding past the
//! hedge trigger is raced against another replica — first valid
//! `(epoch, shard, seq)` echo wins, the loser's late partial is discarded
//! by its stale sequence number (the merge algebra is *not* idempotent, so
//! seq-dedup is the only thing standing between a duplicated partial and a
//! silently doubled sum). A worker that dies outright has its shards
//! re-dispatched to the surviving replicas — or, if none remain live,
//! re-loaded onto any surviving worker (the coordinator retains every
//! shard); when no live worker is left the query fails with a typed
//! [`seabed_error::SeabedError::Dist`] rather than hanging. Workers can
//! also [join](coordinator::DistCoordinator::join_worker) or
//! [leave](coordinator::DistCoordinator::leave_worker) a live cluster:
//! rebalancing moves only shards whose replica set changed, and every
//! membership change fences the partial cache so pre-change partials never
//! answer again. Any transport or framing failure poisons the worker's
//! connection rather than risking a desynchronized stream.
//!
//! The trust model is unchanged from `seabed-net`: workers are untrusted and
//! only ever see ciphertexts, deterministic tags and ORE symbols; all keys
//! stay in the client proxy, which talks to the coordinator through the
//! same `prepare`/`query`/`decrypt_response` surface it uses against an
//! in-process server ([`seabed_core::QueryTarget`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod coordinator;
pub mod worker;

pub use cache::{CacheStats, PartialCache, PartialKey};
pub use coordinator::{DistConfig, DistCoordinator, QueryReport, ShardRun, WorkerSummary};
pub use worker::spawn_worker;
