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
//! * [`coordinator`] — [`DistCoordinator`]: shards tables over the workers'
//!   **replica sets** under a fresh **epoch**, scatters sub-queries over
//!   persistent connections, and gathers the workers' *mergeable* partial
//!   results — ASHE partial sums with ID lists, SPLASHE splayed counts,
//!   MIN/MAX ORE candidates, group-by maps — folding them with
//!   [`seabed_engine::merge`], the implementation the in-process driver
//!   uses, so distributed responses are byte-identical by construction.
//! * [`worker`] — a one-call helper standing up a shard-hosting
//!   [`seabed_net::NetServer`]; the worker side of the protocol lives in
//!   `seabed-net` itself (frame kinds 6–11 plus the 15/16 unload pair).
//! * `cache` (private) — the statement-keyed answer cache and its fence; it
//!   stores each prepared execute's finalized answer, the coordinator counts
//!   what happens to them.
//! * `placement` (private) — *who holds shard s*: the table → shard →
//!   replica-set value and every rule that reads or edits it, socket-, lock-
//!   and clock-free. The coordinator publishes it with the worker pool as
//!   one snapshot, which a query reads once.
//! * `link` (private) — *is worker w alive*: a worker connection (the only
//!   file that names the socket type), live or poisoned, the exchange.
//! * `dispatch` (private) — *what does this query ask next*: one walk per
//!   shard — primary, hedges, re-dispatches — as a socket-, lock- and
//!   clock-free value the coordinator's shell drives.
//!
//! Resilience, in [`coordinator`]'s module docs: slow workers are hedged
//! against a replica and the loser's late partial is discarded by its stale
//! sequence number; dead workers' shards are re-dispatched, and when no live
//! worker is left the query fails with a typed
//! [`seabed_error::SeabedError::Dist`] rather than hanging; workers can
//! [join](coordinator::DistCoordinator::join_worker) or
//! [leave](coordinator::DistCoordinator::leave_worker) a live cluster, each
//! change published whole once its loads went through, or not at all, and
//! fencing the answer cache.
//!
//! The trust model is unchanged from `seabed-net`: workers are untrusted and
//! only ever see ciphertexts, deterministic tags and ORE symbols; all keys
//! stay in the client proxy, which talks to the coordinator through the
//! same `prepare`/`query`/`decrypt_response` surface it uses against an
//! in-process server ([`seabed_core::QueryTarget`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod coordinator;
mod dispatch;
mod link;
mod placement;
pub mod worker;

pub use coordinator::{CacheStats, DistConfig, DistCoordinator, QueryReport, ShardRun, WorkerSummary};
pub use worker::spawn_worker;

/// Locks `mutex`, taking the guard over from a holder that panicked: every
/// critical section in this crate leaves its data valid at each step (a set
/// edit, a cache insert, a report or membership stored whole; a connection
/// carries its own poison flag), so there is nothing a panic could tear.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}
