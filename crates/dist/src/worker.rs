//! Standing up shard-hosting workers.
//!
//! A `seabed-dist` worker is just a [`seabed_net::NetServer`]: the worker
//! side of the shard protocol (handshake, shard load, shard query, shard
//! unload) is part of every service. This helper starts one with an *empty*
//! base table — the worker owns no data until a coordinator assigns it
//! shards, which is the natural deployment shape (workers boot first, a
//! coordinator shards the encrypted table across whatever registered).
//! Because the shard store is epoch-checked on every load, query, and
//! unload, a worker can also be handed to a *running* coordinator's
//! [`join_worker`](crate::DistCoordinator::join_worker): rebalancing loads
//! replica slots onto it under the cluster's live epoch and unloads them
//! from the donors, and a stray frame from any other (older or racing)
//! coordinator is refused with a typed error.

use seabed_core::SeabedServer;
use seabed_engine::{Cluster, ClusterConfig, ExecMode, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::{NetServer, ServiceConfig};

/// Starts a shard-hosting worker service on `addr` (use port 0 for an
/// ephemeral port). The base table is empty; data arrives as shard
/// assignments from a coordinator.
pub fn spawn_worker(addr: &str, config: ServiceConfig) -> Result<NetServer, SeabedError> {
    let empty = Table::from_columns(Schema::new([]), Vec::new(), 1);
    // A literal, not `default()`, which asks the OS for its parallelism.
    let cluster = Cluster::new(ClusterConfig {
        local_threads: 1,
        exec_mode: ExecMode::default(),
    });
    NetServer::serve(SeabedServer::new(empty, cluster), addr, config)
}
