//! Statement-keyed partial-result cache.
//!
//! Dashboards re-execute the same prepared statement with the same bound
//! literals over data that only changes when shards are re-loaded. Workers
//! therefore recompute identical per-shard partials on every execute. This
//! module caches those partials at the coordinator, keyed by
//! `(cache epoch, table, shard, statement handle, bound-filter hash)`:
//!
//! * the **statement handle** is the FNV-1a hash of the plan's wire payload
//!   ([`seabed_net::wire::write_statement_payload`]) — identical plans share
//!   an entry across clients and reconnects;
//! * the **filter hash** covers the bound, literal-encrypted filters
//!   ([`seabed_net::wire::write_filters_payload`]) — any differing literal
//!   changes the key;
//! * the **cache epoch** fences staleness: worker death, a shard
//!   re-dispatch, or a membership change (a worker joining or leaving the
//!   cluster rewrites replica sets) bumps it, which unreaches every earlier
//!   entry at once. A partial produced before a recovery or rebalance can
//!   therefore never merge into a post-change response.
//!
//! Entries record the worker that produced them, so a dead worker's entries
//! are additionally purged (reclaiming space; the epoch bump already fenced
//! them). Capacity is LRU-bounded; `capacity = 0` disables caching entirely.
//!
//! The cache counts nothing itself: `insert` and the purges return how many
//! entries they dropped, and the coordinator counts every probe, insertion,
//! eviction and invalidation into its registry's `dist_cache_*` counters.

use seabed_core::PartialResponse;
use std::collections::HashMap;

/// Key of one cached per-shard partial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartialKey {
    /// Cache epoch the entry was inserted under; a bump unreaches it.
    pub cache_epoch: u64,
    /// Hosted table the shard belongs to.
    pub table_id: u32,
    /// Shard identifier within the table.
    pub shard: u32,
    /// FNV-1a hash of the statement's wire payload.
    pub statement: u64,
    /// FNV-1a hash of the bound filters' wire payload.
    pub filters: u64,
}

struct CacheEntry {
    partial: PartialResponse,
    /// Worker index that produced the partial (purged if it dies).
    worker: usize,
    /// LRU tick of the most recent touch.
    last_used: u64,
}

/// A capacity-bounded LRU of per-shard partials. Not internally synchronized;
/// the coordinator holds it behind a mutex.
pub struct PartialCache {
    entries: HashMap<PartialKey, CacheEntry>,
    capacity: usize,
    tick: u64,
}

impl PartialCache {
    /// Creates a cache bounded to `capacity` entries (`0` disables caching:
    /// every probe misses and every insert is evicted at once).
    pub fn new(capacity: usize) -> PartialCache {
        PartialCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Probes for a cached partial, bumping its LRU position on a hit.
    pub fn get(&mut self, key: &PartialKey) -> Option<&PartialResponse> {
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = self.tick;
        Some(&entry.partial)
    }

    /// Inserts (or replaces) a partial, evicting the least-recently-used
    /// entry when the capacity bound is exceeded; returns how many entries
    /// were evicted.
    pub fn insert(&mut self, key: PartialKey, worker: usize, partial: PartialResponse) -> u64 {
        self.tick += 1;
        self.entries.insert(
            key,
            CacheEntry {
                partial,
                worker,
                last_used: self.tick,
            },
        );
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            // O(n) eviction scan; the capacity bound keeps n small and
            // insertion is already a scatter's worth of work away from hot.
            let Some(oldest) = self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k) else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Purges every entry produced by `worker` (after its death; the epoch
    /// bump has already fenced them, this reclaims the space); returns how
    /// many were dropped.
    pub fn purge_worker(&mut self, worker: usize) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.worker != worker);
        (before - self.entries.len()) as u64
    }

    /// Purges every entry of a cache epoch older than `current` (fenced and
    /// unreachable; this reclaims the space); returns how many were dropped.
    pub fn purge_stale_epochs(&mut self, current: u64) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.cache_epoch == current);
        (before - self.entries.len()) as u64
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_engine::merge::PartialGroups;
    use seabed_engine::ExecStats;
    use std::time::Duration;

    fn key(epoch: u64, shard: u32, statement: u64) -> PartialKey {
        PartialKey {
            cache_epoch: epoch,
            table_id: 0,
            shard,
            statement,
            filters: 7,
        }
    }

    fn partial(marker: u64) -> PartialResponse {
        PartialResponse {
            groups: PartialGroups::new(),
            stats: ExecStats {
                wall_time: Duration::from_nanos(marker),
                ..ExecStats::default()
            },
        }
    }

    #[test]
    fn hit_after_insert_miss_after_epoch_bump() {
        let mut cache = PartialCache::new(8);
        assert!(cache.get(&key(1, 0, 42)).is_none());
        assert_eq!(cache.insert(key(1, 0, 42), 0, partial(5)), 0);
        assert_eq!(
            cache.get(&key(1, 0, 42)).unwrap().stats.wall_time,
            Duration::from_nanos(5)
        );
        // A bumped epoch is a different key: the old entry is unreachable.
        assert!(cache.get(&key(2, 0, 42)).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = PartialCache::new(2);
        cache.insert(key(1, 0, 1), 0, partial(0));
        cache.insert(key(1, 1, 1), 0, partial(1));
        assert!(cache.get(&key(1, 0, 1)).is_some()); // touch shard 0
        assert_eq!(cache.insert(key(1, 2, 1), 0, partial(2)), 1); // evicts shard 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 1, 1)).is_none());
        assert!(cache.get(&key(1, 0, 1)).is_some());
        assert!(cache.get(&key(1, 2, 1)).is_some());
    }

    #[test]
    fn purges_by_worker_and_epoch() {
        let mut cache = PartialCache::new(8);
        cache.insert(key(1, 0, 1), 0, partial(0));
        cache.insert(key(1, 1, 1), 1, partial(1));
        cache.insert(key(2, 2, 1), 1, partial(2));
        assert_eq!(cache.purge_worker(1), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1, 0, 1)).is_some());
        assert_eq!(cache.purge_stale_epochs(2), 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PartialCache::new(0);
        assert_eq!(cache.insert(key(1, 0, 1), 0, partial(0)), 1);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key(1, 0, 1)).is_none());
    }
}
