//! Statement-keyed partial-result cache.
//!
//! Dashboards re-execute the same prepared statement with the same bound
//! literals over data that only changes when shards are re-loaded. Workers
//! therefore recompute identical per-shard partials on every execute. This
//! module caches those partials at the coordinator, keyed by
//! `(table, shard, statement handle, bound-filter hash)`:
//!
//! * the **statement handle** is the FNV-1a hash of the plan's wire payload
//!   ([`seabed_net::wire::write_statement_payload`]) — identical plans share
//!   an entry across clients and reconnects;
//! * the **filter hash** covers the bound, literal-encrypted filters
//!   ([`seabed_net::wire::write_filters_payload`]) — any differing literal
//!   changes the key;
//! * a **fence** drops staleness: worker death, a shard re-dispatch, or a
//!   membership change (a worker joining or leaving the cluster rewrites
//!   replica sets) empties the cache in one step, under its lock. A partial
//!   produced before a recovery or rebalance can therefore never merge into
//!   a post-change response.
//!
//! Capacity is LRU-bounded; `capacity = 0` disables caching entirely.
//!
//! The cache counts nothing itself: `insert` and `fence` return how many
//! entries they dropped, and the coordinator counts every probe, insertion,
//! eviction and invalidation into its registry's `dist_cache_*` counters.

use seabed_core::PartialResponse;
use std::collections::HashMap;

/// Key of one cached per-shard partial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartialKey {
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
    /// LRU tick of the most recent touch.
    last_used: u64,
}

/// A capacity-bounded LRU of per-shard partials. Not internally synchronized;
/// the coordinator holds it behind a mutex.
pub struct PartialCache {
    entries: HashMap<PartialKey, CacheEntry>,
    capacity: usize,
    tick: u64,
    fences: u64,
}

impl PartialCache {
    /// Creates a cache bounded to `capacity` entries (`0` disables caching:
    /// every probe misses and every insert is evicted at once).
    pub fn new(capacity: usize) -> PartialCache {
        PartialCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            fences: 0,
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
    pub fn insert(&mut self, key: PartialKey, partial: PartialResponse) -> u64 {
        self.tick += 1;
        let last_used = self.tick;
        self.entries.insert(key, CacheEntry { partial, last_used });
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

    /// Fences the cache: counts the fence and drops every entry; returns
    /// how many were dropped.
    pub fn fence(&mut self) -> u64 {
        self.fences += 1;
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        dropped
    }

    /// How many fences the cache has seen.
    pub fn fences(&self) -> u64 {
        self.fences
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

    fn key(shard: u32, statement: u64) -> PartialKey {
        PartialKey {
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
    fn hit_after_insert_miss_after_fence() {
        let mut cache = PartialCache::new(8);
        assert!(cache.get(&key(0, 42)).is_none());
        assert_eq!(cache.insert(key(0, 42), partial(5)), 0);
        assert_eq!(cache.get(&key(0, 42)).unwrap().stats.wall_time, Duration::from_nanos(5));
        assert!(cache.get(&key(0, 43)).is_none(), "another statement is another key");
        cache.fence();
        assert!(cache.get(&key(0, 42)).is_none(), "a fence unreaches every entry");
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = PartialCache::new(2);
        cache.insert(key(0, 1), partial(0));
        cache.insert(key(1, 1), partial(1));
        assert!(cache.get(&key(0, 1)).is_some()); // touch shard 0
        assert_eq!(cache.insert(key(2, 1), partial(2)), 1); // evicts shard 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 1)).is_none());
        assert!(cache.get(&key(0, 1)).is_some());
        assert!(cache.get(&key(2, 1)).is_some());
    }

    #[test]
    fn a_fence_counts_itself_and_drops_every_entry() {
        let mut cache = PartialCache::new(8);
        cache.insert(key(0, 1), partial(0));
        cache.insert(key(1, 1), partial(1));
        cache.insert(key(2, 2), partial(2));
        assert_eq!(cache.fences(), 0);
        assert_eq!(cache.fence(), 3);
        assert_eq!((cache.len(), cache.fences()), (0, 1));
        assert_eq!(cache.fence(), 0, "an empty cache drops nothing");
        assert_eq!(cache.fences(), 2);
        // Entries filled after a fence are live.
        cache.insert(key(0, 1), partial(3));
        assert!(cache.get(&key(0, 1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PartialCache::new(0);
        assert_eq!(cache.insert(key(0, 1), partial(0)), 1);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key(0, 1)).is_none());
    }
}
