//! Statement-keyed answer cache.
//!
//! Dashboards re-execute the same prepared statement with the same bound
//! literals over data that only changes when shards are re-loaded, so the
//! coordinator would gather the same answer again and again. This module
//! caches the finalized answer of one prepared execute, keyed by
//! `(table, statement hash, filter hash)`:
//!
//! * the **statement hash** is the FNV-1a hash of the plan's wire payload
//!   ([`seabed_net::wire::write_statement_payload`]) — identical plans share
//!   an entry across clients and reconnects;
//! * the **filter hash** covers the bound, literal-encrypted filters
//!   ([`seabed_net::wire::write_filters_payload`]) — any differing literal
//!   changes the key;
//! * the **bytes decide**: an entry keeps both payloads it was keyed by, and
//!   a probe whose hashes match but whose bytes differ misses. FNV-1a is not
//!   collision-resistant and every session on the coordinator shares the
//!   cache, so two colliding bindings must never get each other's answer;
//! * a **fence** drops staleness: worker death, a shard re-dispatch, or a
//!   membership change (a worker joining or leaving the cluster rewrites
//!   replica sets) empties the cache in one step, under its lock. An answer
//!   gathered before a recovery or rebalance can therefore never answer a
//!   probe after it.
//!
//! Capacity is LRU-bounded, with the entries indexed by their last-use tick
//! so that an eviction takes the oldest in O(log n); `capacity = 0` disables
//! caching entirely.
//!
//! The cache counts nothing itself: `insert` and `fence` return how many
//! entries they dropped, and the coordinator counts every probe, insertion,
//! eviction and invalidation into its registry's `dist_cache_*` counters.

use seabed_core::{fnv1a64, PhysicalFilter, ServerResponse};
use seabed_net::wire;
use seabed_query::TranslatedQuery;
use std::collections::{BTreeMap, HashMap};

/// What one prepared execute is cached under, beside its table: the
/// statement's and the bound filters' wire payloads and their hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerKey {
    /// FNV-1a hash of `statement_bytes`.
    pub statement: u64,
    /// FNV-1a hash of `filter_bytes`.
    pub filters: u64,
    /// The statement's wire payload.
    pub statement_bytes: Vec<u8>,
    /// The bound filters' wire payload.
    pub filter_bytes: Vec<u8>,
}

impl AnswerKey {
    /// The key of executing `plan` with `filters`.
    pub fn new(plan: &TranslatedQuery, filters: &[PhysicalFilter]) -> AnswerKey {
        let mut statement_bytes = Vec::new();
        wire::write_statement_payload(&mut statement_bytes, plan);
        let mut filter_bytes = Vec::new();
        wire::write_filters_payload(&mut filter_bytes, filters);
        AnswerKey {
            statement: fnv1a64(&statement_bytes),
            filters: fnv1a64(&filter_bytes),
            statement_bytes,
            filter_bytes,
        }
    }
}

/// Where an entry lives: `(table, statement hash, filter hash)`.
type Slot = (u32, u64, u64);

struct CacheEntry {
    /// The key the answer was inserted under, bytes included.
    key: AnswerKey,
    answer: ServerResponse,
    /// LRU tick of the most recent touch, the entry's key in `by_tick`.
    last_used: u64,
}

/// A capacity-bounded LRU of finalized answers. Not internally synchronized;
/// the coordinator holds it behind a mutex.
pub struct AnswerCache {
    entries: HashMap<Slot, CacheEntry>,
    /// Every entry's slot under its last-use tick, oldest first.
    by_tick: BTreeMap<u64, Slot>,
    capacity: usize,
    tick: u64,
    fences: u64,
}

impl AnswerCache {
    /// Creates a cache bounded to `capacity` answers (`0` disables caching:
    /// every probe misses and every insert is evicted at once).
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            entries: HashMap::new(),
            by_tick: BTreeMap::new(),
            capacity,
            tick: 0,
            fences: 0,
        }
    }

    /// Probes for the answer cached under `key` on table `table_id`, bumping
    /// its LRU position on a hit. Equal hashes over different bytes miss.
    pub fn get(&mut self, table_id: u32, key: &AnswerKey) -> Option<&ServerResponse> {
        self.tick += 1;
        let slot = (table_id, key.statement, key.filters);
        let entry = self.entries.get_mut(&slot).filter(|entry| entry.key == *key)?;
        self.by_tick.remove(&entry.last_used);
        self.by_tick.insert(self.tick, slot);
        entry.last_used = self.tick;
        Some(&entry.answer)
    }

    /// Inserts (or replaces) an answer, evicting the least-recently-used
    /// entries while the capacity bound is exceeded; returns how many were
    /// evicted.
    pub fn insert(&mut self, table_id: u32, key: AnswerKey, answer: ServerResponse) -> u64 {
        self.tick += 1;
        let slot = (table_id, key.statement, key.filters);
        let last_used = self.tick;
        if let Some(replaced) = self.entries.insert(slot, CacheEntry { key, answer, last_used }) {
            self.by_tick.remove(&replaced.last_used);
        }
        self.by_tick.insert(last_used, slot);
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let Some((_, oldest)) = self.by_tick.pop_first() else {
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
        self.by_tick.clear();
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
    use seabed_engine::ExecStats;
    use std::time::Duration;

    fn key(statement: u64) -> AnswerKey {
        AnswerKey {
            statement,
            filters: 7,
            statement_bytes: statement.to_le_bytes().to_vec(),
            filter_bytes: vec![7],
        }
    }

    fn answer(marker: u64) -> ServerResponse {
        ServerResponse {
            groups: Vec::new(),
            stats: ExecStats {
                wall_time: Duration::from_nanos(marker),
                ..ExecStats::default()
            },
        }
    }

    /// The statement hashes of the live entries, least recently used first.
    fn lru_order(cache: &AnswerCache) -> Vec<u64> {
        cache.by_tick.values().map(|&(_, statement, _)| statement).collect()
    }

    #[test]
    fn hit_after_insert_miss_after_fence() {
        let mut cache = AnswerCache::new(8);
        assert!(cache.get(0, &key(42)).is_none());
        assert_eq!(cache.insert(0, key(42), answer(5)), 0);
        assert_eq!(cache.get(0, &key(42)).unwrap().stats.wall_time, Duration::from_nanos(5));
        assert!(cache.get(0, &key(43)).is_none(), "another statement is another key");
        assert!(cache.get(1, &key(42)).is_none(), "another table is another key");
        cache.fence();
        assert!(cache.get(0, &key(42)).is_none(), "a fence unreaches every entry");
    }

    /// Two bindings whose hashes collide are still two keys: the probe
    /// compares the payloads the entry was inserted under.
    #[test]
    fn equal_hashes_over_different_bytes_miss() {
        let mut cache = AnswerCache::new(8);
        let first = key(42);
        let collider = AnswerKey {
            filter_bytes: vec![8],
            ..first.clone()
        };
        cache.insert(0, first.clone(), answer(1));
        assert!(cache.get(0, &collider).is_none(), "a filter collision answered");
        let collider = AnswerKey {
            statement_bytes: vec![0],
            ..first.clone()
        };
        assert!(cache.get(0, &collider).is_none(), "a statement collision answered");
        assert_eq!(cache.get(0, &first).unwrap().stats.wall_time, Duration::from_nanos(1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = AnswerCache::new(2);
        cache.insert(0, key(0), answer(0));
        cache.insert(0, key(1), answer(1));
        assert!(cache.get(0, &key(0)).is_some()); // touch statement 0
        assert_eq!(cache.insert(0, key(2), answer(2)), 1); // evicts statement 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(0, &key(1)).is_none());
        assert!(cache.get(0, &key(0)).is_some());
        assert!(cache.get(0, &key(2)).is_some());
    }

    #[test]
    fn a_fence_counts_itself_and_drops_every_entry() {
        let mut cache = AnswerCache::new(8);
        cache.insert(0, key(0), answer(0));
        cache.insert(0, key(1), answer(1));
        cache.insert(1, key(2), answer(2));
        assert_eq!(cache.fences(), 0);
        assert_eq!(cache.fence(), 3);
        assert_eq!((cache.len(), cache.fences()), (0, 1));
        assert_eq!(cache.fence(), 0, "an empty cache drops nothing");
        assert_eq!(cache.fences(), 2);
        // Entries filled after a fence are live.
        cache.insert(0, key(0), answer(3));
        assert!(cache.get(0, &key(0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = AnswerCache::new(0);
        assert_eq!(cache.insert(0, key(0), answer(0)), 1);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(0, &key(0)).is_none());
    }

    /// Seeded random gets and inserts over more keys than the capacity:
    /// every probe, every eviction count and the recency order agree with a
    /// reference LRU that scans a `Vec`, oldest first.
    #[test]
    fn evictions_match_a_reference_lru() {
        for (seed, capacity) in [(1u64, 1usize), (2, 3), (3, 5), (4, 8)] {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut cache = AnswerCache::new(capacity);
            let mut reference: Vec<u64> = Vec::new();
            for step in 0..2_000 {
                let (roll, statement) = (next(), next() % (2 * capacity as u64 + 2));
                let at = reference.iter().position(|&k| k == statement);
                if roll % 3 == 0 {
                    let hit = cache.get(0, &key(statement)).is_some();
                    assert_eq!(hit, at.is_some(), "seed {seed} step {step}: get {statement}");
                    if let Some(at) = at {
                        reference.remove(at);
                        reference.push(statement);
                    }
                } else {
                    let evicted = cache.insert(0, key(statement), answer(step));
                    if let Some(at) = at {
                        reference.remove(at);
                    }
                    reference.push(statement);
                    let over = reference.len().saturating_sub(capacity);
                    reference.drain(..over);
                    assert_eq!(evicted, over as u64, "seed {seed} step {step}: insert {statement}");
                }
                assert_eq!(lru_order(&cache), reference, "seed {seed} step {step}");
                assert_eq!(cache.len(), reference.len());
            }
        }
    }
}
