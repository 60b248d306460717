//! [`FifoMap`]: the one bounded map behind the session's statement cache, the
//! service's statement store and the remote client's handle cache.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map that holds at most `capacity` entries and evicts the oldest beyond
/// it. Inserting a key again replaces its value and moves it to the back of
/// the queue (re-preparing a statement refreshes it); reading does not. The
/// map does no locking and keeps no counters: each user wraps it in its own.
pub struct FifoMap<K, V> {
    entries: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V> FifoMap<K, V> {
    /// An empty map that keeps `capacity` entries (at least one).
    pub fn new(capacity: usize) -> FifoMap<K, V> {
        FifoMap {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The value under `key`, if it is still held.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Stores `value` under `key` as the newest entry and returns how many
    /// older entries were evicted to make room.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        self.order.retain(|held| *held != key);
        self.order.push_back(key);
        self.entries.insert(key, value);
        let mut evicted = 0;
        while self.order.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_goes_first_reinsert_refreshes_and_evictions_are_counted() {
        let mut map = FifoMap::new(2);
        assert_eq!(map.insert(1u64, "a"), 0);
        assert_eq!(map.insert(2, "b"), 0);
        // Re-inserting 1 replaces its value and moves it behind 2 ...
        assert_eq!(map.insert(1, "a2"), 0);
        assert_eq!(map.len(), 2);
        // ... so the next insert evicts 2, not 1. A read refreshes nothing.
        assert_eq!(map.get(&2), Some(&"b"));
        assert_eq!(map.insert(3, "c"), 1);
        assert_eq!((map.get(&1), map.get(&2), map.get(&3)), (Some(&"a2"), None, Some(&"c")));
        map.clear();
        assert!(map.is_empty());

        // Capacity 1 (0 is raised to it): every new key evicts the last one,
        // the same key again evicts nothing.
        let mut one = FifoMap::new(0);
        assert_eq!(one.insert(7u64, ()), 0);
        assert_eq!(one.insert(7, ()), 0);
        assert_eq!(one.insert(8, ()), 1);
        assert_eq!((one.len(), one.get(&7), one.get(&8)), (1, None, Some(&())));
    }
}
