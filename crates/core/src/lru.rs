//! The one bounded cache policy every tier shares (paper §7: prompt-form
//! content "provides more flexibility in cache placement").
//!
//! The client cache, the server's cache shards, each edge node's fill
//! and replica stores, and the E20 modelled page cache all hold an
//! [`Lru`]: a cost-weighted map that evicts the strictly
//! least-recently-touched entry until it fits its budget. Recency
//! stamps, cost accounting and victim choice live here and nowhere
//! else, so the model E20 gates runs the system's own eviction code.
//!
//! `Lru` is single-threaded; each owner wraps it in the lock it already
//! had (per shard, per store).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

#[derive(Debug)]
struct Slot<V> {
    value: V,
    cost: u64,
    /// Clock value at the last `get` or `insert` of this key.
    touched: u64,
}

/// A map bounded by total entry cost, evicting least-recently-touched
/// first. Both [`get`](Lru::get) and [`insert`](Lru::insert) count as a
/// touch; [`contains`](Lru::contains) does not.
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: HashMap<K, Slot<V>>,
    budget: u64,
    used: u64,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `budget` total cost. A zero budget
    /// stores nothing that costs anything.
    pub fn new(budget: u64) -> Lru<K, V> {
        Lru {
            slots: HashMap::new(),
            budget,
            used: 0,
            clock: 0,
        }
    }

    /// Look up `key`, making it the most recently touched entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.slots.get_mut(key)?;
        self.clock += 1;
        slot.touched = self.clock;
        Some(&slot.value)
    }

    /// Whether `key` is resident, without touching it.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.slots.contains_key(key)
    }

    /// Store `value` under `key` at `cost`, replacing any previous entry
    /// in place, then evict least-recently-touched entries until the
    /// total fits the budget. Returns how many entries were evicted. A
    /// `cost` above the whole budget is rejected: nothing is stored and
    /// nothing already resident (a previous `key` entry included) moves.
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> usize {
        if cost > self.budget {
            return 0;
        }
        self.clock += 1;
        let slot = Slot {
            value,
            cost,
            touched: self.clock,
        };
        if let Some(old) = self.slots.insert(key, slot) {
            self.used -= old.cost;
        }
        self.used += cost;
        let mut evicted = 0;
        // The new entry carries the newest stamp and fits the budget on
        // its own, so it is never its own victim.
        while self.used > self.budget {
            let coldest = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.touched)
                .map(|(key, _)| key.clone());
            let Some(victim) = coldest.and_then(|key| self.slots.remove(&key)) else {
                break;
            };
            self.used -= victim.cost;
            evicted += 1;
        }
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total cost of the resident entries (≤ the budget).
    pub fn used(&self) -> u64 {
        self.used
    }
}

/// Hand-picked cases; `crates/core/tests/proptest_lru.rs` checks random
/// op sequences against a naive reference model.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_touched_within_budget() {
        let mut lru = Lru::new(10);
        assert_eq!(lru.insert("a", "aaaa", 4), 0);
        assert_eq!(lru.insert("b", "bbbb", 4), 0);
        assert!(lru.get("a").is_some(), "touch a so b is the LRU");
        assert_eq!(lru.insert("c", "cccc", 4), 1);
        assert!(lru.get("b").is_none(), "b was least recently touched");
        assert_eq!(lru.get("a"), Some(&"aaaa"));
        assert_eq!(lru.get("c"), Some(&"cccc"));
        assert_eq!((lru.len(), lru.used()), (2, 8));
    }

    #[test]
    fn one_insert_can_evict_several() {
        let mut lru = Lru::new(6);
        for key in ["a", "b", "c"] {
            lru.insert(key, (), 2);
        }
        assert_eq!(lru.insert("big", (), 5), 3);
        assert_eq!((lru.len(), lru.used()), (1, 5));
    }

    #[test]
    fn oversized_insert_is_rejected_and_moves_nothing() {
        let mut lru = Lru::new(3);
        lru.insert("k", "old", 2);
        assert_eq!(lru.insert("k", "toolarge", 8), 0);
        assert_eq!(lru.insert("big", "toolarge", 8), 0);
        assert_eq!(lru.get("k"), Some(&"old"));
        assert_eq!((lru.len(), lru.used()), (1, 2));
    }

    #[test]
    fn reinsert_replaces_in_place_and_recosts() {
        let mut lru = Lru::new(10);
        lru.insert("k", 1, 4);
        lru.insert("k", 2, 6);
        assert_eq!(lru.get("k"), Some(&2));
        assert_eq!((lru.len(), lru.used()), (1, 6));
    }

    #[test]
    fn contains_does_not_touch() {
        let mut lru = Lru::new(2);
        lru.insert("a", (), 1);
        lru.insert("b", (), 1);
        assert!(lru.contains("a"));
        lru.insert("c", (), 1);
        assert!(!lru.contains("a"), "a stayed coldest despite contains");
        assert!(lru.contains("b") && lru.contains("c"));
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert("a", (), 1), 0);
        assert!(lru.is_empty());
        assert!(lru.get("a").is_none());
    }
}
