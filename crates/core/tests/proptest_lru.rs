//! Property tests for the one cache policy every tier shares
//! (`sww_core::lru::Lru`): random `get`/`insert` sequences with random
//! costs must answer exactly like a deliberately naive reference model
//! kept here — a `Vec` in touch order, most recent first, scanned
//! linearly.
//!
//! * **Same answers**: every `get` hits or misses identically, and every
//!   `insert` reports the same eviction count.
//! * **Same residents**: after every step both hold the same key set,
//!   at the same total cost.
//! * **Bounded**: `used() <= budget` after every step.
//! * **Oversized inserts are rejected** and move nothing.
//! * **The charge comes from the key**: a `GenerationCache` evicts the
//!   same recipes whether it holds pixels or encoded octets.

use proptest::prelude::*;
use sww_core::cache::{GenerationCache, Recipe};
use sww_core::lru::Lru;
use sww_genai::diffusion::ImageModelKind;
use sww_genai::ImageBuffer;

/// The reference: strict LRU by touch order, cost-weighted.
struct Model {
    budget: u64,
    /// `(key, cost)`, most recently touched first.
    order: Vec<(u8, u64)>,
}

impl Model {
    fn used(&self) -> u64 {
        self.order.iter().map(|&(_, cost)| cost).sum()
    }

    fn get(&mut self, key: u8) -> bool {
        let Some(pos) = self.order.iter().position(|&(k, _)| k == key) else {
            return false;
        };
        let entry = self.order.remove(pos);
        self.order.insert(0, entry);
        true
    }

    fn insert(&mut self, key: u8, cost: u64) -> usize {
        if cost > self.budget {
            return 0;
        }
        self.order.retain(|&(k, _)| k != key);
        self.order.insert(0, (key, cost));
        let mut evicted = 0;
        while self.used() > self.budget {
            self.order.pop();
            evicted += 1;
        }
        evicted
    }

    fn keys(&self) -> Vec<u8> {
        let mut keys: Vec<u8> = self.order.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

fn resident(lru: &Lru<u8, u64>) -> Vec<u8> {
    (0..=u8::MAX).filter(|k| lru.contains(k)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_match_the_naive_model(
        budget in 0u64..=24,
        // (is_get, key, cost): a small key space forces re-touches and
        // replacements; costs reach past the budget to exercise rejects.
        ops in proptest::collection::vec((any::<bool>(), 0u8..10, 0u64..=30), 1..200),
    ) {
        let mut lru: Lru<u8, u64> = Lru::new(budget);
        let mut model = Model { budget, order: Vec::new() };
        for (step, (is_get, key, cost)) in ops.into_iter().enumerate() {
            if is_get {
                // The stored value is the entry's cost, so a hit also
                // proves a replacement overwrote the old value.
                let expect = model.get(key).then(|| model.order[0].1);
                prop_assert_eq!(lru.get(&key).copied(), expect, "step {}: get({})", step, key);
            } else {
                let before = (resident(&lru), lru.used());
                prop_assert_eq!(
                    lru.insert(key, cost, cost),
                    model.insert(key, cost),
                    "step {}: insert({}, cost {})", step, key, cost
                );
                if cost > budget {
                    prop_assert_eq!(&(resident(&lru), lru.used()), &before, "reject moved state");
                }
            }
            prop_assert_eq!(resident(&lru), model.keys(), "step {}: residents", step);
            prop_assert_eq!(lru.used(), model.used());
            prop_assert_eq!(lru.len(), model.order.len());
            prop_assert!(lru.used() <= budget);
        }
    }

    #[test]
    fn generation_cache_evicts_the_same_recipes_whatever_it_holds(
        budget_images in 1u64..=6,
        // (is_get, recipe id, side): sides differ so costs differ, and a
        // 48² entry can exceed a small budget on its own.
        ops in proptest::collection::vec((any::<bool>(), 0usize..12, 0usize..3), 1..200),
    ) {
        let recipe = |id: usize, side: usize| {
            let side = [16, 32, 48][side];
            Recipe {
                prompt: format!("recipe {id}"),
                model: ImageModelKind::Sd3Medium,
                width: side,
                height: side,
                steps: 15,
            }
        };
        // The client's form (12 KB of RGB per 64² image) and the
        // server's (about a tenth of that, encoded) under one budget.
        let mut pixels: GenerationCache = GenerationCache::new(budget_images * 32 * 32);
        let mut octets: GenerationCache<Vec<u8>> = GenerationCache::new(budget_images * 32 * 32);
        for (step, (is_get, id, side)) in ops.into_iter().enumerate() {
            let r = recipe(id, side);
            if is_get {
                prop_assert_eq!(
                    pixels.get(&r).is_some(),
                    octets.get(&r).is_some(),
                    "step {}: get({:?})", step, r
                );
            } else {
                pixels.put(r.clone(), ImageBuffer::new(r.width, r.height));
                octets.put(r, vec![0; id]);
            }
            prop_assert_eq!(pixels.len(), octets.len(), "step {}: residents", step);
        }
        // Same victims: every recipe is resident in both or in neither.
        for id in 0..12 {
            for side in 0..3 {
                let r = recipe(id, side);
                prop_assert_eq!(pixels.get(&r).is_some(), octets.get(&r).is_some(), "{:?}", r);
            }
        }
    }

    #[test]
    fn unit_cost_is_a_plain_capacity_bound(
        capacity in 0u64..=8,
        keys in proptest::collection::vec(0u8..16, 1..200),
    ) {
        // The E20 modelled tier's usage: get-else-insert at cost 1 is a
        // page-count LRU — never more than `capacity` residents, and
        // capacity 0 never hits.
        let mut lru: Lru<u8, ()> = Lru::new(capacity);
        let mut model = Model { budget: capacity, order: Vec::new() };
        for key in keys {
            let hit = lru.get(&key).is_some();
            if !hit {
                lru.insert(key, (), 1);
            }
            let model_hit = model.get(key);
            if !model_hit {
                model.insert(key, 1);
            }
            prop_assert_eq!(hit, model_hit);
            prop_assert!(capacity > 0 || !hit);
            prop_assert!(lru.len() as u64 <= capacity);
        }
    }
}
