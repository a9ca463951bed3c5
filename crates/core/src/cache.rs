//! The generation cache: rendered media keyed by its recipe.
//!
//! Generation is deterministic in `(prompt, model, size, steps)`, so a
//! generated image is as cacheable as a fetched one — and because the
//! cache key is the *recipe*, every page reusing a stock prompt hits the
//! same entry. This is the paper's cache-placement observation (§7:
//! traffic reduction "provides more flexibility in cache placement"); it
//! also bounds the §6 generation-time cost to the first visit.
//!
//! Each holder caches the form it reads twice: the client renders
//! pixels, so its [`GenerationCache`] holds [`ImageBuffer`]s (the default
//! value type); the server only ever serves the encoded asset, so its
//! engine holds `Bytes` (§5.1: "avoids saving two copies of content").
//! Either way an entry is charged the pixel count of its **key**, so the
//! budget and the eviction order do not depend on the value type.

use crate::faults::{self, FaultAction, FaultSite};
use crate::lru::Lru;
use sww_genai::diffusion::ImageModelKind;
use sww_genai::ImageBuffer;

/// Cache key: the full generation recipe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Recipe {
    /// The prompt text.
    pub prompt: String,
    /// Model used.
    pub model: ImageModelKind,
    /// Output width.
    pub width: u32,
    /// Output height.
    pub height: u32,
    /// Inference steps.
    pub steps: u32,
}

impl Recipe {
    /// Pixels in the image this recipe renders — what a cache entry for
    /// it is charged, whatever form the entry holds.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }
}

/// The canonical routing key for a recipe: `model|WxH|steps|prompt`.
/// Every edge derives the same key for the same recipe, which is what
/// makes ownership a cluster-wide agreement rather than a per-node
/// guess.
pub fn recipe_key(recipe: &Recipe) -> String {
    format!(
        "{:?}|{}x{}|{}|{}",
        recipe.model, recipe.width, recipe.height, recipe.steps, recipe.prompt
    )
}

/// An LRU cache of generated media, bounded by total pixel budget (a
/// proxy for memory).
#[derive(Debug)]
pub struct GenerationCache<V = ImageBuffer> {
    /// Cost is the recipe's pixels.
    entries: Lru<Recipe, V>,
    /// Hits since creation.
    pub hits: u64,
    /// Misses since creation.
    pub misses: u64,
}

impl<V: Clone> GenerationCache<V> {
    /// A cache bounded to `capacity_pixels` total pixels (e.g. 32 MP ≈
    /// a hundred thumbnails).
    pub fn new(capacity_pixels: u64) -> GenerationCache<V> {
        GenerationCache {
            entries: Lru::new(capacity_pixels.max(1)),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a recipe, updating recency.
    ///
    /// Under chaos ([`crate::faults`]), the `cache.get` failpoint can
    /// turn a lookup into a forced miss (the entry stays cached — the
    /// caller simply regenerates) or delay it.
    pub fn get(&mut self, recipe: &Recipe) -> Option<V> {
        match faults::at(FaultSite::CacheGet) {
            Some(FaultAction::Error) | Some(FaultAction::TruncateKeepPct(_)) => {
                self.misses += 1;
                sww_obs::counter("sww_cache_events_total", &[("result", "miss")]).inc();
                return None;
            }
            Some(FaultAction::Latency(d)) => std::thread::sleep(d),
            None => {}
        }
        match self.entries.get(recipe) {
            Some(value) => {
                self.hits += 1;
                sww_obs::counter("sww_cache_events_total", &[("result", "hit")]).inc();
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                sww_obs::counter("sww_cache_events_total", &[("result", "miss")]).inc();
                None
            }
        }
    }

    /// Insert the media rendered from `recipe`, evicting
    /// least-recently-used entries to stay within the pixel budget.
    /// Recipes larger than the whole budget are not cached.
    pub fn put(&mut self, recipe: Recipe, value: V) {
        let cost = recipe.pixels();
        self.entries.insert(recipe, value, cost);
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipe(p: &str, side: u32) -> Recipe {
        Recipe {
            prompt: p.into(),
            model: ImageModelKind::Sd3Medium,
            width: side,
            height: side,
            steps: 15,
        }
    }

    fn image(side: u32) -> ImageBuffer {
        ImageBuffer::new(side, side)
    }

    #[test]
    fn hit_after_put() {
        let mut c = GenerationCache::new(1_000_000);
        assert!(c.get(&recipe("a", 64)).is_none());
        c.put(recipe("a", 64), image(64));
        assert!(c.get(&recipe("a", 64)).is_some());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_includes_full_recipe() {
        let mut c = GenerationCache::new(1_000_000);
        c.put(recipe("a", 64), image(64));
        // Different steps → different entry.
        let mut other = recipe("a", 64);
        other.steps = 30;
        assert!(c.get(&other).is_none());
        let mut other = recipe("a", 64);
        other.model = ImageModelKind::Sd21Base;
        assert!(c.get(&other).is_none());
    }

    #[test]
    fn lru_eviction_by_pixel_budget() {
        // Budget for exactly two 64² images.
        let mut c = GenerationCache::new(2 * 64 * 64);
        c.put(recipe("a", 64), image(64));
        c.put(recipe("b", 64), image(64));
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get(&recipe("a", 64)).is_some());
        c.put(recipe("c", 64), image(64));
        assert_eq!(c.len(), 2);
        assert!(c.get(&recipe("a", 64)).is_some());
        assert!(c.get(&recipe("b", 64)).is_none(), "b evicted");
        assert!(c.get(&recipe("c", 64)).is_some());
    }

    #[test]
    fn oversized_entries_skipped() {
        let mut c = GenerationCache::new(100);
        c.put(recipe("big", 64), image(64));
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = GenerationCache::new(1_000_000);
        c.put(recipe("a", 64), image(64));
        c.put(recipe("a", 64), image(64));
        assert_eq!(c.len(), 1);
    }
}
