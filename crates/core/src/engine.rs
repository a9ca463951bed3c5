//! The concurrent generation engine: a lock-striped generation cache
//! fronted by single-flight request coalescing.
//!
//! The paper's prototype generates once per request; the ROADMAP
//! north-star is a server under heavy concurrent traffic, where the
//! dominant cost — generation — must be paid **exactly once per unique
//! recipe** no matter how many requests race for it. Two mechanisms
//! deliver that:
//!
//! * [`ShardedGenerationCache`]: N independent [`GenerationCache`] shards,
//!   each behind its own mutex, selected by recipe hash. Readers of
//!   different recipes never contend on a global lock.
//! * Single flight (in [`GenerationEngine::try_fetch_image_ctx`]): the first
//!   request to miss for a recipe becomes the *leader* and runs the
//!   generation with no engine lock held; every concurrent request for
//!   the same recipe blocks on the leader's flight slot and shares its
//!   result. Requests for other recipes proceed in parallel.
//!
//! The engine is generic over the cached value (default
//! [`ImageBuffer`]): the server instantiates it with the encoded asset
//! it serves, so the leader encodes once and every hit or join is an
//! `Arc` clone. Entries are charged by their key ([`Recipe::pixels`]),
//! so the value type never changes what fits or what is evicted.
//!
//! Observability, in the registry the engine was built to record into
//! (its server's; a registry of its own when built standalone):
//! `sww_engine_requests_total{outcome}` splits requests into `hit` /
//! `generated` / `joined`; `sww_cache_coalesced_total` counts every
//! request amortized onto a generation it did not run itself (cache hit
//! or in-flight join — i.e. total requests minus actual generations);
//! `sww_cache_events_total{result}` and
//! `sww_cache_shard_events_total{shard,result}` count every lookup, the
//! latter split per shard.

use crate::cache::{count_lookup, GenerationCache, Recipe};
use crate::error::SwwError;
use crate::faults::{FaultAction, FaultSite};
use crate::lifecycle::{record_cancelled, RequestCtx};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use sww_genai::{ImageBuffer, StepCancel};
use sww_obs::Registry;

/// A generation cache split into independently locked shards.
///
/// The pixel budget is divided evenly across shards, so total memory is
/// bounded exactly as with a single [`GenerationCache`] of the same
/// capacity; eviction is LRU *per shard*.
#[derive(Debug)]
pub struct ShardedGenerationCache<V = ImageBuffer> {
    shards: Box<[Mutex<GenerationCache<V>>]>,
    /// Where lookups are counted: the owning server's registry, or one
    /// of the cache's own.
    metrics: Arc<Registry>,
}

impl<V: Clone> ShardedGenerationCache<V> {
    /// A cache of `shards` stripes sharing `capacity_pixels` total,
    /// counting its lookups into a registry of its own. `shards` is
    /// clamped to at least 1.
    pub fn new(shards: usize, capacity_pixels: u64) -> ShardedGenerationCache<V> {
        let shards = shards.max(1);
        let per_shard = (capacity_pixels / shards as u64).max(1);
        ShardedGenerationCache {
            shards: (0..shards)
                .map(|_| Mutex::new(GenerationCache::new(per_shard)))
                .collect(),
            metrics: Arc::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, recipe: &Recipe) -> usize {
        let mut hasher = DefaultHasher::new();
        recipe.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Look up a recipe in its shard, updating that shard's recency.
    pub fn get(&self, recipe: &Recipe) -> Option<V> {
        self.lookup(recipe, false)
    }

    /// [`get`](ShardedGenerationCache::get), or with `forced_miss` a miss
    /// counted against its shard without reading the entry.
    fn lookup(&self, recipe: &Recipe, forced_miss: bool) -> Option<V> {
        let idx = self.shard_index(recipe);
        let found = if forced_miss {
            None
        } else {
            self.shards[idx].lock().get(recipe)
        };
        count_lookup(&self.metrics, found.is_some());
        let shard_label = idx.to_string();
        let result = if found.is_some() { "hit" } else { "miss" };
        self.metrics
            .counter(
                "sww_cache_shard_events_total",
                &[("shard", &shard_label), ("result", result)],
            )
            .inc();
        found
    }

    /// Insert generated media into its shard (per-shard LRU eviction).
    pub fn put(&self, recipe: Recipe, value: V) {
        let idx = self.shard_index(&recipe);
        self.shards[idx].lock().put(recipe, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// What happened to one [`GenerationEngine::try_fetch_image_ctx`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served from a cache shard; no waiting, no generation.
    Hit,
    /// This request was the leader and ran the generation.
    Generated,
    /// Joined an in-flight generation and shared the leader's result.
    Coalesced,
}

/// State of one in-flight generation.
#[derive(Debug)]
enum FlightState<V> {
    /// The leader is still generating.
    Pending,
    /// The leader finished; the result is ready to share.
    Done(V),
    /// The leader panicked; waiters must retry from scratch.
    Poisoned,
}

#[derive(Debug)]
struct Flight<V> {
    state: StdMutex<FlightState<V>>,
    ready: Condvar,
    /// Waiter refcount: requests (other than the leader) currently
    /// blocked on this flight. A flight may only be abandoned when this
    /// is zero *and* the leader's own request is finished — so an
    /// expired leader with surviving waiters completes the generation
    /// for them instead of poisoning it.
    waiters: AtomicUsize,
}

impl<V> Flight<V> {
    fn new() -> Flight<V> {
        Flight {
            state: StdMutex::new(FlightState::Pending),
            ready: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    fn resolve(&self, state: FlightState<V>) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.ready.notify_all();
    }

    /// True once no request — leader included — still wants this result.
    fn abandoned(&self, leader_ctx: &RequestCtx) -> bool {
        self.waiters.load(Ordering::SeqCst) == 0 && leader_ctx.finished()
    }
}

/// Unregisters a flight and poisons it if the leader unwinds before
/// publishing a result, so waiters never deadlock on a dead leader.
struct LeaderGuard<'a, V> {
    engine: &'a GenerationEngine<V>,
    recipe: &'a Recipe,
    flight: &'a Arc<Flight<V>>,
    armed: bool,
}

impl<V> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            self.flight.resolve(FlightState::Poisoned);
            self.engine
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(self.recipe);
        }
    }
}

/// The sharded, single-flight generation engine.
#[derive(Debug)]
pub struct GenerationEngine<V = ImageBuffer> {
    cache: ShardedGenerationCache<V>,
    inflight: StdMutex<HashMap<Recipe, Arc<Flight<V>>>>,
}

impl<V: Clone + Send + 'static> GenerationEngine<V> {
    /// An engine over `shards` cache stripes sharing `capacity_pixels`,
    /// recording into a registry of its own.
    pub fn new(shards: usize, capacity_pixels: u64) -> GenerationEngine<V> {
        GenerationEngine::recording(shards, capacity_pixels, Arc::default())
    }

    /// [`new`](GenerationEngine::new), recording into `metrics` — its
    /// server's registry.
    pub(crate) fn recording(
        shards: usize,
        capacity_pixels: u64,
        metrics: Arc<Registry>,
    ) -> GenerationEngine<V> {
        let mut cache = ShardedGenerationCache::new(shards, capacity_pixels);
        cache.metrics = metrics;
        GenerationEngine {
            cache,
            inflight: StdMutex::new(HashMap::new()),
        }
    }

    /// The underlying sharded cache.
    pub fn cache(&self) -> &ShardedGenerationCache<V> {
        &self.cache
    }

    /// The registry this engine records into (shared with its cache).
    pub fn metrics(&self) -> &Registry {
        &self.cache.metrics
    }

    /// Generations actually executed (each unique recipe exactly once
    /// while its entry stays cached):
    /// `sww_engine_requests_total{outcome="generated"}`.
    pub fn generations(&self) -> u64 {
        self.metrics()
            .count("sww_engine_requests_total", &[("outcome", "generated")])
    }

    /// Requests amortized onto a generation they did not run themselves
    /// (shard-cache hits plus in-flight joins): `sww_cache_coalesced_total`.
    pub fn coalesced(&self) -> u64 {
        self.metrics().count("sww_cache_coalesced_total", &[])
    }

    /// Requests served straight from a cache shard:
    /// `sww_engine_requests_total{outcome="hit"}`.
    pub fn cache_hits(&self) -> u64 {
        self.metrics()
            .count("sww_engine_requests_total", &[("outcome", "hit")])
    }

    /// One cache lookup for `ctx`, subject to the `cache.get` failpoint
    /// ([`crate::faults`]): an injected error is a miss (counted as one;
    /// the entry stays cached and the caller regenerates), a latency
    /// delays the lookup.
    fn lookup(&self, recipe: &Recipe, ctx: &RequestCtx) -> Option<V> {
        let forced_miss = match ctx.fault(FaultSite::CacheGet) {
            Some(FaultAction::Error | FaultAction::TruncateKeepPct(_)) => true,
            Some(FaultAction::Latency(d)) => {
                std::thread::sleep(d);
                false
            }
            None => false,
        };
        self.cache.lookup(recipe, forced_miss)
    }

    fn record(&self, outcome: FetchOutcome) {
        let label = match outcome {
            FetchOutcome::Hit => "hit",
            FetchOutcome::Generated => "generated",
            FetchOutcome::Coalesced => "joined",
        };
        let metrics = self.metrics();
        if outcome != FetchOutcome::Generated {
            metrics.counter("sww_cache_coalesced_total", &[]).inc();
        }
        metrics
            .counter("sww_engine_requests_total", &[("outcome", label)])
            .inc();
    }

    /// Fetch the media for `recipe`, running `generate` only if no cached
    /// copy exists and no other request is already generating it.
    ///
    /// `generate` runs with **no engine lock held**, so generations for
    /// distinct recipes proceed fully in parallel. Concurrent requests
    /// for the same recipe block until the leader publishes, then share
    /// the result. Images larger than a shard's budget are not retained,
    /// in which case a later request will legitimately regenerate.
    ///
    /// The failpoints (`crate::faults`) draw from `ctx`'s stream:
    /// `cache.get` at each of the two lookups, `engine.generate` on the
    /// leader path. A failing leader — injected, or a `generate`
    /// that returns `Err` or panics — **poisons** its flight: waiters
    /// observe the poisoned state and retry from scratch (one of them
    /// becomes the next leader), so a mid-generation fault strands no
    /// request and costs exactly one extra generation on recovery.
    ///
    /// The request's [`RequestCtx`] governs how long this call may block
    /// (a caller with no deadline passes [`RequestCtx::unbounded`]), and
    /// the generate closure receives a [`StepCancel`] probe to poll every
    /// denoise step. Deadline semantics per role:
    ///
    /// * **Waiter** — blocks at most until its own deadline; on expiry it
    ///   detaches from the flight (decrementing the waiter refcount) and
    ///   returns [`SwwError::DeadlineExceeded`]. The flight is untouched.
    /// * **Leader, flight still wanted** — a leader whose own ctx expires
    ///   while waiters remain *hands off*: it completes the generation on
    ///   its (already doomed) thread, publishes the result for the
    ///   survivors, and only then returns `DeadlineExceeded` for itself.
    ///   The flight is never poisoned by a deadline.
    /// * **Leader, flight abandoned** — once the waiter refcount is zero
    ///   *and* the leader's ctx is finished, the probe fires and the
    ///   denoise loop aborts within one step. The closure returns
    ///   `DeadlineExceeded`, the flight poisons and unregisters, and the
    ///   recipe is generated fresh by whoever asks next.
    pub fn try_fetch_image_ctx<F>(
        &self,
        recipe: &Recipe,
        ctx: &RequestCtx,
        generate: F,
    ) -> Result<(V, FetchOutcome), SwwError>
    where
        F: FnOnce(&StepCancel) -> Result<V, SwwError>,
    {
        ctx.check()?;
        // Fast path: no map lock at all for warm recipes.
        if let Some(value) = self.lookup(recipe, ctx) {
            self.record(FetchOutcome::Hit);
            return Ok((value, FetchOutcome::Hit));
        }
        let mut generate = Some(generate);
        loop {
            enum Role<V> {
                Leader(Arc<Flight<V>>),
                Waiter(Arc<Flight<V>>),
            }
            let role = {
                let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(flight) = map.get(recipe) {
                    // Attach under the map lock, so the leader's
                    // abandonment probe can never miss a joining waiter.
                    flight.waiters.fetch_add(1, Ordering::SeqCst);
                    Role::Waiter(Arc::clone(flight))
                } else {
                    // Re-check under the map lock: a leader publishes to
                    // the cache *before* unregistering, so a miss here
                    // while no flight is registered is authoritative.
                    if let Some(value) = self.lookup(recipe, ctx) {
                        self.record(FetchOutcome::Hit);
                        return Ok((value, FetchOutcome::Hit));
                    }
                    let flight = Arc::new(Flight::new());
                    map.insert(recipe.clone(), Arc::clone(&flight));
                    Role::Leader(flight)
                }
            };
            match role {
                Role::Leader(flight) => {
                    let mut guard = LeaderGuard {
                        engine: self,
                        recipe,
                        flight: &flight,
                        armed: true,
                    };
                    match ctx.fault(FaultSite::EngineGenerate) {
                        Some(FaultAction::Error) | Some(FaultAction::TruncateKeepPct(_)) => {
                            // Dropping the armed guard poisons the
                            // flight and unregisters it: waiters retry.
                            drop(guard);
                            return Err(SwwError::Generation {
                                reason: "injected fault at engine.generate".into(),
                            });
                        }
                        Some(FaultAction::Latency(d)) => std::thread::sleep(d),
                        None => {}
                    }
                    let cancel = {
                        let flight = Arc::clone(&flight);
                        let ctx = ctx.clone();
                        StepCancel::from_fn(move || flight.abandoned(&ctx))
                    };
                    let value = match (generate.take().expect("leader role claimed once"))(&cancel)
                    {
                        Ok(value) => value,
                        Err(err) => {
                            drop(guard);
                            return Err(err);
                        }
                    };
                    // Publish order matters: cache first, then resolve the
                    // flight, then unregister — so no request can miss both.
                    self.cache.put(recipe.clone(), value.clone());
                    flight.resolve(FlightState::Done(value.clone()));
                    self.inflight
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(recipe);
                    guard.armed = false;
                    self.record(FetchOutcome::Generated);
                    if ctx.finished() {
                        // Hand-off: the generation completed (and was
                        // published for the surviving waiters) on a thread
                        // whose own request no longer wants it.
                        record_cancelled(self.metrics(), "engine.handoff");
                        return Err(ctx.deadline_error());
                    }
                    return Ok((value, FetchOutcome::Generated));
                }
                Role::Waiter(flight) => {
                    let mut state = flight.state.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        match &*state {
                            FlightState::Pending => {
                                if ctx.finished() {
                                    drop(state);
                                    flight.waiters.fetch_sub(1, Ordering::SeqCst);
                                    record_cancelled(self.metrics(), "engine.wait");
                                    return Err(ctx.deadline_error());
                                }
                                // Only the leader's publish or poison
                                // wakes a waiter; its deadline bounds it.
                                let ready = &flight.ready;
                                state = match ctx.remaining() {
                                    Some(left) => {
                                        ready
                                            .wait_timeout(state, left)
                                            .unwrap_or_else(|e| e.into_inner())
                                            .0
                                    }
                                    None => ready.wait(state).unwrap_or_else(|e| e.into_inner()),
                                };
                            }
                            FlightState::Done(value) => {
                                let value = value.clone();
                                drop(state);
                                flight.waiters.fetch_sub(1, Ordering::SeqCst);
                                self.record(FetchOutcome::Coalesced);
                                return Ok((value, FetchOutcome::Coalesced));
                            }
                            FlightState::Poisoned => break,
                        }
                    }
                    drop(state);
                    flight.waiters.fetch_sub(1, Ordering::SeqCst);
                    // Leader died; retry (this request may now lead).
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl ShardedGenerationCache {
        /// Entry count per shard (for tests and load-balance inspection).
        fn shard_lens(&self) -> Vec<usize> {
            self.shards.iter().map(|s| s.lock().len()).collect()
        }
    }
    use std::sync::atomic::AtomicUsize;
    use sww_genai::ImageModelKind;

    fn recipe(prompt: &str) -> Recipe {
        Recipe {
            prompt: prompt.into(),
            model: ImageModelKind::Sd3Medium,
            width: 16,
            height: 16,
            steps: 15,
        }
    }

    /// A request with no deadline whose generation cannot fail: an
    /// unbounded ctx carries no fault stream.
    fn fetch(
        engine: &GenerationEngine,
        recipe: &Recipe,
        generate: impl FnOnce() -> ImageBuffer,
    ) -> (ImageBuffer, FetchOutcome) {
        engine
            .try_fetch_image_ctx(recipe, &RequestCtx::unbounded(), |_| Ok(generate()))
            .expect("no deadline, no failing generator")
    }

    #[test]
    fn generates_once_then_hits() {
        let engine = GenerationEngine::new(4, 1_000_000);
        let calls = AtomicUsize::new(0);
        let gen = || {
            calls.fetch_add(1, Ordering::SeqCst);
            ImageBuffer::new(16, 16)
        };
        let (_, o1) = fetch(&engine, &recipe("a"), gen);
        assert_eq!(o1, FetchOutcome::Generated);
        let (_, o2) = fetch(&engine, &recipe("a"), || unreachable!("cached"));
        assert_eq!(o2, FetchOutcome::Hit);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(engine.generations(), 1);
        assert_eq!(engine.coalesced(), 1);
    }

    #[test]
    fn distinct_recipes_land_in_shards() {
        let engine = GenerationEngine::new(8, 1_000_000_000);
        for i in 0..32 {
            fetch(&engine, &recipe(&format!("p{i}")), || {
                ImageBuffer::new(16, 16)
            });
        }
        assert_eq!(engine.cache().len(), 32);
        assert_eq!(engine.generations(), 32);
        // With 32 keys over 8 shards the hash should touch several shards.
        let populated = engine
            .cache()
            .shard_lens()
            .iter()
            .filter(|&&n| n > 0)
            .count();
        assert!(populated >= 3, "keys concentrated in {populated} shards");
    }

    #[test]
    fn concurrent_same_recipe_coalesces() {
        let engine = Arc::new(GenerationEngine::new(4, 1_000_000));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let calls = Arc::clone(&calls);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (img, _) = fetch(&engine, &recipe("shared"), || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Give the other threads time to pile onto the flight.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        ImageBuffer::new(16, 16)
                    });
                    img
                })
            })
            .collect();
        let images: Vec<ImageBuffer> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "single flight");
        assert!(images.windows(2).all(|w| w[0] == w[1]), "shared result");
        assert_eq!(engine.generations(), 1);
        assert_eq!(engine.coalesced() + engine.generations(), 4);
    }

    #[test]
    fn poisoned_flight_recovers() {
        let engine = Arc::new(GenerationEngine::new(2, 1_000_000));
        let e = Arc::clone(&engine);
        let panicker = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fetch(&e, &recipe("doomed"), || panic!("leader dies"));
            }));
        });
        panicker.join().unwrap();
        // The key must not be stuck: a later request generates normally.
        let (_, outcome) = fetch(&engine, &recipe("doomed"), || ImageBuffer::new(16, 16));
        assert_eq!(outcome, FetchOutcome::Generated);
    }

    #[test]
    fn ctx_expired_at_entry_is_rejected() {
        let engine: GenerationEngine = GenerationEngine::new(2, 1_000_000);
        let ctx = RequestCtx::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        let out = engine.try_fetch_image_ctx(&recipe("late"), &ctx, |_| {
            unreachable!("expired ctx must not reach the generator")
        });
        assert!(matches!(out, Err(SwwError::DeadlineExceeded { .. })));
        assert_eq!(engine.generations(), 0);
    }

    #[test]
    fn waiter_detaches_at_its_own_deadline() {
        let engine = Arc::new(GenerationEngine::new(2, 1_000_000));
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.try_fetch_image_ctx(&recipe("slow"), &RequestCtx::unbounded(), |_| {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(ImageBuffer::new(16, 16))
                })
            })
        };
        // Let the leader register its flight, then join with a deadline
        // far shorter than the leader's sleep.
        std::thread::sleep(Duration::from_millis(30));
        let ctx = RequestCtx::with_deadline(Duration::from_millis(20));
        let waited = engine.try_fetch_image_ctx(&recipe("slow"), &ctx, |_| {
            unreachable!("a waiter never generates")
        });
        assert!(matches!(waited, Err(SwwError::DeadlineExceeded { .. })));
        // The leader is unaffected by the waiter's deadline.
        let (_, outcome) = leader.join().unwrap().unwrap();
        assert_eq!(outcome, FetchOutcome::Generated);
    }

    #[test]
    fn abandoned_flight_fires_the_cancel_probe() {
        let engine = GenerationEngine::new(2, 1_000_000);
        let ctx = RequestCtx::with_deadline(Duration::from_millis(20));
        let out = engine.try_fetch_image_ctx(&recipe("orphan"), &ctx, |cancel| {
            // Emulate the denoise loop: poll the probe until it fires.
            for _ in 0..100 {
                if cancel.is_cancelled() {
                    return Err(ctx.deadline_error());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("probe never fired for an abandoned flight");
        });
        assert!(matches!(out, Err(SwwError::DeadlineExceeded { .. })));
        // The poisoned flight is not stuck: the next request regenerates.
        let (_, outcome) = fetch(&engine, &recipe("orphan"), || ImageBuffer::new(16, 16));
        assert_eq!(outcome, FetchOutcome::Generated);
    }

    #[test]
    fn expired_leader_with_waiter_hands_off() {
        let engine = Arc::new(GenerationEngine::new(2, 1_000_000));
        let leader_ctx = RequestCtx::with_deadline(Duration::from_millis(30));
        let calls = Arc::new(AtomicUsize::new(0));
        let leader = {
            let engine = Arc::clone(&engine);
            let ctx = leader_ctx.clone();
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                engine.try_fetch_image_ctx(&recipe("adopted"), &ctx, |cancel| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Outlive the leader's own deadline, polling the probe
                    // like the denoise loop does. With a live waiter the
                    // probe must never fire.
                    for _ in 0..20 {
                        assert!(!cancel.is_cancelled(), "flight still has a waiter");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(ImageBuffer::new(16, 16))
                })
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        // A patient waiter joins before the leader's deadline passes.
        let waited =
            engine.try_fetch_image_ctx(&recipe("adopted"), &RequestCtx::unbounded(), |_| {
                unreachable!("the flight already has a leader")
            });
        // The leader's own request missed its deadline...
        let led = leader.join().unwrap();
        assert!(matches!(led, Err(SwwError::DeadlineExceeded { .. })));
        // ...but the waiter adopted the flight: one generation, shared.
        let (_, outcome) = waited.unwrap();
        assert_eq!(outcome, FetchOutcome::Coalesced);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one generation");
        assert_eq!(engine.generations(), 1);
    }

    /// A waiter without a deadline re-checks its flight only when woken,
    /// so the leader's publish must wake it: a lost wakeup hangs it.
    #[test]
    fn a_publish_wakes_an_unbounded_waiter() {
        let engine = Arc::new(GenerationEngine::new(2, 1_000_000));
        let waiters = |engine: &GenerationEngine| {
            let map = engine.inflight.lock().unwrap();
            map.get(&recipe("woken"))
                .map(|f| f.waiters.load(Ordering::SeqCst))
        };
        let (publish_tx, publish_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                fetch(&engine, &recipe("woken"), || {
                    publish_rx.recv().unwrap();
                    ImageBuffer::new(16, 16)
                })
            })
        };
        while waiters(&engine).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let (_, outcome) = fetch(&engine, &recipe("woken"), || unreachable!("led"));
                done_tx.send(outcome).unwrap();
            })
        };
        while waiters(&engine) != Some(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let the waiter park on the flight's condvar, then publish.
        std::thread::sleep(Duration::from_millis(50));
        publish_tx.send(()).unwrap();
        assert_eq!(leader.join().unwrap().1, FetchOutcome::Generated);
        let outcome = done_rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(
            outcome,
            Ok(FetchOutcome::Coalesced),
            "the publish woke no waiter"
        );
        waiter.join().unwrap();
    }

    /// A `cache.get` fault on the request's stream is a miss its shard
    /// counts: the cached entry is regenerated, not read, and stays.
    #[test]
    fn a_cache_get_fault_is_a_counted_miss() {
        let engine = GenerationEngine::new(1, 1_000_000);
        fetch(&engine, &recipe("warm"), || ImageBuffer::new(16, 16));
        let spec = crate::ChaosSpec::parse("seed=1,cache.get=error:1.0").unwrap();
        let stream = Arc::new(crate::faults::FaultStream::new(&spec, Arc::default()));
        let ctx = RequestCtx::new(None, Some(Arc::clone(&stream)));
        let (_, outcome) = engine
            .try_fetch_image_ctx(&recipe("warm"), &ctx, |_| Ok(ImageBuffer::new(16, 16)))
            .unwrap();
        assert_eq!(outcome, FetchOutcome::Generated);
        // Both lookups drew, and both missed (after the warm-up's two).
        assert_eq!(stream.injected_total(), 2);
        let lookups = |result| {
            engine
                .metrics()
                .count("sww_cache_events_total", &[("result", result)])
        };
        assert_eq!((lookups("hit"), lookups("miss")), (0, 4));
        assert_eq!(
            fetch(&engine, &recipe("warm"), || unreachable!()).1,
            FetchOutcome::Hit
        );
    }

    #[test]
    fn oversized_images_are_not_retained() {
        // 2 shards x 50 pixels each; a 16x16 image (256 px) never fits.
        let engine = GenerationEngine::new(2, 100);
        let (_, o1) = fetch(&engine, &recipe("big"), || ImageBuffer::new(16, 16));
        assert_eq!(o1, FetchOutcome::Generated);
        let (_, o2) = fetch(&engine, &recipe("big"), || ImageBuffer::new(16, 16));
        assert_eq!(o2, FetchOutcome::Generated, "uncacheable -> regenerate");
    }
}
