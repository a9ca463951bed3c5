//! Continuous batching for the generation engine.
//!
//! Real diffusion backends amortize per-step cost by advancing many
//! latents through one denoising schedule. The [`BatchScheduler`] sits
//! between the single-flight [`GenerationEngine`] and the synthesizer:
//! flight leaders submit their recipe here, compatible pending jobs
//! (same model profile, resolution and step schedule — the [`BatchKey`])
//! rendezvous into one group, and the group's leader runs a single
//! denoising pass (`run_pass`) whose per-image output is
//! **bit-identical** to the single-image reference. A server without a
//! scheduler calls the same `run_pass` with a one-element slice, so
//! there is one road from a recipe to its pixels whatever the
//! configuration.
//!
//! # Closing policy
//!
//! A group closes — and its batch executes — at the first of:
//!
//! 1. **Full**: the group reached `max_batch` members.
//! 2. **Drained**: no other request is inside [`submit_ctx`] still looking
//!    for a group (a shared rendezvous counter tracks this), so waiting
//!    longer cannot grow the batch. A lone request therefore closes
//!    immediately: batching adds *no* latency without concurrency.
//! 3. **Deadline**: `max_wait` elapsed since the group opened. This is
//!    the hard bound on added wait — backpressure can keep condition 2
//!    false, but never extends a batch past its deadline.
//!
//! # Composition with single flight and faults
//!
//! The engine coalesces duplicate recipes *before* they reach the
//! scheduler, so a batch never contains the same recipe twice; batching
//! amortizes *distinct* recipes the way single flight amortizes
//! identical ones. The `engine.generate` failpoint fires on the flight
//! leader before it submits, so an injected fault removes one job from
//! the rendezvous without touching batch-mates. A batch leader that
//! panics poisons its group: members fail with a retryable
//! [`SwwError::Generation`] instead of hanging.
//!
//! # Cancellation
//!
//! [`submit_ctx`] threads each member's [`StepCancel`] probe into the
//! group. The denoising pass is handed a *group* probe that fires only
//! when **every** member's probe has fired — a batch aborts as a unit,
//! never because one member gave up. A member whose own probe fires
//! while waiting detaches with [`SwwError::DeadlineExceeded`]
//! (`sww_cancelled_total{site="batch.wait"}`); an abandoned pass counts
//! under `site="denoise"` and is excluded from the `sww_batch_*` series.
//!
//! [`submit_ctx`]: BatchScheduler::submit_ctx
//!
//! [`GenerationEngine`]: crate::engine::GenerationEngine

use crate::cache::Recipe;
use crate::error::SwwError;
use crate::lifecycle::{record_cancelled, RequestCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use sww_genai::{
    DiffusionModel, ImageBuffer, ImageModelKind, PromptFeatures, StepCancel, TileRunner, Tiling,
    STAGE_WALL_SECONDS,
};
use sww_obs::{Registry, Span, DURATION_BUCKETS};

/// Buckets for the achieved-batch-size histogram.
const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// How often a batch member re-polls its cancellation probe while
/// blocked on the group outcome.
const MEMBER_TICK: Duration = Duration::from_millis(5);

/// The compatibility key: jobs batch together only when they share the
/// model profile, output resolution and step schedule (everything the
/// shared denoising pass fixes; the prompt is per-image state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Image model (determines profile and seed salt).
    pub model: ImageModelKind,
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
    /// Inference steps (the shared schedule length).
    pub steps: u32,
}

impl BatchKey {
    /// The key a recipe batches under.
    pub(crate) fn of(recipe: &Recipe) -> BatchKey {
        BatchKey {
            model: recipe.model,
            width: recipe.width,
            height: recipe.height,
            steps: recipe.steps,
        }
    }
}

/// Batching policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most jobs one denoising pass may carry (clamped to at least 1).
    pub max_batch: usize,
    /// Hard deadline on how long an open group may wait for company.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// What one [`BatchScheduler::submit_ctx`] call came back with.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The generated image (bit-identical to the unbatched path).
    pub image: ImageBuffer,
    /// How many jobs shared the denoising pass (≥ 1).
    pub batch_size: usize,
}

/// Snapshot of a scheduler's lifetime tallies (per-scheduler, so bench
/// sweep points that build a fresh server read per-sample numbers).
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Jobs that went through the scheduler.
    pub jobs: u64,
    /// Denoising passes executed.
    pub batches: u64,
    /// Mean achieved batch size (0 when no batch ran yet).
    pub mean_batch: f64,
    /// Largest batch executed.
    pub max_batch: usize,
    /// 99th-percentile wait for a group to close, in seconds, over the
    /// most recent jobs (a fixed window, so a long-lived scheduler's
    /// tallies do not grow).
    pub p99_wait_s: f64,
}

/// Runs a closed group: produces one image per prompt, in order, or
/// `None` when the pass was abandoned via the cancellation probe (only
/// possible once every member's waiters are gone — batches cancel as a
/// unit, never per-member). Injectable so tests can count passes or
/// misbehave deliberately.
type Executor = dyn Fn(&BatchKey, &[String], &StepCancel) -> Option<Vec<ImageBuffer>> + Send + Sync;

#[derive(Debug)]
enum GroupOutcome {
    /// Executor finished; one image per member, in join order.
    Done(Vec<ImageBuffer>),
    /// The pass was abandoned mid-denoise: every member's cancellation
    /// probe had fired, so nobody is owed an image.
    Cancelled,
    /// The leader unwound before publishing; members must fail (the
    /// engine flight above them poisons too, so callers retry cleanly).
    Poisoned,
}

#[derive(Debug)]
struct GroupState {
    prompts: Vec<String>,
    /// One cancellation probe per member, in join order. The group's own
    /// probe (handed to the executor) fires only when **all** of these
    /// fire: one cancelled member never aborts its batch-mates' pass.
    cancels: Vec<StepCancel>,
    /// Set once the leader stops admitting members.
    closed: bool,
    outcome: Option<GroupOutcome>,
}

#[derive(Debug)]
struct Group {
    state: Mutex<GroupState>,
    changed: Condvar,
    opened: Instant,
}

impl Group {
    fn new(first_prompt: String, first_cancel: StepCancel) -> Group {
        Group {
            state: Mutex::new(GroupState {
                prompts: vec![first_prompt],
                cancels: vec![first_cancel],
                closed: false,
                outcome: None,
            }),
            changed: Condvar::new(),
            opened: Instant::now(),
        }
    }
}

/// Job waits [`BatchStats::p99_wait_s`] is read over: the most recent
/// ones, 8 KB however long the scheduler lives.
const WAIT_SAMPLES: usize = 1024;

/// What no series holds: the largest batch and the recent waits (job and
/// batch counts are the registry's `sww_batch_*_total`).
#[derive(Default)]
struct Tallies {
    max_batch: usize,
    /// A ring of the last [`WAIT_SAMPLES`] job waits.
    waits_s: Vec<f64>,
    /// Where the ring's next wait is written.
    next_wait: usize,
}

/// Groups compatible in-flight generation jobs into shared denoising
/// passes. See the module docs for the policy and guarantees.
pub struct BatchScheduler {
    config: BatchConfig,
    groups: Mutex<HashMap<BatchKey, Arc<Group>>>,
    /// Requests inside [`submit_ctx`] that have not attached to a group
    /// yet — the "someone is still on their way" signal leaders poll
    /// before closing early.
    ///
    /// [`submit_ctx`]: BatchScheduler::submit_ctx
    rendezvous: AtomicUsize,
    executor: Box<Executor>,
    tallies: Mutex<Tallies>,
    /// The `sww_batch_*` series and member detaches are counted here:
    /// the server's registry, or one of the scheduler's own.
    metrics: Arc<Registry>,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Poisons the group if the leader unwinds before publishing a result.
struct BatchLeaderGuard<'a> {
    group: &'a Group,
    armed: bool,
}

impl Drop for BatchLeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.group.state.lock().unwrap_or_else(|e| e.into_inner());
            st.outcome = Some(GroupOutcome::Poisoned);
            self.group.changed.notify_all();
        }
    }
}

/// RAII backpressure hint: while held, open groups treat one more
/// submission as "on its way" and will not close early for drain.
/// Created by [`BatchScheduler::announce`]; dropping it withdraws the
/// hint. The deadline still applies, so a stale hint cannot hold a
/// group open past `max_wait`.
#[must_use = "the hint is withdrawn when the guard drops"]
#[derive(Debug)]
pub struct ArrivalGuard<'a> {
    scheduler: &'a BatchScheduler,
}

impl Drop for ArrivalGuard<'_> {
    fn drop(&mut self) {
        self.scheduler.rendezvous.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One denoising pass: an image per prompt, in order, all under `key`,
/// split over the plan's tiles — what a closed group's leader runs, and
/// what a server without a scheduler runs on a one-element slice.
/// `None` means the probe fired and the pass was abandoned mid-denoise,
/// which is counted here, where it happened, in `metrics`
/// (`sww_cancelled_total{site="denoise"}`).
pub(crate) fn run_pass(
    metrics: &Registry,
    key: &BatchKey,
    prompts: &[String],
    cancel: &StepCancel,
    tiling: Tiling<'_>,
) -> Option<Vec<ImageBuffer>> {
    let span = Span::begin("embed");
    let features: Vec<PromptFeatures> =
        prompts.iter().map(|p| PromptFeatures::analyze(p)).collect();
    span.finish(metrics, STAGE_WALL_SECONDS);
    let images = DiffusionModel::new(key.model)
        .try_generate_batch_on(&features, key.width, key.height, key.steps, cancel, tiling);
    if images.is_none() {
        record_cancelled(metrics, "denoise");
    }
    images
}

impl BatchScheduler {
    /// A scheduler running the real diffusion synthesizer: a closed
    /// group becomes one `run_pass` split into at most `kernel_tiles`
    /// tiles on `runner`, with the group's all-members-gone probe checked
    /// every shared denoise step. Per-image output is bit-identical for
    /// every tile count and runner (the per-latent-RNG invariant; see
    /// PERFORMANCE.md), so tiling is purely a wall-clock decision; one
    /// tile on an [`InlineRunner`](sww_genai::InlineRunner) is
    /// the scalar step-major kernel on the leader's thread. It records
    /// into a registry of its own.
    pub fn new(
        config: BatchConfig,
        runner: Arc<dyn TileRunner>,
        kernel_tiles: usize,
    ) -> BatchScheduler {
        BatchScheduler::recording(config, runner, kernel_tiles, Arc::default())
    }

    /// [`new`](BatchScheduler::new), recording into `metrics` — its
    /// server's registry.
    pub(crate) fn recording(
        config: BatchConfig,
        runner: Arc<dyn TileRunner>,
        kernel_tiles: usize,
        metrics: Arc<Registry>,
    ) -> BatchScheduler {
        let pass_metrics = Arc::clone(&metrics);
        let executor = Box::new(
            move |key: &BatchKey, prompts: &[String], cancel: &StepCancel| {
                let tiling = Tiling::new(runner.as_ref(), kernel_tiles);
                run_pass(&pass_metrics, key, prompts, cancel, tiling)
            },
        );
        BatchScheduler {
            metrics,
            ..BatchScheduler::with_executor(config, executor)
        }
    }

    /// A scheduler with an injected executor (tests, instrumentation),
    /// recording into a registry of its own.
    pub(crate) fn with_executor(config: BatchConfig, executor: Box<Executor>) -> BatchScheduler {
        BatchScheduler {
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                max_wait: config.max_wait,
            },
            groups: Mutex::new(HashMap::new()),
            rendezvous: AtomicUsize::new(0),
            executor,
            tallies: Mutex::new(Tallies::default()),
            metrics: Arc::default(),
        }
    }

    /// Announce that a submission is imminent. Queueing layers that
    /// already hold a compatible job — and tests that need a
    /// deterministic batch composition — use this to keep open groups
    /// from closing for drain before the submitter reaches
    /// [`submit_ctx`](BatchScheduler::submit_ctx).
    pub fn announce(&self) -> ArrivalGuard<'_> {
        self.rendezvous.fetch_add(1, Ordering::SeqCst);
        ArrivalGuard { scheduler: self }
    }

    /// Lifetime tallies of this scheduler instance: `jobs` and `batches`
    /// read `sww_batch_jobs_total` and `sww_batch_batches_total`.
    pub fn stats(&self) -> BatchStats {
        let t = self.tallies.lock().unwrap_or_else(|e| e.into_inner());
        let mut waits = t.waits_s.clone();
        waits.sort_by(|a, b| a.total_cmp(b));
        let jobs = self.metrics.count("sww_batch_jobs_total", &[]);
        let batches = self.metrics.count("sww_batch_batches_total", &[]);
        BatchStats {
            jobs,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                jobs as f64 / batches as f64
            },
            max_batch: t.max_batch,
            p99_wait_s: sww_obs::percentile(&waits, 99.0),
        }
    }

    /// Submit one job and block until its image is ready.
    ///
    /// The call joins an open group for the recipe's `BatchKey` or
    /// opens one and leads it; the group closes per the module-level
    /// policy, the leader runs the executor once, and every member gets
    /// its own image.
    ///
    /// `cancel` is this member's own abandonment probe (for an engine
    /// flight leader, "my flight has no waiters left and my request is
    /// finished"), and `ctx` supplies the error a detaching member
    /// unwinds with; a caller with neither passes
    /// [`RequestCtx::unbounded`] and [`StepCancel::never`]. Cancellation
    /// composes conservatively:
    ///
    /// * The pass handed to the executor aborts only when **every**
    ///   member's probe fires — one cancelled member never costs its
    ///   batch-mates their images.
    /// * A member whose own probe fires while it waits for the group
    ///   outcome detaches with [`SwwError::DeadlineExceeded`]; its slot
    ///   still computes (the marginal cost of a batch slot is one
    ///   latent's worth of arithmetic), but nobody blocks on it.
    ///
    /// The only other error is a group whose leader died mid-execution
    /// (a retryable [`SwwError::Generation`]).
    pub fn submit_ctx(
        &self,
        recipe: &Recipe,
        ctx: &RequestCtx,
        cancel: &StepCancel,
    ) -> Result<BatchOutcome, SwwError> {
        let key = BatchKey::of(recipe);
        self.rendezvous.fetch_add(1, Ordering::SeqCst);

        // Attach: join an open, non-full group or open a new one.
        let (group, index, leads) = {
            let mut groups = self.groups.lock().unwrap_or_else(|e| e.into_inner());
            let attach = groups.get(&key).and_then(|g| {
                let mut st = g.state.lock().unwrap_or_else(|e| e.into_inner());
                if !st.closed && st.prompts.len() < self.config.max_batch {
                    st.prompts.push(recipe.prompt.clone());
                    st.cancels.push(cancel.clone());
                    let idx = st.prompts.len() - 1;
                    g.changed.notify_all();
                    Some((Arc::clone(g), idx))
                } else {
                    None
                }
            });
            match attach {
                Some((g, idx)) => (g, idx, false),
                None => {
                    let g = Arc::new(Group::new(recipe.prompt.clone(), cancel.clone()));
                    groups.insert(key, Arc::clone(&g));
                    (g, 0, true)
                }
            }
        };
        // Attached: no longer part of the rendezvous either way.
        self.rendezvous.fetch_sub(1, Ordering::SeqCst);

        if leads {
            self.lead(&key, &group);
        }
        let (image, batch_size) = self.await_outcome(&group, index, ctx, cancel)?;
        Ok(BatchOutcome { image, batch_size })
    }

    /// Leader path: wait for the group to fill, drain or time out, then
    /// close it, run the batch, and publish one image per member.
    fn lead(&self, key: &BatchKey, group: &Arc<Group>) {
        let deadline = group.opened + self.config.max_wait;
        let mut st = group.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.prompts.len() >= self.config.max_batch {
                break;
            }
            if self.rendezvous.load(Ordering::SeqCst) == 0 {
                break; // Nobody else is on their way: waiting is pure delay.
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Short poll: joiners notify the condvar, but rendezvous
            // draining elsewhere does not, so re-check on a tick.
            let tick = (deadline - now).min(Duration::from_millis(1));
            let (guard, _) = group
                .changed
                .wait_timeout(st, tick)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        st.closed = true;
        let wait = group.opened.elapsed();
        let prompts = st.prompts.clone();
        let cancels = st.cancels.clone();
        drop(st);

        // Unregister so the next submitter for this key opens a fresh
        // group (only if the slot still holds *this* group — a full
        // group may already have been displaced by a newcomer).
        {
            let mut groups = self.groups.lock().unwrap_or_else(|e| e.into_inner());
            if groups.get(key).is_some_and(|g| Arc::ptr_eq(g, group)) {
                groups.remove(key);
            }
        }

        // The group aborts only as a unit: the pass dies when *every*
        // member's probe has fired, never while anyone still wants an
        // image from it.
        let group_cancel =
            StepCancel::from_fn(move || cancels.iter().all(StepCancel::is_cancelled));

        let mut guard = BatchLeaderGuard { group, armed: true };
        let started = Instant::now();
        let images = (self.executor)(key, &prompts, &group_cancel);
        let outcome = match images {
            Some(images) => {
                debug_assert_eq!(images.len(), prompts.len(), "executor contract");
                let elapsed = started.elapsed().as_secs_f64();
                self.record(prompts.len(), wait, elapsed);
                GroupOutcome::Done(images)
            }
            // Abandoned mid-denoise: everyone already left, so this
            // never surfaces to a caller.
            None => GroupOutcome::Cancelled,
        };

        let mut st = group.state.lock().unwrap_or_else(|e| e.into_inner());
        st.outcome = Some(outcome);
        drop(st);
        guard.armed = false;
        group.changed.notify_all();
    }

    /// Member path: block until the leader publishes, then take our
    /// image — or detach early when our own cancellation probe fires.
    fn await_outcome(
        &self,
        group: &Group,
        index: usize,
        ctx: &RequestCtx,
        cancel: &StepCancel,
    ) -> Result<(ImageBuffer, usize), SwwError> {
        let mut st = group.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &st.outcome {
                Some(GroupOutcome::Done(images)) => {
                    let size = images.len();
                    let image = images
                        .get(index)
                        .cloned()
                        .ok_or_else(|| SwwError::Generation {
                            reason: "batch executor returned too few images".into(),
                        })?;
                    return Ok((image, size));
                }
                Some(GroupOutcome::Cancelled) => {
                    // Only reachable when every member's probe fired, so
                    // unwinding with the deadline error is truthful.
                    return Err(ctx.deadline_error());
                }
                Some(GroupOutcome::Poisoned) => {
                    return Err(SwwError::Generation {
                        reason: "batch leader failed before publishing".into(),
                    });
                }
                None => {
                    if cancel.is_cancelled() {
                        record_cancelled(&self.metrics, "batch.wait");
                        return Err(ctx.deadline_error());
                    }
                    let (guard, _) = group
                        .changed
                        .wait_timeout(st, MEMBER_TICK)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    fn record(&self, size: usize, wait: Duration, exec_s: f64) {
        {
            let mut t = self.tallies.lock().unwrap_or_else(|e| e.into_inner());
            t.max_batch = t.max_batch.max(size);
            for _ in 0..size {
                let slot = t.next_wait;
                match t.waits_s.get_mut(slot) {
                    Some(oldest) => *oldest = wait.as_secs_f64(),
                    None => t.waits_s.push(wait.as_secs_f64()),
                }
                t.next_wait = (slot + 1) % WAIT_SAMPLES;
            }
        }
        let metrics = &self.metrics;
        metrics
            .counter("sww_batch_jobs_total", &[])
            .add(size as u64);
        metrics.counter("sww_batch_batches_total", &[]).inc();
        metrics
            .histogram("sww_batch_size_jobs", &[], BATCH_SIZE_BUCKETS)
            .observe(size as f64);
        metrics
            .histogram("sww_batch_wait_seconds", &[], DURATION_BUCKETS)
            .observe(wait.as_secs_f64());
        metrics
            .histogram("sww_batch_image_seconds", &[], DURATION_BUCKETS)
            .observe(exec_s / size as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workpool::CrewRunner;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use sww_genai::InlineRunner;

    impl BatchScheduler {
        /// The active policy (the server's plumbing test reads it).
        pub(crate) fn config(&self) -> BatchConfig {
            self.config
        }
    }

    fn recipe(prompt: &str) -> Recipe {
        Recipe {
            prompt: prompt.into(),
            model: ImageModelKind::Sd3Medium,
            width: 32,
            height: 32,
            steps: 15,
        }
    }

    /// The real kernel on the leader's thread, counted.
    fn counting_scheduler(config: BatchConfig) -> (Arc<BatchScheduler>, Arc<AtomicUsize>) {
        let passes = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&passes);
        let sched = Arc::new(BatchScheduler::with_executor(
            config,
            Box::new(move |key, prompts, cancel| {
                p.fetch_add(1, Ordering::SeqCst);
                let tiling = Tiling::new(&InlineRunner, 1);
                run_pass(&Registry::new(), key, prompts, cancel, tiling)
            }),
        ));
        (sched, passes)
    }

    /// The scalar scheduler a server with `kernel_tiles: 1` builds.
    fn scalar_scheduler(config: BatchConfig) -> BatchScheduler {
        BatchScheduler::new(config, Arc::new(InlineRunner), 1)
    }

    /// A member with no deadline and no probe of its own.
    fn submit(sched: &BatchScheduler, recipe: &Recipe) -> Result<BatchOutcome, SwwError> {
        sched.submit_ctx(recipe, &RequestCtx::unbounded(), &StepCancel::never())
    }

    #[test]
    fn lone_submit_closes_immediately() {
        let sched = scalar_scheduler(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_secs(10),
        });
        let start = Instant::now();
        let out = submit(&sched, &recipe("solo prompt")).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "lone request must not wait out the deadline"
        );
        assert_eq!(out.batch_size, 1);
        let expected =
            DiffusionModel::new(ImageModelKind::Sd3Medium).generate("solo prompt", 32, 32, 15);
        assert_eq!(out.image, expected);
    }

    #[test]
    fn concurrent_submits_share_one_pass_and_stay_bit_identical() {
        let (sched, passes) = counting_scheduler(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(250),
        });
        // The announce hint keeps the group from closing for drain in
        // the gap between a thread passing the barrier and reaching
        // submit, so exactly one full batch forms deterministically.
        let hint = sched.announce();
        let barrier = Arc::new(Barrier::new(4));
        let outs: Vec<BatchOutcome> = std::thread::scope(|scope| {
            (0..4)
                .map(|i| {
                    let sched = Arc::clone(&sched);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        submit(&sched, &recipe(&format!("prompt number {i}"))).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        drop(hint);
        assert_eq!(passes.load(Ordering::SeqCst), 1, "one shared pass");
        let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.batch_size, 4);
            assert_eq!(
                out.image,
                model.generate(&format!("prompt number {i}"), 32, 32, 15),
                "member {i} diverged"
            );
        }
        let stats = sched.stats();
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch, 4);
    }

    #[test]
    fn incompatible_keys_never_share_a_batch() {
        let (sched, passes) = counting_scheduler(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(100),
        });
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            let s1 = Arc::clone(&sched);
            let b1 = Arc::clone(&barrier);
            let a = scope.spawn(move || {
                b1.wait();
                submit(&s1, &recipe("same prompt")).unwrap()
            });
            let s2 = Arc::clone(&sched);
            let b2 = Arc::clone(&barrier);
            let b = scope.spawn(move || {
                b2.wait();
                let mut r = recipe("same prompt");
                r.steps = 30; // different schedule: must not batch
                submit(&s2, &r).unwrap()
            });
            let (oa, ob) = (a.join().unwrap(), b.join().unwrap());
            assert_eq!(oa.batch_size, 1);
            assert_eq!(ob.batch_size, 1);
        });
        assert_eq!(passes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn group_overflow_opens_a_second_batch() {
        let (sched, passes) = counting_scheduler(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(250),
        });
        let barrier = Arc::new(Barrier::new(4));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let sched = Arc::clone(&sched);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        submit(&sched, &recipe(&format!("overflow {i}"))).unwrap()
                    })
                })
                .collect();
            for h in handles {
                let out = h.join().unwrap();
                assert!(out.batch_size <= 2, "cap respected: {}", out.batch_size);
            }
        });
        assert!(passes.load(Ordering::SeqCst) >= 2);
        assert_eq!(sched.stats().jobs, 4);
    }

    #[test]
    fn deadline_bounds_wait_even_with_rendezvous_pressure() {
        // A member that joins and a stream of unrelated-key submitters
        // cannot hold a group open past max_wait.
        let sched = scalar_scheduler(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(50),
        });
        let start = Instant::now();
        submit(&sched, &recipe("deadline probe")).unwrap();
        // Drained-rendezvous fires long before the deadline here; the
        // invariant that matters is the hard upper bound, on the one
        // wait the scheduler recorded.
        assert!(start.elapsed() < Duration::from_secs(2));
        let waited = sched.stats().p99_wait_s;
        assert!(waited <= 0.050 + 0.020, "waited {waited} s");
    }

    #[test]
    fn cancelled_member_never_aborts_its_batchmates() {
        use std::sync::atomic::AtomicBool;
        // Two members share a group; one's probe fires while it waits.
        // The pass must still complete (the group probe needs *all*
        // members gone) and the survivor must get its image.
        let (sched, passes) = counting_scheduler(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(250),
        });
        let doomed = Arc::new(AtomicBool::new(false));
        let probe = {
            let doomed = Arc::clone(&doomed);
            StepCancel::from_fn(move || doomed.load(Ordering::SeqCst))
        };
        // Keep the group open until both threads attach (same trick as
        // the bit-identical test: without it the first arrival can close
        // for drain before the second reaches submit).
        let hint = sched.announce();
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            let s1 = Arc::clone(&sched);
            let b1 = Arc::clone(&barrier);
            let d = Arc::clone(&doomed);
            let a = scope.spawn(move || {
                b1.wait();
                let ctx = RequestCtx::unbounded();
                d.store(true, Ordering::SeqCst);
                s1.submit_ctx(&recipe("cancelled member"), &ctx, &probe)
            });
            let s2 = Arc::clone(&sched);
            let b2 = Arc::clone(&barrier);
            let b = scope.spawn(move || {
                b2.wait();
                submit(&s2, &recipe("surviving member"))
            });
            let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
            // The cancelled member either detached in time (deadline
            // error) or the pass finished first and it got its image —
            // both are legal; what is *illegal* is the survivor losing.
            if let Err(e) = ra {
                assert!(matches!(e, SwwError::DeadlineExceeded { .. }), "{e:?}");
            }
            let out = rb.expect("survivor must get its image");
            let expected = DiffusionModel::new(ImageModelKind::Sd3Medium).generate(
                "surviving member",
                32,
                32,
                15,
            );
            assert_eq!(out.image, expected);
        });
        drop(hint);
        assert_eq!(passes.load(Ordering::SeqCst), 1, "one shared pass ran");
    }

    #[test]
    fn fully_abandoned_group_cancels_the_pass() {
        // A lone member whose probe is already fired: the group probe is
        // satisfied immediately, the executor abandons the pass, and the
        // member unwinds with the deadline error instead of an image.
        let (sched, passes) = counting_scheduler(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        });
        let ctx = RequestCtx::unbounded();
        let probe = StepCancel::from_fn(|| true);
        let err = sched
            .submit_ctx(&recipe("abandoned"), &ctx, &probe)
            .unwrap_err();
        assert!(matches!(err, SwwError::DeadlineExceeded { budget_ms: 0 }));
        assert_eq!(
            passes.load(Ordering::SeqCst),
            1,
            "pass started then aborted"
        );
        assert_eq!(sched.stats().batches, 0, "abandoned pass is not tallied");
    }

    /// The tiled scheduler is a drop-in for the scalar one: same images,
    /// bit for bit, with the pass fanned out across the blocking crew.
    #[test]
    fn tiled_scheduler_is_bit_identical_to_scalar() {
        let config = BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(250),
        };
        let sched = Arc::new(BatchScheduler::new(config, Arc::new(CrewRunner), 4));
        let hint = sched.announce();
        let barrier = Arc::new(Barrier::new(4));
        let outs: Vec<BatchOutcome> = std::thread::scope(|scope| {
            (0..4)
                .map(|i| {
                    let sched = Arc::clone(&sched);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        submit(&sched, &recipe(&format!("tiled prompt {i}"))).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        drop(hint);
        let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(
                out.image,
                model.generate(&format!("tiled prompt {i}"), 32, 32, 15),
                "member {i} diverged under tiling"
            );
        }
        assert_eq!(sched.stats().batches, 1, "one shared tiled pass");
    }

    #[test]
    fn one_tile_on_the_crew_is_the_scalar_scheduler() {
        let sched = BatchScheduler::new(BatchConfig::default(), Arc::new(CrewRunner), 1);
        let out = submit(&sched, &recipe("single tile fallback")).unwrap();
        let expected = DiffusionModel::new(ImageModelKind::Sd3Medium).generate(
            "single tile fallback",
            32,
            32,
            15,
        );
        assert_eq!(out.image, expected);
    }

    /// The tallies of a long-lived scheduler stop growing: the wait
    /// samples are a ring, the counts beside them stay exact.
    #[test]
    fn wait_samples_are_bounded_and_the_counts_stay_exact() {
        let sched = BatchScheduler::with_executor(
            BatchConfig::default(),
            Box::new(|key, prompts, _| {
                Some(vec![ImageBuffer::new(key.width, key.height); prompts.len()])
            }),
        );
        let jobs = 3 * WAIT_SAMPLES as u64 + 7;
        let r = recipe("one of very many");
        for _ in 0..jobs {
            assert_eq!(submit(&sched, &r).unwrap().batch_size, 1);
        }
        assert_eq!(sched.tallies.lock().unwrap().waits_s.len(), WAIT_SAMPLES);
        let stats = sched.stats();
        assert_eq!((stats.jobs, stats.batches), (jobs, jobs));
        assert_eq!((stats.mean_batch, stats.max_batch), (1.0, 1));
    }

    #[test]
    fn poisoned_leader_fails_members_without_hanging() {
        let sched = Arc::new(BatchScheduler::with_executor(
            BatchConfig {
                max_batch: 2,
                max_wait: Duration::from_millis(200),
            },
            Box::new(|_, _, _| panic!("executor dies")),
        ));
        let barrier = Arc::new(Barrier::new(2));
        let results: Vec<Result<BatchOutcome, SwwError>> = std::thread::scope(|scope| {
            (0..2)
                .map(|i| {
                    let sched = Arc::clone(&sched);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            submit(&sched, &recipe(&format!("doomed {i}")))
                        }));
                        match r {
                            Ok(inner) => inner,
                            Err(_) => Err(SwwError::Generation {
                                reason: "leader panicked".into(),
                            }),
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Both resolve (no hang): the leader panicked, the member saw the
        // poisoned group and got a retryable error.
        assert!(results.iter().all(|r| r.is_err()));
    }
}
