//! Admission control for request handling, and the kernel's tile runner.
//!
//! [`WorkerPool`] is a gate, not a set of threads: at most `workers`
//! admitted requests run at once and at most `queue_capacity` wait, in
//! arrival order. Beyond that [`WorkerPool::run`] fails fast with
//! [`SwwError::Saturated`] — the server maps that to `503` +
//! `Retry-After` instead of letting latency grow without bound. An
//! admitted job runs on the thread that called `run`, which blocks until
//! the answer exists anyway: no hop and no clone of the request. A
//! waiter leaves the queue at its [`RequestCtx`] deadline.
//!
//! Kernel tiles are the one job that needs other threads: [`CrewRunner`]
//! fans them out on the process's blocking crew
//! (`tokio::task::spawn_blocking`), the only place the product starts a
//! thread.
//!
//! Observability, in the registry the pool was built to record into (its
//! server's; a registry of its own when built standalone):
//! `sww_pool_queue_depth` (gauge) tracks waiting requests,
//! `sww_pool_jobs_total{result=executed|rejected|panicked}` counts
//! admissions, refusals and panics, and `sww_pool_worker_utilization`
//! (histogram) records the busy-permit fraction sampled at each job
//! start.

use crate::error::SwwError;
use crate::faults::{FaultAction, FaultSite};
use crate::lifecycle::{record_cancelled, RequestCtx};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};
use sww_genai::{TileRunner, TileTask};
use sww_obs::Registry;

/// EWMA smoothing factor for the per-job service-time estimate: each
/// completed job contributes 20% of the new estimate.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

/// Starting guess for per-job service time until real samples arrive.
/// This cold-start prior drives both `Retry-After` advice and
/// deadline-aware admission control before the first job completes: it
/// is deliberately pessimistic, so a cold pool sheds deadline-bounded
/// work rather than queueing it toward a `504`.
pub const SERVICE_TIME_PRIOR_S: f64 = 1.0;

/// Buckets for the busy-permit fraction (0..=1].
const UTILIZATION_BUCKETS: &[f64] = &[0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// One admitted request waiting for a permit, parked on its own thread.
struct Waiter {
    thread: Thread,
    /// Set by the releasing thread, which hands its permit over: the
    /// waiter never takes `running` or the gate's lock to start. Stored
    /// `Release` under the gate's lock once the waiter is off the queue,
    /// loaded `Acquire` by the waiter.
    granted: AtomicBool,
}

/// Who holds a permit and who waits for one. Nobody waits while a
/// permit is free: a released permit goes straight to the oldest waiter.
struct Gate {
    running: usize,
    /// The admitted requests still waiting, oldest first.
    waiting: VecDeque<Arc<Waiter>>,
}

/// The request admission gate: at most `workers` jobs run, at most
/// `queue_capacity` wait, each on the thread that asked.
pub struct WorkerPool {
    gate: Mutex<Gate>,
    workers: usize,
    queue_capacity: usize,
    /// EWMA of observed per-job service time, stored as `f64` bits so
    /// it is updated without the gate's lock.
    service_ewma_bits: AtomicU64,
    metrics: Arc<Registry>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// A running job's permit; dropping it (also on a panic) hands the
/// permit to the oldest waiter, or returns it when nobody waits.
struct Permit<'a>(&'a WorkerPool);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        let mut gate = pool.lock();
        let next = gate.waiting.pop_front();
        match &next {
            Some(next) => {
                next.granted.store(true, Ordering::Release);
                pool.set_depth_gauge(gate.waiting.len());
            }
            None => gate.running -= 1,
        }
        drop(gate);
        if let Some(next) = next {
            next.thread.unpark();
        }
    }
}

/// `Retry-After` seconds for a backlog that takes `drain_s` to clear,
/// clamped to `1..=30` so advice stays sane under estimate noise.
fn retry_after_s(drain_s: f64) -> u32 {
    (drain_s.ceil() as u64).clamp(1, 30) as u32
}

impl WorkerPool {
    /// A gate admitting `workers` concurrent jobs (at least one) with at
    /// most `queue_capacity` more waiting, recording into a registry of
    /// its own.
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        WorkerPool::recording(workers, queue_capacity, Arc::default())
    }

    /// [`new`](WorkerPool::new), recording into `metrics` — its server's
    /// registry.
    pub(crate) fn recording(
        workers: usize,
        queue_capacity: usize,
        metrics: Arc<Registry>,
    ) -> WorkerPool {
        WorkerPool {
            gate: Mutex::new(Gate {
                running: 0,
                waiting: VecDeque::new(),
            }),
            workers: workers.max(1),
            queue_capacity,
            service_ewma_bits: AtomicU64::new(SERVICE_TIME_PRIOR_S.to_bits()),
            metrics,
        }
    }

    fn set_depth_gauge(&self, depth: usize) {
        self.metrics
            .gauge("sww_pool_queue_depth", &[])
            .set(depth as f64);
    }

    fn count_job(&self, result: &str) {
        self.metrics
            .counter("sww_pool_jobs_total", &[("result", result)])
            .inc();
    }

    fn reject(&self, retry_after_s: u32) -> SwwError {
        self.count_job("rejected");
        SwwError::Saturated { retry_after_s }
    }

    /// Every update leaves the gate consistent, so a poisoned lock is
    /// still good.
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Jobs allowed to run at once.
    pub(crate) fn worker_count(&self) -> usize {
        self.workers
    }

    /// Admitted requests currently waiting for a permit.
    pub(crate) fn queue_depth(&self) -> usize {
        self.lock().waiting.len()
    }

    fn service_estimate_s(&self) -> f64 {
        f64::from_bits(self.service_ewma_bits.load(Ordering::Relaxed))
    }

    fn record_service_time(&self, seconds: f64) {
        // Racy read-modify-write is fine: this is a smoothed estimate,
        // and a lost update only delays convergence by one sample.
        let next =
            self.service_estimate_s() * (1.0 - SERVICE_EWMA_ALPHA) + seconds * SERVICE_EWMA_ALPHA;
        self.service_ewma_bits
            .store(next.to_bits(), Ordering::Relaxed);
    }

    /// Seconds for the permits to work through `backlog` jobs at the
    /// EWMA service time.
    fn drain_s(&self, backlog: usize) -> f64 {
        backlog as f64 / self.workers as f64 * self.service_estimate_s()
    }

    /// Seconds a rejected client should wait before retrying, derived
    /// from live state: the backlog (`waiting` queued requests plus the
    /// one being rejected, plus the running ones) divided across the
    /// permits, scaled by the EWMA of observed per-job service time.
    /// Clamped to `1..=30`.
    pub(crate) fn retry_after_estimate(&self, waiting: usize) -> u32 {
        let running = self.lock().running;
        retry_after_s(self.drain_s(waiting + 1 + running))
    }

    /// Predicted wait before a job submitted *now* would start: the
    /// current backlog (queued + running) divided across the permits,
    /// scaled by the EWMA service-time estimate. Unlike
    /// [`retry_after_estimate`] this is unclamped and sub-second precise
    /// — it is compared against a request's remaining deadline budget for
    /// admission control, where rounding up to 1 s would shed every
    /// sub-second deadline.
    ///
    /// [`retry_after_estimate`]: WorkerPool::retry_after_estimate
    pub(crate) fn predicted_wait(&self) -> Duration {
        let backlog = {
            let gate = self.lock();
            gate.waiting.len() + gate.running
        };
        Duration::from_secs_f64(self.drain_s(backlog).max(0.0))
    }

    /// `run_ctx` for a caller with no deadline.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, SwwError> {
        self.run_ctx(&RequestCtx::unbounded(), f)
    }

    /// Admit `f`, then run it on this thread and return its result.
    ///
    /// Returns [`SwwError::Saturated`] without running anything when the
    /// queue is full; the
    /// [`DeadlineExceeded`](SwwError::DeadlineExceeded) of `ctx` (counted
    /// as `sww_cancelled_total{site="pool.queue"}`) when `ctx` finishes
    /// before a permit is free; and [`SwwError::Internal`] if `f` panics.
    pub(crate) fn run_ctx<R>(
        &self,
        ctx: &RequestCtx,
        f: impl FnOnce() -> R,
    ) -> Result<R, SwwError> {
        let permit = self.admit(ctx)?;
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        self.record_service_time(started.elapsed().as_secs_f64());
        drop(permit);
        out.map_err(|_| {
            self.count_job("panicked");
            SwwError::Internal {
                reason: "request handler panicked".into(),
            }
        })
    }

    /// Take a permit: refuse, or queue behind every earlier admission
    /// until one is free, leaving early when `ctx` finishes.
    ///
    /// The `pool.enqueue` failpoint ([`crate::faults`]), drawn from
    /// `ctx`'s stream, can force a rejection (indistinguishable from real
    /// saturation, including the `Retry-After` estimate) or delay
    /// admission.
    fn admit(&self, ctx: &RequestCtx) -> Result<Permit<'_>, SwwError> {
        match ctx.fault(FaultSite::PoolEnqueue) {
            Some(FaultAction::Error) | Some(FaultAction::TruncateKeepPct(_)) => {
                return Err(self.reject(self.retry_after_estimate(self.queue_depth())));
            }
            Some(FaultAction::Latency(d)) => std::thread::sleep(d),
            None => {}
        }
        let mut gate = self.lock();
        let queued = gate.running >= self.workers;
        if queued && gate.waiting.len() >= self.queue_capacity {
            let backlog = gate.waiting.len() + 1 + gate.running;
            return Err(self.reject(retry_after_s(self.drain_s(backlog))));
        }
        self.count_job("executed");
        // Permits busy once this request holds one: a hand-over leaves
        // every permit busy.
        let busy = (gate.running + 1).min(self.workers);
        let permit = if queued {
            let me = Arc::new(Waiter {
                thread: std::thread::current(),
                granted: AtomicBool::new(false),
            });
            gate.waiting.push_back(Arc::clone(&me));
            self.set_depth_gauge(gate.waiting.len());
            drop(gate);
            self.wait_turn(&me, ctx).then(|| Permit(self))
        } else {
            gate.running += 1;
            drop(gate);
            Some(Permit(self))
        };
        match permit {
            Some(permit) if !ctx.finished() => {
                self.metrics
                    .histogram("sww_pool_worker_utilization", &[], UTILIZATION_BUCKETS)
                    .observe(busy as f64 / self.workers as f64);
                Ok(permit)
            }
            permit => {
                // A permit taken by a finished request goes straight on.
                drop(permit);
                record_cancelled(&self.metrics, "pool.queue");
                Err(ctx.deadline_error())
            }
        }
    }

    /// Wait until a releasing thread hands `me` its permit (`true`), or
    /// leave the queue when `ctx` finishes first (`false`).
    fn wait_turn(&self, me: &Arc<Waiter>, ctx: &RequestCtx) -> bool {
        loop {
            if me.granted.load(Ordering::Acquire) {
                return true;
            }
            if ctx.finished() {
                let mut gate = self.lock();
                // The permit may have been handed over meanwhile.
                if me.granted.load(Ordering::Acquire) {
                    return true;
                }
                gate.waiting.retain(|waiter| !Arc::ptr_eq(waiter, me));
                self.set_depth_gauge(gate.waiting.len());
                return false;
            }
            // A wake may be spurious: the loop asks again.
            match ctx.remaining() {
                Some(left) => std::thread::park_timeout(left),
                None => std::thread::park(),
            }
        }
    }
}

/// Shared state of one tile fan-out: unclaimed tiles plus the number of
/// tiles currently executing somewhere.
struct TileWork {
    state: Mutex<(VecDeque<TileTask>, usize)>,
    idle: Condvar,
}

/// Decrements the running count even if a tile panics, so the caller's
/// idle wait terminates and surfaces the loss (the kernel panics on the
/// unfilled result slot) instead of hanging.
struct TileRunGuard<'a>(&'a TileWork);

impl Drop for TileRunGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.1 -= 1;
        drop(st);
        self.0.idle.notify_all();
    }
}

impl TileWork {
    /// Claim-and-run tiles until none are left unclaimed.
    fn drain(&self) {
        loop {
            let task = {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                match st.0.pop_front() {
                    Some(task) => {
                        st.1 += 1;
                        task
                    }
                    None => return,
                }
            };
            let guard = TileRunGuard(self);
            task();
            drop(guard);
        }
    }

    /// Block until every tile has been claimed and finished running.
    fn wait_idle(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !st.0.is_empty() || st.1 > 0 {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Put `tasks` in a claim queue, hand `tasks − 1` helpers that drain it
/// to `spawn`, then drain it on this thread and wait for the tiles the
/// helpers claimed. A helper that never starts claims nothing, so every
/// tile runs exactly once whatever `spawn` does with it.
fn fan_out(tasks: Vec<TileTask>, spawn: impl Fn(Box<dyn FnOnce() + Send>)) {
    let helpers = tasks.len().saturating_sub(1);
    let work = Arc::new(TileWork {
        state: Mutex::new((tasks.into(), 0)),
        idle: Condvar::new(),
    });
    for _ in 0..helpers {
        let work = Arc::clone(&work);
        spawn(Box::new(move || work.drain()));
    }
    work.drain();
    work.wait_idle();
}

/// Kernel tiles on the blocking crew — the data-parallel denoise
/// substrate (DESIGN.md "Kernel & memory model").
///
/// The design is *caller-drains*: the tiles go into a shared claim
/// queue, `tiles − 1` helpers go to `tokio::task::spawn_blocking`, and
/// the calling thread then drains the queue itself before waiting for
/// tiles that helpers have already claimed. The crew never seats a job
/// behind a running one, so a helper starts as soon as a thread does; a
/// helper the OS refuses a thread is just a tile the caller runs. The
/// caller never blocks on work that is not actively executing somewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrewRunner;

impl TileRunner for CrewRunner {
    fn run_all(&self, tasks: Vec<TileTask>) {
        fan_out(tasks, |helper| drop(tokio::task::spawn_blocking(helper)));
    }
}

/// A pool used as a tile runner is the [`CrewRunner`]: its permits are
/// for requests, and tiles never take one.
///
/// Temporary: only the benchmark's `genai.batch8_tiles*` probes still
/// hand the kernel a pool, and `benchmark/` is changed only by its own
/// PR (ROADMAP 1(a)(v)), which switches them to `CrewRunner` and
/// deletes this impl.
impl TileRunner for WorkerPool {
    fn run_all(&self, tasks: Vec<TileTask>) {
        CrewRunner.run_all(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Hold one permit of `pool` on a helper thread until the returned
    /// sender is dropped or sent to; returns once the permit is held.
    fn hold_permit(pool: &Arc<WorkerPool>) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let (release, released) = mpsc::channel::<()>();
        let (held, holding) = mpsc::channel();
        let pool = Arc::clone(pool);
        let holder = std::thread::spawn(move || {
            pool.run(|| {
                held.send(()).unwrap();
                let _ = released.recv();
            })
            .unwrap();
        });
        holding.recv().unwrap();
        (release, holder)
    }

    /// Block until `n` admitted requests wait in `pool`'s queue.
    fn until_waiting(pool: &WorkerPool, n: usize) {
        while pool.queue_depth() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(2, 16);
        assert_eq!(pool.worker_count(), 2);
        let caller = std::thread::current().id();
        let (doubled, ran_on) = pool.run(|| (21 * 2, std::thread::current().id())).unwrap();
        assert_eq!(doubled, 42);
        assert_eq!(ran_on, caller, "a job runs on the thread that asked");
    }

    #[test]
    fn parallel_submissions_all_complete() {
        let pool = WorkerPool::new(4, 64);
        let total = AtomicU64::new(0);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..10u64 {
                        let got = pool
                            .run(|| {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::yield_now();
                                running.fetch_sub(1, Ordering::SeqCst);
                                i
                            })
                            .unwrap();
                        total.fetch_add(got, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 45);
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "more jobs ran than permits"
        );
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn saturation_rejects_with_the_backlogs_retry_after() {
        let pool = Arc::new(WorkerPool::new(1, 1));
        // A slow estimate, so the advice says something about the backlog.
        pool.service_ewma_bits
            .store(4.0f64.to_bits(), Ordering::Relaxed);
        let (release, holder) = hold_permit(&pool);
        let queued = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.run(|| ()))
        };
        until_waiting(&pool, 1);
        // Queue full: the next submission is rejected, not queued, and
        // told to wait for the backlog (1 waiting + itself + 1 running)
        // at 4 s each on one permit.
        let ran = AtomicUsize::new(0);
        match pool.run(|| ran.fetch_add(1, Ordering::SeqCst)) {
            Err(SwwError::Saturated { retry_after_s }) => assert_eq!(retry_after_s, 12),
            other => panic!("expected Saturated, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        drop(release);
        holder.join().unwrap();
        queued
            .join()
            .unwrap()
            .expect("the queued request was admitted");
    }

    #[test]
    fn retry_after_scales_with_waiters() {
        let pool = WorkerPool::new(2, 64);
        // Pin the estimate so the test is about the depth scaling, not
        // the EWMA convergence.
        pool.service_ewma_bits
            .store(1.0f64.to_bits(), Ordering::Relaxed);
        let shallow = pool.retry_after_estimate(0);
        let deep = pool.retry_after_estimate(40);
        assert!(shallow >= 1);
        assert!(
            deep > shallow,
            "deeper queue must advise a longer wait ({shallow} vs {deep})"
        );
        assert!(deep <= 30, "advice is clamped");
    }

    #[test]
    fn service_estimate_tracks_observed_jobs() {
        let pool = WorkerPool::new(1, 8);
        // Fast jobs should pull the 1 s prior down substantially.
        for _ in 0..32 {
            pool.run(|| ()).unwrap();
        }
        assert!(
            pool.service_estimate_s() < SERVICE_TIME_PRIOR_S / 2.0,
            "estimate {} never converged",
            pool.service_estimate_s()
        );
    }

    #[test]
    fn predicted_wait_scales_with_backlog_and_estimate() {
        let pool = Arc::new(WorkerPool::new(2, 64));
        pool.service_ewma_bits
            .store(2.0f64.to_bits(), Ordering::Relaxed);
        // Idle gate: nothing queued, nothing running — zero wait.
        assert_eq!(pool.predicted_wait(), Duration::ZERO);
        // Both permits held and two more queued: a backlog of 4 over 2
        // permits at 2 s each predicts 4 s.
        let holders: Vec<_> = (0..2).map(|_| hold_permit(&pool)).collect();
        let queued: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run(|| ()))
            })
            .collect();
        until_waiting(&pool, 2);
        assert_eq!(pool.predicted_wait(), Duration::from_secs(4));
        for (release, holder) in holders {
            drop(release);
            holder.join().unwrap();
        }
        for q in queued {
            q.join().unwrap().unwrap();
        }
    }

    #[test]
    fn a_panicking_job_is_internal_and_the_gate_keeps_serving() {
        let pool = WorkerPool::new(1, 8);
        let err = pool.run(|| panic!("job dies")).unwrap_err();
        assert!(matches!(err, SwwError::Internal { .. }), "{err:?}");
        // The permit came back with the unwind.
        assert_eq!(pool.run(|| 7).unwrap(), 7);
        assert_eq!(pool.lock().running, 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let pool = Arc::new(WorkerPool::new(1, 16));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (release, holder) = hold_permit(&pool);
        let mut waiters = Vec::new();
        for i in 0..6 {
            let (waiting, order) = (Arc::clone(&pool), Arc::clone(&order));
            waiters.push(std::thread::spawn(move || {
                waiting.run(|| order.lock().unwrap().push(i)).unwrap();
            }));
            // Arrive one at a time.
            until_waiting(&pool, i + 1);
        }
        drop(release);
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    /// A waiter leaves at its deadline, not when a permit frees, and the
    /// one behind it moves up.
    #[test]
    fn a_waiter_leaves_the_queue_at_its_deadline() {
        let pool = Arc::new(WorkerPool::new(1, 16));
        let ran = Arc::new(AtomicUsize::new(0));
        let (release, holder) = hold_permit(&pool);
        let bounded = {
            let (pool, ran) = (Arc::clone(&pool), Arc::clone(&ran));
            std::thread::spawn(move || {
                let ctx = RequestCtx::new(Some(Duration::from_millis(30)), None);
                pool.run_ctx(&ctx, || ran.fetch_add(1, Ordering::SeqCst))
            })
        };
        // Queue the patient waiter behind the bounded one (unless that
        // one has already come and gone).
        while pool.queue_depth() == 0 && !bounded.is_finished() {
            std::thread::yield_now();
        }
        let patient = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.run(|| "patient"))
        };
        // The permit is still held: the bounded waiter left on its own.
        let left = bounded.join().unwrap();
        assert!(
            matches!(left, Err(SwwError::DeadlineExceeded { budget_ms: 30 })),
            "{left:?}"
        );
        until_waiting(&pool, 1);
        assert_eq!(pool.queue_depth(), 1, "only the patient waiter is left");
        // ...and it is first in line now.
        drop(release);
        holder.join().unwrap();
        assert_eq!(patient.join().unwrap().unwrap(), "patient");
        // A request that is finished on arrival never runs, even on an
        // idle gate.
        let expired = RequestCtx::new(Some(Duration::ZERO), None);
        assert!(pool
            .run_ctx(&expired, || ran.fetch_add(1, Ordering::SeqCst))
            .is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    /// Each released permit goes to a waiter of its own: two releases
    /// admit two waiters, which then run side by side.
    #[test]
    fn every_free_permit_admits_a_waiter() {
        let pool = Arc::new(WorkerPool::new(2, 16));
        let holders: Vec<_> = (0..2).map(|_| hold_permit(&pool)).collect();
        let both = Arc::new(std::sync::Barrier::new(2));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (pool, both) = (Arc::clone(&pool), Arc::clone(&both));
                std::thread::spawn(move || pool.run(|| both.wait()).unwrap())
            })
            .collect();
        until_waiting(&pool, 2);
        for (release, holder) in holders {
            drop(release);
            holder.join().unwrap();
        }
        // Each waiter blocks until the other runs too.
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(pool.lock().running, 0);
    }

    /// `n` tiles, each counting its own runs.
    fn counted_tiles(n: usize) -> (Vec<TileTask>, Arc<Vec<AtomicUsize>>) {
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let tasks = (0..n)
            .map(|i| {
                let runs = Arc::clone(&runs);
                Box::new(move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                }) as TileTask
            })
            .collect();
        (tasks, runs)
    }

    fn each_ran_once(runs: &[AtomicUsize]) -> bool {
        runs.iter().all(|r| r.load(Ordering::SeqCst) == 1)
    }

    #[test]
    fn the_crew_runs_every_tile_exactly_once() {
        for n in [1, 2, 3, 16] {
            let (tasks, runs) = counted_tiles(n);
            CrewRunner.run_all(tasks);
            assert!(each_ran_once(&runs), "{n} tiles");
        }
        // A pool lends its tiles to the same runner.
        let (tasks, runs) = counted_tiles(5);
        WorkerPool::new(1, 1).run_all(tasks);
        assert!(each_ran_once(&runs));
    }

    #[test]
    fn a_helper_that_never_starts_is_a_tile_the_caller_runs() {
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let tasks = (0..8)
            .map(|_| {
                let ran_on = Arc::clone(&ran_on);
                Box::new(move || ran_on.lock().unwrap().push(std::thread::current().id()))
                    as TileTask
            })
            .collect();
        // Every helper is dropped unrun, as when the OS refuses a thread.
        fan_out(tasks, drop);
        assert_eq!(*ran_on.lock().unwrap(), vec![caller; 8]);
        // Helpers that start late find nothing left and still end.
        let (tasks, runs) = counted_tiles(4);
        let late = Mutex::new(Vec::new());
        fan_out(tasks, |helper| late.lock().unwrap().push(helper));
        assert!(each_ran_once(&runs));
        for helper in late.into_inner().unwrap() {
            helper();
        }
        assert!(each_ran_once(&runs));
    }

    #[test]
    fn an_empty_tile_batch_is_a_no_op() {
        CrewRunner.run_all(Vec::new());
        fan_out(Vec::new(), |_| panic!("no helper for no tiles"));
    }
}
