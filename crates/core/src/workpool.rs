//! A fixed-size worker pool with a bounded queue and explicit
//! backpressure, built on `std::thread` only.
//!
//! This is the execution substrate of the concurrent serving engine: the
//! server front ends hand each request to the pool and block for the
//! response, so at most `workers` requests execute at once and at most
//! `queue_capacity` wait. When the queue is full, [`WorkerPool::run`]
//! fails fast with [`SwwError::Saturated`] — the server maps that to
//! `503` + `Retry-After` instead of letting latency grow without bound.
//!
//! Observability: `sww_pool_queue_depth` (gauge) tracks waiting jobs,
//! `sww_pool_jobs_total{result=executed|rejected}` counts admissions,
//! and `sww_pool_worker_utilization` (histogram) records the busy-worker
//! fraction sampled at each job start.

use crate::error::SwwError;
use crate::faults::{self, FaultAction, FaultSite};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sww_genai::diffusion::{TileRunner, TileTask};

/// EWMA smoothing factor for the per-job service-time estimate: each
/// completed job contributes 20% of the new estimate.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

/// Default starting guess for per-job service time until real samples
/// arrive. This cold-start prior drives both `Retry-After` advice and
/// deadline-aware admission control before the first job completes, so
/// deployments whose jobs are far from 1 s should override it via
/// [`WorkerPool::with_service_prior`] (surfaced as
/// `ServerConfig::service_time_prior_s`). A deliberately
/// pessimistic prior sheds deadline-bounded work aggressively while the
/// pool is cold; a tiny prior admits everything until the EWMA learns
/// better.
pub const SERVICE_TIME_PRIOR_S: f64 = 1.0;

/// Buckets for the busy-worker fraction (0..=1].
const UTILIZATION_BUCKETS: &[f64] = &[0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    queue_capacity: usize,
    workers: usize,
    active: AtomicUsize,
    /// EWMA of observed per-job service time, stored as `f64` bits so
    /// workers can update it without a lock.
    service_ewma_bits: AtomicU64,
}

impl PoolShared {
    fn set_depth_gauge(&self, depth: usize) {
        sww_obs::gauge("sww_pool_queue_depth", &[]).set(depth as f64);
    }

    fn service_estimate_s(&self) -> f64 {
        f64::from_bits(self.service_ewma_bits.load(Ordering::Relaxed))
    }

    fn record_service_time(&self, seconds: f64) {
        // Racy read-modify-write is fine: this is a smoothed estimate,
        // and a lost update only delays convergence by one sample.
        let prev = self.service_estimate_s();
        let next = prev * (1.0 - SERVICE_EWMA_ALPHA) + seconds * SERVICE_EWMA_ALPHA;
        self.service_ewma_bits
            .store(next.to_bits(), Ordering::Relaxed);
    }
}

/// Restores the active-worker count even if a job panics.
struct ActiveGuard<'a>(&'a PoolShared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A fixed set of worker threads draining a bounded job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.shared.workers)
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` threads (clamped to at least 1) sharing a queue
    /// that holds at most `queue_capacity` waiting jobs, with the default
    /// [`SERVICE_TIME_PRIOR_S`] cold-start service-time estimate.
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        WorkerPool::with_service_prior(workers, queue_capacity, SERVICE_TIME_PRIOR_S)
    }

    /// [`new`](WorkerPool::new) with an explicit cold-start service-time
    /// prior (seconds per job, clamped to a sane positive range). The
    /// prior seeds the EWMA that backs [`retry_after_estimate`] and
    /// [`predicted_wait`]; real samples take over as jobs complete.
    ///
    /// [`retry_after_estimate`]: WorkerPool::retry_after_estimate
    /// [`predicted_wait`]: WorkerPool::predicted_wait
    pub fn with_service_prior(workers: usize, queue_capacity: usize, prior_s: f64) -> WorkerPool {
        let workers = workers.max(1);
        let prior_s = if prior_s.is_finite() {
            prior_s.clamp(1e-6, 3600.0)
        } else {
            SERVICE_TIME_PRIOR_S
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            queue_capacity,
            workers,
            active: AtomicUsize::new(0),
            service_ewma_bits: AtomicU64::new(prior_s.to_bits()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sww-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .len()
    }

    /// Seconds a rejected client should wait before retrying, derived
    /// from live pool state: the backlog (`waiting` queued jobs plus the
    /// one being rejected, plus currently busy workers) divided across
    /// the workers, scaled by the EWMA of observed per-job service time.
    /// Clamped to `1..=30` so advice stays sane under estimate noise.
    pub fn retry_after_estimate(&self, waiting: usize) -> u32 {
        let backlog = waiting + 1 + self.shared.active.load(Ordering::Relaxed);
        let drain_s =
            (backlog as f64 / self.shared.workers.max(1) as f64) * self.shared.service_estimate_s();
        (drain_s.ceil() as u64).clamp(1, 30) as u32
    }

    /// Predicted wait before a job submitted *now* would start: the
    /// current backlog (queued + busy) divided across workers, scaled by
    /// the EWMA service-time estimate. Unlike [`retry_after_estimate`]
    /// this is unclamped and sub-second precise — it is compared against
    /// a request's remaining deadline budget for admission control, where
    /// rounding up to 1 s would shed every sub-second deadline.
    ///
    /// [`retry_after_estimate`]: WorkerPool::retry_after_estimate
    pub fn predicted_wait(&self) -> Duration {
        let backlog = self.queue_depth() + self.shared.active.load(Ordering::Relaxed);
        let wait_s =
            (backlog as f64 / self.shared.workers.max(1) as f64) * self.shared.service_estimate_s();
        Duration::from_secs_f64(wait_s.max(0.0))
    }

    /// Enqueue a fire-and-forget job, failing fast when the queue is
    /// full instead of blocking the caller.
    ///
    /// The `pool.enqueue` failpoint ([`crate::faults`]) can force a
    /// rejection (indistinguishable from real saturation, including the
    /// `Retry-After` estimate) or delay admission.
    pub fn try_execute(&self, job: Job) -> Result<(), SwwError> {
        match faults::at(FaultSite::PoolEnqueue) {
            Some(FaultAction::Error) | Some(FaultAction::TruncateKeepPct(_)) => {
                sww_obs::counter("sww_pool_jobs_total", &[("result", "rejected")]).inc();
                let retry_after_s = self.retry_after_estimate(self.queue_depth());
                return Err(SwwError::Saturated { retry_after_s });
            }
            Some(FaultAction::Latency(d)) => std::thread::sleep(d),
            None => {}
        }
        let depth = {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // A stopping pool rejects instead of accepting a job no
            // worker will ever pick up (which would strand a `run()`
            // caller on its result slot forever).
            if q.shutdown {
                sww_obs::counter("sww_pool_jobs_total", &[("result", "rejected")]).inc();
                return Err(SwwError::Saturated { retry_after_s: 1 });
            }
            if q.jobs.len() >= self.shared.queue_capacity {
                sww_obs::counter("sww_pool_jobs_total", &[("result", "rejected")]).inc();
                return Err(SwwError::Saturated {
                    retry_after_s: self.retry_after_estimate(q.jobs.len()),
                });
            }
            q.jobs.push_back(job);
            q.jobs.len()
        };
        self.shared.set_depth_gauge(depth);
        sww_obs::counter("sww_pool_jobs_total", &[("result", "executed")]).inc();
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Run `f` on a worker and block until its result is available.
    /// Returns [`SwwError::Saturated`] without running anything when the
    /// queue is full, and [`SwwError::Internal`] if `f` panics.
    pub fn run<R, F>(&self, f: F) -> Result<R, SwwError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        type Outcome<R> = std::thread::Result<R>;
        let slot: Arc<(Mutex<Option<Outcome<R>>>, Condvar)> =
            Arc::new((Mutex::new(None), Condvar::new()));
        let publish = Arc::clone(&slot);
        self.try_execute(Box::new(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            *publish.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            publish.1.notify_all();
        }))?;
        let (lock, ready) = &*slot;
        let mut result = lock.lock().unwrap_or_else(|e| e.into_inner());
        while result.is_none() {
            result = ready.wait(result).unwrap_or_else(|e| e.into_inner());
        }
        result
            .take()
            .expect("slot filled")
            .map_err(|_| SwwError::Internal {
                reason: "request handler panicked on a pool worker".into(),
            })
    }
}

impl WorkerPool {
    /// Stop the pool: **drain, then join**. Explicit semantics:
    ///
    /// * Jobs already queued when `stop` is called are **completed** —
    ///   each was admitted with a success return from
    ///   [`try_execute`](WorkerPool::try_execute)/[`run`](WorkerPool::run),
    ///   and that admission is a promise. Workers drain the queue to
    ///   empty before exiting.
    /// * Jobs submitted *after* `stop` are **rejected** with
    ///   [`SwwError::Saturated`] — never silently dropped, and never
    ///   accepted into a queue no worker will drain (the pre-stop race
    ///   that could strand a `run()` caller forever).
    /// * `stop` blocks until every worker thread has exited, and is
    ///   idempotent (`Drop` calls it too).
    pub fn stop(&mut self) {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Shared state of one [`TileRunner::run_all`] fan-out: unclaimed tiles
/// plus the number of tiles currently executing somewhere.
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
    fn new(tasks: Vec<TileTask>) -> TileWork {
        TileWork {
            state: Mutex::new((tasks.into(), 0)),
            idle: Condvar::new(),
        }
    }

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

/// Kernel tiles on the worker pool — the data-parallel denoise substrate
/// (PERFORMANCE.md "Kernel & memory model").
///
/// The design is *caller-drains*: the tasks go into a shared claim queue,
/// up to `tasks - 1` helper jobs are enqueued on the pool, and the
/// calling thread then drains the queue itself before waiting for tiles
/// that helpers have already claimed. Every tile is therefore executed
/// exactly once by *someone*, and the call makes progress even when
///
/// * the pool is saturated or stopping (helper enqueue rejects — the
///   caller simply runs every tile inline, sequential-kernel behaviour),
/// * helpers are stuck behind a long queue (whatever they have not
///   claimed by the time the caller gets to it, the caller runs).
///
/// The result is a hard no-deadlock guarantee: the caller never blocks
/// on work that is not actively executing on some thread.
impl TileRunner for WorkerPool {
    fn run_all(&self, tasks: Vec<TileTask>) {
        if tasks.is_empty() {
            return;
        }
        let helpers = tasks.len().saturating_sub(1).min(self.worker_count());
        let work = Arc::new(TileWork::new(tasks));
        for _ in 0..helpers {
            let w = Arc::clone(&work);
            if self.try_execute(Box::new(move || w.drain())).is_err() {
                break; // saturated or stopping: the caller drains alone
            }
        }
        work.drain();
        work.wait_idle();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    shared.set_depth_gauge(q.jobs.len());
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.job_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let busy = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
        let guard = ActiveGuard(shared);
        sww_obs::histogram("sww_pool_worker_utilization", &[], UTILIZATION_BUCKETS)
            .observe(busy as f64 / shared.workers as f64);
        // A panicking job must not take the worker thread down with it;
        // `run` observes the panic through its result slot.
        let started = Instant::now();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            sww_obs::counter("sww_pool_jobs_total", &[("result", "panicked")]).inc();
        }
        shared.record_service_time(started.elapsed().as_secs_f64());
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(2, 16);
        assert_eq!(pool.worker_count(), 2);
        let doubled = pool.run(|| 21 * 2).unwrap();
        assert_eq!(doubled, 42);
    }

    #[test]
    fn parallel_submissions_all_complete() {
        let pool = Arc::new(WorkerPool::new(4, 64));
        let total = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for i in 0..10u64 {
                        let got = pool.run(move || i).unwrap();
                        total.fetch_add(got, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * 45);
    }

    #[test]
    fn saturation_rejects_with_retry_after() {
        let pool = WorkerPool::new(1, 1);
        // Occupy the only worker until released.
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(Box::new(move || {
            g.wait();
        }))
        .unwrap();
        // Give the worker a moment to pick the blocking job up, then fill
        // the single queue slot.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_execute(Box::new(|| {})).unwrap();
        // Queue full: the next submission must be rejected, not queued.
        let err = pool.run(|| ()).unwrap_err();
        match err {
            SwwError::Saturated { retry_after_s } => assert!(retry_after_s >= 1),
            other => panic!("expected Saturated, got {other:?}"),
        }
        gate.wait();
    }

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let pool = WorkerPool::new(2, 64);
        // Pin the estimate so the test is about the depth scaling, not
        // the EWMA convergence.
        pool.shared
            .service_ewma_bits
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
            pool.shared.service_estimate_s() < SERVICE_TIME_PRIOR_S / 2.0,
            "estimate {} never converged",
            pool.shared.service_estimate_s()
        );
    }

    /// Regression for the shutdown race: a job submitted after `stop()`
    /// used to be accepted into a queue no worker would ever drain,
    /// stranding its `run()` caller on the result slot forever. It must
    /// be rejected instead — and jobs queued *before* the stop must all
    /// complete (drain-then-join).
    #[test]
    fn stop_drains_queued_jobs_and_rejects_late_submissions() {
        let mut pool = WorkerPool::new(1, 16);
        let completed = Arc::new(AtomicU64::new(0));
        // Park the single worker so follow-up jobs genuinely queue.
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(Box::new(move || {
            g.wait();
        }))
        .unwrap();
        for _ in 0..5 {
            let completed = Arc::clone(&completed);
            pool.try_execute(Box::new(move || {
                completed.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        // Release the worker and stop: the 5 queued jobs are a promise.
        gate.wait();
        pool.stop();
        assert_eq!(completed.load(Ordering::SeqCst), 5, "queued jobs complete");
        // Post-stop submissions reject fast instead of hanging.
        let err = pool.run(|| ()).unwrap_err();
        assert!(matches!(err, SwwError::Saturated { .. }), "{err:?}");
        let err = pool.try_execute(Box::new(|| ())).unwrap_err();
        assert!(matches!(err, SwwError::Saturated { .. }), "{err:?}");
        // stop() is idempotent; Drop will call it again harmlessly.
        pool.stop();
    }

    #[test]
    fn service_prior_knob_seeds_the_estimate() {
        let slow = WorkerPool::with_service_prior(2, 8, 10.0);
        assert_eq!(slow.shared.service_estimate_s(), 10.0);
        // The estimate feeds retry advice: a 10 s prior with one busy
        // backlog slot advises ~5 s, not the default-prior ~1 s.
        assert!(slow.retry_after_estimate(8) > WorkerPool::new(2, 8).retry_after_estimate(8));
        // Degenerate priors are clamped, not honoured.
        let weird = WorkerPool::with_service_prior(1, 4, f64::NAN);
        assert_eq!(weird.shared.service_estimate_s(), SERVICE_TIME_PRIOR_S);
    }

    #[test]
    fn predicted_wait_scales_with_backlog_and_estimate() {
        let pool = WorkerPool::with_service_prior(2, 64, 2.0);
        // Idle pool: nothing queued, nothing active — zero wait.
        assert_eq!(pool.predicted_wait(), Duration::ZERO);
        // Park both workers and queue two more: backlog 4 over 2 workers
        // at 2 s each predicts ~4 s (active count may lag admission, so
        // accept the 2 s floor from the queued jobs alone).
        let gate = Arc::new(Barrier::new(3));
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            pool.try_execute(Box::new(move || {
                g.wait();
            }))
            .unwrap();
        }
        while pool.shared.active.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            pool.try_execute(Box::new(|| {})).unwrap();
        }
        let predicted = pool.predicted_wait();
        assert!(
            predicted >= Duration::from_secs(2),
            "backlog of 4 at 2s prior predicted only {predicted:?}"
        );
        gate.wait();
    }

    fn tile_tasks(n: usize, hits: &Arc<AtomicU64>) -> Vec<TileTask> {
        (0..n)
            .map(|_| {
                let hits = Arc::clone(hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as TileTask
            })
            .collect()
    }

    #[test]
    fn pool_runner_executes_every_tile() {
        let pool = WorkerPool::new(4, 64);
        let hits = Arc::new(AtomicU64::new(0));
        TileRunner::run_all(&pool, tile_tasks(16, &hits));
        assert_eq!(hits.load(Ordering::SeqCst), 16);
        // And again: the runner is reusable across batches.
        TileRunner::run_all(&pool, tile_tasks(3, &hits));
        assert_eq!(hits.load(Ordering::SeqCst), 19);
    }

    #[test]
    fn saturated_pool_degrades_to_inline_tiles() {
        // One worker, parked; queue full. Helper enqueue rejects, so the
        // caller must drain every tile itself — no deadlock, no loss.
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(Box::new(move || {
            g.wait();
        }))
        .unwrap();
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_execute(Box::new(|| {})).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        TileRunner::run_all(&pool, tile_tasks(8, &hits));
        assert_eq!(hits.load(Ordering::SeqCst), 8, "caller drained alone");
        gate.wait();
    }

    #[test]
    fn stopped_pool_still_runs_tiles_inline() {
        let mut pool = WorkerPool::new(2, 8);
        pool.stop();
        let hits = Arc::new(AtomicU64::new(0));
        TileRunner::run_all(&pool, tile_tasks(5, &hits));
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn empty_tile_batch_is_a_no_op() {
        let pool = WorkerPool::new(1, 4);
        TileRunner::run_all(&pool, Vec::new());
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1, 8);
        let err = pool.run(|| panic!("job dies")).unwrap_err();
        assert!(matches!(err, SwwError::Internal { .. }), "{err:?}");
        // The single worker survived the panic and still executes jobs.
        assert_eq!(pool.run(|| 7).unwrap(), 7);
    }
}
