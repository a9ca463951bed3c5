//! E15 — concurrent serving engine: throughput vs. worker count.
//!
//! Naive (non-generative) sessions drive server-side generation from many
//! threads at once, so every request exercises the sharded cache and the
//! single-flight coalescer. The sweep holds the workload fixed (threads ×
//! requests over a small set of unique prompts) and varies only the worker
//! pool size, reporting throughput plus the engine's amortization
//! counters: generation count (must equal the number of unique prompts at
//! every pool size) and coalesced requests (everyone else).
//!
//! When a chaos spec is installed (`sww_core::faults` — e.g. via
//! `sww bench-concurrent --chaos`), the sweep also reports faults
//! injected during each sample, and the client loop treats injected
//! `500`/`502` like saturation `503`s: retry until the request lands.
//! With chaos off the fault column reads zero and behaviour is
//! identical to the pre-fault-layer bench.

use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sww_core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww_html::gencontent;
use sww_http2::Request;

/// One worker-count sample of the sweep.
#[derive(Debug, Clone)]
pub struct ConcurrencySample {
    /// Pool size (0 = inline handling, no pool).
    pub workers: usize,
    /// Requests completed per wall-clock second.
    pub throughput_rps: f64,
    /// Generations actually run (single-flight: one per unique prompt).
    pub generations: u64,
    /// Requests amortized onto another request's generation.
    pub coalesced: u64,
    /// Transient failures absorbed by client retry: saturation 503s,
    /// plus injected-fault 500/502s when chaos is installed.
    pub rejected: u64,
    /// Faults injected by the chaos layer during this sample (0 when
    /// chaos is off).
    pub faults: u64,
    /// Jobs the worker pool executed during this sample (0 for inline
    /// handling). The pool counter lives in the **global** metrics
    /// registry, so this is a before/after delta — reading the raw
    /// counter would make later sweep rows cumulative.
    pub pool_jobs: u64,
    /// Requests shed at admission during this sample (global
    /// `sww_shed_total` delta, summed over reasons).
    pub shed: u64,
    /// Cancellations that took effect during this sample (global
    /// `sww_cancelled_total` delta, summed over sites).
    pub cancelled: u64,
    /// Deadline misses answered `504` during this sample (global
    /// `sww_deadline_exceeded_total` delta).
    pub deadline_misses: u64,
    /// Median request latency in milliseconds (successful attempt only —
    /// a retried request's clock restarts with its fresh budget).
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
}

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyConfig {
    /// Client threads issuing requests.
    pub threads: usize,
    /// Requests per thread.
    pub requests: usize,
    /// Unique prompts (= unique pages) in the site.
    pub prompts: usize,
    /// Batch-scheduler cap passed to the server (1 disables batching,
    /// preserving the original E15 configuration exactly).
    pub batch_max: usize,
    /// Batch-wait deadline in milliseconds (ignored when `batch_max`
    /// is 1).
    pub batch_wait_ms: u64,
    /// Per-request deadline budget in milliseconds (`None` preserves the
    /// original unbounded behaviour). With a deadline set, `504`s and
    /// admission sheds join the retryable set.
    pub deadline_ms: Option<u64>,
    /// Circuit-breaker tuning as `(failure_threshold, cooldown_ms)`;
    /// `None` leaves the breaker off.
    pub breaker: Option<(u32, u64)>,
    /// Data-parallel denoise lanes inside each batched kernel pass
    /// (1 = scalar kernel; ignored when `batch_max` is 1).
    pub kernel_tiles: usize,
}

impl Default for ConcurrencyConfig {
    fn default() -> ConcurrencyConfig {
        ConcurrencyConfig {
            threads: 8,
            requests: 50,
            prompts: 10,
            batch_max: 1,
            batch_wait_ms: 2,
            deadline_ms: None,
            breaker: None,
            kernel_tiles: 1,
        }
    }
}

/// Percentile over a latency set, by nearest-rank on the sorted samples.
/// Shared with the E17 kernel sweep. Returns 0 for an empty set.
pub(crate) fn percentile_ms(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sweep workload: one page per unique prompt, each carrying one
/// 64×64 generated-content image. Shared with the E16 batching sweep.
pub(crate) fn bench_site(prompts: usize) -> SiteContent {
    let mut site = SiteContent::new();
    for p in 0..prompts {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(
                    &format!("bench prompt {p} distant headland"),
                    &format!("bench{p}.jpg"),
                    64,
                    64,
                )
            ),
        );
    }
    site
}

/// The pool's executed-jobs counter from the global metrics registry.
fn pool_jobs_executed() -> u64 {
    sww_obs::counter("sww_pool_jobs_total", &[("result", "executed")]).get()
}

/// Lifecycle counters from the global registry: `(shed, cancelled,
/// deadline_misses)`. Labelled series are summed over their documented
/// label values. Shared with the E16 sweep.
pub(crate) fn lifecycle_counters() -> (u64, u64, u64) {
    let shed = ["deadline", "breaker", "draining"]
        .iter()
        .map(|r| sww_obs::counter("sww_shed_total", &[("reason", r)]).get())
        .sum();
    let cancelled = [
        "engine.wait",
        "engine.handoff",
        "denoise",
        "batch.wait",
        "pool.queue",
    ]
    .iter()
    .map(|s| sww_obs::counter("sww_cancelled_total", &[("site", s)]).get())
    .sum();
    let misses = sww_obs::counter("sww_deadline_exceeded_total", &[]).get();
    (shed, cancelled, misses)
}

/// Run one worker-count sample. Every reported number is **per-sample**:
/// engine counters come from the sample's own fresh server, and
/// global-registry counters (faults, pool jobs, lifecycle) are
/// before/after deltas.
pub fn sample(cfg: ConcurrencyConfig, workers: usize) -> ConcurrencySample {
    let server = GenerativeServer::from_config(ServerConfig {
        site: bench_site(cfg.prompts),
        workers,
        batch_max: cfg.batch_max,
        batch_wait: Duration::from_millis(cfg.batch_wait_ms),
        kernel_tiles: cfg.kernel_tiles,
        default_deadline: cfg.deadline_ms.map(Duration::from_millis),
        breaker: cfg
            .breaker
            .map(|(failure_threshold, cooldown_ms)| sww_core::BreakerConfig {
                failure_threshold,
                cooldown: Duration::from_millis(cooldown_ms),
            }),
        ..ServerConfig::default()
    });
    let rejected = AtomicU64::new(0);
    let latencies_ms = Mutex::new(Vec::with_capacity(cfg.threads * cfg.requests));
    let faults_before = sww_core::faults::injected_total();
    let pool_jobs_before = pool_jobs_executed();
    let (shed_before, cancelled_before, misses_before) = lifecycle_counters();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let session = server.accept(GenAbility::none());
            let rejected = &rejected;
            let latencies_ms = &latencies_ms;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(cfg.requests);
                for i in 0..cfg.requests {
                    let path = format!("/page/{}", (i + t) % cfg.prompts);
                    loop {
                        let attempt = Instant::now();
                        let resp = session.handle(&Request::get(&path));
                        // 504 joins the retryable set: a missed deadline
                        // is transient — the retry carries a fresh budget.
                        if !matches!(resp.status, 500 | 502 | 503 | 504) {
                            assert_eq!(resp.status, 200, "GET {path}");
                            mine.push(attempt.elapsed().as_secs_f64() * 1e3);
                            break;
                        }
                        rejected.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                latencies_ms
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (shed_after, cancelled_after, misses_after) = lifecycle_counters();
    let mut latencies_ms = latencies_ms.into_inner().unwrap_or_else(|e| e.into_inner());
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    ConcurrencySample {
        workers,
        throughput_rps: (cfg.threads * cfg.requests) as f64 / elapsed.max(1e-9),
        generations: server.engine().generations(),
        coalesced: server.engine().coalesced(),
        rejected: rejected.load(Ordering::Relaxed),
        faults: sww_core::faults::injected_total() - faults_before,
        pool_jobs: pool_jobs_executed() - pool_jobs_before,
        shed: shed_after - shed_before,
        cancelled: cancelled_after - cancelled_before,
        deadline_misses: misses_after - misses_before,
        p50_ms: percentile_ms(&latencies_ms, 50.0),
        p99_ms: percentile_ms(&latencies_ms, 99.0),
    }
}

/// Sweep throughput over worker counts (0 = inline baseline).
pub fn run(cfg: ConcurrencyConfig, worker_counts: &[usize]) -> Vec<ConcurrencySample> {
    worker_counts.iter().map(|&w| sample(cfg, w)).collect()
}

/// Render as a table.
pub fn table(cfg: ConcurrencyConfig, samples: &[ConcurrencySample]) -> Table {
    let mut t = Table::new(
        format!(
            "E15 — Concurrent serving: throughput vs. workers \
             ({} threads x {} requests, {} unique prompts)",
            cfg.threads, cfg.requests, cfg.prompts
        ),
        &[
            "Workers",
            "Throughput",
            "p50/p99 ms",
            "Generations",
            "Coalesced",
            "Rejected",
            "Faults",
            "PoolJobs",
            "Shed/Cxl",
            "504s",
        ],
    );
    for s in samples {
        t.row([
            if s.workers == 0 {
                "inline".to_string()
            } else {
                s.workers.to_string()
            },
            format!("{:.0}/s", s.throughput_rps),
            format!("{:.2}/{:.2}", s.p50_ms, s.p99_ms),
            s.generations.to_string(),
            s.coalesced.to_string(),
            s.rejected.to_string(),
            s.faults.to_string(),
            s.pool_jobs.to_string(),
            format!("{}/{}", s.shed, s.cancelled),
            s.deadline_misses.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flight_holds_at_every_pool_size() {
        let _serial = super::super::POOL_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = ConcurrencyConfig {
            threads: 4,
            requests: 10,
            prompts: 5,
            ..ConcurrencyConfig::default()
        };
        for s in run(cfg, &[0, 2]) {
            // Exactly one generation per unique prompt, regardless of
            // concurrency; everyone else shares.
            assert_eq!(s.generations, cfg.prompts as u64, "workers={}", s.workers);
            assert_eq!(
                s.coalesced,
                (cfg.threads * cfg.requests - cfg.prompts) as u64,
                "workers={}",
                s.workers
            );
        }
    }

    #[test]
    fn table_renders_all_samples() {
        let _serial = super::super::POOL_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = ConcurrencyConfig {
            threads: 2,
            requests: 5,
            prompts: 2,
            ..ConcurrencyConfig::default()
        };
        let samples = run(cfg, &[0, 1]);
        let t = table(cfg, &samples);
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("inline"));
    }

    /// Regression: sweep rows must be per-sample, not cumulative. The
    /// pool counter lives in the global metrics registry and only grows
    /// across a process, so without the before/after delta every later
    /// row would also carry all earlier rows' jobs.
    #[test]
    fn pool_jobs_are_per_sample_not_cumulative() {
        let _serial = super::super::POOL_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = ConcurrencyConfig {
            threads: 2,
            requests: 5,
            prompts: 2,
            ..ConcurrencyConfig::default()
        };
        let expected = (cfg.threads * cfg.requests) as u64;
        // Two pooled samples in sequence: each must report exactly its
        // own jobs even though the underlying counter has doubled.
        let first = sample(cfg, 2);
        let second = sample(cfg, 2);
        assert_eq!(first.pool_jobs, expected);
        assert_eq!(
            second.pool_jobs, expected,
            "second row must not be cumulative"
        );
        // Inline handling uses no pool at all.
        assert_eq!(sample(cfg, 0).pool_jobs, 0);
    }
}
