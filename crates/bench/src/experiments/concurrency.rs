//! E15 — concurrent serving engine: throughput vs. worker count.
//!
//! Naive (non-generative) sessions drive server-side generation from many
//! threads at once, so every request exercises the sharded cache and the
//! single-flight coalescer. The sweep holds the workload fixed (threads ×
//! requests over a small set of unique prompts) and varies only the worker
//! pool size, reporting throughput plus the engine's amortization
//! counters: generation count (must equal the number of unique prompts at
//! every pool size) and coalesced requests (everyone else).

use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use sww_core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww_html::gencontent;
use sww_http2::Request;
use sww_obs::percentile;

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
    /// Saturation `503`s absorbed by client retry.
    pub rejected: u64,
    /// Jobs the worker pool executed during this sample (0 for inline
    /// handling): the sample's own server's
    /// `sww_pool_jobs_total{result="executed"}`, so no row carries an
    /// earlier row's jobs.
    pub pool_jobs: u64,
    /// Median request latency in milliseconds (successful attempt only —
    /// a retried request's clock restarts).
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
}

/// Client threads issuing requests.
const THREADS: usize = 8;
/// Requests per thread.
const REQUESTS: usize = 50;
/// Unique prompts (= unique pages) in the site.
const PROMPTS: usize = 10;

/// The sweep workload: one page per unique prompt, each carrying one
/// 64×64 generated-content image. Shared with the E16, E17 and E19
/// sweeps.
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

/// Drive `rounds` barrier-aligned rounds of distinct prompts starting at
/// page `first_page`, one session per thread, and return the sorted
/// per-request latencies. Shared by the E16 and E17 sweeps; E15's loop
/// retries on `503` and needs no barrier, so it stays its own.
pub(crate) fn drive_rounds(
    server: &GenerativeServer,
    threads: usize,
    rounds: usize,
    first_page: usize,
) -> Vec<f64> {
    let latencies_ms = Mutex::new(Vec::with_capacity(threads * rounds));
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = server.accept(GenAbility::none());
            let barrier = &barrier;
            let latencies_ms = &latencies_ms;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    barrier.wait();
                    let path = format!("/page/{}", first_page + round * threads + t);
                    let attempt = Instant::now();
                    let resp = session.handle(&Request::get(&path));
                    assert_eq!(resp.status, 200, "GET {path}");
                    mine.push(attempt.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(mine);
            });
        }
    });
    let mut out = latencies_ms.into_inner().unwrap_or_else(|e| e.into_inner());
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Run one worker-count sample on a fresh server of its own, with no
/// batching, deadline or breaker. Every reported number is
/// **per-sample**: the engine and pool counters come from that server.
pub(crate) fn sample(workers: usize) -> ConcurrencySample {
    let server = GenerativeServer::from_config(ServerConfig {
        site: bench_site(PROMPTS),
        workers,
        ..ServerConfig::default()
    });
    let rejected = AtomicU64::new(0);
    let latencies_ms = Mutex::new(Vec::with_capacity(THREADS * REQUESTS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = server.accept(GenAbility::none());
            let rejected = &rejected;
            let latencies_ms = &latencies_ms;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(REQUESTS);
                for i in 0..REQUESTS {
                    let path = format!("/page/{}", (i + t) % PROMPTS);
                    loop {
                        let attempt = Instant::now();
                        let resp = session.handle(&Request::get(&path));
                        if resp.status != 503 {
                            assert_eq!(resp.status, 200, "GET {path}");
                            mine.push(attempt.elapsed().as_secs_f64() * 1e3);
                            break;
                        }
                        rejected.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(1));
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
    let mut latencies_ms = latencies_ms.into_inner().unwrap_or_else(|e| e.into_inner());
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    ConcurrencySample {
        workers,
        throughput_rps: (THREADS * REQUESTS) as f64 / elapsed.max(1e-9),
        generations: server.engine().generations(),
        coalesced: server.engine().coalesced(),
        rejected: rejected.load(Ordering::Relaxed),
        pool_jobs: server
            .metrics()
            .count("sww_pool_jobs_total", &[("result", "executed")]),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

/// Sweep throughput over worker counts (0 = inline baseline).
pub fn run() -> Vec<ConcurrencySample> {
    [0, 1, 2, 4, 8].into_iter().map(sample).collect()
}

/// Render as a table.
pub fn table(samples: &[ConcurrencySample]) -> Table {
    let mut t = Table::new(
        format!(
            "E15 — Concurrent serving: throughput vs. workers \
             ({THREADS} threads x {REQUESTS} requests, {PROMPTS} unique prompts)"
        ),
        &[
            "Workers",
            "Throughput",
            "p50/p99 ms",
            "Generations",
            "Coalesced",
            "Rejected",
            "PoolJobs",
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
            s.pool_jobs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flight_holds_at_every_pool_size() {
        let _serial = super::super::alloc_serial();
        for s in run() {
            // Exactly one generation per unique prompt, regardless of
            // concurrency; everyone else shares.
            assert_eq!(s.generations, PROMPTS as u64, "workers={}", s.workers);
            assert_eq!(
                s.coalesced,
                (THREADS * REQUESTS - PROMPTS) as u64,
                "workers={}",
                s.workers
            );
        }
    }

    #[test]
    fn table_renders_all_samples() {
        let _serial = super::super::alloc_serial();
        let t = table(&run());
        assert_eq!(t.len(), 5);
        assert!(t.render().contains("inline"));
    }

    /// Regression: sweep rows must be per-sample, not cumulative — each
    /// reads the pool counter of its own fresh server, so no later row
    /// carries an earlier row's jobs.
    #[test]
    fn pool_jobs_are_per_sample_not_cumulative() {
        let _serial = super::super::alloc_serial();
        let expected = (THREADS * REQUESTS) as u64;
        // Two pooled samples in sequence: each must report exactly its
        // own jobs.
        let first = sample(2);
        let second = sample(2);
        assert_eq!(first.pool_jobs, expected);
        assert_eq!(
            second.pool_jobs, expected,
            "second row must not be cumulative"
        );
        // Inline handling uses no pool at all.
        assert_eq!(sample(0).pool_jobs, 0);
    }
}
