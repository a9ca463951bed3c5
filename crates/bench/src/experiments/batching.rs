//! E16 — continuous batching: modelled throughput vs. batch size.
//!
//! Companion to E15: the workload again drives server-side generation
//! from many naive sessions, but every round requests **distinct**
//! prompts, so single-flight cannot amortize anything and all the
//! sharing comes from the [`BatchScheduler`] grouping compatible
//! cache-misses into one denoising pass.
//!
//! Batched execution is bit-identical to sequential execution (see the
//! `batch_equivalence` suite), so the win is not wall-clock in this
//! process — it is the **modelled device time** of the batched pass:
//! `t(batch) = t(1)·(0.7/batch + 0.3)` per image
//! ([`sww_energy::batched_image_generation_time`]). The sweep
//! reports images per modelled second and the speedup over the
//! unbatched baseline, alongside the achieved batch size and the p99
//! wait members paid for their group to close (bounded by the
//! configured deadline).
//!
//! Rounds are barrier-aligned and one [`announce`] hint is held for the
//! whole sample, so groups close on *full*, never on a rendezvous-drain
//! race: the sweep measures the policy, not thread-scheduling noise.
//!
//! [`BatchScheduler`]: sww_core::BatchScheduler
//! [`announce`]: sww_core::BatchScheduler::announce

use crate::table::Table;
use std::sync::Barrier;
use sww_core::{GenAbility, GenerativeServer, ServerConfig};
use sww_http2::Request;

/// One batch-size sample of the sweep.
#[derive(Debug, Clone)]
pub struct BatchSample {
    /// Batch cap handed to the server (1 = batching disabled).
    pub batch_max: usize,
    /// Images generated (always `threads × rounds`; nothing coalesces).
    pub images: u64,
    /// Modelled device seconds spent generating them.
    pub modelled_time_s: f64,
    /// Images per modelled device second.
    pub modelled_rate: f64,
    /// `modelled_rate` relative to the batch-1 baseline row.
    pub speedup: f64,
    /// Mean achieved batch size (0 when batching is disabled).
    pub mean_batch: f64,
    /// p99 wait for a group to close, in milliseconds.
    pub p99_wait_ms: f64,
}

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchingConfig {
    /// Client threads per round; also the pool size, so every round's
    /// generations are concurrent.
    pub threads: usize,
    /// Barrier-aligned rounds of `threads` distinct prompts each.
    pub rounds: usize,
    /// Batch-wait deadline in milliseconds. Generous by default so the
    /// sweep exercises close-on-full, not close-on-deadline.
    pub batch_wait_ms: u64,
}

impl Default for BatchingConfig {
    fn default() -> BatchingConfig {
        BatchingConfig {
            threads: 8,
            rounds: 4,
            batch_wait_ms: 250,
        }
    }
}

/// Run one batch-size sample.
pub fn sample(cfg: BatchingConfig, batch_max: usize) -> BatchSample {
    let prompts = cfg.threads * cfg.rounds;
    let server = GenerativeServer::from_config(ServerConfig {
        site: super::concurrency::bench_site(prompts),
        workers: cfg.threads,
        batch_max,
        batch_wait: std::time::Duration::from_millis(cfg.batch_wait_ms),
        ..ServerConfig::default()
    });
    // Held across the sample: groups never close for rendezvous drain,
    // only on full (or the deadline), making composition deterministic.
    let hint = server.batcher().map(|b| b.announce());
    let barrier = Barrier::new(cfg.threads);
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let session = server.accept(GenAbility::none());
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..cfg.rounds {
                    barrier.wait();
                    let path = format!("/page/{}", round * cfg.threads + t);
                    let resp = session.handle(&Request::get(&path));
                    assert_eq!(resp.status, 200, "GET {path}");
                }
            });
        }
    });
    drop(hint);
    let images = server.engine().generations();
    let modelled_time_s = server.server_generation_time_s();
    let stats = server.batch_stats();
    BatchSample {
        batch_max,
        images,
        modelled_time_s,
        modelled_rate: images as f64 / modelled_time_s.max(1e-12),
        speedup: 1.0, // filled in by `run` against the baseline row
        mean_batch: stats.as_ref().map_or(0.0, |s| s.mean_batch),
        p99_wait_ms: stats.as_ref().map_or(0.0, |s| s.p99_wait_s * 1e3),
    }
}

/// Sweep over batch caps. The first entry should be 1 (the unbatched
/// baseline); every row's speedup is relative to the batch-1 row (or the
/// first row when 1 is not swept).
pub fn run(cfg: BatchingConfig, batch_sizes: &[usize]) -> Vec<BatchSample> {
    let mut samples: Vec<BatchSample> = batch_sizes.iter().map(|&b| sample(cfg, b)).collect();
    let baseline = samples
        .iter()
        .find(|s| s.batch_max == 1)
        .or(samples.first())
        .map(|s| s.modelled_rate)
        .unwrap_or(1.0);
    for s in &mut samples {
        s.speedup = s.modelled_rate / baseline.max(1e-12);
    }
    samples
}

/// Render as a table.
pub fn table(cfg: BatchingConfig, samples: &[BatchSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E16 — Continuous batching: modelled throughput vs. batch size \
             ({} threads x {} rounds, distinct prompts, {} ms deadline)",
            cfg.threads, cfg.rounds, cfg.batch_wait_ms
        ),
        &[
            "Batch",
            "Images",
            "DeviceTime",
            "Img/s",
            "Speedup",
            "MeanBatch",
            "p99Wait",
        ],
    );
    for s in samples {
        t.row([
            if s.batch_max == 1 {
                "off".to_string()
            } else {
                s.batch_max.to_string()
            },
            s.images.to_string(),
            format!("{:.1} s", s.modelled_time_s),
            format!("{:.2}", s.modelled_rate),
            format!("{:.2}x", s.speedup),
            format!("{:.1}", s.mean_batch),
            format!("{:.1} ms", s.p99_wait_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: ≥ 2× modelled throughput at batch 8 vs
    /// batch 1 on the pooled engine, with p99 added wait bounded by the
    /// configured deadline.
    #[test]
    fn batch_eight_at_least_doubles_modelled_throughput() {
        let _serial = super::super::alloc_serial();
        let cfg = BatchingConfig {
            threads: 8,
            rounds: 2,
            batch_wait_ms: 250,
        };
        let samples = run(cfg, &[1, 8]);
        let expected = (cfg.threads * cfg.rounds) as u64;
        for s in &samples {
            assert_eq!(s.images, expected, "batch={}: no coalescing", s.batch_max);
        }
        let batched = &samples[1];
        assert!(
            batched.speedup >= 2.0,
            "batch 8 must at least double modelled throughput, got {:.2}x",
            batched.speedup
        );
        // The announce hint plus barrier alignment makes every group
        // close on full: achieved batch equals the cap exactly.
        assert_eq!(batched.mean_batch, 8.0);
        assert!(
            batched.p99_wait_ms <= cfg.batch_wait_ms as f64,
            "p99 wait {:.1} ms exceeded the {} ms deadline",
            batched.p99_wait_ms,
            cfg.batch_wait_ms
        );
    }

    #[test]
    fn table_marks_the_unbatched_baseline() {
        let _serial = super::super::alloc_serial();
        let cfg = BatchingConfig {
            threads: 2,
            rounds: 1,
            batch_wait_ms: 100,
        };
        let samples = run(cfg, &[1, 2]);
        let rendered = table(cfg, &samples).render();
        assert!(rendered.contains("off"));
        assert!(rendered.contains("E16"));
        assert!((samples[0].speedup - 1.0).abs() < 1e-9);
    }
}
