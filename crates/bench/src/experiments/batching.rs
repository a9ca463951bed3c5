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
//! batch-wait deadline).
//!
//! Rounds are barrier-aligned and one [`announce`] hint is held for the
//! whole sample, so groups close on *full*, never on a rendezvous-drain
//! race: the sweep measures the policy, not thread-scheduling noise.
//!
//! [`BatchScheduler`]: sww_core::BatchScheduler
//! [`announce`]: sww_core::BatchScheduler::announce

use crate::table::Table;
use sww_core::{GenerativeServer, ServerConfig};

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

/// Client threads per round; also the pool size, so every round's
/// generations are concurrent.
const THREADS: usize = 8;
/// Barrier-aligned rounds of `THREADS` distinct prompts each.
const ROUNDS: usize = 4;
/// Batch-wait deadline in milliseconds: generous, so the sweep exercises
/// close-on-full, not close-on-deadline.
const BATCH_WAIT_MS: u64 = 250;

/// Run one batch-size sample.
fn sample(batch_max: usize) -> BatchSample {
    let server = GenerativeServer::from_config(ServerConfig {
        site: super::concurrency::bench_site(THREADS * ROUNDS),
        workers: THREADS,
        batch_max,
        batch_wait: std::time::Duration::from_millis(BATCH_WAIT_MS),
        ..ServerConfig::default()
    });
    // Held across the sample: groups never close for rendezvous drain,
    // only on full (or the deadline), making composition deterministic.
    let hint = server.batcher().map(|b| b.announce());
    super::concurrency::drive_rounds(&server, THREADS, ROUNDS, 0);
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

/// Sweep over batch caps 1 (the unbatched baseline), 2, 4 and 8; every
/// row's speedup is relative to the batch-1 row.
pub fn run() -> Vec<BatchSample> {
    let mut samples: Vec<BatchSample> = [1, 2, 4, 8].into_iter().map(sample).collect();
    let baseline = samples[0].modelled_rate;
    for s in &mut samples {
        s.speedup = s.modelled_rate / baseline.max(1e-12);
    }
    samples
}

/// Render as a table.
pub fn table(samples: &[BatchSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E16 — Continuous batching: modelled throughput vs. batch size \
             ({THREADS} threads x {ROUNDS} rounds, distinct prompts, {BATCH_WAIT_MS} ms deadline)"
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
    /// deadline.
    #[test]
    fn batch_eight_at_least_doubles_modelled_throughput() {
        let _serial = super::super::alloc_serial();
        let samples = run();
        let expected = (THREADS * ROUNDS) as u64;
        for s in &samples {
            assert_eq!(s.images, expected, "batch={}: no coalescing", s.batch_max);
        }
        let batched = &samples[3];
        assert_eq!(batched.batch_max, 8);
        assert!(
            batched.speedup >= 2.0,
            "batch 8 must at least double modelled throughput, got {:.2}x",
            batched.speedup
        );
        // The announce hint plus barrier alignment makes every group
        // close on full: achieved batch equals the cap exactly.
        assert_eq!(batched.mean_batch, 8.0);
        assert!(
            batched.p99_wait_ms <= BATCH_WAIT_MS as f64,
            "p99 wait {:.1} ms exceeded the {BATCH_WAIT_MS} ms deadline",
            batched.p99_wait_ms
        );
    }

    #[test]
    fn table_marks_the_unbatched_baseline() {
        let _serial = super::super::alloc_serial();
        let samples = run();
        let rendered = table(&samples).render();
        assert!(rendered.contains("off"));
        assert!(rendered.contains("E16"));
        assert!((samples[0].speedup - 1.0).abs() < 1e-9);
    }
}
