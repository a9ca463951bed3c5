//! E17 — data-parallel denoise kernel: throughput vs. kernel lanes.
//!
//! Two sweeps over the PR 6 tiled kernel, both pinned to the
//! bit-identity suites (`batch_equivalence`, `proptest_kernel`): tiling
//! may only move *where* a job's instruction stream runs, never its
//! contents.
//!
//! **Raw kernel sweep** — [`kernel_sweep`] drives
//! [`DiffusionModel::try_generate_batch_on`] directly: one batch of
//! distinct prompts, repeated on the [`CrewRunner`] a batching server
//! tiles on, varying only the lane count. Reported throughput comes in two
//! currencies:
//!
//! * **wall** — measured images per wall-clock second on this host.
//!   Honest but host-shaped: it tracks the modelled curve only up to
//!   `min(lanes, cores)`, and on a single-core CI box it is flat.
//! * **modelled** — images per modelled device-second from
//!   [`sww_energy::cost::tiled_batch_pass_time`], the same cost model
//!   that prices the E16 batching win. This is the machine-independent
//!   number the regression gate compares (see PERFORMANCE.md).
//!
//! **Serving sweep** — [`serving_sweep`] is the E16 workload (rounds of
//! distinct prompts, barrier-aligned, announce hint held, so every group
//! closes on full) with the batch cap fixed at the thread count and only
//! `kernel_tiles` varying. It reports wall qps, request latency
//! percentiles, the modelled rate from the server's own accounting, and
//! the steady-state allocation delta.
//!
//! Both sweeps snapshot `sww_alloc_bytes_total` after a warmup phase:
//! the measured phase must allocate **zero** fresh bytes from the latent
//! and decode pools — the zero-copy hot-path property, asserted here
//! rather than assumed.

use crate::table::Table;
use std::sync::{Barrier, Mutex};
use std::time::Instant;
use sww_core::{CrewRunner, GenAbility, GenerativeServer, ServerConfig};
use sww_energy::cost::tiled_batch_pass_time;
use sww_energy::device::{profile, DeviceKind};
use sww_genai::diffusion::{DiffusionModel, ImageModelKind, StepCancel, Tiling};
use sww_genai::prompt::PromptFeatures;
use sww_http2::Request;

/// One lane-count sample of the raw kernel sweep.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// Kernel lanes the batch was tiled across (1 = scalar step-major).
    pub tiles: usize,
    /// Measured images per wall-clock second on this host.
    pub wall_qps: f64,
    /// Median per-pass wall time in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-pass wall time in milliseconds.
    pub p99_ms: f64,
    /// Images per modelled device-second
    /// ([`sww_energy::cost::tiled_batch_pass_time`]).
    pub modelled_rate: f64,
    /// `modelled_rate` relative to the 1-lane row.
    pub speedup: f64,
    /// Fresh pool bytes allocated during the measured (post-warmup)
    /// passes — 0 when the hot path is steady-state allocation-free.
    pub alloc_bytes: u64,
}

/// Raw kernel sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Jobs per batched pass (distinct prompts).
    pub batch: usize,
    /// Square output side in pixels.
    pub side: u32,
    /// Denoising steps.
    pub steps: u32,
    /// Measured passes per lane count.
    pub reps: usize,
    /// Untimed warmup passes (fills the buffer-pool shelves).
    pub warmup: usize,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            batch: 8,
            side: 64,
            steps: 15,
            reps: 6,
            warmup: 2,
        }
    }
}

/// Fresh pool bytes allocated so far, summed over the hot-path pools.
fn pool_alloc_bytes() -> u64 {
    ["latent", "decode_noise"]
        .iter()
        .map(|p| sww_obs::Registry::global().count("sww_alloc_bytes_total", &[("pool", p)]))
        .sum()
}

/// Run one lane-count sample of the raw kernel sweep.
pub fn kernel_sample(cfg: KernelConfig, tiles: usize) -> KernelSample {
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    let features: Vec<PromptFeatures> = (0..cfg.batch.max(1))
        .map(|i| PromptFeatures::analyze(&format!("e17 kernel bench prompt {i} harbor light")))
        .collect();
    let run_pass = || {
        model
            .try_generate_batch_on(
                &features,
                cfg.side,
                cfg.side,
                cfg.steps,
                &StepCancel::never(),
                Tiling::new(&CrewRunner, tiles),
            )
            .expect("StepCancel::never cannot abort a pass")
    };
    for _ in 0..cfg.warmup {
        run_pass();
    }
    // Organic warmup shelves only as many decode planes as were ever
    // live at once — scheduling-dependent for concurrent tiles. Prewarm
    // the worst case so the measured phase's zero-allocation property is
    // exact (the latent working set is deterministic: all 3·batch
    // buffers live through every pass, so warmup already covers it).
    sww_genai::pool::decode_pool().prewarm(tiles, (cfg.side * cfg.side) as usize);
    let alloc_before = pool_alloc_bytes();
    let mut pass_ms: Vec<f64> = Vec::with_capacity(cfg.reps);
    let start = Instant::now();
    for _ in 0..cfg.reps.max(1) {
        let t = Instant::now();
        run_pass();
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64();
    pass_ms.sort_by(|a, b| a.total_cmp(b));
    let device = profile(DeviceKind::Workstation);
    let pass_s = tiled_batch_pass_time(
        ImageModelKind::Sd3Medium,
        &device,
        cfg.side,
        cfg.side,
        cfg.steps,
        cfg.batch,
        tiles,
    )
    .expect("sd3 runs on the workstation profile");
    KernelSample {
        tiles,
        wall_qps: (cfg.batch * cfg.reps.max(1)) as f64 / elapsed.max(1e-9),
        p50_ms: super::concurrency::percentile_ms(&pass_ms, 50.0),
        p99_ms: super::concurrency::percentile_ms(&pass_ms, 99.0),
        modelled_rate: cfg.batch as f64 / pass_s.max(1e-12),
        speedup: 1.0, // filled in by `kernel_sweep` against the 1-lane row
        alloc_bytes: pool_alloc_bytes() - alloc_before,
    }
}

/// Sweep the raw kernel over lane counts (lanes − 1 helpers on the crew;
/// the caller is the last lane).
pub fn kernel_sweep(cfg: KernelConfig, tile_counts: &[usize]) -> Vec<KernelSample> {
    let mut samples: Vec<KernelSample> =
        tile_counts.iter().map(|&t| kernel_sample(cfg, t)).collect();
    let baseline = samples
        .iter()
        .find(|s| s.tiles <= 1)
        .or(samples.first())
        .map(|s| s.modelled_rate)
        .unwrap_or(1.0);
    for s in &mut samples {
        s.speedup = s.modelled_rate / baseline.max(1e-12);
    }
    samples
}

/// One `kernel_tiles` sample of the serving sweep.
#[derive(Debug, Clone)]
pub struct ServingSample {
    /// Kernel lanes inside each batched pass (1 = scalar kernel).
    pub kernel_tiles: usize,
    /// Measured requests per wall-clock second over the measured rounds.
    pub wall_qps: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Images per modelled device-second (server accounting delta).
    pub modelled_rate: f64,
    /// `modelled_rate` relative to the tiles-1 row.
    pub speedup: f64,
    /// Mean achieved batch size over the whole sample.
    pub mean_batch: f64,
    /// Fresh pool bytes allocated during the measured rounds.
    pub alloc_bytes: u64,
}

/// Serving sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Client threads per round; also the pool's permits and the batch
    /// cap, so every round is one full batched pass.
    pub threads: usize,
    /// Measured barrier-aligned rounds of `threads` distinct prompts.
    pub rounds: usize,
    /// Untimed warmup rounds (fills pool shelves, starts crew threads).
    pub warmup_rounds: usize,
    /// Batch-wait deadline in milliseconds (generous: groups close on
    /// full, not on the clock).
    pub batch_wait_ms: u64,
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig {
            threads: 8,
            rounds: 4,
            warmup_rounds: 1,
            batch_wait_ms: 250,
        }
    }
}

/// Drive `rounds` barrier-aligned rounds of distinct prompts starting at
/// page `first_page`, collecting per-request latencies.
fn drive_rounds(
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

/// Run one `kernel_tiles` sample of the serving sweep.
pub fn serving_sample(cfg: ServingConfig, kernel_tiles: usize) -> ServingSample {
    let total_rounds = cfg.warmup_rounds + cfg.rounds;
    let server = GenerativeServer::from_config(ServerConfig {
        site: super::concurrency::bench_site(cfg.threads * total_rounds),
        workers: cfg.threads,
        batch_max: cfg.threads,
        batch_wait: std::time::Duration::from_millis(cfg.batch_wait_ms),
        kernel_tiles,
        ..ServerConfig::default()
    });
    // Held across the sample: groups close on full, never on a
    // rendezvous-drain race (same discipline as E16).
    let hint = server.batcher().map(|b| b.announce());
    drive_rounds(&server, cfg.threads, cfg.warmup_rounds, 0);
    // See kernel_sample: up to `kernel_tiles` decode planes (64×64, the
    // bench_site image size) are live at once, and organic warmup only
    // shelves the peak this host's scheduler happened to reach.
    sww_genai::pool::decode_pool().prewarm(kernel_tiles.max(1), 64 * 64);
    let alloc_before = pool_alloc_bytes();
    let modelled_before = server.server_generation_time_s();
    let start = Instant::now();
    let latencies_ms = drive_rounds(
        &server,
        cfg.threads,
        cfg.rounds,
        cfg.warmup_rounds * cfg.threads,
    );
    let elapsed = start.elapsed().as_secs_f64();
    drop(hint);
    let images = (cfg.threads * cfg.rounds) as f64;
    let modelled_s = server.server_generation_time_s() - modelled_before;
    ServingSample {
        kernel_tiles,
        wall_qps: images / elapsed.max(1e-9),
        p50_ms: super::concurrency::percentile_ms(&latencies_ms, 50.0),
        p99_ms: super::concurrency::percentile_ms(&latencies_ms, 99.0),
        modelled_rate: images / modelled_s.max(1e-12),
        speedup: 1.0, // filled in by `serving_sweep` against the tiles-1 row
        mean_batch: server.batch_stats().map_or(0.0, |s| s.mean_batch),
        alloc_bytes: pool_alloc_bytes() - alloc_before,
    }
}

/// Sweep serving throughput over `kernel_tiles` values.
pub fn serving_sweep(cfg: ServingConfig, tile_counts: &[usize]) -> Vec<ServingSample> {
    let mut samples: Vec<ServingSample> = tile_counts
        .iter()
        .map(|&t| serving_sample(cfg, t))
        .collect();
    let baseline = samples
        .iter()
        .find(|s| s.kernel_tiles <= 1)
        .or(samples.first())
        .map(|s| s.modelled_rate)
        .unwrap_or(1.0);
    for s in &mut samples {
        s.speedup = s.modelled_rate / baseline.max(1e-12);
    }
    samples
}

/// Render the raw kernel sweep as a table.
pub fn kernel_table(cfg: KernelConfig, samples: &[KernelSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E17 — Tiled denoise kernel: throughput vs. lanes \
             (batch {}, {}x{}, {} steps, {} reps)",
            cfg.batch, cfg.side, cfg.side, cfg.steps, cfg.reps
        ),
        &[
            "Lanes",
            "WallImg/s",
            "p50/p99 ms",
            "ModelImg/s",
            "Speedup",
            "AllocBytes",
        ],
    );
    for s in samples {
        t.row([
            if s.tiles <= 1 {
                "scalar".to_string()
            } else {
                s.tiles.to_string()
            },
            format!("{:.0}", s.wall_qps),
            format!("{:.1}/{:.1}", s.p50_ms, s.p99_ms),
            format!("{:.2}", s.modelled_rate),
            format!("{:.2}x", s.speedup),
            s.alloc_bytes.to_string(),
        ]);
    }
    t
}

/// Render the serving sweep as a table.
pub fn serving_table(cfg: ServingConfig, samples: &[ServingSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E17 — Batched serving with tiled kernel \
             ({} threads x {} rounds, distinct prompts, batch {})",
            cfg.threads, cfg.rounds, cfg.threads
        ),
        &[
            "Tiles",
            "WallReq/s",
            "p50/p99 ms",
            "ModelImg/s",
            "Speedup",
            "MeanBatch",
            "AllocBytes",
        ],
    );
    for s in samples {
        t.row([
            if s.kernel_tiles <= 1 {
                "scalar".to_string()
            } else {
                s.kernel_tiles.to_string()
            },
            format!("{:.0}", s.wall_qps),
            format!("{:.1}/{:.1}", s.p50_ms, s.p99_ms),
            format!("{:.2}", s.modelled_rate),
            format!("{:.2}x", s.speedup),
            format!("{:.1}", s.mean_batch),
            s.alloc_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR 6 acceptance pair on the raw kernel: at batch 8 the 8-lane
    /// pass models ≥ 1.5× the scalar pass (the cost model puts it at
    /// 3.1×), and the measured passes allocate zero fresh pool bytes
    /// after warmup.
    #[test]
    fn eight_lanes_model_1_5x_and_stay_allocation_free() {
        let _serial = super::super::ALLOC_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = KernelConfig {
            batch: 8,
            side: 32,
            steps: 10,
            reps: 2,
            warmup: 1,
        };
        let samples = kernel_sweep(cfg, &[1, 8]);
        assert_eq!(samples.len(), 2);
        let tiled = &samples[1];
        assert!(
            tiled.speedup >= 1.5,
            "8-lane modelled speedup only {:.2}x",
            tiled.speedup
        );
        for s in &samples {
            assert_eq!(
                s.alloc_bytes, 0,
                "lanes={}: hot path allocated after warmup",
                s.tiles
            );
            assert!(s.wall_qps > 0.0);
        }
    }

    /// Serving with a tiled kernel: same close-on-full batches, modelled
    /// speedup from the lanes, zero steady-state allocations.
    #[test]
    fn tiled_serving_models_speedup_with_full_batches() {
        let _serial = super::super::ALLOC_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = ServingConfig {
            threads: 4,
            rounds: 2,
            warmup_rounds: 1,
            batch_wait_ms: 250,
        };
        let samples = serving_sweep(cfg, &[1, 4]);
        let tiled = &samples[1];
        // 4 lanes at batch 4: 4·t(4) / t(1) = 1.9 modelled.
        assert!(
            tiled.speedup >= 1.5,
            "4-lane serving modelled speedup only {:.2}x",
            tiled.speedup
        );
        for s in &samples {
            assert_eq!(s.mean_batch, cfg.threads as f64, "tiles={}", s.kernel_tiles);
            assert_eq!(
                s.alloc_bytes, 0,
                "tiles={}: steady state allocated",
                s.kernel_tiles
            );
        }
    }

    #[test]
    fn tables_render_both_sweeps() {
        let _serial = super::super::ALLOC_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let kcfg = KernelConfig {
            batch: 2,
            side: 16,
            steps: 4,
            reps: 1,
            warmup: 1,
        };
        let ks = kernel_sweep(kcfg, &[1, 2]);
        let rendered = kernel_table(kcfg, &ks).render();
        assert!(rendered.contains("scalar"));
        assert!(rendered.contains("E17"));
        let scfg = ServingConfig {
            threads: 2,
            rounds: 1,
            warmup_rounds: 1,
            batch_wait_ms: 100,
        };
        let ss = serving_sweep(scfg, &[2]);
        assert!(serving_table(scfg, &ss).render().contains("E17"));
    }
}
