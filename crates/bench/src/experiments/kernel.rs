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
//!   [`sww_energy::tiled_batch_pass_time`], the same cost model
//!   that prices the E16 batching win. This is the machine-independent
//!   number `tests/golden_tables.rs` pins (see PERFORMANCE.md).
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

use super::concurrency::{bench_site, drive_rounds};
use crate::table::Table;
use std::time::Instant;
use sww_core::{CrewRunner, GenerativeServer, ServerConfig};
use sww_energy::{profile, tiled_batch_pass_time, DeviceKind};
use sww_genai::{DiffusionModel, ImageModelKind, PromptFeatures, StepCancel, Tiling};
use sww_obs::percentile;

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
    /// ([`sww_energy::tiled_batch_pass_time`]).
    pub modelled_rate: f64,
    /// `modelled_rate` relative to the 1-lane row.
    pub speedup: f64,
    /// Fresh pool bytes allocated during the measured (post-warmup)
    /// passes — 0 when the hot path is steady-state allocation-free.
    pub alloc_bytes: u64,
}

/// Jobs per batched pass (distinct prompts) in the raw kernel sweep.
const BATCH: usize = 8;
/// Square output side in pixels.
const SIDE: u32 = 64;
/// Denoising steps.
const STEPS: u32 = 15;
/// Measured passes per lane count.
const REPS: usize = 6;
/// Untimed warmup passes (fills the buffer-pool shelves).
const WARMUP: usize = 2;

/// Client threads per round of the serving sweep; also the pool's
/// permits and the batch cap, so every round is one full batched pass.
const THREADS: usize = 8;
/// Measured barrier-aligned rounds of `THREADS` distinct prompts.
const ROUNDS: usize = 4;
/// Untimed warmup rounds (fills pool shelves, starts crew threads).
const WARMUP_ROUNDS: usize = 1;
/// Batch-wait deadline in milliseconds (generous: groups close on full,
/// not on the clock).
const BATCH_WAIT_MS: u64 = 250;

/// Fresh pool bytes allocated so far, summed over the hot-path pools.
fn pool_alloc_bytes() -> u64 {
    ["latent", "decode_noise"]
        .iter()
        .map(|p| sww_obs::Registry::global().count("sww_alloc_bytes_total", &[("pool", p)]))
        .sum()
}

/// Run one lane-count sample of the raw kernel sweep.
fn kernel_sample(tiles: usize) -> KernelSample {
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    let features: Vec<PromptFeatures> = (0..BATCH)
        .map(|i| PromptFeatures::analyze(&format!("e17 kernel bench prompt {i} harbor light")))
        .collect();
    let run_pass = || {
        model
            .try_generate_batch_on(
                &features,
                SIDE,
                SIDE,
                STEPS,
                &StepCancel::never(),
                Tiling::new(&CrewRunner, tiles),
            )
            .expect("StepCancel::never cannot abort a pass")
    };
    for _ in 0..WARMUP {
        run_pass();
    }
    // Organic warmup shelves only as many decode planes as were ever
    // live at once — scheduling-dependent for concurrent tiles. Prewarm
    // the worst case so the measured phase's zero-allocation property is
    // exact (the latent working set is deterministic: all 3·batch
    // buffers live through every pass, so warmup already covers it).
    sww_genai::decode_pool().prewarm(tiles, (SIDE * SIDE) as usize);
    let alloc_before = pool_alloc_bytes();
    let mut pass_ms: Vec<f64> = Vec::with_capacity(REPS);
    let start = Instant::now();
    for _ in 0..REPS {
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
        SIDE,
        SIDE,
        STEPS,
        BATCH,
        tiles,
    )
    .expect("sd3 runs on the workstation profile");
    KernelSample {
        tiles,
        wall_qps: (BATCH * REPS) as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&pass_ms, 50.0),
        p99_ms: percentile(&pass_ms, 99.0),
        modelled_rate: BATCH as f64 / pass_s.max(1e-12),
        speedup: 1.0, // filled in by `kernel_sweep` against the 1-lane row
        alloc_bytes: pool_alloc_bytes() - alloc_before,
    }
}

/// Sweep the raw kernel over lanes 1, 2, 4 and 8 (lanes − 1 helpers on
/// the crew; the caller is the last lane).
pub fn kernel_sweep() -> Vec<KernelSample> {
    let mut samples: Vec<KernelSample> = [1, 2, 4, 8].into_iter().map(kernel_sample).collect();
    let baseline = samples[0].modelled_rate;
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

/// Run one `kernel_tiles` sample of the serving sweep.
fn serving_sample(kernel_tiles: usize) -> ServingSample {
    let server = GenerativeServer::from_config(ServerConfig {
        site: bench_site(THREADS * (WARMUP_ROUNDS + ROUNDS)),
        workers: THREADS,
        batch_max: THREADS,
        batch_wait: std::time::Duration::from_millis(BATCH_WAIT_MS),
        kernel_tiles,
        ..ServerConfig::default()
    });
    // Held across the sample: groups close on full, never on a
    // rendezvous-drain race (same discipline as E16).
    let hint = server.batcher().map(|b| b.announce());
    drive_rounds(&server, THREADS, WARMUP_ROUNDS, 0);
    // See kernel_sample: up to `kernel_tiles` decode planes (64×64, the
    // bench_site image size) are live at once, and organic warmup only
    // shelves the peak this host's scheduler happened to reach.
    sww_genai::decode_pool().prewarm(kernel_tiles, 64 * 64);
    let alloc_before = pool_alloc_bytes();
    let modelled_before = server.server_generation_time_s();
    let start = Instant::now();
    let latencies_ms = drive_rounds(&server, THREADS, ROUNDS, WARMUP_ROUNDS * THREADS);
    let elapsed = start.elapsed().as_secs_f64();
    drop(hint);
    let images = (THREADS * ROUNDS) as f64;
    let modelled_s = server.server_generation_time_s() - modelled_before;
    ServingSample {
        kernel_tiles,
        wall_qps: images / elapsed.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        modelled_rate: images / modelled_s.max(1e-12),
        speedup: 1.0, // filled in by `serving_sweep` against the tiles-1 row
        mean_batch: server.batch_stats().map_or(0.0, |s| s.mean_batch),
        alloc_bytes: pool_alloc_bytes() - alloc_before,
    }
}

/// Sweep serving throughput over `kernel_tiles` 1 and 8.
pub fn serving_sweep() -> Vec<ServingSample> {
    let mut samples: Vec<ServingSample> = [1, 8].into_iter().map(serving_sample).collect();
    let baseline = samples[0].modelled_rate;
    for s in &mut samples {
        s.speedup = s.modelled_rate / baseline.max(1e-12);
    }
    samples
}

/// Render the raw kernel sweep as a table.
pub fn kernel_table(samples: &[KernelSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E17 — Tiled denoise kernel: throughput vs. lanes \
             (batch {BATCH}, {SIDE}x{SIDE}, {STEPS} steps, {REPS} reps)"
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
pub fn serving_table(samples: &[ServingSample]) -> Table {
    let mut t = Table::new(
        format!(
            "E17 — Batched serving with tiled kernel \
             ({THREADS} threads x {ROUNDS} rounds, distinct prompts, batch {THREADS})"
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

    /// The tiled kernel's acceptance pair, over lanes 1/2/4/8: at batch
    /// 8 the 8-lane pass models ≥ 1.5× the scalar pass (the cost model
    /// puts it at 3.1×), and the measured passes allocate zero fresh pool
    /// bytes after warmup.
    #[test]
    fn eight_lanes_model_1_5x_and_stay_allocation_free() {
        let _serial = super::super::alloc_serial();
        let samples = kernel_sweep();
        assert_eq!(samples.len(), 4);
        let tiled = &samples[3];
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

    /// Serving with a tiled kernel over kernel tiles 1/8: same
    /// close-on-full batches, modelled speedup from the lanes, zero
    /// steady-state allocations.
    #[test]
    fn tiled_serving_models_speedup_with_full_batches() {
        let _serial = super::super::alloc_serial();
        let samples = serving_sweep();
        let tiled = &samples[1];
        // 3.1x modelled (tests/golden/e17_kernel.txt).
        assert!(
            tiled.speedup >= 1.5,
            "8-lane serving modelled speedup only {:.2}x",
            tiled.speedup
        );
        for s in &samples {
            assert_eq!(s.mean_batch, THREADS as f64, "tiles={}", s.kernel_tiles);
            assert_eq!(
                s.alloc_bytes, 0,
                "tiles={}: steady state allocated",
                s.kernel_tiles
            );
        }
    }

    #[test]
    fn tables_render_both_sweeps() {
        let _serial = super::super::alloc_serial();
        let rendered = kernel_table(&kernel_sweep()).render();
        assert!(rendered.contains("scalar"));
        assert!(rendered.contains("E17"));
        assert!(serving_table(&serving_sweep()).render().contains("E17"));
    }
}
