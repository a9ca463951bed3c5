//! Property tests for the data-parallel denoise kernel (PR 6): for
//! *arbitrary* batch sizes, tile counts, worker placements and
//! cancellation points, the tiled pass must be bit-identical to the
//! single-image reference — "faster" can never mean "different pixels".

mod common;

use common::ScopedRunner;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use sww_genai::diffusion::{
    DiffusionModel, ImageModelKind, InlineRunner, StepCancel, TileRunner, Tiling,
};
use sww_genai::prompt::PromptFeatures;
use sww_genai::ImageBuffer;

fn prompts(n: usize, salt: u64) -> Vec<String> {
    (0..n)
        .map(|i| format!("prop kernel {salt} prompt {i}"))
        .collect()
}

fn features(prompts: &[String]) -> Vec<PromptFeatures> {
    prompts.iter().map(|p| PromptFeatures::analyze(p)).collect()
}

/// Each prompt rendered alone through the single-image reference.
fn reference(
    m: &DiffusionModel,
    prompts: &[String],
    (w, h): (u32, u32),
    steps: u32,
) -> Vec<ImageBuffer> {
    prompts.iter().map(|p| m.generate(p, w, h, steps)).collect()
}

fn runner(threaded: bool) -> &'static dyn TileRunner {
    if threaded {
        &ScopedRunner
    } else {
        &InlineRunner
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tiled_generation_is_bit_identical_to_scalar(
        jobs_n in 1usize..7,
        tiles in 1usize..7,
        steps in 1u32..12,
        side in 8u32..33,
        threaded in any::<bool>(),
        salt in any::<u64>(),
    ) {
        let m = DiffusionModel::new(ImageModelKind::Sd35Medium);
        let prompts = prompts(jobs_n, salt);
        let tiled = m.try_generate_batch_on(
            &features(&prompts), side, side / 2 + 1, steps,
            &StepCancel::never(), Tiling::new(runner(threaded), tiles),
        ).expect("never cancelled");
        prop_assert_eq!(reference(&m, &prompts, (side, side / 2 + 1), steps), tiled,
            "jobs={} tiles={} steps={} side={}", jobs_n, tiles, steps, side);
    }

    #[test]
    fn cancellation_point_decides_tiled_outcome(
        jobs_n in 1usize..7,
        tiles in 1usize..7,
        steps in 2u32..12,
        fire_frac in 0u32..100,
        threaded in any::<bool>(),
        salt in any::<u64>(),
    ) {
        // A probe that fires from its `fire_at`-th evaluation onwards.
        // Tiles poll independently, so the *count* of checks varies with
        // scheduling — but the outcome is scheduling-free at the two
        // extremes this property pins:
        //   fire_at <  steps           → some tile must observe the probe
        //                                before finishing → None;
        //   fire_at >= steps * tiles   → no tile can exhaust the budget
        //                                → Some, bit-identical to the
        //                                reference.
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let prompts = prompts(jobs_n, salt);
        let tile_count = tiles.min(jobs_n).max(1);
        let early = fire_frac % 2 == 0;
        let fire_at = if early { fire_frac % steps } else { steps * tile_count as u32 };
        let checks = Arc::new(AtomicU32::new(0));
        let probe_checks = Arc::clone(&checks);
        let cancel = StepCancel::from_fn(move || {
            probe_checks.fetch_add(1, Ordering::SeqCst) >= fire_at
        });
        let out = m.try_generate_batch_on(
            &features(&prompts), 16, 12, steps, &cancel, Tiling::new(runner(threaded), tiles),
        );
        if early {
            prop_assert!(out.is_none(),
                "fire_at={} < steps={} must abandon the batch", fire_at, steps);
        } else {
            let tiled = out.expect("budget outlives every tile");
            prop_assert_eq!(reference(&m, &prompts, (16, 12), steps), tiled);
        }
    }
}
