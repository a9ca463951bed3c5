//! Steady-state allocation suite (PR 6): after warmup, the generation
//! hot path performs **zero** large allocations — every latent field and
//! decode noise plane comes off a [`BufferPool`] shelf.
//!
//! The property is asserted through the pool metrics rather than an
//! allocator hook: `sww_alloc_bytes_total{pool}` counts exactly the
//! fresh heap the pools hand out, so "flat across the measured window"
//! is equivalent to "no large allocations occurred". One test in its own
//! integration binary: the metrics registry is process-global, and a
//! sibling test generating concurrently would pollute the deltas.
//!
//! [`BufferPool`]: sww_genai::pool::BufferPool

mod common;

use common::ScopedRunner;
use sww_genai::diffusion::{
    DiffusionModel, ImageModelKind, InlineRunner, StepCancel, TileRunner, Tiling,
};
use sww_genai::pool;
use sww_genai::prompt::{PromptFeatures, TextureClass};

fn counter(name: &'static str, labels: &[(&'static str, &'static str)]) -> u64 {
    sww_obs::counter(name, labels).get()
}

fn alloc_bytes() -> (u64, u64) {
    (
        counter("sww_alloc_bytes_total", &[("pool", "latent")]),
        counter("sww_alloc_bytes_total", &[("pool", "decode_noise")]),
    )
}

fn reuse_count() -> u64 {
    counter(
        "sww_pool_acquired_total",
        &[("pool", "latent"), ("outcome", "reuse")],
    ) + counter(
        "sww_pool_acquired_total",
        &[("pool", "decode_noise"), ("outcome", "reuse")],
    )
}

#[test]
fn hot_path_allocates_nothing_after_warmup() {
    const BATCH: usize = 6;
    const SIDE: u32 = 24;
    const STEPS: u32 = 8;
    const MAX_TILES: usize = 3;
    let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
    // Every texture class: each decodes through its own noise-field shape
    // (PR 13 tabulates that field on the stack, not in a pool or on the
    // heap), so each must hold the steady state.
    let features: Vec<PromptFeatures> = (0..BATCH)
        .map(|i| {
            let scene = [
                "over a weir",
                "across a mountain lake",
                "down a city street",
            ][i % 3];
            PromptFeatures::analyze(&format!("steady state prompt {i} {scene}"))
        })
        .collect();
    for class in [
        TextureClass::Organic,
        TextureClass::Banded,
        TextureClass::Geometric,
    ] {
        assert!(
            features.iter().any(|f| f.texture == class),
            "no prompt exercises {class:?}"
        );
    }
    let run = |runner: &dyn TileRunner, tiles: usize| {
        model
            .try_generate_batch_on(
                &features,
                SIDE,
                SIDE,
                STEPS,
                &StepCancel::never(),
                Tiling::new(runner, tiles),
            )
            .expect("StepCancel::never cannot abort")
    };

    // Warmup: one pass per configuration the measured phase will use,
    // then a deterministic decode-plane prewarm — organic warmup only
    // shelves the *concurrently live* peak, which depends on scheduling.
    run(&InlineRunner, 1);
    run(&ScopedRunner, MAX_TILES);
    pool::decode_pool().prewarm(MAX_TILES, (SIDE * SIDE) as usize);

    let (latent_before, decode_before) = alloc_bytes();
    let reuse_before = reuse_count();
    let reference = run(&InlineRunner, 1);
    for round in 0..20 {
        let tiles = 1 + round % MAX_TILES;
        let runner: &dyn TileRunner = if round % 2 == 0 {
            &ScopedRunner
        } else {
            &InlineRunner
        };
        let images = run(runner, tiles);
        // Pooling and tiling never change pixels.
        assert_eq!(images, reference, "round {round} (tiles={tiles}) diverged");
    }
    let (latent_after, decode_after) = alloc_bytes();
    assert_eq!(
        latent_after, latent_before,
        "latent pool allocated fresh heap at steady state"
    );
    assert_eq!(
        decode_after, decode_before,
        "decode pool allocated fresh heap at steady state"
    );
    // And the passes really did run off the shelves: 21 batches × (3
    // latent buffers + 1 decode plane) per job is far more than 100
    // reuse hits.
    assert!(
        reuse_count() >= reuse_before + 100,
        "steady-state passes should be served from the shelves"
    );
}
