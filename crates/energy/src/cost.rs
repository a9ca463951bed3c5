//! Generation latency model, calibrated to every timing anchor in the
//! paper's §6.
//!
//! Image time interpolates log-log between the device's measured SD 3
//! anchors (so the workstation scales ≈linearly with pixels while the
//! laptop blows up superlinearly at 1024² from attention splitting), then
//! scales linearly in steps and by the model's per-step cost relative to
//! SD 3. Text time is a reasoning phase plus a small per-word term with a
//! deterministic non-monotonic jitter — reproducing the paper's
//! observation that 50-word outputs can take longer than 100-word ones.

use crate::device::DeviceProfile;
use sww_genai::{image_profile, text_profile, ImageModelKind, TextModelKind};

/// Steps at which the anchor times were measured.
pub const ANCHOR_STEPS: f64 = 15.0;

/// Log-log interpolation of SD 3 generation time at `pixels`, using the
/// device anchors; extrapolates with the nearest segment's slope.
fn sd3_time_at(device: &DeviceProfile, pixels: u64) -> f64 {
    let anchors = device.sd3_time_anchors;
    debug_assert!(anchors.len() >= 2);
    let x = (pixels.max(1) as f64).ln();
    // Find the bracketing segment (or the edge segment for extrapolation).
    let seg = anchors
        .windows(2)
        .position(|w| pixels <= w[1].0)
        .unwrap_or(anchors.len() - 2);
    let (p0, t0) = anchors[seg];
    let (p1, t1) = anchors[seg + 1];
    let (x0, x1) = ((p0 as f64).ln(), (p1 as f64).ln());
    let (y0, y1) = (t0.ln(), t1.ln());
    let y = y0 + (y1 - y0) * (x - x0) / (x1 - x0);
    y.exp()
}

/// Seconds to generate a `width`×`height` image with `model` at `steps`
/// inference steps on `device`. `None` when the model cannot run there
/// (server-only models on end-user devices).
pub fn image_generation_time(
    model: ImageModelKind,
    device: &DeviceProfile,
    width: u32,
    height: u32,
    steps: u32,
) -> Option<f64> {
    let prof = image_profile(model);
    if prof.server_only {
        return None;
    }
    let sd3 = image_profile(ImageModelKind::Sd3Medium);
    // Model cost relative to SD 3 on this device class. The laptop column
    // exists for all local models; the mobile profile reuses it.
    let (model_sps, sd3_sps) = match device.kind {
        crate::device::DeviceKind::Workstation => (
            prof.workstation_s_per_step?,
            sd3.workstation_s_per_step.expect("sd3 runs everywhere"),
        ),
        _ => (
            prof.laptop_s_per_step?,
            sd3.laptop_s_per_step.expect("sd3 runs everywhere"),
        ),
    };
    let pixels = u64::from(width) * u64::from(height);
    let base = sd3_time_at(device, pixels);
    Some(base * (f64::from(steps.max(1)) / ANCHOR_STEPS) * (model_sps / sd3_sps))
}

/// Seconds per inference step at the Table 1 operating point (224²).
pub fn time_per_step(model: ImageModelKind, device: &DeviceProfile) -> Option<f64> {
    image_generation_time(model, device, 224, 224, 15).map(|t| t / 15.0)
}

/// Fraction of a single image's per-step cost that is fixed launch
/// overhead (weight streaming, scheduler bookkeeping, kernel dispatch)
/// and therefore amortizes when N same-profile latents share one
/// denoising pass. The remaining `1 - BATCH_OVERHEAD_FRACTION` is
/// per-latent arithmetic that scales with batch size.
pub const BATCH_OVERHEAD_FRACTION: f64 = 0.7;

/// Per-image seconds when `batch` same-profile images share one batched
/// denoising pass on `device`.
///
/// The model splits the single-image time into a fixed per-step overhead
/// (`BATCH_OVERHEAD_FRACTION`) paid once per batch and a marginal
/// per-latent share paid per image:
///
/// ```text
/// t(batch) = t(1) · (overhead / batch + (1 − overhead))
/// ```
///
/// At `batch == 1` this is *exactly* [`image_generation_time`] — the
/// paper's Table 1/2 anchors are untouched — and it saturates toward the
/// marginal fraction as the batch grows (≈2.6× per-image speedup at a
/// batch of 8). `None` when the model cannot run on this device.
pub fn batched_image_generation_time(
    model: ImageModelKind,
    device: &DeviceProfile,
    width: u32,
    height: u32,
    steps: u32,
    batch: usize,
) -> Option<f64> {
    let single = image_generation_time(model, device, width, height, steps)?;
    let n = batch.max(1) as f64;
    Some(single * (BATCH_OVERHEAD_FRACTION / n + (1.0 - BATCH_OVERHEAD_FRACTION)))
}

/// Seconds for one **tiled** batched denoising pass: `batch` images split
/// across `lanes` data-parallel kernel lanes, each lane running a
/// contiguous tile of `ceil(batch / lanes)` images as its own batched
/// pass.
///
/// Lanes execute concurrently, so the pass costs its slowest (= largest)
/// tile: `tile · t(tile)` with `t` from
/// [`batched_image_generation_time`]. The two effects pull against each
/// other — more lanes buy concurrency but shrink each tile's batch
/// amortization — which is why the model is a product, not a naive
/// `1/lanes`: at `batch == 8`, 8 lanes model ≈3.1× over one lane, not 8×.
///
/// At `lanes == 1` this is exactly
/// `batch · batched_image_generation_time(.., batch)` — the scalar
/// step-major pass, leaving all pre-tiling accounting untouched. Lanes
/// beyond `batch` are idle and do not help. `None` when the model cannot
/// run on this device.
pub fn tiled_batch_pass_time(
    model: ImageModelKind,
    device: &DeviceProfile,
    width: u32,
    height: u32,
    steps: u32,
    batch: usize,
    lanes: usize,
) -> Option<f64> {
    let batch = batch.max(1);
    let tile = batch.div_ceil(lanes.clamp(1, batch));
    let per_image = batched_image_generation_time(model, device, width, height, steps, tile)?;
    Some(tile as f64 * per_image)
}

/// Seconds to expand text to `words` words with `model` on `device`.
///
/// Dominated by the model's reasoning phase; the per-word term is small
/// and a deterministic sinusoidal jitter (±8%) makes the dependence on
/// length non-monotonic, as the paper observes ("50 words text takes
/// longer than 100 and 150 words text for three of the models").
pub fn text_generation_time(model: TextModelKind, device: &DeviceProfile, words: usize) -> f64 {
    let prof = text_profile(model);
    let ws_time = prof.workstation_think_s + words as f64 * prof.workstation_s_per_word;
    let jitter = 1.0 + 0.10 * ((words as f64 * 0.045 + prof.workstation_think_s).sin());
    let device_factor = if device.text_slowdown > 1.0 {
        prof.laptop_slowdown * device.text_slowdown / 2.5
    } else {
        1.0
    };
    ws_time * jitter * device_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{profile, DeviceKind};

    fn laptop() -> DeviceProfile {
        profile(DeviceKind::Laptop)
    }

    fn ws() -> DeviceProfile {
        profile(DeviceKind::Workstation)
    }

    #[test]
    fn table1_time_per_step_reproduced() {
        // Paper Table 1, 224², 15 steps.
        let cases = [
            (ImageModelKind::Sd21Base, 0.18, 0.02),
            (ImageModelKind::Sd3Medium, 0.38, 0.05),
            (ImageModelKind::Sd35Medium, 0.59, 0.06),
        ];
        for (model, lap_expect, ws_expect) in cases {
            let lap = time_per_step(model, &laptop()).unwrap();
            let wst = time_per_step(model, &ws()).unwrap();
            assert!(
                (lap - lap_expect).abs() / lap_expect < 0.02,
                "{model:?} laptop {lap:.3} vs {lap_expect}"
            );
            assert!(
                (wst - ws_expect).abs() / ws_expect < 0.02,
                "{model:?} ws {wst:.3} vs {ws_expect}"
            );
        }
    }

    #[test]
    fn dalle_has_no_local_time() {
        assert!(time_per_step(ImageModelKind::Dalle3, &laptop()).is_none());
        assert!(time_per_step(ImageModelKind::Dalle3, &ws()).is_none());
    }

    #[test]
    fn table2_generation_times_reproduced() {
        // SD 3 Medium at 15 steps: the Table 2 anchors must come back out.
        let cases: [(u32, f64, f64); 3] = [(256, 7.0, 1.0), (512, 19.0, 1.7), (1024, 310.0, 6.2)];
        for (side, lap_expect, ws_expect) in cases {
            let lap = image_generation_time(ImageModelKind::Sd3Medium, &laptop(), side, side, 15)
                .unwrap();
            let wst =
                image_generation_time(ImageModelKind::Sd3Medium, &ws(), side, side, 15).unwrap();
            assert!(
                (lap - lap_expect).abs() / lap_expect < 1e-9,
                "laptop {side}: {lap}"
            );
            assert!(
                (wst - ws_expect).abs() / ws_expect < 1e-9,
                "ws {side}: {wst}"
            );
        }
    }

    #[test]
    fn time_linear_in_steps() {
        // Paper §6.3.1: generation time increases linearly with steps.
        let t15 = image_generation_time(ImageModelKind::Sd3Medium, &ws(), 512, 512, 15).unwrap();
        let t30 = image_generation_time(ImageModelKind::Sd3Medium, &ws(), 512, 512, 30).unwrap();
        let t60 = image_generation_time(ImageModelKind::Sd3Medium, &ws(), 512, 512, 60).unwrap();
        assert!((t30 / t15 - 2.0).abs() < 1e-9);
        assert!((t60 / t15 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn laptop_superlinear_at_large_sizes() {
        // 512² → 1024² is 4× the pixels. The workstation grows ≈4×; the
        // laptop blows past 10× (attention splitting).
        let lap_ratio = image_generation_time(ImageModelKind::Sd3Medium, &laptop(), 1024, 1024, 15)
            .unwrap()
            / image_generation_time(ImageModelKind::Sd3Medium, &laptop(), 512, 512, 15).unwrap();
        let ws_ratio = image_generation_time(ImageModelKind::Sd3Medium, &ws(), 1024, 1024, 15)
            .unwrap()
            / image_generation_time(ImageModelKind::Sd3Medium, &ws(), 512, 512, 15).unwrap();
        assert!(lap_ratio > 10.0, "laptop ratio {lap_ratio:.1}");
        assert!(ws_ratio < 5.0, "ws ratio {ws_ratio:.1}");
    }

    #[test]
    fn interpolation_is_monotonic_between_anchors() {
        let mut prev = 0.0;
        for side in (64..=1400).step_by(50) {
            let t = image_generation_time(ImageModelKind::Sd3Medium, &laptop(), side, side, 15)
                .unwrap();
            assert!(t > prev, "non-monotonic at {side}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn batch_of_one_matches_single_image_time_exactly() {
        for (w, h, steps) in [(256, 256, 15), (512, 512, 30), (64, 64, 7)] {
            let single =
                image_generation_time(ImageModelKind::Sd3Medium, &ws(), w, h, steps).unwrap();
            let b1 =
                batched_image_generation_time(ImageModelKind::Sd3Medium, &ws(), w, h, steps, 1)
                    .unwrap();
            assert_eq!(single, b1, "{w}x{h}@{steps}");
        }
    }

    #[test]
    fn batch_of_eight_amortizes_at_least_two_x() {
        let t1 = batched_image_generation_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 1)
            .unwrap();
        let t8 = batched_image_generation_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8)
            .unwrap();
        assert!(t1 / t8 >= 2.0, "batch-8 speedup only {:.2}x", t1 / t8);
    }

    #[test]
    fn batched_time_monotonically_decreases_and_saturates() {
        let mut prev = f64::MAX;
        for n in 1..=64 {
            let t =
                batched_image_generation_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, n)
                    .unwrap();
            assert!(t < prev, "batch {n} not cheaper per image");
            // Never below the marginal per-latent share.
            let floor = image_generation_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15)
                .unwrap()
                * (1.0 - BATCH_OVERHEAD_FRACTION);
            assert!(t > floor);
            prev = t;
        }
    }

    #[test]
    fn one_lane_pass_is_exactly_the_scalar_batched_pass() {
        for batch in [1usize, 3, 8, 16] {
            let pass =
                tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, batch, 1)
                    .unwrap();
            let scalar = batched_image_generation_time(
                ImageModelKind::Sd3Medium,
                &ws(),
                256,
                256,
                15,
                batch,
            )
            .unwrap()
                * batch as f64;
            assert_eq!(pass, scalar, "batch={batch}");
        }
    }

    #[test]
    fn eight_lanes_at_batch_eight_speed_up_at_least_1_5x() {
        let scalar =
            tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, 1).unwrap();
        let tiled =
            tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, 8).unwrap();
        let speedup = scalar / tiled;
        // 8 lanes of batch-1 tiles vs one batch-8 pass:
        // 8·t1·(0.7/8 + 0.3) / t1 = 3.1.
        assert!(
            (speedup - 3.1).abs() < 1e-9,
            "modelled 8-lane speedup {speedup:.3}x"
        );
    }

    #[test]
    fn lane_speedup_is_monotone_but_sublinear() {
        let base = tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, 1);
        let mut prev = base.unwrap();
        for lanes in [2usize, 4, 8] {
            let t = tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, lanes)
                .unwrap();
            assert!(t < prev, "lanes={lanes} not faster");
            // Sublinear: shrinking tiles forfeits batch amortization.
            assert!(
                base.unwrap() / t < lanes as f64,
                "lanes={lanes} modelled superlinear"
            );
            prev = t;
        }
        // Lanes beyond the batch are idle.
        assert_eq!(
            tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, 8),
            tiled_batch_pass_time(ImageModelKind::Sd3Medium, &ws(), 256, 256, 15, 8, 64),
        );
    }

    #[test]
    fn batched_time_none_for_server_only_models() {
        assert!(
            batched_image_generation_time(ImageModelKind::Dalle3, &ws(), 256, 256, 15, 4).is_none()
        );
    }

    #[test]
    fn text_times_in_paper_ranges() {
        // §6.3.2: 6.98–14.33 s workstation, 16.06–34.04 s laptop.
        let mut ws_min = f64::MAX;
        let mut ws_max = f64::MIN;
        let mut lap_min = f64::MAX;
        let mut lap_max = f64::MIN;
        for model in TextModelKind::all() {
            for words in [50, 100, 150, 200, 250] {
                let tw = text_generation_time(model, &ws(), words);
                let tl = text_generation_time(model, &laptop(), words);
                ws_min = ws_min.min(tw);
                ws_max = ws_max.max(tw);
                lap_min = lap_min.min(tl);
                lap_max = lap_max.max(tl);
            }
        }
        assert!((5.5..8.5).contains(&ws_min), "ws_min={ws_min:.2}");
        assert!((13.0..17.5).contains(&ws_max), "ws_max={ws_max:.2}");
        assert!((13.0..20.0).contains(&lap_min), "lap_min={lap_min:.2}");
        assert!((30.0..45.0).contains(&lap_max), "lap_max={lap_max:.2}");
    }

    #[test]
    fn text_length_dependence_is_weak_and_nonmonotonic() {
        // Somewhere in the grid a shorter text must take longer.
        let mut found_inversion = false;
        for model in TextModelKind::all() {
            let t50 = text_generation_time(model, &ws(), 50);
            let t100 = text_generation_time(model, &ws(), 100);
            let t150 = text_generation_time(model, &ws(), 150);
            if t50 > t100 || t100 > t150 {
                found_inversion = true;
            }
            // Weak dependence: tripling words changes time < 40%.
            assert!((t150 - t50).abs() / t50 < 0.4);
        }
        assert!(
            found_inversion,
            "expected a non-monotonic case, as in the paper"
        );
    }

    #[test]
    fn workstation_text_speedup_is_modest() {
        // Paper: "The performance benefit of running on a workstation is
        // only 2.5×" for text.
        for model in TextModelKind::all() {
            let ratio = text_generation_time(model, &laptop(), 150)
                / text_generation_time(model, &ws(), 150);
            assert!((2.0..3.0).contains(&ratio), "{model:?}: {ratio:.2}");
        }
    }

    #[test]
    fn mobile_is_slower_than_laptop() {
        let mobile = profile(DeviceKind::Mobile);
        let tm = image_generation_time(ImageModelKind::Sd3Medium, &mobile, 256, 256, 15).unwrap();
        let tl = image_generation_time(ImageModelKind::Sd3Medium, &laptop(), 256, 256, 15).unwrap();
        assert!(tm > tl * 2.0);
    }
}
