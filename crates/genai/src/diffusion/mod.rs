//! Procedural latent-denoising image synthesis — the stand-in for Stable
//! Diffusion in the paper's prototype (see DESIGN.md substitutions).
//!
//! The mechanism mirrors a diffusion sampler's shape: a seeded noise
//! latent is refined toward a prompt-derived semantic target over N
//! inference steps through a decaying-sigma schedule, then decoded to RGB.
//! Model profiles differ in how faithfully their target matches the ideal
//! prompt field (`quality`) and in per-step cost, both calibrated to the
//! paper's Table 1. Because fidelity is planted in a measurable feature
//! space, the CLIP-sim metric *measures* quality from pixels rather than
//! reading it from a table.
//!
//! # Kernel shape (PR 6)
//!
//! The batched kernel is **step-major** (all latents advance one sigma
//! step together) and, within a step, each job refreshes a noise scratch
//! from its private RNG and then runs a pure element-wise update the
//! compiler vectorizes — the serial RNG draw is separated from the
//! arithmetic, but the per-cell floating-point expression and draw order
//! are exactly the original fused loop's, so outputs stay bit-identical.
//! Because each [`LatentJob`] owns its RNG, target and latent, the batch
//! is also data-parallel across jobs:
//! [`DiffusionModel::try_generate_batch_on`] splits a batch into tiles and
//! runs them on any [`TileRunner`] with, again, bit-identical output for
//! every tile/worker count. Scratch buffers come from [`crate::pool`], so
//! a warm server denoises without allocating.
//!
//! # Noise lattice (PR 13)
//!
//! The spatial fields around the step loop — a job's `model_distortion`
//! target and decode's aesthetic colour field — are fbm over a lattice of
//! a few hundred points, evaluated at thousands of pixels. Each is a
//! [`noise::FbmField`]: the lattice is hashed **once per image** into a
//! 4 KB stack table (`prepare_job` builds one, `decode` builds one). The
//! table stores exactly the values the hash returns and `FbmField::at`
//! runs the same interpolation body as `noise::fbm`, so pixels are
//! bit-identical to hashing every corner; `tests/golden_pixels.rs` pins
//! them to digests recorded before the change.
//!
//! # Noise draws (PR 18)
//!
//! What PR 6 left serial was the draws themselves: 20 480 Box–Muller
//! draws for a 64², 15-step image (1 024 latent + 15 × 1 024 step noise +
//! 4 096 decode noise), each a libm `ln` and `cos` call — two thirds of
//! `generate`. The three planes are now filled by
//! [`Rng::fill_gaussian`](crate::rng::Rng::fill_gaussian), which applies
//! PR 6's idea one level down: only the xoshiro uniforms are drawn
//! serially, and `ln`/`cos`/`sqrt` run over them as an element-wise pass
//! through in-crate kernels (`rng.rs` says what they guarantee). Draw
//! order, seeds and every expression outside the draw are unchanged, and
//! a fill is bit-identical to scalar draws, so every same-build identity
//! above still holds. Across the change 5.9 % of draws moved, by ≤ 3 ULP:
//! latents are *not* bit-identical to PR 17's, pixels are
//! (`golden_pixels`, whose 1 030-image sweep row was recorded before the
//! change).
//!
//! # Decode by lines, four lanes wide (PR 20)
//!
//! After PR 18 the largest piece of a cold image that was not a draw was
//! `decode`'s per-pixel arithmetic: per pixel it re-read 4–12 lattice
//! corners, re-interpolated them in x and gathered four latent cells,
//! although almost none of that changes from one image row to the next.
//!
//! **What is hoisted.** `decode_strip` walks a strip of `DECODE_STRIP`
//! columns down the image a row at a time. A [`noise::FbmSweep`] holds,
//! per octave, each column's point on the lattice line below the current
//! row and on the line above it — the x-interpolation — and recomputes
//! the pair only when a row crosses into another lattice row, every 3–20
//! image rows; the row itself is one blend per column and octave. The
//! bilinear sample of the latent grid is split the same way: the four
//! cells a pixel reads, times its column's x weights, are kept as four
//! lines and refreshed when the row's grid lines change (every ~2 rows
//! at 64²); a row multiplies them by its two y weights. `smooth_field`
//! (`model_distortion` per image, the basis patterns once) takes the same
//! sweep over its 32 × 32 grid.
//!
//! **Why association is the contract.** Hoisting moves *where* a product
//! is computed, never how an expression associates: a lattice line is
//! `v0 + (v1 − v0)·fx` as `value_noise_on` wrote it; the sample is
//! `((g00·near_x)·near_y + (g01·far_x)·near_y + (g10·near_x)·far_y +
//! (g11·far_x)·far_y) · 60`, summed left to right as the per-pixel
//! bilinear sample was; a channel is `(base + s) + n`, not
//! `base + (s + n)`. Floating-point addition does not associate, so any
//! other grouping is a different image. Unlike PR 18, identity is claimed
//! at the `f64`: latents, the fields and every intermediate are the
//! parent's bits, not only the pixels. `tests/golden_pixels.rs` (its
//! `shapes` row — 675 images over one-pixel axes, strip edges and partial
//! codec blocks — recorded at the parent) and `tests/proptest_noise.rs`
//! (a sweep's rows ≡ the verbatim pre-PR-13 `fbm`, rows in any order)
//! hold it.
//!
//! **What `wide!` promises.** The element-wise loops — the gaussian pass
//! of a fill, `denoise_update`, `decode_strip`, the grid sweep,
//! `semantic_target`'s accumulation, the codec's encode — are each
//! defined once and compiled twice by `lanes.rs`'s `wide!`: for the
//! build's baseline (SSE2 on x86-64, two `f64` lanes, `floor` a libm
//! call) and with AVX2 enabled (four lanes, `floor` an instruction),
//! chosen at run time by what the CPU reports. The same IEEE `+ − × ÷
//! sqrt floor` run in each lane either way, and `fma` is never enabled,
//! so the two copies return the same bits; a unit test beside each
//! kernel runs both and compares, in debug and in release. The macro's
//! dispatch is the crate's only `unsafe`. There is nothing to configure:
//! no feature, flag or environment variable selects a copy.

pub mod field;
pub mod models;
pub mod noise;
pub mod scheduler;
pub mod tile;

pub use models::{ImageModelKind, ImageModelProfile};
pub use tile::{InlineRunner, TileRunner, TileTask, Tiling};

use crate::image::ImageBuffer;
use crate::lanes::wide;
use crate::pool::{self, PooledF64};
use crate::prompt::{PromptFeatures, TextureClass, EMBED_DIM};
use crate::rng::Rng;
use field::{semantic_target, smooth_field, GRID};
use noise::FbmField;
use scheduler::Schedule;
use std::sync::{Arc, Mutex};

/// Amplitude of the semantic luminance field planted into the image.
pub const SEMANTIC_AMPLITUDE: f64 = 60.0;

/// Result slot a tile task writes back into; `None` until the task ran,
/// which is how the kernel detects a runner that dropped a tile.
type TileSlot<T> = Arc<Mutex<Option<T>>>;

/// A cooperative cancellation probe checked once per denoise step.
///
/// The serving layer sits *above* this crate (`sww-core` depends on
/// `sww-genai`), so the step loop cannot know about request deadlines or
/// waiter refcounts directly. Instead it accepts this opaque probe: a
/// cheap `Fn() -> bool` the caller builds from whatever lifecycle state
/// it tracks. Returning `true` means "nobody wants this image anymore";
/// the kernel then abandons the batch before the next sigma step —
/// bounding wasted work to at most one step past the cancellation.
///
/// [`StepCancel::never`] is the identity probe: a caller with no
/// lifecycle to track passes it, and the loop runs to completion.
#[derive(Clone)]
pub struct StepCancel {
    check: Arc<dyn Fn() -> bool + Send + Sync>,
}

impl StepCancel {
    /// A probe that never fires: the denoise loop runs to completion.
    #[must_use]
    pub fn never() -> StepCancel {
        StepCancel {
            check: Arc::new(|| false),
        }
    }

    /// Build a probe from an arbitrary predicate.
    #[must_use]
    pub fn from_fn(f: impl Fn() -> bool + Send + Sync + 'static) -> StepCancel {
        StepCancel { check: Arc::new(f) }
    }

    /// Evaluate the probe. Called once per denoise step per batch (once
    /// per step *per tile* on the tiled paths), so a relaxed atomic load
    /// or two is the expected cost.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        (self.check)()
    }
}

impl std::fmt::Debug for StepCancel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StepCancel {{ cancelled: {} }}", self.is_cancelled())
    }
}

/// A ready-to-run text-to-image model.
#[derive(Debug, Clone)]
pub struct DiffusionModel {
    profile: ImageModelProfile,
}

impl DiffusionModel {
    /// Instantiate a named model.
    pub fn new(kind: ImageModelKind) -> DiffusionModel {
        DiffusionModel {
            profile: models::profile(kind),
        }
    }

    /// Instantiate a model with an overridden quality parameter — used by
    /// the calibration harness and quality-ablation benches.
    pub fn with_quality(kind: ImageModelKind, quality: f64) -> DiffusionModel {
        let mut profile = models::profile(kind);
        profile.quality = quality.clamp(0.0, 1.0);
        DiffusionModel { profile }
    }

    /// The model's profile (quality, cost, ELO calibration).
    pub fn profile(&self) -> &ImageModelProfile {
        &self.profile
    }

    /// Generate an image from a prompt. Deterministic in
    /// `(prompt, width, height, steps, model)`. This is the single-image
    /// reference every batched, tiled or served image is compared with:
    /// a batch of one through the same body, with a probe that never
    /// fires.
    pub fn generate(&self, prompt: &str, width: u32, height: u32, steps: u32) -> ImageBuffer {
        let span = sww_obs::Span::begin("embed");
        let features = PromptFeatures::analyze(prompt);
        span.finish(sww_obs::Registry::global(), crate::STAGE_WALL_SECONDS);
        self.generate_tile(&[features], width, height, steps, &StepCancel::never())
            .and_then(|mut images| images.pop())
            .expect("StepCancel::never cannot abort a generation")
    }

    /// One tile of a pass, start to finish on the calling thread: all
    /// latents advance together, one sigma step at a time, then each
    /// decodes at the shared `width`×`height`. Every job keeps its own
    /// prompt-seeded RNG stream and latent field, so an image's draws and
    /// float operations are the same whatever it shares a tile with. The
    /// probe is checked once per shared sigma step (not per job); `None`
    /// means the tile was abandoned mid-loop and nothing was decoded.
    fn generate_tile(
        &self,
        features: &[PromptFeatures],
        width: u32,
        height: u32,
        steps: u32,
        cancel: &StepCancel,
    ) -> Option<Vec<ImageBuffer>> {
        let denoise_span = sww_obs::Span::begin("denoise");
        let schedule = Schedule::new(steps.max(1));
        let mut jobs: Vec<LatentJob> = features.iter().map(|f| self.prepare_job(f)).collect();
        let completed = try_denoise_batch(&schedule, &mut jobs, cancel);
        denoise_span.finish(sww_obs::Registry::global(), crate::STAGE_WALL_SECONDS);
        if !completed {
            return None;
        }

        Some(
            features
                .iter()
                .zip(jobs.iter_mut())
                .map(|(f, job)| {
                    let decode_span = sww_obs::Span::begin("decode");
                    let out = self.decode(f, &job.latent, width, height, &mut job.rng);
                    decode_span.finish(sww_obs::Registry::global(), crate::STAGE_WALL_SECONDS);
                    out
                })
                .collect(),
        )
    }

    /// Generate one image per prompt through a single denoising pass —
    /// the entry point serving calls. The batch splits into at most
    /// [`Tiling::max_tiles`] contiguous tiles of jobs and each tile —
    /// prepare, denoise, decode — runs as one task on the plan's runner.
    ///
    /// Per-image output is **bit-identical** to [`generate`] for every
    /// batch size, tile count and worker count: jobs never share state,
    /// so batching restructures the loop nesting (step-major over a
    /// tile) and tiling only changes *where* a job's instruction stream
    /// executes, never its contents. With a plan of one tile or a
    /// single-job batch the pass runs on the calling thread and the
    /// runner is not involved.
    ///
    /// Cancellation is batch-as-a-unit — callers fire the probe only
    /// when nobody wants any image of the batch — but each tile polls it
    /// independently (once per step per tile); if any tile observes the
    /// probe and aborts, the whole call returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if `runner` violates the [`TileRunner`] contract by dropping
    /// a task without running it.
    ///
    /// [`generate`]: DiffusionModel::generate
    pub fn try_generate_batch_on(
        &self,
        features: &[PromptFeatures],
        width: u32,
        height: u32,
        steps: u32,
        cancel: &StepCancel,
        tiling: Tiling<'_>,
    ) -> Option<Vec<ImageBuffer>> {
        let tiles = tiling.max_tiles.min(features.len()).max(1);
        if tiles <= 1 {
            return self.generate_tile(features, width, height, steps, cancel);
        }
        let chunk = features.len().div_ceil(tiles);
        let slots: Vec<TileSlot<Option<Vec<ImageBuffer>>>> = features
            .chunks(chunk)
            .map(|_| Arc::new(Mutex::new(None)))
            .collect();
        let tasks: Vec<TileTask> = features
            .chunks(chunk)
            .zip(&slots)
            .map(|(tile_features, slot)| {
                let slot = Arc::clone(slot);
                let model = self.clone();
                let tile_features = tile_features.to_vec();
                let cancel = cancel.clone();
                Box::new(move || {
                    let result = model.generate_tile(&tile_features, width, height, steps, &cancel);
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }) as TileTask
            })
            .collect();
        tiling.runner.run_all(tasks);

        let mut out = Vec::with_capacity(features.len());
        for slot in slots {
            match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(Some(images)) => out.extend(images),
                Some(None) => return None,
                None => panic!("TileRunner dropped a tile without running it"),
            }
        }
        Some(out)
    }

    /// Build one image's denoising state: its private prompt-seeded RNG,
    /// the quality-degraded semantic target, and the noise-initialized
    /// latent (one [`Rng::fill_gaussian`] over the plane) — all in buffers
    /// checked out of `crate::pool::latent_pool`.
    /// The RNG draw order (latent init, then denoise, then decode) is the
    /// contract the batch kernel's bit-identity rests on.
    ///
    /// Public so kernel-level callers (the property tests) can drive
    /// `try_denoise_batch` directly.
    pub fn prepare_job(&self, features: &PromptFeatures) -> LatentJob {
        let mut rng = Rng::new(features.seed ^ self.profile.seed_salt);

        // The model's target: the ideal semantic field degraded by model
        // quality — weaker models blend in a model-specific distortion.
        let ideal = semantic_target(&features.embedding);
        let distortion = self.model_distortion(features.seed);
        let q = self.profile.quality;
        let mut target = pool::latent_pool().acquire(GRID * GRID);
        for (i, t) in target.iter_mut().enumerate() {
            *t = q * ideal[i] + (1.0 - q) * distortion[i];
        }

        let mut latent = pool::latent_pool().acquire(GRID * GRID);
        rng.fill_gaussian(&mut latent);
        let noise = pool::latent_pool().acquire(GRID * GRID);
        LatentJob {
            rng,
            target,
            latent,
            noise,
        }
    }

    /// Model-specific smooth distortion field: what a weaker model "sees"
    /// instead of the prompt.
    fn model_distortion(&self, prompt_seed: u64) -> [f64; GRID * GRID] {
        let seed = prompt_seed
            .rotate_left(17)
            .wrapping_add(self.profile.seed_salt);
        let mut out = smooth_field(seed, 3.0);
        for v in &mut out {
            *v *= 3.5;
        }
        out
    }

    /// Decode the latent to RGB: aesthetic base color from the palette and
    /// texture class, plus the semantic luminance field, plus residual
    /// noise that the schedule did not remove.
    ///
    /// Two passes: the residual-noise plane is drawn first, row-major
    /// (one [`Rng::fill_gaussian`]: the stream the fused pre-PR-6 loop
    /// consumed, in its order), into a pooled scratch; the combine is then
    /// pure arithmetic over it, so it may visit pixels in any order. It
    /// visits them a strip of [`DECODE_STRIP`] columns at a time, and
    /// within a strip a row at a time (`decode_strip`). Output is
    /// bit-identical to the fused loop.
    fn decode(
        &self,
        features: &PromptFeatures,
        latent: &[f64],
        width: u32,
        height: u32,
        rng: &mut Rng,
    ) -> ImageBuffer {
        let (w, h) = (width as usize, height as usize);
        let residual = 3.5 * (1.0 - self.profile.quality);
        let mut noise = pool::decode_pool().acquire(w * h);
        rng.fill_gaussian(&mut noise);
        let aesthetic = Aesthetic::new(features);
        let mut data = vec![0u8; w * h * 3];
        for left in (0..width).step_by(DECODE_STRIP) {
            let size = (width, height);
            decode_strip(&aesthetic, latent, &noise, residual, left, size, &mut data);
        }
        ImageBuffer::from_data(width, height, data)
    }

    /// Extract the image's embedding in the shared prompt/image feature
    /// space: downsample to the latent grid, remove the aesthetic mean,
    /// and project onto the basis patterns. This is what CLIP-sim consumes.
    pub fn image_embedding(img: &ImageBuffer) -> [f32; EMBED_DIM] {
        let grid = img.downsample(GRID as u32, GRID as u32);
        // Luminance deviation field.
        let lum: Vec<f64> = grid
            .iter()
            .map(|rgb| (rgb[0] + rgb[1] + rgb[2]) / 3.0)
            .collect();
        let mean = lum.iter().sum::<f64>() / lum.len() as f64;
        let dev: Vec<f64> = lum
            .iter()
            .map(|l| (l - mean) / SEMANTIC_AMPLITUDE)
            .collect();
        field::project(&dev)
    }
}

/// Image columns [`DiffusionModel::decode`] combines per pass over the
/// rows. Everything a strip keeps per column sits on the stack (~220 B a
/// column), so the scratch is the same 28 KB whatever the image width.
const DECODE_STRIP: usize = 128;

wide! {
    /// Fill the strip of up to [`DECODE_STRIP`] columns from `left` of a
    /// `size.0 × size.1` image, row by row. What depends only on a pixel's
    /// column is computed once, up front. What depends on its row but
    /// changes slowly is kept and refreshed when it changes: the noise
    /// field's lattice lines (inside the [`noise::FbmSweep`]) and the two
    /// latent grid rows the image row lies between, already weighted in
    /// x. A row is then four short passes over contiguous arrays.
    fn decode_strip(
        aesthetic: &Aesthetic,
        latent: &[f64],
        noise: &[f64],
        residual: f64,
        left: u32,
        size: (u32, u32),
        data: &mut [u8],
    ) {
        debug_assert_eq!(latent.len(), GRID * GRID);
        let (width, height) = size;
        let w = width as usize;
        let cols = DECODE_STRIP.min(w - left as usize);
        let u = |x: u32| f64::from(x) / f64::from(width.max(1));
        let mut sweep = aesthetic
            .field
            .sweep::<DECODE_STRIP>((left..).take(cols).map(|x| aesthetic.coord(u(x))));
        let mut grid_cols = [GridAxis::default(); DECODE_STRIP];
        for (x, col) in (left..).zip(&mut grid_cols[..cols]) {
            *col = GridAxis::at(u(x));
        }
        let grid_cols = &grid_cols[..cols];

        // The x half of the bilinear sample (see `GridAxis`): latent rows
        // `i0` and `i1` read at each column's two grid lines and weighted
        // by its `near` / `far`, for the `(i0, i1)` in `sampled`.
        let mut sampled = None;
        let mut upper = [[0.0f64; DECODE_STRIP]; 2];
        let mut lower = [[0.0f64; DECODE_STRIP]; 2];

        let mut fbm = [0.0f64; DECODE_STRIP];
        let mut semantic = [0.0f64; DECODE_STRIP];
        let mut grain = [0.0f64; DECODE_STRIP];
        let (fbm, semantic, grain) = (&mut fbm[..cols], &mut semantic[..cols], &mut grain[..cols]);
        for y in 0..height {
            let v = f64::from(y) / f64::from(height.max(1));
            sweep.row(aesthetic.coord(v), fbm);

            let grid_row = GridAxis::at(v);
            if sampled != Some((grid_row.i0, grid_row.i1)) {
                sampled = Some((grid_row.i0, grid_row.i1));
                let row0 = &latent[grid_row.i0 * GRID..][..GRID];
                let row1 = &latent[grid_row.i1 * GRID..][..GRID];
                for (c, x) in grid_cols.iter().enumerate() {
                    upper[0][c] = row0[x.i0] * x.near;
                    upper[1][c] = row0[x.i1] * x.far;
                    lower[0][c] = row1[x.i0] * x.near;
                    lower[1][c] = row1[x.i1] * x.far;
                }
            }
            // The y half: four products summed left to right, then scaled.
            let (near, far) = (grid_row.near, grid_row.far);
            for (c, s) in semantic.iter_mut().enumerate() {
                *s = (upper[0][c] * near + upper[1][c] * near + lower[0][c] * far + lower[1][c] * far)
                    * SEMANTIC_AMPLITUDE;
            }

            let at = y as usize * w + left as usize;
            for (g, n) in grain.iter_mut().zip(&noise[at..]) {
                *g = n * residual;
            }

            let pixels = data[at * 3..].chunks_exact_mut(3);
            for (((px, &f), &s), &n) in pixels.zip(&*fbm).zip(&*semantic).zip(&*grain) {
                let base = aesthetic.color(v, f);
                // `(base + s) + n`, never `base + (s + n)`.
                px[0] = (base[0] + s + n).clamp(0.0, 255.0) as u8;
                px[1] = (base[1] + s + n).clamp(0.0, 255.0) as u8;
                px[2] = (base[2] + s + n).clamp(0.0, 255.0) as u8;
            }
        }
    }
}

/// The prompt's aesthetic base-colour field over `(u, v) ∈ [0, 1)²`: the
/// palette swept by an fbm whose shape the texture class picks. Built
/// once per decode, so the noise lattice is hashed once per image.
struct Aesthetic {
    palette: Vec<[f64; 3]>,
    texture: TextureClass,
    scale: f64,
    field: FbmField,
}

impl Aesthetic {
    fn new(features: &PromptFeatures) -> Aesthetic {
        let (scale, octaves) = match features.texture {
            TextureClass::Banded => (4.0, 2),
            TextureClass::Organic => (3.0, 3),
            TextureClass::Geometric => (5.0, 1),
        };
        Aesthetic {
            palette: features.palette.iter().map(|c| c.map(f64::from)).collect(),
            texture: features.texture,
            scale,
            field: FbmField::new(features.seed, octaves, scale, scale),
        }
    }

    /// Image coordinate to noise coordinate; `Geometric` snaps to the
    /// lattice, which is what makes its cells hard-edged.
    #[inline(always)]
    fn coord(&self, t: f64) -> f64 {
        match self.texture {
            TextureClass::Geometric => (t * self.scale).floor(),
            TextureClass::Banded | TextureClass::Organic => t * self.scale,
        }
    }

    /// The base colour where the noise field reads `n`, on the image row
    /// at `v`.
    #[inline(always)]
    fn color(&self, v: f64, n: f64) -> [f64; 3] {
        let t = match self.texture {
            // Horizon bands: palette sweeps top to bottom.
            TextureClass::Banded => v + 0.08 * n,
            // Soft blobs, hard-edged cells.
            TextureClass::Organic | TextureClass::Geometric => 0.5 + 0.5 * n,
        };
        let idx = (t.clamp(0.0, 0.999) * self.palette.len() as f64) as usize;
        self.palette[idx.min(self.palette.len() - 1)]
    }
}

/// One image's in-flight denoising state: the latent field being refined,
/// its target, a per-step noise scratch, and the image's private
/// prompt-seeded RNG. Built by [`DiffusionModel::prepare_job`]; the field
/// buffers live in [`crate::pool::latent_pool`] and recycle on drop.
///
/// Keeping the RNG *inside* the job is what makes batched — and tiled —
/// denoising bit-identical to the single-image path: no matter how many
/// jobs share a [`try_denoise_batch`] pass or which thread a tile lands on,
/// each image consumes exactly the random stream it would have consumed
/// alone.
///
/// # Example
///
/// ```
/// use sww_genai::{DiffusionModel, ImageModelKind, PromptFeatures};
///
/// let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
/// let job = model.prepare_job(&PromptFeatures::analyze("a mountain lake"));
/// // The latent starts as pure prompt-seeded gaussian noise.
/// assert_eq!(job.latent().len(), 32 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct LatentJob {
    rng: Rng,
    target: PooledF64,
    latent: PooledF64,
    noise: PooledF64,
}

impl LatentJob {
    /// Read access to the latent field (`GRID²` cells, row-major).
    pub fn latent(&self) -> &[f64] {
        &self.latent
    }

    /// Advance this job one sigma step. The noise scratch is refreshed
    /// from the job's RNG first (one [`Rng::fill_gaussian`], serial only
    /// in its uniforms), then the update runs as a pure element-wise loop
    /// (`denoise_update`) — separable because the latent values never
    /// feed back into the RNG.
    fn step(&mut self, alpha: f64, sigma: f64) {
        self.rng.fill_gaussian(&mut self.noise);
        denoise_update(&mut self.latent, &self.target, &self.noise, alpha, sigma);
    }
}

wide! {
    /// One sigma step over a latent plane. The per-cell expression is kept
    /// literally as `l += alpha * (t - l) + sigma * g * 0.15`, so no
    /// floating-point operation is reassociated relative to the original
    /// fused loop.
    fn denoise_update(latent: &mut [f64], target: &[f64], noise: &[f64], alpha: f64, sigma: f64) {
        for ((l, &t), &g) in latent.iter_mut().zip(target).zip(noise) {
            *l += alpha * (t - *l) + sigma * g * 0.15;
        }
    }
}

/// The batched denoising kernel: advance every job's latent field through
/// the shared schedule, one sigma step at a time across the whole batch
/// (step-major, the memory-access shape a real batched sampler has).
///
/// All jobs must share the schedule — callers group work by (model,
/// resolution, steps) before batching. With a single job this executes
/// the exact instruction sequence of the pre-batching denoise loop.
///
/// The probe is evaluated once before each sigma step — per *step*, not
/// per job or per grid cell, so a pass costs one virtual call per step
/// and a cancelled flight wastes at most one step of work. Returns `true`
/// if the schedule ran to completion, `false` if the batch was abandoned
/// mid-loop (the jobs' latents are then partial and must not be decoded).
pub fn try_denoise_batch(schedule: &Schedule, jobs: &mut [LatentJob], cancel: &StepCancel) -> bool {
    for k in 0..schedule.steps() {
        if cancel.is_cancelled() {
            return false;
        }
        let alpha = schedule.alpha(k);
        let sigma = schedule.sigma(k);
        for job in jobs.iter_mut() {
            job.step(alpha, sigma);
        }
    }
    true
}

/// One axis of a bilinear sample of the coarse latent grid: the two grid
/// lines `t ∈ [0, 1]` falls between and its weight on each. The x axis
/// is fixed down an image column and the y axis along an image row; the
/// sample where they meet is
/// `g[y.i0][x.i0]·x.near·y.near + g[y.i0][x.i1]·x.far·y.near +
/// g[y.i1][x.i0]·x.near·y.far + g[y.i1][x.i1]·x.far·y.far`, summed left to
/// right, which `decode_strip` evaluates with the x products hoisted.
#[derive(Debug, Clone, Copy, Default)]
struct GridAxis {
    i0: usize,
    i1: usize,
    /// Weight of line `i1`; `near` is `1 - far`, the weight of `i0`.
    far: f64,
    near: f64,
}

impl GridAxis {
    #[inline(always)]
    fn at(t: f64) -> GridAxis {
        let p = t.clamp(0.0, 1.0) * (GRID - 1) as f64;
        let i0 = p.floor() as usize;
        let far = p - i0 as f64;
        GridAxis {
            i0,
            i1: (i0 + 1).min(GRID - 1),
            far,
            near: 1.0 - far,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{cosine, PromptFeatures};

    #[test]
    fn generation_is_deterministic() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let a = m.generate("a mountain lake at sunset", 64, 64, 15);
        let b = m.generate("a mountain lake at sunset", 64, 64, 15);
        assert_eq!(a, b);
    }

    #[test]
    fn denoise_batch_advances_equal_jobs_equally_and_stops_on_a_fired_probe() {
        let model = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let f = PromptFeatures::analyze("a mountain lake");
        let mut jobs = vec![model.prepare_job(&f), model.prepare_job(&f)];
        assert!(try_denoise_batch(
            &Schedule::new(4),
            &mut jobs,
            &StepCancel::never()
        ));
        // Same prompt, same schedule: the jobs advanced identically.
        assert_eq!(jobs[0].latent(), jobs[1].latent());
        // A pre-fired probe aborts before the first step runs.
        let mut jobs = vec![model.prepare_job(&f)];
        assert!(!try_denoise_batch(
            &Schedule::new(4),
            &mut jobs,
            &StepCancel::from_fn(|| true)
        ));
    }

    #[test]
    fn different_prompts_differ() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let a = m.generate("a mountain lake", 32, 32, 15);
        let b = m.generate("a city street at night", 32, 32, 15);
        assert_ne!(a, b);
    }

    #[test]
    fn better_model_recovers_prompt_better() {
        let prompt = "rolling green hills under a cloudy sky, landscape photograph";
        let f = PromptFeatures::analyze(prompt);
        let weak = DiffusionModel::new(ImageModelKind::Sd21Base).generate(prompt, 224, 224, 15);
        let strong = DiffusionModel::new(ImageModelKind::Dalle3).generate(prompt, 224, 224, 15);
        let cw = cosine(&DiffusionModel::image_embedding(&weak), &f.embedding);
        let cs = cosine(&DiffusionModel::image_embedding(&strong), &f.embedding);
        assert!(
            cs > cw,
            "DALLE-3 sim {cs:.3} should beat SD 2.1 sim {cw:.3}"
        );
    }

    #[test]
    fn more_steps_do_not_hurt_similarity_much() {
        // Paper §6.3.1: scaling steps 10→60 leaves CLIP roughly flat.
        let prompt = "a quiet forest with morning fog";
        let f = PromptFeatures::analyze(prompt);
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let c10 = cosine(
            &DiffusionModel::image_embedding(&m.generate(prompt, 128, 128, 10)),
            &f.embedding,
        );
        let c60 = cosine(
            &DiffusionModel::image_embedding(&m.generate(prompt, 128, 128, 60)),
            &f.embedding,
        );
        assert!((c10 - c60).abs() < 0.15, "c10={c10:.3} c60={c60:.3}");
    }

    #[test]
    fn requested_dimensions_respected() {
        let m = DiffusionModel::new(ImageModelKind::Sd21Base);
        for (w, h) in [(16, 16), (64, 32), (100, 100)] {
            let img = m.generate("x", w, h, 5);
            assert_eq!((img.width(), img.height()), (w, h));
        }
    }

    #[test]
    fn zero_steps_clamped() {
        let m = DiffusionModel::new(ImageModelKind::Sd21Base);
        let img = m.generate("x", 16, 16, 0);
        assert_eq!(img.width(), 16);
    }

    /// One definition, two codegens: the update is the same bits
    /// whichever instantiation ran, at lengths around a vector and from
    /// aligned and unaligned starts.
    #[test]
    fn denoise_update_agrees_across_instantiations() {
        let mut rng = Rng::new(0x57e9);
        for len in [0, 1, 15, 16, 17, 1024] {
            for offset in [0, 1, 3] {
                let mut plane = || {
                    let mut v = vec![0.0; offset + len];
                    rng.fill_gaussian(&mut v);
                    v
                };
                let (latent, target, noise) = (plane(), plane(), plane());
                let (wide, base) = crate::lanes::both(|| {
                    let mut latent = latent.clone();
                    let (t, n) = (&target[offset..], &noise[offset..]);
                    denoise_update(&mut latent[offset..], t, n, 0.37, 0.81);
                    latent.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
                });
                assert_eq!(wide, base, "len {len} offset {offset}");
            }
        }
    }

    /// The same for everything `generate` runs — the fields, the draws,
    /// the steps and `decode_strip` — over one-pixel axes, a ragged last
    /// strip and every texture class: latents by `to_bits`, then pixels.
    #[test]
    fn generation_agrees_across_instantiations() {
        let prompts = [
            "a mountain lake at sunset under a wide sky",
            "a goldfish drifting through a cloud forest",
            "a city street at night after snow",
        ];
        for kind in [ImageModelKind::Sd21Base, ImageModelKind::Sd3Medium] {
            let m = DiffusionModel::new(kind);
            for prompt in prompts {
                let f = PromptFeatures::analyze(prompt);
                let (wide, base) = crate::lanes::both(|| {
                    let mut job = m.prepare_job(&f);
                    let jobs = std::slice::from_mut(&mut job);
                    assert!(try_denoise_batch(
                        &Schedule::new(3),
                        jobs,
                        &StepCancel::never()
                    ));
                    job.latent().iter().map(|l| l.to_bits()).collect::<Vec<_>>()
                });
                assert_eq!(wide, base, "{kind:?} {prompt:?}");
                for (w, h) in [(1, 1), (1, 40), (7, 3), (64, 64), (129, 5), (300, 2)] {
                    let (wide, base) = crate::lanes::both(|| m.generate(prompt, w, h, 2));
                    assert_eq!(wide, base, "{kind:?} {prompt:?} {w}x{h}");
                }
            }
        }
    }

    /// The serving entry point on the calling thread: one tile, never
    /// cancelled — the sequential pass the tests below compare against
    /// [`DiffusionModel::generate`], the single-image reference.
    fn batch(
        m: &DiffusionModel,
        features: &[PromptFeatures],
        (w, h): (u32, u32),
        steps: u32,
    ) -> Vec<ImageBuffer> {
        let tiling = Tiling::new(&InlineRunner, 1);
        m.try_generate_batch_on(features, w, h, steps, &StepCancel::never(), tiling)
            .expect("StepCancel::never cannot abort a batch")
    }

    #[test]
    fn batched_generation_is_bit_identical_to_single() {
        let prompts = [
            "a mountain lake at sunset",
            "a city street at night",
            "rolling hills under storm clouds",
            "a sandy beach with palm trees",
            "a snow covered village",
            "a dense autumn forest",
            "a desert canyon at noon",
            "a harbor with fishing boats",
        ];
        for model in [ImageModelKind::Sd3Medium, ImageModelKind::Sd21Base] {
            let m = DiffusionModel::new(model);
            for n in 1..=prompts.len() {
                let features: Vec<PromptFeatures> = prompts[..n]
                    .iter()
                    .map(|p| PromptFeatures::analyze(p))
                    .collect();
                let batched = batch(&m, &features, (48, 48), 15);
                for (prompt, img) in prompts.iter().zip(&batched) {
                    let single = m.generate(prompt, 48, 48, 15);
                    assert_eq!(
                        *img, single,
                        "batch of {n} diverged from single pass ({model:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_equivalence_holds_across_steps_and_sizes() {
        let m = DiffusionModel::new(ImageModelKind::Sd35Medium);
        let prompts = ["foggy pier", "red rock mesa", "alpine meadow"];
        let features: Vec<PromptFeatures> =
            prompts.iter().map(|p| PromptFeatures::analyze(p)).collect();
        for (w, h, steps) in [(16, 16, 1), (64, 32, 7), (32, 64, 30)] {
            let batched = batch(&m, &features, (w, h), steps);
            for (prompt, img) in prompts.iter().zip(&batched) {
                assert_eq!(*img, m.generate(prompt, w, h, steps));
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        assert!(batch(&m, &[], (32, 32), 15).is_empty());
    }

    #[test]
    fn never_cancel_path_is_bit_identical() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let prompt = "a mountain lake at sunset";
        let plain = m.generate(prompt, 48, 48, 12);
        let served = batch(&m, &[PromptFeatures::analyze(prompt)], (48, 48), 12);
        assert_eq!(served, [plain]);
    }

    #[test]
    fn pre_cancelled_generation_aborts_before_any_step() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let f = PromptFeatures::analyze("abandoned before start");
        let cancel = StepCancel::from_fn(|| true);
        let tiling = Tiling::new(&InlineRunner, 1);
        assert!(m
            .try_generate_batch_on(&[f], 64, 64, 40, &cancel, tiling)
            .is_none());
    }

    #[test]
    fn mid_loop_cancel_aborts_within_one_step() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // Fire the probe on its 4th evaluation: the kernel must run
        // exactly 3 steps (probe precedes each step) and then abandon.
        let checks = Arc::new(AtomicU32::new(0));
        let probe_checks = Arc::clone(&checks);
        let cancel = StepCancel::from_fn(move || probe_checks.fetch_add(1, Ordering::SeqCst) >= 3);
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let f = PromptFeatures::analyze("cancelled mid flight");
        let schedule = Schedule::new(40);
        let mut jobs = vec![m.prepare_job(&f)];
        assert!(!try_denoise_batch(&schedule, &mut jobs, &cancel));
        assert_eq!(checks.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn cancel_probe_is_per_step_not_per_job() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let checks = Arc::new(AtomicU32::new(0));
        let probe_checks = Arc::clone(&checks);
        let cancel = StepCancel::from_fn(move || {
            probe_checks.fetch_add(1, Ordering::SeqCst);
            false
        });
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let features: Vec<PromptFeatures> = ["one", "two", "three"]
            .iter()
            .map(|p| PromptFeatures::analyze(p))
            .collect();
        let steps = 9;
        let tiling = Tiling::new(&InlineRunner, 1);
        assert!(m
            .try_generate_batch_on(&features, 16, 16, steps, &cancel, tiling)
            .is_some());
        assert_eq!(checks.load(Ordering::SeqCst), steps);
    }

    fn batch_features(n: usize) -> Vec<PromptFeatures> {
        (0..n)
            .map(|i| PromptFeatures::analyze(&format!("tiled kernel prompt {i}")))
            .collect()
    }

    /// Tiling on the calling thread; the same identity across threads is
    /// `tests/proptest_kernel.rs`.
    #[test]
    fn tiled_generation_matches_sequential_batch() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let features = batch_features(6);
        let sequential = batch(&m, &features, (40, 24), 8);
        for tiles in [1, 3, 4, 6, 9] {
            let tiled = m
                .try_generate_batch_on(
                    &features,
                    40,
                    24,
                    8,
                    &StepCancel::never(),
                    Tiling::new(&InlineRunner, tiles),
                )
                .expect("never cancelled");
            assert_eq!(sequential, tiled, "tiles={tiles}");
        }
    }

    #[test]
    fn tiled_generation_cancels_as_a_unit() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let features = batch_features(4);
        let cancel = StepCancel::from_fn(|| true);
        let tiling = Tiling::new(&InlineRunner, 4);
        assert!(m
            .try_generate_batch_on(&features, 24, 24, 10, &cancel, tiling)
            .is_none());
    }

    #[test]
    fn tiled_generation_of_empty_batch_is_empty() {
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let out = m
            .try_generate_batch_on(
                &[],
                24,
                24,
                5,
                &StepCancel::never(),
                Tiling::new(&InlineRunner, 4),
            )
            .expect("empty batch cannot cancel");
        assert!(out.is_empty());
    }

    #[test]
    fn broken_runner_that_drops_tiles_panics() {
        struct DropRunner;
        impl TileRunner for DropRunner {
            fn run_all(&self, tasks: Vec<TileTask>) {
                drop(tasks);
            }
        }
        let m = DiffusionModel::new(ImageModelKind::Sd3Medium);
        let features = batch_features(4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.try_generate_batch_on(
                &features,
                16,
                16,
                3,
                &StepCancel::never(),
                Tiling::new(&DropRunner, 2),
            )
        }));
        assert!(panicked.is_err(), "a lost tile must never pass silently");
    }
}
