#![warn(missing_docs)]

//! Simulated generative-AI substrate for SWW (paper §4.1, §6.3).
//!
//! The paper's prototype calls Stable Diffusion via HF Diffusers and
//! DeepSeek/Llama via Ollama. Neither is available in this environment, so
//! this crate implements the closest synthetic equivalents that exercise
//! the same code paths (see DESIGN.md "Paper-to-repo substitutions"):
//!
//! * [`DiffusionModel`] — a procedural latent-denoising image synthesizer
//!   with named model profiles calibrated to the paper's Table 1,
//! * [`TextModel`] — a Markov-chain language model with bullet-conditioned
//!   expansion and reasoning-phase cost for the DeepSeek-R1 profiles,
//! * [`ImageBuffer`] and [`codec`] — the pixel buffer and a lossy
//!   block-DCT codec, so media sizes are *measured* from real encoded
//!   bytes, never assumed,
//! * [`upscale()`] — content upscaling (§2.2), one-step and fast,
//! * [`invert()`] — prompt inversion (image → prompt, §4.2),
//! * [`clip_score`] and [`sbert_score`] — CLIP-like and SBERT-like quality
//!   metrics,
//! * [`BufferPool`] — reusable scratch-buffer pools keeping the
//!   denoise/decode hot path allocation-free at steady state
//!   (PERFORMANCE.md),
//! * [`GenerationPipeline`] — the preloaded generation pipeline object
//!   whose reuse the paper's §4.1 design calls out as a performance
//!   optimisation.
//!
//! Everything is deterministic: generation is seeded from the prompt
//! (FNV-1a) so tests and benches reproduce exactly.

mod diffusion;
mod image;
mod invert;
mod lanes;
mod metrics;
mod pipeline;
mod pool;
mod prompt;
pub mod rng;
mod text;
mod upscale;

pub use diffusion::models::profile as image_profile;
pub use diffusion::noise::{fbm, FbmField, FbmSweep, MAX_OCTAVES};
pub use diffusion::{
    DiffusionModel, ImageModelKind, InlineRunner, StepCancel, TileRunner, TileTask, Tiling,
};
pub use image::{codec, ImageBuffer};
pub use invert::invert;
pub use metrics::clip::{clip_score, RANDOM_BASELINE};
pub use metrics::sbert::{sbert_score, similarity as sbert_similarity};
pub use pipeline::GenerationPipeline;
pub use pool::{decode_pool, BufferPool};
pub use prompt::{cosine, PromptFeatures, TextureClass};
pub use text::bullets::{bullets_wire_size, to_bullets};
pub use text::models::profile as text_profile;
pub use text::{word_length_overshoot, TextModel, TextModelKind};
pub use upscale::upscale;

/// The histogram every generation stage span records its wall time into,
/// labelled `stage` (`embed`, `denoise`, `decode`, `codec_encode`).
pub const STAGE_WALL_SECONDS: &str = "sww_genai_stage_wall_seconds";

/// FNV-1a hash used to derive deterministic seeds from prompts.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_distinct() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"landscape"), fnv1a(b"landscape"));
    }
}
