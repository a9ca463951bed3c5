#![warn(missing_docs)]

//! Simulated generative-AI substrate for SWW (paper §4.1, §6.3).
//!
//! The paper's prototype calls Stable Diffusion via HF Diffusers and
//! DeepSeek/Llama via Ollama. Neither is available in this environment, so
//! this crate implements the closest synthetic equivalents that exercise
//! the same code paths (see DESIGN.md "Paper-to-repo substitutions"):
//!
//! * [`diffusion`] — a procedural latent-denoising image synthesizer with
//!   named model profiles calibrated to the paper's Table 1,
//! * [`text`] — a Markov-chain language model with bullet-conditioned
//!   expansion and reasoning-phase cost for the DeepSeek-R1 profiles,
//! * [`image`] — the pixel buffer and a lossy block-DCT codec, so media
//!   sizes are *measured* from real encoded bytes, never assumed,
//! * [`upscale`] — content upscaling (§2.2), one-step and fast,
//! * [`invert`] — prompt inversion (image → prompt, §4.2),
//! * [`metrics`] — CLIP-like, SBERT-like and ELO quality metrics,
//! * [`pool`] — reusable scratch-buffer pools keeping the denoise/decode
//!   hot path allocation-free at steady state (PERFORMANCE.md),
//! * [`pipeline`] — the preloaded generation pipeline object whose reuse
//!   the paper's §4.1 design calls out as a performance optimisation.
//!
//! Everything is deterministic: generation is seeded from the prompt
//! (FNV-1a) so tests and benches reproduce exactly.

pub mod diffusion;
pub mod image;
pub mod invert;
mod lanes;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod prompt;
pub mod rng;
pub mod text;
pub mod upscale;

pub use diffusion::{DiffusionModel, ImageModelKind, StepCancel, TileRunner, Tiling};
pub use image::{codec, ImageBuffer};
pub use pipeline::GenerationPipeline;
pub use prompt::PromptFeatures;
pub use text::{TextModel, TextModelKind};

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
