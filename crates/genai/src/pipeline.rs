//! The preloaded generation pipeline (paper §4.1).
//!
//! "The choice to preload the image generation pipeline from a library …
//! is for performance optimization. Since it is a large object, it would
//! otherwise need to be repeatedly deleted and reloaded within the media
//! generator every time it is invoked." This type is that large object:
//! constructing it loads (trains) every model once; generation calls then
//! reuse the loaded state. The ablation bench compares preloaded reuse
//! against per-request construction.

use crate::diffusion::{DiffusionModel, ImageModelKind};
use crate::image::ImageBuffer;
use crate::text::{TextModel, TextModelKind};

/// A fully loaded pipeline: one image model and one text model.
#[derive(Debug)]
pub struct GenerationPipeline {
    image_model: DiffusionModel,
    text_model: TextModel,
}

impl GenerationPipeline {
    /// Load the paper's default pairing: SD 3 Medium + DeepSeek-R1 8B.
    pub fn preload_default() -> GenerationPipeline {
        GenerationPipeline::preload(ImageModelKind::Sd3Medium, TextModelKind::DeepSeekR1_8B)
    }

    /// Load a specific model pairing.
    pub fn preload(image: ImageModelKind, text: TextModelKind) -> GenerationPipeline {
        GenerationPipeline {
            image_model: DiffusionModel::new(image),
            text_model: TextModel::new(text),
        }
    }

    /// Generate an image from a prompt.
    pub fn generate_image(
        &mut self,
        prompt: &str,
        width: u32,
        height: u32,
        steps: u32,
    ) -> ImageBuffer {
        self.image_model.generate(prompt, width, height, steps)
    }

    /// Expand bullets into prose.
    pub fn generate_text(&mut self, bullets: &[String], target_words: usize) -> String {
        self.text_model.expand(bullets, target_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_pipeline_serves_both_modalities() {
        let mut p = GenerationPipeline::preload_default();
        let img = p.generate_image("a quiet lake", 32, 32, 5);
        assert_eq!(img.width(), 32);
        let text = p.generate_text(&["lake quiet morning".to_string()], 50);
        assert!(text.split_whitespace().count() >= 30);
    }

    #[test]
    fn reuse_matches_fresh_construction() {
        // Correctness of the preload optimisation: reusing the pipeline
        // yields byte-identical output to constructing a fresh one.
        let mut reused = GenerationPipeline::preload_default();
        let first = reused.generate_image("hills at dawn", 48, 48, 10);
        let _ = reused.generate_image("something else", 48, 48, 10);
        let again = reused.generate_image("hills at dawn", 48, 48, 10);
        let fresh =
            GenerationPipeline::preload_default().generate_image("hills at dawn", 48, 48, 10);
        assert_eq!(first, again);
        assert_eq!(first, fresh);
    }
}
