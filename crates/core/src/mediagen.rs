//! The media generator (paper §4.1): parses generated-content metadata
//! and invokes the right generation subroutine — text-to-image via the
//! diffusion pipeline, text-to-text via the language model — while
//! accounting modelled device time and energy for every invocation.

use crate::cache::Recipe;
use crate::error::SwwError;
use sww_energy::{DeviceProfile, Energy};
use sww_genai::{codec, GenerationPipeline, ImageBuffer, ImageModelKind, TextModelKind};
use sww_html::gencontent::{ContentType, GeneratedContent};

/// Codec quality used when materializing generated images to bytes.
/// Calibrated so the paper's media classes land near their nominal sizes.
pub const DEFAULT_CODEC_QUALITY: u8 = 55;

/// The image model a server renders with, and so the model its recipes
/// name: the paper's default, SD 3 Medium.
pub const SERVING_IMAGE_MODEL: ImageModelKind = ImageModelKind::Sd3Medium;

/// The text model a server expands prose with: the paper's default,
/// DeepSeek-R1 8B.
pub(crate) const SERVING_TEXT_MODEL: TextModelKind = TextModelKind::DeepSeekR1_8B;

/// Denoising steps every new generator runs, and so every server recipe
/// names: the paper's 15.
pub const SERVING_STEPS: u32 = 15;

/// The cache key an image `item` renders under with `model` at `steps` —
/// the one place a page item becomes a [`Recipe`], so the client cache,
/// the server's site index and the edge routing map can never disagree
/// on it.
pub(crate) fn recipe(item: &GeneratedContent, model: ImageModelKind, steps: u32) -> Recipe {
    Recipe {
        prompt: item.prompt().to_owned(),
        model,
        width: item.width(),
        height: item.height(),
        steps,
    }
}

/// Output of one generation call.
#[derive(Debug, Clone)]
pub enum GeneratedMedia {
    /// A generated image plus its encoded (measured) byte size.
    Image {
        /// File name the page rewrite points at.
        name: String,
        /// The pixels.
        image: ImageBuffer,
        /// Encoded bytes (SWIM codec) — the size the media would occupy
        /// as a file / on the wire.
        encoded: Vec<u8>,
    },
    /// Expanded text.
    Text {
        /// The prose.
        text: String,
    },
}

impl GeneratedMedia {
    /// The media's materialized byte size.
    pub(crate) fn media_bytes(&self) -> usize {
        match self {
            GeneratedMedia::Image { encoded, .. } => encoded.len(),
            GeneratedMedia::Text { text } => text.len(),
        }
    }
}

/// One generation invocation's cost accounting.
#[derive(Debug, Clone, Copy)]
pub struct GenerationCost {
    /// Modelled seconds on the generator's device.
    pub time_s: f64,
    /// Modelled energy on the generator's device.
    pub energy: Energy,
}

/// The media generator: a preloaded pipeline bound to a device profile.
#[derive(Debug)]
pub struct MediaGenerator {
    pipeline: GenerationPipeline,
    device: DeviceProfile,
    image_model: ImageModelKind,
    text_model: TextModelKind,
    inference_steps: u32,
    codec_quality: u8,
}

impl MediaGenerator {
    /// The paper's default configuration on a given device: the serving
    /// models ([`SERVING_IMAGE_MODEL`], `SERVING_TEXT_MODEL`).
    pub fn new(device: DeviceProfile) -> MediaGenerator {
        MediaGenerator::with_models(device, SERVING_IMAGE_MODEL, SERVING_TEXT_MODEL)
    }

    /// A generator with explicit model choices.
    pub(crate) fn with_models(
        device: DeviceProfile,
        image_model: ImageModelKind,
        text_model: TextModelKind,
    ) -> MediaGenerator {
        MediaGenerator {
            pipeline: GenerationPipeline::preload(image_model, text_model),
            device,
            image_model,
            text_model,
            inference_steps: SERVING_STEPS,
            codec_quality: DEFAULT_CODEC_QUALITY,
        }
    }

    /// Switch the image model, re-preloading the pipeline. Selecting a
    /// model without a cost profile on this device makes every image
    /// `try_generate` fail with [`SwwError::UnsupportedModel`] — which
    /// is exactly how tests force the client's generation-fallback path
    /// deterministically.
    pub fn set_image_model(&mut self, model: ImageModelKind) {
        self.image_model = model;
        self.pipeline = GenerationPipeline::preload(model, self.text_model);
    }

    /// Generate the media for one generated-content element.
    ///
    /// Panics if the configured image model cannot run on the local
    /// device; the crate's own callers use `try_generate` to handle that case.
    pub fn generate(&mut self, item: &GeneratedContent) -> (GeneratedMedia, GenerationCost) {
        self.try_generate(item).expect("local generation model")
    }

    /// The cache key under which this generator's output for an image
    /// `item` is stored: the recipe the site index builds for the same
    /// item, when this generator runs the serving models.
    pub(crate) fn recipe(&self, item: &GeneratedContent) -> Recipe {
        recipe(item, self.image_model, self.inference_steps)
    }

    /// Generate the media for one generated-content element, failing with
    /// [`SwwError::UnsupportedModel`] when the configured image model has
    /// no cost profile on the local device (e.g. a server-only model in a
    /// client-side generator).
    pub(crate) fn try_generate(
        &mut self,
        item: &GeneratedContent,
    ) -> Result<(GeneratedMedia, GenerationCost), SwwError> {
        match item.content_type {
            ContentType::Img => {
                let (width, height) = (item.width(), item.height());
                let time_s = sww_energy::image_generation_time(
                    self.image_model,
                    &self.device,
                    width,
                    height,
                    self.inference_steps,
                )
                .ok_or_else(|| SwwError::UnsupportedModel {
                    what: "image generation",
                    model: format!("{:?}", self.image_model),
                })?;
                let image = self.pipeline.generate_image(
                    item.prompt(),
                    width,
                    height,
                    self.inference_steps,
                );
                let encoded = codec::encode(&image, self.codec_quality);
                let cost = GenerationCost {
                    time_s,
                    energy: Energy::from_power(self.device.image_power_w, time_s),
                };
                Ok((
                    GeneratedMedia::Image {
                        name: item.name().to_owned(),
                        image,
                        encoded,
                    },
                    cost,
                ))
            }
            ContentType::Txt => {
                let bullets = item.bullets();
                let words = item.words();
                let text = self.pipeline.generate_text(&bullets, words);
                let time_s = sww_energy::text_generation_time(self.text_model, &self.device, words);
                let cost = GenerationCost {
                    time_s,
                    energy: Energy::from_power(self.device.text_power_w, time_s),
                };
                Ok((GeneratedMedia::Text { text }, cost))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MediaGenerator {
        /// Change the inference step count (the §6.3.1 sweep).
        fn set_inference_steps(&mut self, steps: u32) {
            self.inference_steps = steps.max(1);
        }
    }
    use sww_energy::{profile, DeviceKind};
    use sww_html::{gencontent, parse};

    fn image_item(prompt: &str, side: u32) -> GeneratedContent {
        let html = gencontent::image_div(prompt, "img.jpg", side, side);
        let doc = parse(&html);
        gencontent::extract(&doc).remove(0)
    }

    fn text_item() -> GeneratedContent {
        let html = gencontent::text_div(&["trail summit dawn".into()], 120);
        let doc = parse(&html);
        gencontent::extract(&doc).remove(0)
    }

    #[test]
    fn generates_image_with_measured_bytes() {
        let mut generator = MediaGenerator::new(profile(DeviceKind::Workstation));
        let (media, cost) = generator.generate(&image_item("a mountain lake", 256));
        match &media {
            GeneratedMedia::Image {
                image,
                encoded,
                name,
            } => {
                assert_eq!(image.width(), 256);
                assert_eq!(name, "img.jpg");
                assert!(!encoded.is_empty());
                // Encoded bytes decode back to the same dimensions.
                let back = codec::decode(encoded).unwrap();
                assert_eq!(back.width(), 256);
            }
            other => panic!("expected image, got {other:?}"),
        }
        // Workstation, 256², 15 steps → the Table 2 anchor of 1.0 s.
        assert!((cost.time_s - 1.0).abs() < 1e-9);
        assert!(cost.energy.wh() > 0.0);
    }

    #[test]
    fn generates_text_with_word_budget() {
        let mut generator = MediaGenerator::new(profile(DeviceKind::Laptop));
        let (media, cost) = generator.generate(&text_item());
        match media {
            GeneratedMedia::Text { text } => {
                let words = text.split_whitespace().count();
                assert!((96..=144).contains(&words), "words={words}");
            }
            other => panic!("expected text, got {other:?}"),
        }
        // Laptop text range from the paper: 16.06–34.04 s.
        assert!((13.0..45.0).contains(&cost.time_s), "{}", cost.time_s);
    }

    #[test]
    fn laptop_slower_than_workstation() {
        let mut lap = MediaGenerator::new(profile(DeviceKind::Laptop));
        let mut ws = MediaGenerator::new(profile(DeviceKind::Workstation));
        let item = image_item("hills", 512);
        let (_, lc) = lap.generate(&item);
        let (_, wc) = ws.generate(&item);
        assert!(lc.time_s > wc.time_s * 5.0);
    }

    #[test]
    fn steps_scale_time_linearly() {
        let mut generator = MediaGenerator::new(profile(DeviceKind::Workstation));
        let item = image_item("forest", 256);
        generator.set_inference_steps(15);
        let (_, c15) = generator.generate(&item);
        generator.set_inference_steps(30);
        let (_, c30) = generator.generate(&item);
        assert!((c30.time_s / c15.time_s - 2.0).abs() < 1e-9);
    }
}
