//! The Figure 2 workload: a Wikimedia Commons search-results page for
//! "Landscape" — 49 thumbnail images totalling ≈1.4 MB, converted to
//! prompts of 120–262 characters (paper §6.2).

use crate::graph::RecipeSpec;
use sww_genai::diffusion::{DiffusionModel, ImageModelKind};
use sww_genai::image::codec;
use sww_html::gencontent;

/// Number of images on the search-results page.
pub const IMAGE_COUNT: usize = 49;

/// Request path of the search-results page when served (also the path of
/// its anchor node in the small-world site graph).
pub const PAGE_PATH: &str = "/wiki/landscape";

/// Thumbnail side used for the original media (pixels). Chosen together
/// with the codec quality so the measured page total lands near the
/// paper's 1.4 MB.
pub const THUMB_SIDE: u32 = 256;

/// Scene fragments composed into the 49 prompts.
static SUBJECTS: [&str; 7] = [
    "a wide alpine landscape with snow capped mountains above a green valley",
    "an icelandic landscape of volcanic hills under a dramatic grey sky",
    "a swedish landscape of farmland and birch trees beside a quiet lake",
    "a hiking trail landscape crossing mossy highlands toward distant ridges",
    "a vast landscape with an enormous cumulus cloud over dry mexican plains",
    "a landscape with a rainbow arching over an old bridge and a river",
    "a strawberry field landscape stretching toward a flat rural horizon",
];

static LIGHTS: [&str; 7] = [
    "in soft morning light",
    "at golden hour with long shadows",
    "under a clear midday sun",
    "in the diffuse light of an overcast afternoon",
    "at sunset with warm orange tones across the sky",
    "just after rain with saturated colors",
    "in cool blue evening light",
];

/// One generatable image of the workload.
#[derive(Debug, Clone)]
pub struct WorkloadImage {
    /// File name on the original page.
    pub name: String,
    /// The prompt the conversion produced (120–262 chars).
    pub prompt: String,
    /// Original thumbnail bytes (measured, SWIM codec).
    pub original_bytes: Vec<u8>,
}

/// The full workload: the SWW page plus the original media it replaces.
#[derive(Debug, Clone)]
pub struct LandscapePage {
    /// Prompt-form HTML (49 generated-content divisions).
    pub sww_html: String,
    /// Traditional-form HTML referencing the 49 files.
    pub traditional_html: String,
    /// The original images.
    pub images: Vec<WorkloadImage>,
}

impl LandscapePage {
    /// Measured total of the original media files.
    pub fn original_media_bytes(&self) -> usize {
        self.images.iter().map(|i| i.original_bytes.len()).sum()
    }

    /// Measured metadata bytes of the prompt-form page.
    pub fn metadata_bytes(&self) -> usize {
        let doc = sww_html::parse(&self.sww_html);
        gencontent::extract(&doc)
            .iter()
            .map(|g| g.metadata_size())
            .sum()
    }

    /// The paper's headline compression factor: original media over
    /// metadata.
    pub fn compression_ratio(&self) -> f64 {
        self.original_media_bytes() as f64 / self.metadata_bytes().max(1) as f64
    }
}

/// Construct the 49 prompts. Lengths are padded/trimmed into the paper's
/// observed 120–262 character range.
pub fn prompts() -> Vec<String> {
    (0..IMAGE_COUNT)
        .map(|i| {
            let subject = SUBJECTS[i % SUBJECTS.len()];
            let light = LIGHTS[(i / SUBJECTS.len()) % LIGHTS.len()];
            let mut p = format!("{subject}, {light}");
            if i % 6 == 0 {
                p.push_str(
                    ", with rich natural detail in the foreground and a clear sense of depth",
                );
            } else if i % 3 == 0 {
                p.push_str(", photographed from a scenic viewpoint");
            }
            if p.len() < 120 {
                p.push_str(", high quality landscape photograph with natural colors");
            }
            p.truncate(262);
            p
        })
        .collect()
}

/// The page's recipes in document order — the single source of truth the
/// prompt-form HTML, the graph anchor node, and the byte accounting all
/// assemble from.
pub fn page_recipes() -> Vec<RecipeSpec> {
    prompts()
        .into_iter()
        .enumerate()
        .map(|(i, prompt)| RecipeSpec::Image {
            prompt,
            name: format!("landscape_{i:02}.jpg"),
            width: THUMB_SIDE,
            height: THUMB_SIDE,
        })
        .collect()
}

fn wrap(body: &str) -> String {
    format!(
        "<html><head><title>Search results for Landscape - Wikimedia Commons</title></head>\
         <body><h1>Landscape</h1><div class=\"results\">{body}</div></body></html>"
    )
}

/// Prompt-form HTML of the page, assembled from [`page_recipes`] without
/// generating any original media (cheap; byte-identical to
/// [`LandscapePage::sww_html`]).
pub fn page_html() -> String {
    let body: String = page_recipes().iter().map(RecipeSpec::div).collect();
    wrap(&body)
}

/// Codec quality for the original thumbnails, calibrated (together with
/// the photographic grain below) so the 49-image total lands near the
/// paper's 1.4 MB.
pub const THUMB_QUALITY: u8 = 83;

/// Grain added to the "original" thumbnails: real photographs carry
/// high-frequency sensor/texture detail that procedural images lack, and
/// that detail is what makes photo files big. σ in 8-bit channel units.
pub const PHOTO_GRAIN_SIGMA: f64 = 8.0;

/// Build the full workload page. The "original" thumbnails are generated
/// once from the prompts with a strong model (standing in for the real
/// Wikimedia photographs) and encoded with the codec, so every byte count
/// downstream is measured. The page is built once and cached (building
/// generates 49 images).
pub fn landscape_search_page() -> LandscapePage {
    static PAGE: std::sync::OnceLock<LandscapePage> = std::sync::OnceLock::new();
    PAGE.get_or_init(build_landscape_page).clone()
}

fn build_landscape_page() -> LandscapePage {
    let model = DiffusionModel::new(ImageModelKind::Dalle3);
    let mut images = Vec::with_capacity(IMAGE_COUNT);
    let mut sww_body = String::new();
    let mut trad_body = String::new();
    let mut grain = vec![0.0; (THUMB_SIDE * THUMB_SIDE) as usize];
    for (i, recipe) in page_recipes().into_iter().enumerate() {
        let RecipeSpec::Image { prompt, name, .. } = recipe else {
            unreachable!("landscape page carries only image recipes");
        };
        let mut img = model.generate(&prompt, THUMB_SIDE, THUMB_SIDE, 15);
        // Photographic grain: the originals stand in for real photos.
        sww_genai::rng::Rng::new(0x9e1e_c0de ^ i as u64).fill_gaussian(&mut grain);
        for y in 0..THUMB_SIDE {
            for x in 0..THUMB_SIDE {
                let mut p = img.get(x, y);
                let n = grain[(y * THUMB_SIDE + x) as usize] * PHOTO_GRAIN_SIGMA;
                for c in &mut p {
                    *c = (f64::from(*c) + n).clamp(0.0, 255.0) as u8;
                }
                img.set(x, y, p);
            }
        }
        let original_bytes = codec::encode(&img, THUMB_QUALITY);
        sww_body.push_str(&gencontent::image_div(
            &prompt, &name, THUMB_SIDE, THUMB_SIDE,
        ));
        trad_body.push_str(&format!(
            r#"<img src="/media/{name}" width="{THUMB_SIDE}" height="{THUMB_SIDE}">"#
        ));
        images.push(WorkloadImage {
            name,
            prompt,
            original_bytes,
        });
    }
    LandscapePage {
        sww_html: wrap(&sww_body),
        traditional_html: wrap(&trad_body),
        images,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_nine_prompts_in_length_range() {
        let ps = prompts();
        assert_eq!(ps.len(), IMAGE_COUNT);
        for p in &ps {
            assert!(
                (120..=262).contains(&p.len()),
                "prompt length {} out of the paper's range: {p}",
                p.len()
            );
        }
        // Prompts are not all identical.
        let distinct: std::collections::HashSet<_> = ps.iter().collect();
        assert!(distinct.len() > 40);
    }

    #[test]
    fn page_totals_near_paper_figures() {
        let page = landscape_search_page();
        assert_eq!(page.images.len(), IMAGE_COUNT);
        let media = page.original_media_bytes();
        // Paper: 1.4 MB of images. Accept a generous band — the shape
        // matters (tens of kB per thumbnail, ≈1 MB+ total).
        assert!(
            (700_000..2_500_000).contains(&media),
            "original media {media} B"
        );
        let metadata = page.metadata_bytes();
        // Paper: 8.92 kB of metadata for 49 images (≈182 B each).
        assert!((7_000..16_000).contains(&metadata), "metadata {metadata} B");
        let ratio = page.compression_ratio();
        assert!(
            ratio > 60.0,
            "compression {ratio:.0}x must exceed the worst case 68x ballpark"
        );
    }

    #[test]
    fn sww_page_extracts_49_items() {
        let page = landscape_search_page();
        let doc = sww_html::parse(&page.sww_html);
        let items = gencontent::extract(&doc);
        assert_eq!(items.len(), IMAGE_COUNT);
        for item in &items {
            assert_eq!(item.width(), THUMB_SIDE);
        }
    }

    #[test]
    fn traditional_page_references_49_files() {
        let page = landscape_search_page();
        let doc = sww_html::parse(&page.traditional_html);
        let imgs = sww_html::query::by_tag(&doc, doc.root(), "img");
        assert_eq!(imgs.len(), IMAGE_COUNT);
    }

    #[test]
    fn page_html_matches_full_build() {
        // The cheap recipe-routed page and the full (media-generating)
        // build must agree byte for byte — one recipe path, two callers.
        assert_eq!(page_html(), landscape_search_page().sww_html);
    }

    #[test]
    fn recipes_carry_the_prompts_in_order() {
        let recipes = page_recipes();
        assert_eq!(recipes.len(), IMAGE_COUNT);
        for (recipe, prompt) in recipes.iter().zip(prompts()) {
            match recipe {
                RecipeSpec::Image {
                    prompt: p,
                    width,
                    height,
                    ..
                } => {
                    assert_eq!(*p, prompt);
                    assert_eq!((*width, *height), (THUMB_SIDE, THUMB_SIDE));
                }
                RecipeSpec::Text { .. } => panic!("unexpected text recipe"),
            }
        }
    }

    #[test]
    fn originals_decode() {
        let page = landscape_search_page();
        let img = codec::decode(&page.images[0].original_bytes).unwrap();
        assert_eq!(img.width(), THUMB_SIDE);
    }
}
