//! The §2.1 motivating example: a travel-blog page mixing generic
//! (generatable) content with unique content — "the details of a specific
//! hiking route or pictures taken during the hike".

use crate::graph::RecipeSpec;
use sww_core::SiteContent;
use sww_genai::{codec, DiffusionModel, ImageModelKind};

/// Paths of the unique hike photographs kept as real files.
pub const UNIQUE_PHOTOS: [&str; 2] = ["/photos/summit-2025.jpg", "/photos/ridge-camp.jpg"];

/// The page's generative recipes in document order — two generic stock
/// images and one generic intro text block (the second stock image sits
/// after the unique-photo section in the rendered page). The unique route
/// text and hike photos are *not* recipes: they are the §2.1 content that
/// must stay verbatim.
pub fn page_recipes() -> Vec<RecipeSpec> {
    vec![
        RecipeSpec::Image {
            prompt: "a scenic mountain landscape with hiking trail winding through green alpine \
                     meadows, photographed in soft morning light, high quality travel photography"
                .into(),
            name: "stock-header.jpg".into(),
            width: 512,
            height: 512,
        },
        RecipeSpec::Text {
            bullets: vec![
                "hiking preparation essentials boots water layers".into(),
                "mountain weather changes quickly check forecast".into(),
                "trail etiquette respect nature carry out litter".into(),
            ],
            words: 140,
        },
        RecipeSpec::Image {
            prompt: "a wooden signpost on a mountain pass pointing toward distant peaks under a \
                     clear blue sky, classic stock travel photo composition"
                .into(),
            name: "stock-signpost.jpg".into(),
            width: 256,
            height: 256,
        },
    ]
}

/// Prompt-form HTML of the blog page, assembled from [`page_recipes`]
/// plus the unique (non-generative) content.
pub fn page_html() -> String {
    let recipes = page_recipes();
    let divs: Vec<String> = recipes.iter().map(RecipeSpec::div).collect();
    let (stock1, generic_text, stock2) = (&divs[0], &divs[1], &divs[2]);
    // Route-specific text is unique information, kept as-is (§2.1).
    let route_text = "<p class=\"route\">The Gherdeina ridge route starts at the Dantercepies \
         lift (2298 m), follows marker 12A past the Crespëina lake, and descends to Colfosco in \
         about 4h30. The exposed section after the lake has fixed cables; bring a via ferrata set \
         in early season.</p>";

    format!(
        "<html><head><title>Hiking the Gherdeina Ridge</title></head><body>\
         <h1>Hiking the Gherdeina Ridge</h1>{stock1}{generic_text}{route_text}\
         <h2>Photos from the hike</h2>\
         <img src=\"{}\" width=\"512\" height=\"512\">\
         <img src=\"{}\" width=\"512\" height=\"512\">{stock2}</body></html>",
        UNIQUE_PHOTOS[0], UNIQUE_PHOTOS[1]
    )
}

/// Build the travel-blog site: one page with two generic stock images
/// (prompts), one generic intro text block (bullets), the route-specific
/// text kept verbatim, and two unique photographs stored as assets.
pub fn travel_blog() -> SiteContent {
    let mut site = SiteContent::new();
    site.add_page(BLOG_PATH, page_html());

    // The unique photographs: real encoded images (generated once here as
    // stand-ins for camera files, then stored as opaque assets).
    let camera = DiffusionModel::new(ImageModelKind::Dalle3);
    for (i, path) in UNIQUE_PHOTOS.iter().enumerate() {
        let img = camera.generate(&format!("summit photograph number {i}"), 512, 512, 15);
        site.add_asset(*path, codec::encode(&img, 82));
    }
    site
}

/// The page path of the blog post.
pub const BLOG_PATH: &str = "/blog/gherdeina-ridge";

#[cfg(test)]
mod tests {
    use super::*;
    use sww_html::gencontent;

    #[test]
    fn recipes_match_the_rendered_page() {
        // The recipes extracted from the served page are exactly the
        // ones `page_recipes` declares, in document order.
        let doc = sww_html::parse(&page_html());
        let extracted = gencontent::extract(&doc);
        let recipes = page_recipes();
        assert_eq!(extracted.len(), recipes.len());
        for (item, recipe) in extracted.iter().zip(&recipes) {
            match recipe {
                RecipeSpec::Image { prompt, .. } => assert_eq!(item.prompt(), *prompt),
                RecipeSpec::Text { words, .. } => assert_eq!(item.words(), *words),
            }
        }
    }

    #[test]
    fn blog_mixes_generated_and_unique() {
        let site = travel_blog();
        let page = site.page(BLOG_PATH).expect("blog page present");
        let doc = sww_html::parse(&page.html);
        let generated = gencontent::extract(&doc);
        assert_eq!(generated.len(), 3, "two stock images + one text block");
        let imgs = sww_html::by_tag(&doc, doc.root(), "img");
        assert_eq!(imgs.len(), 2, "two unique photos fetched traditionally");
        assert!(page.html.contains("Crespëina"), "route text kept verbatim");
    }

    #[test]
    fn unique_assets_are_stored() {
        let site = travel_blog();
        assert!(
            site.stored_bytes() > 10_000,
            "unique photos dominate storage"
        );
    }

    #[test]
    fn stock_prompts_have_paper_style_lengths() {
        let site = travel_blog();
        let doc = sww_html::parse(&site.page(BLOG_PATH).expect("blog page present").html);
        for item in gencontent::extract(&doc) {
            if item.content_type == gencontent::ContentType::Img {
                let len = item.prompt().len();
                assert!((80..=262).contains(&len), "prompt len {len}");
            }
        }
    }
}
