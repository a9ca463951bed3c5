//! A stock-prompt catalog (paper §7, New Opportunities: "One interesting
//! aspect is that of stock photos, as these will mostly become prompts.
//! Possibly in a few years' time we will see stock prompts companies
//! emerge").
//!
//! A catalog entry is what such a company would sell: a curated prompt
//! with licensing metadata, categorized and searchable, plus the tiny
//! byte footprint that replaces the stock JPEG.

/// Licence terms attached to a stock prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Licence {
    /// Free to use with attribution.
    Attribution,
    /// Paid, royalty-free after purchase.
    RoyaltyFree,
    /// Per-use licensing.
    RightsManaged,
}

/// One stock prompt.
#[derive(Debug, Clone)]
pub struct StockPrompt {
    /// Catalog identifier.
    pub id: &'static str,
    /// Category keyword.
    pub category: &'static str,
    /// The prompt text.
    pub prompt: &'static str,
    /// Licence terms.
    pub licence: Licence,
    /// Recommended render size.
    pub size: (u32, u32),
}

/// The built-in catalog (what a stock-prompt vendor's free tier might be).
pub static CATALOG: &[StockPrompt] = &[
    StockPrompt {
        id: "landscape-001",
        category: "landscape",
        prompt:
            "a wide mountain landscape at golden hour, snow capped peaks above a green valley, \
                 dramatic clouds, professional stock photography, high detail",
        licence: Licence::Attribution,
        size: (512, 512),
    },
    StockPrompt {
        id: "landscape-002",
        category: "landscape",
        prompt: "rolling farmland landscape under a summer sky, winding country road, warm light, \
                 professional stock photography composition",
        licence: Licence::Attribution,
        size: (512, 512),
    },
    StockPrompt {
        id: "business-001",
        category: "business",
        prompt: "a bright modern office interior with plants and natural light, clean minimal \
                 style, generic corporate stock photo look",
        licence: Licence::RoyaltyFree,
        size: (512, 512),
    },
    StockPrompt {
        id: "food-001",
        category: "food",
        prompt: "a rustic wooden table with fresh bread, olive oil and tomatoes, soft window \
                 light, overhead food photography",
        licence: Licence::RoyaltyFree,
        size: (256, 256),
    },
    StockPrompt {
        id: "travel-001",
        category: "travel",
        prompt: "a narrow old town street with cafes and hanging flowers, morning light, travel \
                 brochure photography style",
        licence: Licence::Attribution,
        size: (512, 512),
    },
    StockPrompt {
        id: "abstract-001",
        category: "abstract",
        prompt: "smooth flowing abstract gradient background in calm blue and teal tones, \
                 presentation backdrop",
        licence: Licence::RightsManaged,
        size: (1024, 1024),
    },
];

/// Search the catalog by category.
pub fn by_category(category: &str) -> Vec<&'static StockPrompt> {
    CATALOG.iter().filter(|p| p.category == category).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sww_genai::{DiffusionModel, ImageModelKind};

    /// Look up by id.
    fn by_id(id: &str) -> Option<&'static StockPrompt> {
        CATALOG.iter().find(|p| p.id == id)
    }

    #[test]
    fn catalog_is_searchable() {
        assert_eq!(by_category("landscape").len(), 2);
        assert!(by_id("food-001").is_some());
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn prompts_are_catalog_quality() {
        for p in CATALOG {
            assert!(
                (60..=262).contains(&p.prompt.len()),
                "{}: prompt length {}",
                p.id,
                p.prompt.len()
            );
        }
    }

    #[test]
    fn stock_prompts_render_on_topic() {
        // The economic premise: a sold prompt reliably regenerates content
        // matching its description.
        let p = by_id("landscape-001").unwrap();
        let img = DiffusionModel::new(ImageModelKind::Sd35Medium).generate(p.prompt, 224, 224, 15);
        let score = sww_genai::clip_score(&img, p.prompt);
        assert!(
            score > sww_genai::RANDOM_BASELINE + 0.08,
            "score {score:.3}"
        );
    }

    #[test]
    fn prompt_bytes_dwarfed_by_replaced_media() {
        // Every catalog prompt is tiny next to the media class it stands
        // in for (8–131 kB stock files).
        for p in CATALOG {
            assert!(p.prompt.len() < 300);
        }
    }
}
