//! The §6.2 text workload: a newspaper article of ≈2400 bytes whose
//! bullet-point form is ≈778 bytes (3.1× compression).

use crate::graph::RecipeSpec;

/// Request path of the article page when served (also the path of its
/// anchor node in the small-world site graph).
pub const PAGE_PATH: &str = "/news/light-rail";

/// The article text (written for this repository; ≈2400 bytes of typical
/// regional-news prose).
pub static ARTICLE: &str = "\
The regional council voted on Tuesday to approve the long debated extension of the light rail \
network, ending a planning process that has stretched across nearly six years. The approved route \
adds eleven kilometres of track and seven new stations, connecting the university district with \
the industrial parks on the eastern edge of the city. Construction is scheduled to begin in the \
spring, with the first trains expected to run within four years.

Officials presented projections showing that the extension will carry around forty thousand \
passengers each weekday, reducing car traffic on the parallel motorway by an estimated twelve \
percent. Commute times between the university and the eastern employment zone are expected to \
fall by twenty minutes in each direction. The council also approved a plan to redesign three of \
the busiest interchange stations, adding step free access and secure bicycle parking.

Funding for the project combines national infrastructure grants with a municipal bond issue that \
was oversubscribed within two days of its announcement. Opposition members criticised the chosen \
alignment, arguing that a northern variant would have served two large housing estates that \
currently lack rapid transit. The transport committee responded that the northern option would \
have required an additional river crossing and delayed the opening by at least three years.

Local businesses along the route have expressed cautious optimism. A survey conducted by the \
chamber of commerce found that two thirds of shop owners expect increased foot traffic once the \
line opens, although many voiced concerns about access during the construction period. The city \
has promised a compensation scheme modelled on the one used during the refurbishment of the \
central station, which paid out to traders whose revenue fell during the works.

Environmental groups welcomed the decision while urging the council to commit to the promised \
tree planting along the corridor. The environmental assessment filed with the application \
estimates that the completed rail line will remove around nine thousand tonnes of carbon dioxide \
emissions each year once passenger numbers reach the projected level, a figure that independent \
reviewers at the technical university described as plausible but sensitive to fare policy.";

/// Requested expansion length in words, matching the article's own length
/// so the regeneration is a faithful reconstruction target.
pub fn target_words() -> usize {
    ARTICLE.split_whitespace().count()
}

/// The bullet-point (SWW) form of the article.
pub fn article_bullets() -> Vec<String> {
    sww_genai::to_bullets(ARTICLE, 6)
}

/// The article's recipe — the single source of truth the on-the-wire
/// division and the graph anchor node both assemble from.
pub fn page_recipe() -> RecipeSpec {
    RecipeSpec::Text {
        bullets: article_bullets(),
        words: target_words(),
    }
}

/// The on-the-wire generated-content division for the article.
pub fn news_article() -> String {
    page_recipe().div()
}

/// Prompt-form HTML of the article as a servable page.
pub fn page_html() -> String {
    let title = "Light rail extension approved";
    format!(
        "<html><head><title>{title}</title></head><body><h1>{title}</h1>{}</body></html>",
        news_article()
    )
}

/// Original and converted byte sizes `(original, converted)`.
pub fn article_sizes() -> (usize, usize) {
    (
        ARTICLE.len(),
        sww_genai::bullets_wire_size(&article_bullets()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sww_html::gencontent;

    #[test]
    fn article_is_about_2400_bytes() {
        // Paper: "from 2400B to 778B".
        let len = ARTICLE.len();
        assert!((2200..2600).contains(&len), "article is {len} B");
    }

    #[test]
    fn compression_near_3x() {
        let (original, converted) = article_sizes();
        let ratio = original as f64 / converted as f64;
        assert!(
            (2.4..4.2).contains(&ratio),
            "text compression {ratio:.2}x (orig {original}, conv {converted})"
        );
    }

    #[test]
    fn division_roundtrips() {
        let html = news_article();
        let doc = sww_html::parse(&html);
        let items = gencontent::extract(&doc);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].words(), target_words());
        assert!(items[0].bullets().len() >= 10);
    }

    #[test]
    fn page_html_serves_the_single_recipe() {
        let doc = sww_html::parse(&page_html());
        let items = gencontent::extract(&doc);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].words(), target_words());
    }

    #[test]
    fn bullets_preserve_key_facts() {
        let joined = article_bullets().join(" ");
        for fact in ["extension", "route", "construction", "funding", "council"] {
            assert!(joined.contains(fact), "missing fact {fact}");
        }
    }
}
