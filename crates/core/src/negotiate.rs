//! Capability negotiation outcomes (paper §3, §5.1, §6.2).
//!
//! "In any case other than both server and client having
//! SETTINGS_GEN_ABILITY set to 1, default (unsupported) behavior will be
//! assumed." A server that chooses traditional service despite a capable
//! client (§5.1) therefore only advertises `GenAbility::none()`; it still
//! stores prompts and expands them itself before sending ("this saves
//! storage space, and avoids saving two copies of content").
//!
//! [`decide`] is the one entry point. Both transports call it on every
//! request with whatever the peer most recently advertised — h2 re-reads
//! the connection's live SETTINGS, h3 the latest control-stream update —
//! so a client that withdraws its ability mid-connection is served
//! naively on its next request, and one that restores it is served
//! prompts again, with no state kept in between.

use sww_genai::{ImageModelKind, TextModelKind};
use sww_http2::GenAbility;

/// How the server will serve a page after negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Prompts travel; the client generates (both peers opted in).
    Generative,
    /// Reduced media travels; the client upscales.
    UpscaleAssisted,
    /// The server generates from its stored prompts, then sends media
    /// (client lacks ability; storage savings only).
    ServerGenerated,
    /// Fully traditional HTTP/2 service: the server advertises no ability
    /// and sends media whatever the client can do.
    Traditional,
}

impl ServeMode {
    /// The mode's one spelling: the `x-sww-mode` header, the `mode`
    /// label of `sww_negotiate_outcomes_total`, the keys of
    /// `GenerativeServer::served_modes` and the edge's fill-cache key.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ServeMode::Generative => "generative",
            ServeMode::UpscaleAssisted => "upscale",
            ServeMode::ServerGenerated => "server-generated",
            ServeMode::Traditional => "traditional",
        }
    }

    /// Whether a page travels in prompt form: the client generates or
    /// upscales, so the server renders nothing for it.
    pub(crate) fn sends_prompts(self) -> bool {
        matches!(self, ServeMode::Generative | ServeMode::UpscaleAssisted)
    }
}

/// Decide the serve mode from both advertised abilities. The paper's §6.2
/// functionality matrix falls out of this table.
pub fn decide(server: GenAbility, client: GenAbility) -> ServeMode {
    let shared = server.intersect(client);
    if !server.supported() {
        ServeMode::Traditional
    } else if shared.can_generate() {
        ServeMode::Generative
    } else if shared.can_upscale() {
        ServeMode::UpscaleAssisted
    } else {
        ServeMode::ServerGenerated
    }
}

/// Ordinal image-model generations for the §7 model negotiation: higher
/// level = newer model generation. Level 0 means "unspecified", which
/// resolves to the paper's default (SD 3 Medium).
pub fn image_model_for_level(level: u8) -> ImageModelKind {
    match level {
        0 => ImageModelKind::Sd3Medium, // unspecified → prototype default
        1 => ImageModelKind::Sd21Base,
        2 => ImageModelKind::Sd3Medium,
        3 => ImageModelKind::Sd35Medium,
        _ => ImageModelKind::FluxFast, // 4+: future fast generation
    }
}

/// Ordinal text-model generations.
pub fn text_model_for_level(level: u8) -> TextModelKind {
    match level {
        0 => TextModelKind::DeepSeekR1_8B, // unspecified → paper's choice
        1 => TextModelKind::DeepSeekR1_1_5B,
        2 => TextModelKind::Llama32,
        3 => TextModelKind::DeepSeekR1_8B,
        _ => TextModelKind::DeepSeekR1_14B,
    }
}

/// Resolve the model pair implied by a negotiated ability's level fields.
pub fn select_models(shared: GenAbility) -> (ImageModelKind, TextModelKind) {
    (
        image_model_for_level(shared.image_model_level()),
        text_model_for_level(shared.text_model_level()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_negotiation_picks_common_generation() {
        // A new client meeting an older server settles on the older
        // model generation, so both sides render identical content.
        let client = GenAbility::full()
            .with_image_model_level(4)
            .with_text_model_level(4);
        let server = GenAbility::full()
            .with_image_model_level(2)
            .with_text_model_level(3);
        let shared = client.intersect(server);
        let (img, txt) = select_models(shared);
        assert_eq!(img, ImageModelKind::Sd3Medium);
        assert_eq!(txt, TextModelKind::DeepSeekR1_8B);
    }

    #[test]
    fn unspecified_levels_resolve_to_paper_defaults() {
        let (img, txt) = select_models(GenAbility::full());
        assert_eq!(img, ImageModelKind::Sd3Medium);
        assert_eq!(txt, TextModelKind::DeepSeekR1_8B);
    }

    #[test]
    fn level_mapping_is_monotone_in_quality() {
        use sww_genai::image_profile as profile;
        let q1 = profile(image_model_for_level(1)).quality;
        let q2 = profile(image_model_for_level(2)).quality;
        let q3 = profile(image_model_for_level(3)).quality;
        let q4 = profile(image_model_for_level(4)).quality;
        assert!(q1 < q2 && q2 < q3 && q3 < q4);
    }

    #[test]
    fn withdraw_and_restore_through_reinvocation() {
        // The withdraw/restore contract: the entry point is pure, so the
        // transport re-invokes it with the latest advertisement and the
        // outcome tracks the wire state.
        let server = GenAbility::full();
        assert_eq!(decide(server, GenAbility::full()), ServeMode::Generative);
        assert_eq!(
            decide(server, GenAbility::none()),
            ServeMode::ServerGenerated,
            "withdraw degrades to server-side expansion"
        );
        assert_eq!(decide(server, GenAbility::full()), ServeMode::Generative);
    }

    #[test]
    fn functionality_matrix() {
        // The four §6.2 scenarios.
        assert_eq!(
            decide(GenAbility::full(), GenAbility::full()),
            ServeMode::Generative
        );
        assert_eq!(
            decide(GenAbility::full(), GenAbility::none()),
            ServeMode::ServerGenerated
        );
        // §5.1: a server declining client generation advertises nothing.
        assert_eq!(
            decide(GenAbility::none(), GenAbility::full()),
            ServeMode::Traditional
        );
        assert_eq!(
            decide(GenAbility::none(), GenAbility::none()),
            ServeMode::Traditional
        );
    }

    #[test]
    fn upscale_only_client() {
        let server = GenAbility::from_bits(GenAbility::GENERATE | GenAbility::UPSCALE);
        assert_eq!(
            decide(server, GenAbility::upscale_only()),
            ServeMode::UpscaleAssisted
        );
    }
}
