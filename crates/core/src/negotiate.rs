//! Capability negotiation outcomes (paper §3, §5.1, §6.2).
//!
//! "In any case other than both server and client having
//! SETTINGS_GEN_ABILITY set to 1, default (unsupported) behavior will be
//! assumed." A server may also *choose* traditional service despite a
//! capable client (the paper's reasons are performance and renewable
//! availability; here the choice is [`ServerPolicy`]'s two fixed knobs),
//! and when the client cannot generate, the server can expand prompts
//! itself before sending ("this saves storage space, and avoids saving
//! two copies of content").

use crate::policy::ServerPolicy;
use sww_genai::diffusion::ImageModelKind;
use sww_genai::text::TextModelKind;
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
    /// Fully traditional HTTP/2 service (server lacks prompts or policy
    /// forbids generation).
    Traditional,
}

impl ServeMode {
    /// The mode's one spelling: the `x-sww-mode` header, the `mode`
    /// label of `sww_negotiate_outcomes_total`, the keys of
    /// `GenerativeServer::served_modes` and the edge's fill-cache key.
    pub fn label(self) -> &'static str {
        match self {
            ServeMode::Generative => "generative",
            ServeMode::UpscaleAssisted => "upscale",
            ServeMode::ServerGenerated => "server-generated",
            ServeMode::Traditional => "traditional",
        }
    }
}

/// Decide the serve mode from both advertised abilities and the server's
/// policy. The paper's §6.2 functionality matrix falls out of this table.
pub fn decide(server: GenAbility, client: GenAbility, policy: &ServerPolicy) -> ServeMode {
    let shared = server.intersect(client);
    if !server.supported() {
        // A non-participating server has no prompts to serve.
        return ServeMode::Traditional;
    }
    if !policy.allow_client_generation {
        return if policy.expand_prompts_server_side {
            ServeMode::ServerGenerated
        } else {
            ServeMode::Traditional
        };
    }
    if shared.can_generate() {
        ServeMode::Generative
    } else if shared.can_upscale() {
        ServeMode::UpscaleAssisted
    } else if policy.expand_prompts_server_side {
        ServeMode::ServerGenerated
    } else {
        ServeMode::Traditional
    }
}

/// One session's negotiation state: both advertisements plus their
/// intersection, computed in exactly one place.
///
/// Both transports funnel through [`session`] on **every request**, with
/// whatever the peer most recently advertised — h2 re-reads the
/// connection's live SETTINGS, h3 re-reads the latest control-stream
/// update. Withdraw/restore therefore needs no extra machinery: a client
/// that re-announces `GenAbility::none()` mid-connection simply produces
/// a different `client` input on its next request, and the min
/// (intersection) semantics degrade the session to the PR 3 fallback
/// path; re-announcing the old ability restores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAbilities {
    /// What the server advertised.
    pub server: GenAbility,
    /// What the client most recently advertised.
    pub client: GenAbility,
    /// The shared capability: bitwise min of the flags and the lower of
    /// each model level.
    pub negotiated: GenAbility,
}

impl SessionAbilities {
    /// The serve mode this session's abilities produce under `policy` —
    /// the §6.2 functionality matrix, looked up through the one shared
    /// negotiation record.
    pub fn mode(&self, policy: &ServerPolicy) -> ServeMode {
        decide(self.server, self.client, policy)
    }
}

/// The single h2/h3 negotiation entry point: fold both advertisements
/// into a [`SessionAbilities`]. `SETTINGS_GEN_ABILITY` semantics (min,
/// withdraw, restore) live here and nowhere else — transport adapters
/// only deliver the peer's latest advertisement.
pub fn session(server: GenAbility, client: GenAbility) -> SessionAbilities {
    SessionAbilities {
        server,
        client,
        negotiated: server.intersect(client),
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

/// The advertised level for a given image model (inverse of
/// [`image_model_for_level`] for concrete models).
pub fn level_for_image_model(kind: ImageModelKind) -> u8 {
    match kind {
        ImageModelKind::Sd21Base => 1,
        ImageModelKind::Sd3Medium => 2,
        ImageModelKind::Sd35Medium => 3,
        ImageModelKind::Dalle3 => 3, // server-class quality, same wire level
        ImageModelKind::FluxFast => 4,
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

    fn default_policy() -> ServerPolicy {
        ServerPolicy::default()
    }

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
        use sww_genai::diffusion::models::profile;
        let q1 = profile(image_model_for_level(1)).quality;
        let q2 = profile(image_model_for_level(2)).quality;
        let q3 = profile(image_model_for_level(3)).quality;
        let q4 = profile(image_model_for_level(4)).quality;
        assert!(q1 < q2 && q2 < q3 && q3 < q4);
    }

    #[test]
    fn level_roundtrip_for_local_models() {
        for kind in [
            ImageModelKind::Sd21Base,
            ImageModelKind::Sd3Medium,
            ImageModelKind::Sd35Medium,
            ImageModelKind::FluxFast,
        ] {
            assert_eq!(image_model_for_level(level_for_image_model(kind)), kind);
        }
    }

    #[test]
    fn session_entry_point_computes_min_and_mode() {
        let s = session(
            GenAbility::full().with_image_model_level(2),
            GenAbility::full().with_image_model_level(4),
        );
        assert!(s.negotiated.can_generate());
        assert_eq!(s.negotiated.image_model_level(), 2, "min of model levels");
        assert_eq!(s.mode(&default_policy()), ServeMode::Generative);
    }

    #[test]
    fn session_withdraw_and_restore_through_reinvocation() {
        // The withdraw/restore contract: the entry point is pure, so the
        // transport re-invokes it with the latest advertisement and the
        // outcome tracks the wire state.
        let server = GenAbility::full();
        assert!(session(server, GenAbility::full())
            .negotiated
            .can_generate());
        let withdrawn = session(server, GenAbility::none());
        assert!(!withdrawn.negotiated.supported());
        assert_eq!(
            withdrawn.mode(&default_policy()),
            ServeMode::ServerGenerated,
            "withdraw degrades to the PR 3 fallback path"
        );
        assert!(session(server, GenAbility::full())
            .negotiated
            .can_generate());
    }

    #[test]
    fn functionality_matrix() {
        // The four §6.2 scenarios.
        let p = default_policy();
        assert_eq!(
            decide(GenAbility::full(), GenAbility::full(), &p),
            ServeMode::Generative
        );
        assert_eq!(
            decide(GenAbility::full(), GenAbility::none(), &p),
            ServeMode::ServerGenerated
        );
        assert_eq!(
            decide(GenAbility::none(), GenAbility::full(), &p),
            ServeMode::Traditional
        );
        assert_eq!(
            decide(GenAbility::none(), GenAbility::none(), &p),
            ServeMode::Traditional
        );
    }

    #[test]
    fn upscale_only_client() {
        let p = default_policy();
        let server = GenAbility::from_bits(GenAbility::GENERATE | GenAbility::UPSCALE);
        assert_eq!(
            decide(server, GenAbility::upscale_only(), &p),
            ServeMode::UpscaleAssisted
        );
    }

    #[test]
    fn policy_can_force_traditional() {
        // §5.1: "A server can choose to serve traditional content even if
        // the client supports generative ability."
        let p = ServerPolicy {
            allow_client_generation: false,
            expand_prompts_server_side: false,
        };
        assert_eq!(
            decide(GenAbility::full(), GenAbility::full(), &p),
            ServeMode::Traditional
        );
    }

    #[test]
    fn policy_can_force_server_generation() {
        let p = ServerPolicy {
            allow_client_generation: false,
            expand_prompts_server_side: true,
        };
        assert_eq!(
            decide(GenAbility::full(), GenAbility::full(), &p),
            ServeMode::ServerGenerated
        );
    }

    #[test]
    fn naive_client_without_server_expansion_gets_traditional() {
        let p = ServerPolicy {
            expand_prompts_server_side: false,
            ..ServerPolicy::default()
        };
        assert_eq!(
            decide(GenAbility::full(), GenAbility::none(), &p),
            ServeMode::Traditional
        );
    }
}
