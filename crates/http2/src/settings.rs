//! Connection settings (RFC 9113 §6.5.2) and the paper's §3 extension.
//!
//! The paper adds one parameter, `SETTINGS_GEN_ABILITY` (identifier `0x07`,
//! the first unreserved value), whose 32-bit value advertises the sender's
//! client-side content-generation capability. The prototype uses value 1 =
//! "full generation"; the paper notes the 32-bit field can negotiate richer
//! options such as upscale-only, which [`GenAbility`] models as a bitmask.

use crate::error::H2Error;
use crate::frame::SettingPair;
use crate::frame::{DEFAULT_MAX_FRAME_SIZE, MAX_ALLOWED_FRAME_SIZE};

/// SETTINGS_HEADER_TABLE_SIZE (RFC 9113).
pub const SETTINGS_HEADER_TABLE_SIZE: u16 = 0x1;
/// SETTINGS_ENABLE_PUSH.
pub const SETTINGS_ENABLE_PUSH: u16 = 0x2;
/// SETTINGS_MAX_CONCURRENT_STREAMS.
pub const SETTINGS_MAX_CONCURRENT_STREAMS: u16 = 0x3;
/// SETTINGS_INITIAL_WINDOW_SIZE.
pub const SETTINGS_INITIAL_WINDOW_SIZE: u16 = 0x4;
/// SETTINGS_MAX_FRAME_SIZE.
pub const SETTINGS_MAX_FRAME_SIZE: u16 = 0x5;
/// SETTINGS_MAX_HEADER_LIST_SIZE.
pub const SETTINGS_MAX_HEADER_LIST_SIZE: u16 = 0x6;
/// The paper's extension: generative-ability advertisement (§3).
pub const SETTINGS_GEN_ABILITY: u16 = 0x7;

/// Generative capability advertised via `SETTINGS_GEN_ABILITY`.
///
/// Encoded in the setting's 32-bit value. Value `0` (or an absent setting)
/// means no capability; value `1` is the paper's prototype encoding for
/// full generation. Higher bits refine the capability as the paper's §3
/// suggests ("the 32-bit field can be used \[to\] negotiate more complex
/// support options, such as upscale-only").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenAbility {
    bits: u32,
}

impl GenAbility {
    /// Bit 0: full content generation (the paper's prototype value 1).
    pub const GENERATE: u32 = 1 << 0;
    /// Bit 1: image upscaling only (§2.2).
    pub const UPSCALE: u32 = 1 << 1;
    /// Bit 3: video frame-rate boosting / resolution upscale (§3.2).
    pub const VIDEO: u32 = 1 << 3;

    /// No generative capability (default behaviour).
    pub fn none() -> GenAbility {
        GenAbility { bits: 0 }
    }

    /// Full generation, the paper's prototype setting (value 1).
    pub fn full() -> GenAbility {
        GenAbility {
            bits: Self::GENERATE,
        }
    }

    /// Upscale-only capability.
    pub fn upscale_only() -> GenAbility {
        GenAbility {
            bits: Self::UPSCALE,
        }
    }

    /// Capability from raw bits.
    pub fn from_bits(bits: u32) -> GenAbility {
        GenAbility { bits }
    }

    /// Raw 32-bit wire value.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Whether any generative capability is advertised.
    pub fn supported(self) -> bool {
        self.bits != 0
    }

    /// Whether full generation is advertised.
    pub fn can_generate(self) -> bool {
        self.bits & Self::GENERATE != 0
    }

    /// Whether image upscaling is advertised (implied by full generation).
    pub fn can_upscale(self) -> bool {
        self.bits & (Self::UPSCALE | Self::GENERATE) != 0
    }

    /// Whether video upscaling is advertised.
    pub fn can_upscale_video(self) -> bool {
        self.bits & Self::VIDEO != 0
    }

    /// The capability both peers share: generation happens only when both
    /// ends opted in (paper §3: "In any case other than both server and
    /// client having SETTINGS_GEN_ABILITY set to 1, default (unsupported)
    /// behavior will be assumed"). Model levels combine as the minimum —
    /// both ends must support a model generation for it to be used.
    pub fn intersect(self, other: GenAbility) -> GenAbility {
        let caps = (self.bits & Self::CAPS_MASK) & (other.bits & Self::CAPS_MASK);
        let image = self.image_model_level().min(other.image_model_level());
        let text = self.text_model_level().min(other.text_model_level());
        GenAbility {
            bits: caps
                | (u32::from(image) << Self::IMAGE_LEVEL_SHIFT)
                | (u32::from(text) << Self::TEXT_LEVEL_SHIFT),
        }
    }

    // ----- model negotiation (paper §7: "Negotiating models is another
    // aspect to consider") -----

    /// Low half: capability flags. High half: model-level fields.
    const CAPS_MASK: u32 = 0x0000_ffff;
    /// Bit offset of the 8-bit image-model level field.
    const IMAGE_LEVEL_SHIFT: u32 = 16;
    /// Bit offset of the 8-bit text-model level field.
    const TEXT_LEVEL_SHIFT: u32 = 24;

    /// Set the advertised image-model level (an ordinal model generation:
    /// higher = newer; 0 = unspecified/default).
    pub fn with_image_model_level(mut self, level: u8) -> GenAbility {
        self.bits = (self.bits & !(0xffu32 << Self::IMAGE_LEVEL_SHIFT))
            | (u32::from(level) << Self::IMAGE_LEVEL_SHIFT);
        self
    }

    /// Set the advertised text-model level.
    pub fn with_text_model_level(mut self, level: u8) -> GenAbility {
        self.bits = (self.bits & !(0xffu32 << Self::TEXT_LEVEL_SHIFT))
            | (u32::from(level) << Self::TEXT_LEVEL_SHIFT);
        self
    }

    /// Advertised image-model level.
    pub fn image_model_level(self) -> u8 {
        ((self.bits >> Self::IMAGE_LEVEL_SHIFT) & 0xff) as u8
    }

    /// Advertised text-model level.
    pub fn text_model_level(self) -> u8 {
        ((self.bits >> Self::TEXT_LEVEL_SHIFT) & 0xff) as u8
    }
}

/// The full settings state for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// HPACK dynamic table ceiling.
    pub header_table_size: u32,
    /// Whether server push is permitted.
    pub enable_push: bool,
    /// Peer-imposed concurrent stream limit (`None` = unlimited).
    pub max_concurrent_streams: Option<u32>,
    /// Initial stream flow-control window.
    pub initial_window_size: u32,
    /// Largest frame payload the peer accepts.
    pub max_frame_size: u32,
    /// Advisory maximum header list size.
    pub max_header_list_size: Option<u32>,
    /// The paper's generative-ability advertisement.
    pub gen_ability: GenAbility,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            header_table_size: 4096,
            enable_push: true,
            max_concurrent_streams: None,
            initial_window_size: 65_535,
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            max_header_list_size: None,
            gen_ability: GenAbility::none(),
        }
    }
}

impl Settings {
    /// The settings an SWW endpoint announces: push disabled (the prototype
    /// never pushes) and, when `ability` is non-empty, the GEN_ABILITY
    /// parameter.
    pub fn sww(ability: GenAbility) -> Settings {
        Settings {
            enable_push: false,
            gen_ability: ability,
            ..Settings::default()
        }
    }

    /// Serialize to wire parameters. Only non-default values are sent,
    /// plus GEN_ABILITY whenever any capability is advertised.
    pub fn to_params(&self) -> Vec<SettingPair> {
        let d = Settings::default();
        let mut p = Vec::new();
        if self.header_table_size != d.header_table_size {
            p.push((SETTINGS_HEADER_TABLE_SIZE, self.header_table_size));
        }
        if self.enable_push != d.enable_push {
            p.push((SETTINGS_ENABLE_PUSH, u32::from(self.enable_push)));
        }
        if let Some(m) = self.max_concurrent_streams {
            p.push((SETTINGS_MAX_CONCURRENT_STREAMS, m));
        }
        if self.initial_window_size != d.initial_window_size {
            p.push((SETTINGS_INITIAL_WINDOW_SIZE, self.initial_window_size));
        }
        if self.max_frame_size != d.max_frame_size {
            p.push((SETTINGS_MAX_FRAME_SIZE, self.max_frame_size));
        }
        if let Some(m) = self.max_header_list_size {
            p.push((SETTINGS_MAX_HEADER_LIST_SIZE, m));
        }
        if self.gen_ability.supported() {
            p.push((SETTINGS_GEN_ABILITY, self.gen_ability.bits()));
        }
        p
    }

    /// Apply received parameters (RFC 9113 §6.5.2 validation). Unknown
    /// identifiers are ignored — the rule that keeps non-participating
    /// peers working and makes the paper's extension deployable.
    pub(crate) fn apply(&mut self, params: &[SettingPair]) -> Result<(), H2Error> {
        for &(id, value) in params {
            match id {
                SETTINGS_HEADER_TABLE_SIZE => self.header_table_size = value,
                SETTINGS_ENABLE_PUSH => {
                    self.enable_push = match value {
                        0 => false,
                        1 => true,
                        _ => return Err(H2Error::protocol("ENABLE_PUSH must be 0 or 1")),
                    }
                }
                SETTINGS_MAX_CONCURRENT_STREAMS => self.max_concurrent_streams = Some(value),
                SETTINGS_INITIAL_WINDOW_SIZE => {
                    if value > 0x7fff_ffff {
                        return Err(H2Error::Connection(
                            crate::error::ErrorCode::FlowControl,
                            "INITIAL_WINDOW_SIZE above 2^31-1".into(),
                        ));
                    }
                    self.initial_window_size = value;
                }
                SETTINGS_MAX_FRAME_SIZE => {
                    if !(DEFAULT_MAX_FRAME_SIZE..=MAX_ALLOWED_FRAME_SIZE).contains(&value) {
                        return Err(H2Error::protocol("MAX_FRAME_SIZE out of range"));
                    }
                    self.max_frame_size = value;
                }
                SETTINGS_MAX_HEADER_LIST_SIZE => self.max_header_list_size = Some(value),
                SETTINGS_GEN_ABILITY => self.gen_ability = GenAbility::from_bits(value),
                _ => {
                    // RFC 9113 §6.5.2: "An endpoint that receives a SETTINGS
                    // frame with any unknown or unsupported identifier MUST
                    // ignore that setting."
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rfc() {
        let s = Settings::default();
        assert_eq!(s.header_table_size, 4096);
        assert!(s.enable_push);
        assert_eq!(s.initial_window_size, 65_535);
        assert_eq!(s.max_frame_size, 16_384);
        assert!(!s.gen_ability.supported());
    }

    #[test]
    fn gen_ability_roundtrips_via_params() {
        let s = Settings::sww(GenAbility::full());
        let params = s.to_params();
        assert!(params.contains(&(SETTINGS_GEN_ABILITY, 1)));
        let mut peer = Settings::default();
        peer.apply(&params).unwrap();
        assert!(peer.gen_ability.can_generate());
    }

    #[test]
    fn unknown_setting_ignored() {
        let mut s = Settings::default();
        s.apply(&[(0x99, 42), (0xabc, 7)]).unwrap();
        assert_eq!(s, Settings::default());
    }

    #[test]
    fn naive_peer_ignores_gen_ability() {
        // A non-participating peer applies our params and is unchanged
        // except for standard fields — the paper's fallback story.
        let mut naive = Settings::default();
        naive
            .apply(&Settings::sww(GenAbility::full()).to_params())
            .unwrap();
        assert!(!naive.enable_push);
        // The naive peer records the setting only if it understands it; a
        // truly naive implementation would have ignored 0x07 entirely. Our
        // Settings knows the id, so simulate naive by checking the
        // unknown-id path instead:
        let mut really_naive = Settings::default();
        really_naive.apply(&[(0xfff0, 1)]).unwrap();
        assert_eq!(really_naive, Settings::default());
    }

    #[test]
    fn ability_intersection_requires_both() {
        assert!(GenAbility::full()
            .intersect(GenAbility::full())
            .can_generate());
        assert!(!GenAbility::full().intersect(GenAbility::none()).supported());
        assert!(!GenAbility::none().intersect(GenAbility::full()).supported());
        let up = GenAbility::upscale_only();
        assert!(!GenAbility::full().intersect(up).supported());
        assert!(up.intersect(up).can_upscale());
        assert!(!up.intersect(up).can_generate());
    }

    #[test]
    fn capability_implications() {
        let full = GenAbility::full();
        assert!(full.can_generate() && full.can_upscale());
        assert!(!full.can_upscale_video());
        let v = GenAbility::from_bits(GenAbility::VIDEO);
        assert!(v.can_upscale_video() && !v.can_generate());
    }

    #[test]
    fn invalid_standard_settings_rejected() {
        let mut s = Settings::default();
        assert!(s.apply(&[(SETTINGS_ENABLE_PUSH, 2)]).is_err());
        assert!(s.apply(&[(SETTINGS_MAX_FRAME_SIZE, 100)]).is_err());
        assert!(s.apply(&[(SETTINGS_MAX_FRAME_SIZE, 1 << 24)]).is_err());
        assert!(s.apply(&[(SETTINGS_INITIAL_WINDOW_SIZE, 1 << 31)]).is_err());
    }

    #[test]
    fn model_levels_roundtrip_and_negotiate_to_minimum() {
        // §7: "Negotiating models is another aspect to consider" — the
        // 32-bit value carries ordinal model generations.
        let a = GenAbility::full()
            .with_image_model_level(3)
            .with_text_model_level(2);
        let b = GenAbility::full()
            .with_image_model_level(2)
            .with_text_model_level(5);
        assert_eq!(a.image_model_level(), 3);
        assert_eq!(a.text_model_level(), 2);
        let shared = a.intersect(b);
        assert!(shared.can_generate());
        assert_eq!(shared.image_model_level(), 2, "minimum of both peers");
        assert_eq!(shared.text_model_level(), 2);
        // The wire value survives a settings roundtrip.
        let mut peer = Settings::default();
        peer.apply(&[(SETTINGS_GEN_ABILITY, a.bits())]).unwrap();
        assert_eq!(peer.gen_ability, a);
    }

    #[test]
    fn model_levels_do_not_disturb_capability_bits() {
        let g = GenAbility::upscale_only().with_image_model_level(9);
        assert!(g.can_upscale());
        assert!(!g.can_generate());
        assert_eq!(g.image_model_level(), 9);
        let replaced = g.with_image_model_level(1);
        assert_eq!(replaced.image_model_level(), 1);
        assert!(replaced.can_upscale());
    }

    #[test]
    fn last_duplicate_wins() {
        let mut s = Settings::default();
        s.apply(&[(SETTINGS_GEN_ABILITY, 1), (SETTINGS_GEN_ABILITY, 0)])
            .unwrap();
        assert!(!s.gen_ability.supported());
    }
}
