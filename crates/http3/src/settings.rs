//! HTTP/3 settings (RFC 9114 §7.2.4) with the SWW extension.
//!
//! HTTP/3 reserves `0x1f·N + 0x21` identifiers for grease and inherits
//! HTTP/2's ignore-unknown rule, so a new setting deploys the same way the
//! paper's 0x07 does under HTTP/2. The SWW identifier here is `0x5757`
//! ("WW"), outside both the standard and grease spaces.

use crate::frame::H3Frame;
use sww_http2::GenAbility;

/// SETTINGS_QPACK_MAX_TABLE_CAPACITY (RFC 9204).
pub const SETTINGS_QPACK_MAX_TABLE_CAPACITY: u64 = 0x01;
/// SETTINGS_MAX_FIELD_SECTION_SIZE (RFC 9114).
pub const SETTINGS_MAX_FIELD_SECTION_SIZE: u64 = 0x06;
/// The SWW generative-ability advertisement for HTTP/3.
pub const SETTINGS_SWW_GEN_ABILITY: u64 = 0x5757;

/// HTTP/3 connection settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H3Settings {
    /// QPACK dynamic table bound; this implementation always announces 0
    /// (static-table-only QPACK, a legal configuration).
    pub qpack_max_table_capacity: u64,
    /// Largest acceptable field section.
    pub max_field_section_size: Option<u64>,
    /// Generative ability (the SWW extension).
    pub gen_ability: GenAbility,
}

impl Default for H3Settings {
    fn default() -> H3Settings {
        H3Settings {
            qpack_max_table_capacity: 0,
            max_field_section_size: None,
            gen_ability: GenAbility::none(),
        }
    }
}

impl H3Settings {
    /// The settings an SWW endpoint announces.
    pub fn sww(ability: GenAbility) -> H3Settings {
        H3Settings {
            gen_ability: ability,
            ..H3Settings::default()
        }
    }

    /// Build the control-stream SETTINGS frame.
    pub fn to_frame(&self) -> H3Frame {
        let mut pairs = vec![(
            SETTINGS_QPACK_MAX_TABLE_CAPACITY,
            self.qpack_max_table_capacity,
        )];
        if let Some(m) = self.max_field_section_size {
            pairs.push((SETTINGS_MAX_FIELD_SECTION_SIZE, m));
        }
        if self.gen_ability.supported() {
            pairs.push((SETTINGS_SWW_GEN_ABILITY, u64::from(self.gen_ability.bits())));
        }
        H3Frame::Settings(pairs)
    }

    /// A SETTINGS frame carrying exactly the ability pair — even when the
    /// ability is empty. Settings keep their previous value until
    /// re-announced, so a mid-connection *withdraw* must put the zero on
    /// the wire; [`H3Settings::to_frame`] omits the pair for endpoints
    /// that never participate, which would silently leave the old
    /// advertisement standing.
    pub fn ability_update_frame(ability: GenAbility) -> H3Frame {
        H3Frame::Settings(vec![(SETTINGS_SWW_GEN_ABILITY, u64::from(ability.bits()))])
    }

    /// Apply received pairs; unknown identifiers are ignored (§7.2.4.1).
    pub fn apply(&mut self, pairs: &[(u64, u64)]) {
        for &(id, value) in pairs {
            match id {
                SETTINGS_QPACK_MAX_TABLE_CAPACITY => self.qpack_max_table_capacity = value,
                SETTINGS_MAX_FIELD_SECTION_SIZE => self.max_field_section_size = Some(value),
                SETTINGS_SWW_GEN_ABILITY => self.gen_ability = GenAbility::from_bits(value as u32),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_frame() {
        let s = H3Settings::sww(GenAbility::full());
        let H3Frame::Settings(pairs) = s.to_frame() else {
            panic!("expected settings frame");
        };
        assert!(pairs.contains(&(SETTINGS_SWW_GEN_ABILITY, 1)));
        let mut peer = H3Settings::default();
        peer.apply(&pairs);
        assert!(peer.gen_ability.can_generate());
    }

    #[test]
    fn unknown_and_grease_ignored() {
        let mut s = H3Settings::default();
        s.apply(&[(0x21, 99), (0x21 + 0x1f, 1), (0xdead, 7)]);
        assert_eq!(s, H3Settings::default());
    }

    #[test]
    fn upscale_only_travels() {
        let s = H3Settings::sww(GenAbility::upscale_only());
        let H3Frame::Settings(pairs) = s.to_frame() else {
            panic!()
        };
        let mut peer = H3Settings::default();
        peer.apply(&pairs);
        assert!(peer.gen_ability.can_upscale());
        assert!(!peer.gen_ability.can_generate());
    }

    #[test]
    fn no_ability_means_no_extension_pair() {
        let H3Frame::Settings(pairs) = H3Settings::default().to_frame() else {
            panic!()
        };
        assert!(pairs.iter().all(|&(id, _)| id != SETTINGS_SWW_GEN_ABILITY));
    }
}
