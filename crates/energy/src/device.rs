//! Device profiles matching the paper's evaluation setup (§6.1) plus the
//! mobile profile its §7 outlook targets.

/// The devices content can be generated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// MacBook Pro, M1 Pro, 16 GB, 16-core integrated GPU, FP16, no large
    /// text encoder, attention splitting required.
    Laptop,
    /// AMD Threadripper Pro 5, 128 GB DDR5, 2× NVIDIA ADA 4000, FP16,
    /// large text encoder, no attention splitting.
    Workstation,
    /// A 2024-class flagship phone with an NPU (§7 "Generation on Mobile
    /// Devices") — an extension profile, not in the paper's evaluation.
    Mobile,
}

/// Static description of one device.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Which device this is.
    pub kind: DeviceKind,
    /// Display name.
    pub name: &'static str,
    /// Whether the device must split attention computation because of
    /// memory limits — the source of the superlinear large-image penalty
    /// the paper measures (310 s at 1024²).
    pub attention_splitting: bool,
    /// Whether the full text encoder/tokenizer fits (workstation only).
    pub large_text_encoder: bool,
    /// Average draw during image generation, watts. Calibrated from the
    /// paper's Table 2 (energy ÷ time): ≈10.4 W laptop, ≈130 W workstation.
    pub image_power_w: f64,
    /// Average draw during text generation, watts. The paper's Table 2
    /// implies ≈1.1 W on the laptop (efficiency cores / NPU) and ≈141 W on
    /// the workstation.
    pub text_power_w: f64,
    /// SD 3 Medium total generation seconds at 15 steps, as measured by
    /// the paper, at the anchor resolutions `(pixels, seconds)` —
    /// interpolated log-log between anchors by the cost model.
    pub sd3_time_anchors: &'static [(u64, f64)],
    /// Laptop-style multiplier for the text cost model: laptop ≈ 2.5× the
    /// workstation (§6.3.2). 1.0 on the workstation itself.
    pub text_slowdown: f64,
}

/// Pixels helper.
const fn px(side: u64) -> u64 {
    side * side
}

/// The paper's measured SD 3 Medium anchors on the laptop: 224² from
/// Table 1 (0.38 s/step × 15), the rest from Table 2 / §6.3.1.
static LAPTOP_ANCHORS: [(u64, f64); 4] = [
    (px(224), 5.7),
    (px(256), 7.0),
    (px(512), 19.0),
    (px(1024), 310.0),
];

/// Workstation anchors: 224² from Table 1 (0.05 s/step × 15), rest from
/// Table 2.
static WORKSTATION_ANCHORS: [(u64, f64); 4] = [
    (px(224), 0.75),
    (px(256), 1.0),
    (px(512), 1.7),
    (px(1024), 6.2),
];

/// Mobile anchors: an NPU-accelerated phone at roughly 3× the laptop's
/// small-image times with an earlier memory wall.
static MOBILE_ANCHORS: [(u64, f64); 4] = [
    (px(224), 17.0),
    (px(256), 22.0),
    (px(512), 75.0),
    (px(1024), 1400.0),
];

/// Look up a device profile.
pub fn profile(kind: DeviceKind) -> DeviceProfile {
    match kind {
        DeviceKind::Laptop => DeviceProfile {
            kind,
            name: "Laptop (M1 Pro)",
            attention_splitting: true,
            large_text_encoder: false,
            image_power_w: 10.4,
            text_power_w: 1.1,
            sd3_time_anchors: &LAPTOP_ANCHORS,
            text_slowdown: 2.5,
        },
        DeviceKind::Workstation => DeviceProfile {
            kind,
            name: "Workstation (2x ADA 4000)",
            attention_splitting: false,
            large_text_encoder: true,
            image_power_w: 130.0,
            text_power_w: 141.0,
            sd3_time_anchors: &WORKSTATION_ANCHORS,
            text_slowdown: 1.0,
        },
        DeviceKind::Mobile => DeviceProfile {
            kind,
            name: "Mobile (NPU flagship)",
            attention_splitting: true,
            large_text_encoder: false,
            image_power_w: 4.5,
            text_power_w: 0.8,
            sd3_time_anchors: &MOBILE_ANCHORS,
            text_slowdown: 6.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper_tables() {
        let laptop = profile(DeviceKind::Laptop);
        assert_eq!(laptop.sd3_time_anchors[1], (256 * 256, 7.0));
        assert_eq!(laptop.sd3_time_anchors[3], (1024 * 1024, 310.0));
        let ws = profile(DeviceKind::Workstation);
        assert_eq!(ws.sd3_time_anchors[1], (256 * 256, 1.0));
        assert_eq!(ws.sd3_time_anchors[3], (1024 * 1024, 6.2));
    }

    #[test]
    fn implied_power_matches_table2_energy() {
        // Table 2 laptop: 310 s, 0.90 Wh → ≈10.4 W.
        let laptop = profile(DeviceKind::Laptop);
        let wh = laptop.image_power_w * 310.0 / 3600.0;
        assert!((wh - 0.90).abs() < 0.02, "laptop large image {wh:.3} Wh");
        // Table 2 workstation: 6.2 s, 0.21 Wh → ≈125–130 W.
        let ws = profile(DeviceKind::Workstation);
        let wh = ws.image_power_w * 6.2 / 3600.0;
        assert!((wh - 0.21).abs() < 0.02, "ws large image {wh:.3} Wh");
        // Text block: 13 s, 0.51 Wh on the workstation.
        let wh = ws.text_power_w * 13.0 / 3600.0;
        assert!((wh - 0.51).abs() < 0.01, "ws text {wh:.3} Wh");
    }

    #[test]
    fn memory_constrained_devices_split_attention() {
        assert!(profile(DeviceKind::Laptop).attention_splitting);
        assert!(!profile(DeviceKind::Workstation).attention_splitting);
        assert!(profile(DeviceKind::Mobile).attention_splitting);
    }

    #[test]
    fn anchors_are_monotonic() {
        for kind in [
            DeviceKind::Laptop,
            DeviceKind::Workstation,
            DeviceKind::Mobile,
        ] {
            let p = profile(kind);
            for w in p.sd3_time_anchors.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert!(w[0].1 < w[1].1, "{kind:?}");
            }
        }
    }
}
