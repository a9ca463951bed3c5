//! Video streaming negotiation (paper §3.2).
//!
//! HLS/MPEG-DASH run over HTTP, so the same SETTINGS negotiation can
//! advertise client-side video upscaling: frame-rate boosting (60→30 fps
//! halves the data) and resolution upscaling (4K→HD saves 2.3×, turning
//! 7 GB/hour into 3 GB/hour). The model here is an HLS-like segment
//! stream whose per-segment size derives from those published rates.

use sww_http2::GenAbility;

/// Video resolutions with their full-rate data cost (GB per hour at
/// 60 fps, from the paper's Netflix-derived figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// High definition (720p-class): 3 GB/hour.
    Hd,
    /// Full HD (1080p-class): 4.5 GB/hour.
    FullHd,
    /// 4K UHD: 7 GB/hour.
    Uhd4K,
}

impl Resolution {
    /// GB per hour at 60 fps.
    pub(crate) fn gb_per_hour(self) -> f64 {
        match self {
            Resolution::Hd => 3.0,
            Resolution::FullHd => 4.5,
            Resolution::Uhd4K => 7.0,
        }
    }

    /// The next resolution down (what the server sends when the client
    /// can upscale), or `None` at the bottom.
    pub(crate) fn downgrade(self) -> Option<Resolution> {
        match self {
            Resolution::Uhd4K => Some(Resolution::Hd), // the paper's 4K→HD example
            Resolution::FullHd => Some(Resolution::Hd),
            Resolution::Hd => None,
        }
    }
}

/// A stream the client asked to watch.
#[derive(Debug, Clone, Copy)]
pub struct StreamRequest {
    /// Target display resolution.
    pub resolution: Resolution,
    /// Target display frame rate.
    pub fps: u32,
    /// Content length in seconds.
    pub duration_s: u64,
    /// HLS-like segment length in seconds.
    pub segment_s: u32,
}

/// What the server will actually send after negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegotiatedStream {
    /// Resolution on the wire.
    pub sent_resolution: Resolution,
    /// Frame rate on the wire.
    pub sent_fps: u32,
    /// Whether the client upscales resolution.
    pub client_upscales: bool,
    /// Whether the client boosts frame rate.
    pub client_boosts_fps: bool,
    /// Total bytes on the wire for the whole stream.
    pub wire_bytes: u64,
    /// Bytes a traditional full-rate stream would cost.
    pub traditional_bytes: u64,
    /// Number of segments.
    pub segments: u64,
}

/// Bytes per hour at a resolution and frame rate (linear in fps relative
/// to the 60 fps base, per the paper: 60→30 fps halves the data).
fn bytes_per_hour(res: Resolution, fps: u32) -> f64 {
    res.gb_per_hour() * 1e9 * f64::from(fps) / 60.0
}

/// Negotiate a stream: when the client advertises video upscaling, the
/// server sends lower resolution and frame rate and the client restores
/// them locally.
pub fn negotiate_stream(
    req: StreamRequest,
    client: GenAbility,
    server: GenAbility,
) -> NegotiatedStream {
    let shared = client.intersect(server);
    let traditional = bytes_per_hour(req.resolution, req.fps) * req.duration_s as f64 / 3600.0;
    let can_video = shared.can_upscale_video();
    let (sent_resolution, client_upscales) = if can_video {
        match req.resolution.downgrade() {
            Some(lower) => (lower, true),
            None => (req.resolution, false),
        }
    } else {
        (req.resolution, false)
    };
    let (sent_fps, client_boosts_fps) = if can_video && req.fps >= 60 {
        (req.fps / 2, true)
    } else {
        (req.fps, false)
    };
    let wire = bytes_per_hour(sent_resolution, sent_fps) * req.duration_s as f64 / 3600.0;
    let segments = req.duration_s.div_ceil(u64::from(req.segment_s.max(1)));
    NegotiatedStream {
        sent_resolution,
        sent_fps,
        client_upscales,
        client_boosts_fps,
        wire_bytes: wire as u64,
        traditional_bytes: traditional as u64,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video_ability() -> GenAbility {
        GenAbility::from_bits(GenAbility::VIDEO)
    }

    fn hour_4k60() -> StreamRequest {
        StreamRequest {
            resolution: Resolution::Uhd4K,
            fps: 60,
            duration_s: 3600,
            segment_s: 6,
        }
    }

    #[test]
    fn fps_halving_halves_data() {
        // Paper: "moving from 60fps to 30fps will half the data".
        let b60 = bytes_per_hour(Resolution::Hd, 60);
        let b30 = bytes_per_hour(Resolution::Hd, 30);
        assert!((b60 / b30 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resolution_downgrade_saves_2_3x() {
        // Paper: "from 4K to high definition can save 2.3× data, turning
        // 7GB/hour into 3GB/hour".
        let ratio = Resolution::Uhd4K.gb_per_hour() / Resolution::Hd.gb_per_hour();
        assert!((ratio - 2.333).abs() < 0.01);
    }

    #[test]
    fn full_negotiation_combines_both_savings() {
        let s = negotiate_stream(hour_4k60(), video_ability(), video_ability());
        assert_eq!(s.sent_resolution, Resolution::Hd);
        assert_eq!(s.sent_fps, 30);
        assert!(s.client_upscales && s.client_boosts_fps);
        // 2.33× from resolution × 2× from fps ≈ 4.67×.
        let savings = s.traditional_bytes as f64 / s.wire_bytes as f64;
        assert!((savings - 4.67).abs() < 0.05, "{savings}");
        assert_eq!(s.traditional_bytes, 7_000_000_000);
        assert_eq!(s.segments, 600);
    }

    #[test]
    fn naive_client_gets_full_rate() {
        let s = negotiate_stream(hour_4k60(), GenAbility::none(), video_ability());
        assert_eq!(s.sent_resolution, Resolution::Uhd4K);
        assert_eq!(s.sent_fps, 60);
        let savings = s.traditional_bytes as f64 / s.wire_bytes as f64;
        assert!((savings - 1.0).abs() < 1e-6);
    }

    #[test]
    fn naive_server_sends_full_rate() {
        let s = negotiate_stream(hour_4k60(), video_ability(), GenAbility::none());
        assert!(!s.client_upscales);
        assert_eq!(s.wire_bytes, s.traditional_bytes);
    }

    #[test]
    fn generate_ability_alone_does_not_downscale_video() {
        // GEN_ABILITY bit 0 (image/text generation) is not the video bit.
        let s = negotiate_stream(hour_4k60(), GenAbility::full(), GenAbility::full());
        assert!(!s.client_upscales);
    }

    #[test]
    fn low_fps_content_not_halved() {
        let req = StreamRequest {
            fps: 30,
            ..hour_4k60()
        };
        let s = negotiate_stream(req, video_ability(), video_ability());
        assert_eq!(s.sent_fps, 30);
        assert!(!s.client_boosts_fps);
        assert!(s.client_upscales);
    }

    #[test]
    fn hd_cannot_downgrade() {
        let req = StreamRequest {
            resolution: Resolution::Hd,
            ..hour_4k60()
        };
        let s = negotiate_stream(req, video_ability(), video_ability());
        assert_eq!(s.sent_resolution, Resolution::Hd);
        assert!(!s.client_upscales);
        assert!(s.client_boosts_fps, "fps boosting still applies");
    }
}
