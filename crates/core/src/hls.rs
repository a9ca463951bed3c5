//! HLS-like video streaming over SWW HTTP/2 (paper §3.2: "Video streaming
//! protocols, such as HTTP Live Streaming (HLS) and MPEG-DASH, run on top
//! of HTTP. The proposed modifications to HTTP for web pages can be
//! applied also to negotiate generation abilities also for video
//! streaming").
//!
//! The server publishes a playlist plus per-segment resources. After the
//! SETTINGS exchange, a client advertising the VIDEO bit receives a
//! reduced-rate rendition (lower fps and/or resolution) and restores the
//! display rate locally (frame-rate boosting and resolution upscale); a
//! naive client receives the full-rate rendition. Segment payloads are
//! synthetic but correctly sized from the §3.2 bitrates, so the data
//! savings are measured on the wire.

use crate::video::{self, NegotiatedStream, Resolution, StreamRequest};
use sww_http2::GenAbility;

/// A published video: identity plus full-rate parameters.
#[derive(Debug, Clone)]
pub struct VideoAsset {
    /// Playlist name (e.g. "trailer").
    pub name: String,
    /// Mastered resolution.
    pub resolution: Resolution,
    /// Mastered frame rate.
    pub fps: u32,
    /// Duration in seconds.
    pub duration_s: u64,
    /// Segment duration in seconds.
    pub segment_s: u32,
}

/// A generated playlist: the negotiated rendition and its segment list.
#[derive(Debug, Clone)]
pub struct Playlist {
    /// The negotiation outcome the playlist was built for.
    pub stream: NegotiatedStream,
    /// Segment URL paths in play order.
    pub segments: Vec<String>,
    /// Bytes of each segment (uniform except the last).
    pub segment_bytes: u64,
}

impl Playlist {
    /// Render as an M3U8-like text manifest.
    pub fn to_m3u8(&self, asset: &VideoAsset) -> String {
        let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:3\n");
        out.push_str(&format!("#EXT-X-TARGETDURATION:{}\n", asset.segment_s));
        out.push_str(&format!(
            "#EXT-X-SWW-RENDITION:{:?}@{}fps upscale={} fpsboost={}\n",
            self.stream.sent_resolution,
            self.stream.sent_fps,
            self.stream.client_upscales,
            self.stream.client_boosts_fps
        ));
        for seg in &self.segments {
            out.push_str(&format!(
                "#EXTINF:{:.1},\n{}\n",
                asset.segment_s as f64, seg
            ));
        }
        out.push_str("#EXT-X-ENDLIST\n");
        out
    }
}

/// Build the playlist for a client after SETTINGS negotiation.
pub fn build_playlist(asset: &VideoAsset, client: GenAbility, server: GenAbility) -> Playlist {
    let req = StreamRequest {
        resolution: asset.resolution,
        fps: asset.fps,
        duration_s: asset.duration_s,
        segment_s: asset.segment_s,
    };
    let stream = video::negotiate_stream(req, client, server);
    let segments = (0..stream.segments)
        .map(|i| format!("/video/{}/seg{:04}.ts", asset.name, i))
        .collect();
    let segment_bytes = stream.wire_bytes / stream.segments.max(1);
    Playlist {
        stream,
        segments,
        segment_bytes,
    }
}

/// Synthesize one segment's payload: deterministic filler of the correct
/// negotiated size (media codecs are out of scope; the wire accounting is
/// what the experiment measures).
pub fn segment_payload(playlist: &Playlist, index: u64) -> Vec<u8> {
    let size = playlist.segment_bytes as usize;
    let mut data = vec![0u8; size];
    // Tag the payload so tests can verify ordering survives transfer.
    let tag = index.to_be_bytes();
    let n = tag.len().min(size);
    data[..n].copy_from_slice(&tag[..n]);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asset() -> VideoAsset {
        VideoAsset {
            name: "trailer".into(),
            resolution: Resolution::Uhd4K,
            fps: 60,
            duration_s: 120,
            segment_s: 6,
        }
    }

    fn video_ability() -> GenAbility {
        GenAbility::from_bits(GenAbility::VIDEO)
    }

    #[test]
    fn capable_client_gets_reduced_rendition() {
        let p = build_playlist(&asset(), video_ability(), video_ability());
        assert_eq!(p.segments.len(), 20);
        assert!(p.stream.client_upscales && p.stream.client_boosts_fps);
        // 4.67x fewer bytes per segment than the naive rendition.
        let naive = build_playlist(&asset(), GenAbility::none(), video_ability());
        let ratio = naive.segment_bytes as f64 / p.segment_bytes as f64;
        assert!((ratio - 4.67).abs() < 0.1, "ratio {ratio:.2}");
    }

    #[test]
    fn manifest_lists_all_segments() {
        let a = asset();
        let p = build_playlist(&a, video_ability(), video_ability());
        let m3u8 = p.to_m3u8(&a);
        assert!(m3u8.starts_with("#EXTM3U"));
        assert!(m3u8.contains("seg0000.ts"));
        assert!(m3u8.contains("seg0019.ts"));
        assert!(m3u8.contains("#EXT-X-SWW-RENDITION:Hd@30fps upscale=true fpsboost=true"));
        assert!(m3u8.ends_with("#EXT-X-ENDLIST\n"));
    }

    #[test]
    fn segments_have_negotiated_size_and_order_tags() {
        let p = build_playlist(&asset(), video_ability(), video_ability());
        let s0 = segment_payload(&p, 0);
        let s7 = segment_payload(&p, 7);
        assert_eq!(s0.len() as u64, p.segment_bytes);
        assert_eq!(&s7[..8], &7u64.to_be_bytes());
        // Total across segments ≈ negotiated wire bytes.
        let total: u64 = (0..p.stream.segments).map(|_| p.segment_bytes).sum();
        let drift = p.stream.wire_bytes.abs_diff(total);
        assert!(drift < p.stream.segments, "rounding drift only");
    }

    #[test]
    fn naive_pair_gets_full_rate() {
        let p = build_playlist(&asset(), GenAbility::none(), GenAbility::none());
        assert!(!p.stream.client_upscales);
        assert_eq!(p.stream.wire_bytes, p.stream.traditional_bytes);
    }
}
