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
use sww_http2::{GenAbility, Response};

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

/// A negotiated rendition: the stream and the size of its segments.
#[derive(Debug, Clone)]
struct Playlist {
    /// The negotiation outcome the playlist was built for.
    stream: NegotiatedStream,
    /// Bytes of each segment (uniform except the last).
    segment_bytes: u64,
}

/// The file name segment `index` is listed and answered under.
fn segment_file(index: u64) -> String {
    format!("seg{index:04}.ts")
}

impl Playlist {
    /// Render as an M3U8-like text manifest.
    fn to_m3u8(&self, asset: &VideoAsset) -> String {
        let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:3\n");
        out.push_str(&format!("#EXT-X-TARGETDURATION:{}\n", asset.segment_s));
        out.push_str(&format!(
            "#EXT-X-SWW-RENDITION:{:?}@{}fps upscale={} fpsboost={}\n",
            self.stream.sent_resolution,
            self.stream.sent_fps,
            self.stream.client_upscales,
            self.stream.client_boosts_fps
        ));
        for index in 0..self.stream.segments {
            out.push_str(&format!(
                "#EXTINF:{:.1},\n/video/{}/{}\n",
                asset.segment_s as f64,
                asset.name,
                segment_file(index)
            ));
        }
        out.push_str("#EXT-X-ENDLIST\n");
        out
    }
}

/// Build the playlist for a client after SETTINGS negotiation.
fn build_playlist(asset: &VideoAsset, client: GenAbility, server: GenAbility) -> Playlist {
    let req = StreamRequest {
        resolution: asset.resolution,
        fps: asset.fps,
        duration_s: asset.duration_s,
        segment_s: asset.segment_s,
    };
    let stream = video::negotiate_stream(req, client, server);
    let segment_bytes = stream.wire_bytes / stream.segments.max(1);
    Playlist {
        stream,
        segment_bytes,
    }
}

/// Synthesize one segment's payload: deterministic filler of the correct
/// negotiated size (media codecs are out of scope; the wire accounting is
/// what the experiment measures).
fn segment_payload(playlist: &Playlist, index: u64) -> Vec<u8> {
    let size = playlist.segment_bytes as usize;
    let mut data = vec![0u8; size];
    // Tag the payload so tests can verify ordering survives transfer.
    let tag = index.to_be_bytes();
    let n = tag.len().min(size);
    data[..n].copy_from_slice(&tag[..n]);
    data
}

/// Answer a `GET` of `path` from the published `videos`: the playlist at
/// `/video/<name>/playlist.m3u8` and each segment at exactly the URL the
/// playlist lists; anything else is `404`. The rendition is negotiated
/// from the abilities of this request, so a client that withdraws VIDEO
/// mid-connection falls back to full rate. An HTTP/2 handler calls it
/// with its `ServeContext::client_ability` and its own ability.
pub fn respond_video(
    videos: &[VideoAsset],
    client: GenAbility,
    server: GenAbility,
    path: &str,
) -> Response {
    let found = path
        .strip_prefix("/video/")
        .and_then(|rest| rest.split_once('/'))
        .and_then(|(name, file)| Some((videos.iter().find(|v| v.name == name)?, file)));
    let Some((asset, file)) = found else {
        return Response::status(404);
    };
    let playlist = build_playlist(asset, client, server);
    if file == "playlist.m3u8" {
        let mut resp = Response::ok(playlist.to_m3u8(asset));
        resp.headers
            .insert("content-type", "application/vnd.apple.mpegurl");
        resp.headers
            .insert("x-sww-sent-fps", playlist.stream.sent_fps.to_string());
        return resp;
    }
    let index = file
        .strip_prefix("seg")
        .and_then(|f| f.strip_suffix(".ts"))
        .and_then(|n| n.parse::<u64>().ok());
    match index {
        Some(index) if index < playlist.stream.segments && file == segment_file(index) => {
            let mut resp = Response::ok(segment_payload(&playlist, index));
            resp.headers.insert("content-type", "video/mp2t");
            resp
        }
        _ => Response::status(404),
    }
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
        assert_eq!(p.stream.segments, 20);
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

    /// `GET path` of the one published `video` by a VIDEO-capable pair.
    fn get(video: &VideoAsset, path: &str) -> Response {
        let ability = video_ability();
        respond_video(std::slice::from_ref(video), ability, ability, path)
    }

    fn listed_segments(video: &VideoAsset) -> Vec<String> {
        let playlist = get(video, "/video/trailer/playlist.m3u8");
        let manifest = String::from_utf8(playlist.body.to_vec()).unwrap();
        let listed = manifest.lines().filter(|l| l.starts_with("/video/"));
        listed.map(str::to_owned).collect()
    }

    #[test]
    fn a_segment_answers_only_at_its_listed_url() {
        let trailer = asset();
        assert!(listed_segments(&trailer).contains(&"/video/trailer/seg0001.ts".to_owned()));
        assert_eq!(get(&trailer, "/video/trailer/seg0001.ts").status, 200);
        for alias in ["seg1.ts", "seg+1.ts", "seg00001.ts"] {
            let path = format!("/video/trailer/{alias}");
            assert_eq!(get(&trailer, &path).status, 404, "{alias}");
        }
    }

    #[test]
    fn a_zero_segment_length_lists_one_second_segments() {
        let minute = VideoAsset {
            duration_s: 60,
            segment_s: 0,
            ..asset()
        };
        let listed = listed_segments(&minute);
        assert_eq!(listed.len(), 60);
        assert_eq!(get(&minute, &listed[59]).status, 200);
        let empty = VideoAsset {
            duration_s: 0,
            ..minute
        };
        assert!(listed_segments(&empty).is_empty());
    }
}
