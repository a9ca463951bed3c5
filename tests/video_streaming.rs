//! Cross-crate integration: §3.2 video streaming end to end over HTTP/2 —
//! playlist negotiation via SETTINGS, segment download, and the measured
//! wire savings of the negotiated rendition. `respond_video` answers
//! inside the handler an HTTP/2 connection is served with.

use sww::core::GenAbility;
use sww::extras::{respond_video, Resolution, VideoAsset};
use sww::http2::{serve_connection, ClientConnection, Request};

fn videos() -> Vec<VideoAsset> {
    vec![VideoAsset {
        name: "trailer".into(),
        resolution: Resolution::Uhd4K,
        fps: 60,
        duration_s: 60,
        segment_s: 6,
    }]
}

fn ability_with_video() -> GenAbility {
    GenAbility::from_bits(GenAbility::GENERATE | GenAbility::VIDEO)
}

/// A connection to a server advertising [`ability_with_video`] and
/// publishing [`videos`].
async fn connect(ability: GenAbility) -> ClientConnection<tokio::io::DuplexStream> {
    let (a, b) = tokio::io::duplex(1 << 22);
    let (videos, server) = (videos(), ability_with_video());
    tokio::spawn(async move {
        let _ = serve_connection(b, server, |req, ctx| {
            respond_video(&videos, ctx.client_ability, server, &req.path)
        })
        .await;
    });
    ClientConnection::handshake(a, ability).await.unwrap()
}

#[tokio::test(flavor = "multi_thread")]
async fn capable_client_streams_reduced_rendition() {
    let mut client = connect(ability_with_video()).await;
    let playlist = client
        .send_request(&Request::get("/video/trailer/playlist.m3u8"))
        .await
        .unwrap();
    assert_eq!(playlist.status, 200);
    assert_eq!(playlist.headers.get("x-sww-sent-fps"), Some("30"));
    let manifest = String::from_utf8(playlist.body.to_vec()).unwrap();
    assert!(manifest.contains("Hd@30fps upscale=true fpsboost=true"));

    // Download every listed segment and measure the wire.
    let mut total = 0u64;
    for line in manifest.lines().filter(|l| l.starts_with("/video/")) {
        let seg = client.send_request(&Request::get(line)).await.unwrap();
        assert_eq!(seg.status, 200, "{line}");
        total += seg.body.len() as u64;
    }
    // One minute of 4K60 is ~116.7 MB traditional; the negotiated HD30
    // rendition is ~25 MB (4.67× less).
    let traditional = 7.0e9 / 60.0; // bytes per minute at 4K60
    let ratio = traditional / total as f64;
    assert!(
        (4.0..5.4).contains(&ratio),
        "wire ratio {ratio:.2} ({total} B)"
    );
}

#[tokio::test(flavor = "multi_thread")]
async fn naive_client_streams_full_rate() {
    let mut client = connect(GenAbility::none()).await;
    let playlist = client
        .send_request(&Request::get("/video/trailer/playlist.m3u8"))
        .await
        .unwrap();
    assert_eq!(playlist.headers.get("x-sww-sent-fps"), Some("60"));
    let manifest = String::from_utf8(playlist.body.to_vec()).unwrap();
    assert!(manifest.contains("Uhd4K@60fps upscale=false fpsboost=false"));
}

#[tokio::test(flavor = "multi_thread")]
async fn withdrawing_video_ability_mid_connection_changes_rendition() {
    let mut client = connect(ability_with_video()).await;
    let first = client
        .send_request(&Request::get("/video/trailer/playlist.m3u8"))
        .await
        .unwrap();
    assert_eq!(first.headers.get("x-sww-sent-fps"), Some("30"));
    // Battery saver: withdraw upscaling; the next playlist is full rate.
    client.update_ability(GenAbility::none()).await.unwrap();
    let second = client
        .send_request(&Request::get("/video/trailer/playlist.m3u8"))
        .await
        .unwrap();
    assert_eq!(second.headers.get("x-sww-sent-fps"), Some("60"));
}

#[tokio::test(flavor = "multi_thread")]
async fn unknown_video_paths_are_404() {
    let mut client = connect(ability_with_video()).await;
    for path in [
        "/video/nope/playlist.m3u8",
        "/video/trailer/seg9999.ts",
        "/video/trailer/not-a-segment",
        "/video/trailer",
    ] {
        let resp = client.send_request(&Request::get(path)).await.unwrap();
        assert_eq!(resp.status, 404, "{path}");
    }
}
