//! Cross-crate integration: §3.2 video streaming end to end over HTTP/2 —
//! playlist negotiation via SETTINGS, segment download, and the measured
//! wire savings of the negotiated rendition.

use sww::core::{GenAbility, GenerativeServer, Resolution, ServerConfig, SiteContent, VideoAsset};
use sww::http2::{ClientConnection, Request};

fn video_site() -> SiteContent {
    let mut site = SiteContent::new();
    site.add_video(VideoAsset {
        name: "trailer".into(),
        resolution: Resolution::Uhd4K,
        fps: 60,
        duration_s: 60,
        segment_s: 6,
    });
    site
}

fn ability_with_video() -> GenAbility {
    GenAbility::from_bits(GenAbility::GENERATE | GenAbility::VIDEO)
}

async fn connect(
    server: &GenerativeServer,
    ability: GenAbility,
) -> ClientConnection<tokio::io::DuplexStream> {
    let (a, b) = tokio::io::duplex(1 << 22);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    ClientConnection::handshake(a, ability).await.unwrap()
}

#[tokio::test(flavor = "multi_thread")]
async fn capable_client_streams_reduced_rendition() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: video_site(),
        ability: ability_with_video(),
        ..ServerConfig::default()
    });
    let mut client = connect(&server, ability_with_video()).await;
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
    let server = GenerativeServer::from_config(ServerConfig {
        site: video_site(),
        ability: ability_with_video(),
        ..ServerConfig::default()
    });
    let mut client = connect(&server, GenAbility::none()).await;
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
    let server = GenerativeServer::from_config(ServerConfig {
        site: video_site(),
        ability: ability_with_video(),
        ..ServerConfig::default()
    });
    let mut client = connect(&server, ability_with_video()).await;
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
    let server = GenerativeServer::from_config(ServerConfig {
        site: video_site(),
        ability: ability_with_video(),
        ..ServerConfig::default()
    });
    let mut client = connect(&server, ability_with_video()).await;
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
