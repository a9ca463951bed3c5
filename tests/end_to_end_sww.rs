//! Cross-crate integration: the full SWW stack — HTTP/2 negotiation,
//! generative server and client, media generation, rendering and
//! accounting — over real sockets and in-memory streams.

mod common;

use sww::core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;

fn two_item_site() -> SiteContent {
    let mut site = SiteContent::new();
    site.add_page(
        "/page",
        format!(
            "<html><body>{}{}<img src=\"/unique.bin\"></body></html>",
            gencontent::image_div("a foggy pine forest at dawn", "forest.jpg", 128, 128),
            gencontent::text_div(&["forest fog dawn quiet".into()], 80),
        ),
    );
    site.add_asset("/unique.bin", &b"original-unique-data"[..]);
    site
}

#[tokio::test(flavor = "multi_thread")]
async fn generative_flow_over_tcp() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = common::spawn_h2(&server).await;
    let sock = common::connect(addr).await;
    let mut client =
        GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop))
            .await
            .unwrap();
    assert!(client.negotiated_ability().can_generate());
    let (page, stats) = client.fetch_page("/page").await.unwrap();
    // One image generated, one text expanded, one unique asset fetched.
    assert_eq!(page.generated_count(), 1);
    assert_eq!(page.expanded_texts.len(), 1);
    assert_eq!(stats.items_generated, 2);
    assert_eq!(stats.items_fetched, 1);
    // The final page has no generation markers left.
    assert!(!page.html.contains("generated-content"));
    assert!(page.html.contains("generated/forest.jpg"));
    // Wire carried less than the traditional equivalent.
    assert!(stats.wire_bytes < stats.traditional_bytes);
    assert!(stats.compression_ratio() > 2.0);
    assert!(stats.generation_time_s > 0.0);
    client.close().await.unwrap();
}

#[tokio::test(flavor = "multi_thread")]
async fn naive_client_gets_working_page_with_no_savings() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::none(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let (page, stats) = client.fetch_page("/page").await.unwrap();
    // Nothing generated on the client; media was fetched (server-side
    // generated image + unique asset).
    assert_eq!(page.generated_count(), 0);
    assert_eq!(stats.items_generated, 0);
    assert_eq!(stats.items_fetched, 2);
    assert!(!page.html.contains("generated-content"));
    // No transmission savings in this mode (§2.2 / §6.2).
    assert!((stats.compression_ratio() - 1.0).abs() < 1e-9);
    // The server did the generating.
    assert!(server.server_generation_time_s() > 0.0);
}

#[tokio::test(flavor = "multi_thread")]
async fn generated_media_is_deterministic_across_clients() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = common::spawn_h2(&server).await;
    let mut hashes = Vec::new();
    for _ in 0..2 {
        let sock = common::connect(addr).await;
        let mut client =
            GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop))
                .await
                .unwrap();
        let (page, _) = client.fetch_page("/page").await.unwrap();
        let img = &page.resources.iter().find(|r| r.generated).unwrap().image;
        hashes.push(sww::genai::fnv1a(img.data()));
        client.close().await.unwrap();
    }
    assert_eq!(hashes[0], hashes[1], "same prompt ⇒ same pixels everywhere");
}

#[tokio::test(flavor = "multi_thread")]
async fn device_changes_cost_not_content() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = common::spawn_h2(&server).await;
    let mut results = Vec::new();
    for device in [DeviceKind::Laptop, DeviceKind::Workstation] {
        let sock = common::connect(addr).await;
        let mut client = GenerativeClient::connect(sock, GenAbility::full(), profile(device))
            .await
            .unwrap();
        let (page, stats) = client.fetch_page("/page").await.unwrap();
        results.push((page.html.clone(), stats.generation_time_s));
        client.close().await.unwrap();
    }
    assert_eq!(
        results[0].0, results[1].0,
        "content identical across devices"
    );
    assert!(
        results[0].1 > results[1].1 * 2.0,
        "laptop {}s must cost more than workstation {}s",
        results[0].1,
        results[1].1
    );
}

/// §5.1: a server may serve traditional content to a capable client. It
/// advertises no ability (§3: anything but both at 1 is the default
/// behaviour) and still expands its stored prompts itself.
#[tokio::test(flavor = "multi_thread")]
async fn a_server_declining_client_generation_serves_traditionally() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::none(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    // Even a fully capable client receives materialized content.
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    assert!(!client.negotiated_ability().supported());
    let (page, stats) = client.fetch_page("/page").await.unwrap();
    assert_eq!(page.generated_count(), 0);
    assert!(stats.items_fetched >= 2);
    assert_eq!(server.served_modes()["traditional"], 1);
}

#[tokio::test(flavor = "multi_thread")]
async fn personalization_changes_pixels_only_when_opted_in() {
    use sww::core::UserProfile;
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = common::spawn_h2(&server).await;
    let mut images = Vec::new();
    for profile_opt in [
        None,
        Some(UserProfile::with_interests(["astronomy"])),
        Some(UserProfile::with_interests(["sailing"])),
    ] {
        let sock = common::connect(addr).await;
        let mut client =
            GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Workstation))
                .await
                .unwrap();
        client.set_profile(profile_opt);
        let (page, _) = client.fetch_page("/page").await.unwrap();
        let img = page.resources.iter().find(|r| r.generated).unwrap();
        images.push(sww::genai::fnv1a(img.image.data()));
        client.close().await.unwrap();
    }
    // Different interests → different pixels; both differ from baseline.
    assert_ne!(images[0], images[1]);
    assert_ne!(images[1], images[2]);
    assert_ne!(images[0], images[2]);
}

#[tokio::test(flavor = "multi_thread")]
async fn conditional_requests_revalidate_with_304() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut conn = sww::http2::ClientConnection::handshake(a, GenAbility::full())
        .await
        .unwrap();
    let first = conn
        .send_request(&sww::http2::Request::get("/page"))
        .await
        .unwrap();
    assert_eq!(first.status, 200);
    let etag = first.headers.get("etag").unwrap().to_string();
    // Revalidate: same page, matching tag → 304 with no body.
    let mut revalidate = sww::http2::Request::get("/page");
    revalidate.headers.insert("if-none-match", etag.clone());
    let second = conn.send_request(&revalidate).await.unwrap();
    assert_eq!(second.status, 304);
    assert!(second.body.is_empty());
    assert_eq!(second.headers.get("etag"), Some(etag.as_str()));
    // A stale tag still gets the full page.
    let mut stale = sww::http2::Request::get("/page");
    stale.headers.insert("if-none-match", "\"deadbeef\"");
    let third = conn.send_request(&stale).await.unwrap();
    assert_eq!(third.status, 200);
    assert!(!third.body.is_empty());
}

#[tokio::test(flavor = "multi_thread")]
async fn missing_page_surfaces_as_error() {
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let err = client.fetch_page("/does-not-exist").await.unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    // The connection survives the error.
    let (page, _) = client.fetch_page("/page").await.unwrap();
    assert_eq!(page.generated_count(), 1);
}

#[tokio::test(flavor = "multi_thread")]
async fn model_levels_negotiate_down_to_common_generation() {
    // A client advertising a newer image-model generation than the server
    // settles on the server's level, so both ends would render the same
    // pixels (§7 model negotiation).
    let server_ability = GenAbility::full().with_image_model_level(2); // SD 3
    let client_ability = GenAbility::full().with_image_model_level(4); // future-fast
    let server = GenerativeServer::from_config(ServerConfig {
        site: two_item_site(),
        ability: server_ability,
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let client = GenerativeClient::connect(a, client_ability, profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let negotiated = client.negotiated_ability();
    assert!(negotiated.can_generate());
    assert_eq!(negotiated.image_model_level(), 2, "minimum of both peers");
    let (img, _) = sww::core::select_models(negotiated);
    assert_eq!(img, sww::genai::ImageModelKind::Sd3Medium);
}

#[tokio::test(flavor = "multi_thread")]
async fn generation_cache_eliminates_repeat_cost() {
    // Two pages sharing the same stock prompt: the second render must hit
    // the client cache and cost no generation time (§7 cache placement).
    let mut site = SiteContent::new();
    let shared_div = gencontent::image_div("a reused stock banner image", "banner.jpg", 128, 128);
    site.add_page("/a", format!("<html><body>{shared_div}</body></html>"));
    site.add_page("/b", format!("<html><body>{shared_div}</body></html>"));
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .unwrap();
    let (page_a, stats_a) = client.fetch_page("/a").await.unwrap();
    let (page_b, stats_b) = client.fetch_page("/b").await.unwrap();
    assert_eq!(stats_a.items_cached, 0);
    assert!(stats_a.generation_time_s > 0.0);
    assert_eq!(stats_b.items_cached, 1);
    assert_eq!(stats_b.generation_time_s, 0.0, "cache hit is free");
    let hits = client
        .metrics()
        .count("sww_cache_events_total", &[("result", "hit")]);
    assert_eq!(hits, 1);
    // Identical pixels either way.
    assert_eq!(
        page_a.resources[0].image.data(),
        page_b.resources[0].image.data()
    );
}

#[tokio::test(flavor = "multi_thread")]
async fn many_sequential_pages_on_one_connection() {
    let mut site = SiteContent::new();
    for i in 0..10 {
        site.add_page(
            format!("/p{i}"),
            format!(
                "<html><body>{}</body></html>",
                gencontent::image_div(&format!("scene variant {i}"), &format!("s{i}.jpg"), 64, 64)
            ),
        );
    }
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_stream(b).await;
    });
    let mut client =
        GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Workstation))
            .await
            .unwrap();
    for i in 0..10 {
        let (page, _) = client.fetch_page(&format!("/p{i}")).await.unwrap();
        assert_eq!(page.generated_count(), 1, "page {i}");
    }
    client.close().await.unwrap();
}
