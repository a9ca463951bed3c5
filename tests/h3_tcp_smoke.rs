//! The h3 TCP front end end-to-end: `spawn_tcp_h3` binds a real
//! listener and an `H3ClientConnection` over a `TcpStream` negotiates
//! and fetches — the surface `sww serve --transport h3|both` exposes,
//! which the duplex-based suites never touch.

mod common;

use sww::core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;
use sww::http3::H3ClientConnection;

#[tokio::test(flavor = "multi_thread")]
async fn h3_listener_serves_over_real_tcp() {
    let mut site = SiteContent::new();
    site.add_page(
        "/tcp",
        format!(
            "<html><body>{}</body></html>",
            gencontent::image_div("a red kite over chalk cliffs", "kite.jpg", 64, 64)
        ),
    );
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = common::spawn_h3(&server).await;

    let sock = common::connect(addr).await;
    let mut client = H3ClientConnection::handshake(sock, GenAbility::full())
        .await
        .unwrap();
    assert!(client.negotiated_ability().can_generate());
    let resp = client.send_request(&Request::get("/tcp")).await.unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("x-sww-mode"), Some("generative"));
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(body.contains("generated-content"));
}
