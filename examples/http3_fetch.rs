//! SWW over HTTP/3 (the paper's §3.1 next step): the same generative
//! server core behind an H3 front end, with GEN_ABILITY carried in H3
//! SETTINGS over a QUIC-like stream transport.
//!
//! Run with: `cargo run --example http3_fetch --release`

use sww::core::mediagen::{GeneratedMedia, MediaGenerator};
use sww::core::{GenAbility, GenerativeServer, ServerConfig, SiteContent};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;
use sww::http2::Request;
use sww::http3::H3ClientConnection;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut site = SiteContent::new();
    site.add_page(
        "/gallery",
        format!(
            "<html><body><h1>Gallery</h1>{}{}</body></html>",
            gencontent::image_div(
                "a lighthouse on a rocky coast at dusk",
                "light.jpg",
                128,
                128
            ),
            gencontent::image_div("rolling vineyard hills in summer", "vines.jpg", 128, 128),
        ),
    );
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });

    let (client_io, server_io) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_h3_stream(server_io).await;
    });

    let mut client = H3ClientConnection::handshake(client_io, GenAbility::full()).await?;
    println!(
        "HTTP/3 negotiated: generate={}",
        client.negotiated_ability().can_generate()
    );
    let resp = client.send_request(&Request::get("/gallery")).await?;
    println!(
        "GET /gallery → {} ({}, {} B)",
        resp.status,
        resp.headers.get("x-sww-mode").unwrap_or("?"),
        resp.body.len()
    );

    // Resolve the page with the shared media generator.
    let html = String::from_utf8(resp.body.to_vec())?;
    let doc = sww::html::parse(&html);
    let mut generator = MediaGenerator::new(profile(DeviceKind::Laptop));
    for item in gencontent::extract(&doc) {
        let (media, cost) = generator.generate(&item);
        if let GeneratedMedia::Image { name, encoded, .. } = media {
            println!(
                "generated {name}: {} B encoded, modelled {:.1} s on the laptop",
                encoded.len(),
                cost.time_s
            );
        }
    }
    Ok(())
}
