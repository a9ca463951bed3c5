//! Quickstart: a generative server and client over a real TCP loopback
//! socket. The server stores a page in prompt form; the client negotiates
//! `SETTINGS_GEN_ABILITY`, fetches the page, generates the media
//! on-device, and prints the byte/time/energy accounting.
//!
//! Run with: `cargo run --example quickstart --release`

use sww::core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A site stored in prompt form: one stock image + one text block.
    let mut site = SiteContent::new();
    site.add_page(
        "/welcome",
        format!(
            "<html><head><title>SWW quickstart</title></head><body><h1>Welcome</h1>{}{}</body></html>",
            gencontent::image_div(
                "a cartoon goldfish swimming in a round glass bowl, bright colors",
                "goldfish.jpg",
                256,
                256
            ),
            gencontent::text_div(
                &[
                    "small world web prompts instead of media".into(),
                    "content generated on the user device".into(),
                ],
                120
            ),
        ),
    );

    // 2. Serve it over TCP with full generative ability.
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = server.spawn_tcp("127.0.0.1:0").await?;
    println!("server listening on {addr}");
    println!(
        "stored (prompt form): {} B, traditional equivalent: {} B",
        server.stored_bytes(),
        server.traditional_bytes()
    );

    // 3. A generative client on a laptop-class device.
    let sock = tokio::net::TcpStream::connect(addr).await?;
    let mut client =
        GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop)).await?;
    println!(
        "negotiated ability: generate={}",
        client.negotiated_ability().can_generate()
    );

    // 4. Fetch and resolve the page.
    let (page, stats) = client.fetch_page("/welcome").await?;
    println!("\nrendered page:");
    println!("  images generated on-device: {}", page.generated_count());
    println!(
        "  text blocks expanded:       {}",
        page.expanded_texts.len()
    );
    println!("\naccounting:");
    println!("  wire bytes:        {}", stats.wire_bytes);
    println!("  traditional bytes: {}", stats.traditional_bytes);
    println!("  compression:       {:.1}x", stats.compression_ratio());
    println!(
        "  generation time:   {:.1} s (modelled, M1 Pro laptop)",
        stats.generation_time_s
    );
    println!(
        "  generation energy: {:.3} Wh",
        stats.generation_energy.wh()
    );
    println!(
        "  transmission energy saved: {:.4} Wh",
        stats.transmission_energy_saved().wh()
    );

    let preview: String = page.expanded_texts[0].chars().take(160).collect();
    println!("\nexpanded text preview: {preview}…");
    client.close().await?;
    Ok(())
}
