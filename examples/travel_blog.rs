//! The paper's §2.1 motivating scenario: a travel-blog page with generic
//! stock content (shipped as prompts) and unique hike photographs
//! (fetched traditionally). Fetches the page as a generative client and
//! as a naive client, compares the accounting, and demonstrates opt-in
//! personalization (§2.3).
//!
//! Run with: `cargo run --example travel_blog --release`

use sww::core::personalize::{personalize, UserProfile};
use sww::core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig};
use sww::energy::device::{profile, DeviceKind};
use sww::workload::blog;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    let site = blog::travel_blog();
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = server.spawn_tcp("127.0.0.1:0").await?;

    // Generative visitor (laptop).
    let sock = tokio::net::TcpStream::connect(addr).await?;
    let mut generative =
        GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop)).await?;
    let (page, stats) = generative.fetch_page(blog::BLOG_PATH).await?;
    println!("== generative visitor ==");
    println!("  generated stock media: {}", page.generated_count());
    println!(
        "  unique photos fetched:  {}",
        page.image_count() - page.generated_count()
    );
    println!("  wire bytes:  {}", stats.wire_bytes);
    println!("  traditional: {}", stats.traditional_bytes);
    println!("  compression: {:.2}x", stats.compression_ratio());
    println!(
        "  on-device generation: {:.1} s, {:.3} Wh",
        stats.generation_time_s,
        stats.generation_energy.wh()
    );
    generative.close().await?;

    // Naive visitor: the server expands prompts itself (§5.1).
    let sock = tokio::net::TcpStream::connect(addr).await?;
    let mut naive =
        GenerativeClient::connect(sock, GenAbility::none(), profile(DeviceKind::Laptop)).await?;
    let (page, stats) = naive.fetch_page(blog::BLOG_PATH).await?;
    println!("\n== naive visitor (server-generated) ==");
    println!("  media fetched: {}", page.image_count());
    println!("  wire bytes:  {}", stats.wire_bytes);
    println!(
        "  compression: {:.2}x (no transmission win, storage win only)",
        stats.compression_ratio()
    );
    println!(
        "  server-side generation so far: {:.1} s",
        server.server_generation_time_s()
    );
    naive.close().await?;

    // Personalization (§2.3): opt-in, auditable prompt adjustment.
    let hiker = UserProfile::with_interests(["wildflowers", "alpine lakes"]);
    let adjusted = personalize("a scenic mountain landscape with hiking trail", &hiker, 2);
    println!("\n== personalization (opt-in) ==");
    println!("  base prompt + profile → {}", adjusted.prompt);
    Ok(())
}
