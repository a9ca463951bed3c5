//! The §7 mobile scenario: the same SWW page fetched by laptop,
//! workstation and NPU-flagship mobile clients, comparing modelled
//! generation time and energy — and showing what a future fast model
//! changes.
//!
//! Run with: `cargo run --example mobile_generation --release`

use sww::core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww::energy::{profile, DeviceKind};
use sww::html::gencontent;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut site = SiteContent::new();
    site.add_page(
        "/feed",
        format!(
            "<html><body>{}{}{}</body></html>",
            gencontent::image_div("a cozy cafe interior with warm light", "a.jpg", 256, 256),
            gencontent::image_div("a park in autumn with fallen leaves", "b.jpg", 256, 256),
            gencontent::image_div("a rainy street reflecting neon signs", "c.jpg", 256, 256),
        ),
    );
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = server.spawn_tcp("127.0.0.1:0").await?;

    println!("three 256x256 images per page (a social-feed screenful)\n");
    for device in [
        DeviceKind::Workstation,
        DeviceKind::Laptop,
        DeviceKind::Mobile,
    ] {
        let sock = tokio::net::TcpStream::connect(addr).await?;
        let mut client =
            GenerativeClient::connect(sock, GenAbility::full(), profile(device)).await?;
        let (_, stats) = client.fetch_page("/feed").await?;
        println!(
            "{:<28} generation {:>7.1} s   energy {:.3} Wh",
            profile(device).name,
            stats.generation_time_s,
            stats.generation_energy.wh()
        );
        client.close().await?;
    }

    println!(
        "\nwith a future fast model (§7), the mobile page drops to ≈{:.1} s",
        sww::energy::image_generation_time(
            sww::genai::ImageModelKind::FluxFast,
            &profile(DeviceKind::Mobile),
            256,
            256,
            15
        )
        .unwrap()
            * 3.0
    );
    println!("(the paper: accelerators and lighter models make mobile SWW viable)");
    Ok(())
}
