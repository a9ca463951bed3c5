//! The Figure 2 experiment end to end: the Wikimedia "Landscape" search
//! page (49 images) served as prompts, regenerated on-device, with the
//! paper's headline numbers printed and the regenerated images dumped as
//! PPM files for visual comparison.
//!
//! Run with: `cargo run --example wikimedia_landscape --release`

use sww::core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww::energy::device::{profile, DeviceKind};
use sww::genai::metrics::clip;
use sww::workload::wikimedia;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("building the 49-image workload …");
    let workload = wikimedia::landscape_search_page();

    let mut site = SiteContent::new();
    site.add_page("/wiki/landscape", workload.sww_html.clone());
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let addr = server.spawn_tcp("127.0.0.1:0").await?;

    let sock = tokio::net::TcpStream::connect(addr).await?;
    let mut client =
        GenerativeClient::connect(sock, GenAbility::full(), profile(DeviceKind::Laptop)).await?;
    let (page, stats) = client.fetch_page("/wiki/landscape").await?;

    let original = workload.original_media_bytes();
    let metadata = workload.metadata_bytes();
    println!("original media (49 thumbnails): {original} B (paper: 1.4 MB)");
    println!("prompt metadata:                {metadata} B (paper: 8.92 kB)");
    println!(
        "compression:                    {:.0}x (paper: 157x; worst case 68x)",
        original as f64 / metadata as f64
    );
    println!(
        "laptop generation (modelled):   {:.0} s total, {:.2} s/image (paper: 310 s, 6.32 s/img)",
        stats.generation_time_s,
        stats.generation_time_s / wikimedia::IMAGE_COUNT as f64
    );

    // Semantic preservation, measured from the regenerated pixels.
    let mut total = 0.0;
    for (res, img) in page.resources.iter().zip(&workload.images) {
        total += clip::clip_score(&res.image, &img.prompt);
    }
    println!(
        "mean CLIP of regenerated images: {:.3} (random baseline {:.2})",
        total / workload.images.len() as f64,
        clip::RANDOM_BASELINE
    );

    // Dump for eyeballing, like the paper's side-by-side figure.
    let dir = std::env::temp_dir().join("sww-fig2");
    let files = page.dump_ppm(&dir)?;
    println!(
        "dumped {} regenerated images to {}",
        files.len(),
        dir.display()
    );
    client.close().await?;
    Ok(())
}
