//! E2 — the Figure 2 experiment: the Wikimedia "Landscape" search page
//! delivered as prompts and regenerated on-device. Reports the paper's
//! headline numbers: data reduction (1.4 MB → 8.92 kB, 157×; worst case
//! 68× at 428 B/image), generation time (≈6.32 s/image laptop, ≈1 s/image
//! workstation), and semantic preservation via CLIP-sim.

use crate::table::{bytes, secs, Table};
use sww_core::{GenAbility, GenerativeClient, GenerativeServer, ServerConfig, SiteContent};
use sww_energy::{profile, DeviceKind};
use sww_workload::LandscapePage;

/// Results of the Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Measured bytes of the 49 original thumbnails.
    pub original_media_bytes: u64,
    /// Measured metadata bytes of the prompt-form page.
    pub metadata_bytes: u64,
    /// original / metadata.
    pub compression_ratio: f64,
    /// Worst-case ratio with every image at the 428 B budget.
    pub worst_case_ratio: f64,
    /// Total modelled generation time on the laptop.
    pub laptop_total_s: f64,
    /// Total modelled generation time on the workstation.
    pub workstation_total_s: f64,
    /// Mean CLIP score of the regenerated images against their prompts.
    pub mean_clip: f64,
    /// Mean CLIP score of random images (the floor).
    pub random_clip: f64,
    /// Bytes that actually crossed the wire in the end-to-end SWW fetch.
    pub wire_bytes: u64,
}

/// Run the experiment end to end: real page over a real connection, real
/// client-side regeneration, measured bytes everywhere.
pub async fn run(page: &LandscapePage) -> Fig2Result {
    // Serve the prompt-form page and fetch it with a generating client.
    let mut site = SiteContent::new();
    site.add_page("/wiki/landscape", page.sww_html.clone());
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ability: GenAbility::full(),
        ..ServerConfig::default()
    });
    let (a, b) = tokio::io::duplex(1 << 22);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(b).await;
    });
    let mut client = GenerativeClient::connect(a, GenAbility::full(), profile(DeviceKind::Laptop))
        .await
        .expect("handshake");
    let (rendered, stats) = client.fetch_page("/wiki/landscape").await.expect("fetch");
    assert_eq!(rendered.generated_count(), sww_workload::IMAGE_COUNT);

    // Workstation pass for the second timing column.
    let (c, d) = tokio::io::duplex(1 << 22);
    let srv = server.clone();
    tokio::spawn(async move {
        let _ = srv.serve_stream(d).await;
    });
    let mut ws_client =
        GenerativeClient::connect(c, GenAbility::full(), profile(DeviceKind::Workstation))
            .await
            .expect("handshake");
    let (_, ws_stats) = ws_client
        .fetch_page("/wiki/landscape")
        .await
        .expect("fetch");

    // CLIP preservation, measured from the regenerated pixels.
    let mut clip_sum = 0.0;
    for (res, img) in rendered.resources.iter().zip(&page.images) {
        clip_sum += sww_genai::clip_score(&res.image, &img.prompt);
    }
    let mean_clip = clip_sum / page.images.len() as f64;

    let original = page.original_media_bytes() as u64;
    let metadata = page.metadata_bytes() as u64;
    Fig2Result {
        original_media_bytes: original,
        metadata_bytes: metadata,
        compression_ratio: original as f64 / metadata as f64,
        worst_case_ratio: original as f64 / (428.0 * sww_workload::IMAGE_COUNT as f64),
        laptop_total_s: stats.generation_time_s,
        workstation_total_s: ws_stats.generation_time_s,
        mean_clip,
        random_clip: sww_genai::RANDOM_BASELINE,
        wire_bytes: stats.wire_bytes,
    }
}

/// Render side by side with the paper's values.
pub fn table(r: &Fig2Result) -> Table {
    let mut t = Table::new(
        "E2 — Fig. 2 Wikimedia 'Landscape' page (49 images)",
        &["Quantity", "Paper", "Measured"],
    );
    t.row(["original media", "1.40MB", &bytes(r.original_media_bytes)]);
    t.row(["prompt metadata", "8.92kB", &bytes(r.metadata_bytes)]);
    t.row([
        "compression",
        "157x",
        &format!("{:.0}x", r.compression_ratio),
    ]);
    t.row([
        "worst-case compression",
        "68x",
        &format!("{:.0}x", r.worst_case_ratio),
    ]);
    t.row([
        "laptop generation",
        "310s (6.32s/img)",
        &format!(
            "{} ({}/img)",
            secs(r.laptop_total_s),
            secs(r.laptop_total_s / sww_workload::IMAGE_COUNT as f64)
        ),
    ]);
    t.row([
        "workstation generation",
        "49s (~1s/img)",
        &format!(
            "{} ({}/img)",
            secs(r.workstation_total_s),
            secs(r.workstation_total_s / sww_workload::IMAGE_COUNT as f64)
        ),
    ]);
    t.row([
        "semantic preservation (CLIP)",
        "conserved",
        &format!("{:.3} vs random {:.2}", r.mean_clip, r.random_clip),
    ]);
    t.row(["SWW wire bytes (end-to-end)", "-", &bytes(r.wire_bytes)]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test(flavor = "multi_thread")]
    async fn fig2_shape_holds() {
        let page = sww_workload::landscape_search_page();
        let r = run(&page).await;
        // Who wins and by roughly what factor.
        assert!(
            r.compression_ratio > 60.0,
            "compression {:.0}x",
            r.compression_ratio
        );
        assert!(r.worst_case_ratio > 30.0);
        assert!(r.compression_ratio > r.worst_case_ratio);
        // Laptop ≈ 7× slower than the workstation at thumbnail size.
        let speedup = r.laptop_total_s / r.workstation_total_s;
        assert!((4.0..12.0).contains(&speedup), "speedup {speedup:.1}");
        // Workstation ≈ 1 s/image (the paper's "roughly 1 second").
        let per_img = r.workstation_total_s / sww_workload::IMAGE_COUNT as f64;
        assert!((0.8..1.3).contains(&per_img), "{per_img:.2} s/img");
        // Semantics conserved: well above the random floor.
        assert!(r.mean_clip > r.random_clip + 0.08);
        // The wire carried roughly the metadata, not the media.
        assert!(r.wire_bytes < r.original_media_bytes / 20);
    }
}
