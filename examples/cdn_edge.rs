//! The §2.2 CDN deployment study: the same catalog and request trace
//! served by a classic CDN, an edge-generating SWW CDN, and full SWW —
//! comparing storage, egress, generation energy and embodied carbon.
//! The model is E13's (`sww_bench::experiments::video_cdn`) over a
//! larger trace.
//!
//! Run with: `cargo run --example cdn_edge --release`

use sww::energy::{carbon, network};
use sww_bench::experiments::video_cdn::{cdn_rows, CdnConfig};

fn main() {
    let cfg = CdnConfig {
        edges: 200,
        objects: 2000,
        requests: 20_000,
        // Popularity-skewed trace.
        object: |r| r * 31 % 193 % 2000,
    };
    let labels = [
        "classic CDN (replicate media)",
        "SWW edge (store prompts, generate on request)",
        "full SWW (prompts through to clients)",
    ];
    println!("catalog: 2000 large images, 200 edge sites, 20000 requests\n");
    for (label, row) in labels.into_iter().zip(cdn_rows(&cfg)) {
        let storage = row.storage_bytes;
        println!("== {label} ==");
        println!("  edge storage (all sites): {:.1} MB", storage as f64 / 1e6);
        println!(
            "  embodied carbon of that storage: {:.4} kgCO2e",
            carbon::embodied_kg_co2e(storage as f64)
        );
        println!(
            "  edge→user egress: {:.1} MB",
            row.egress_bytes as f64 / 1e6
        );
        println!(
            "  egress energy: {:.2} Wh, edge generation energy: {:.2} Wh",
            network::transmission_energy(row.egress_bytes).wh(),
            row.edge_generation_wh
        );
        println!(
            "  cache hits: {} / {} requests\n",
            row.cache_hits, cfg.requests
        );
    }
    println!(
        "storage saving factor (classic vs prompts): {:.0}x — multiplied across every replica site (§2.2)",
        131_072.0 / 428.0
    );
}
