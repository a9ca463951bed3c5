//! E11 — video negotiation savings (§3.2) and E13 — CDN storage and
//! transmission across deployment modes (§2.2). E13 is a closed-form
//! model over a fixed request trace, computed here and nowhere else.

use crate::table::{bytes, Table};
use std::collections::HashSet;
use sww_core::{negotiate_stream, GenAbility, Resolution, StreamRequest};
use sww_energy::{profile, DeviceKind, Energy};
use sww_genai::ImageModelKind;

/// One video scenario row.
#[derive(Debug, Clone)]
pub struct VideoRow {
    /// Scenario label.
    pub label: String,
    /// Bytes on the wire for one hour of content.
    pub wire_bytes: u64,
    /// Traditional bytes for the same hour.
    pub traditional_bytes: u64,
    /// Savings factor.
    pub savings: f64,
}

/// Run E11: an hour of 4K60 under different capability combinations.
pub fn video() -> Vec<VideoRow> {
    let req = StreamRequest {
        resolution: Resolution::Uhd4K,
        fps: 60,
        duration_s: 3600,
        segment_s: 6,
    };
    let video_ability = GenAbility::from_bits(GenAbility::VIDEO);
    let scenarios = [
        ("both support video upscale", video_ability, video_ability),
        ("client naive", GenAbility::none(), video_ability),
        ("server naive", video_ability, GenAbility::none()),
    ];
    scenarios
        .into_iter()
        .map(|(label, client, server)| {
            let s = negotiate_stream(req, client, server);
            VideoRow {
                label: label.to_string(),
                wire_bytes: s.wire_bytes,
                traditional_bytes: s.traditional_bytes,
                savings: s.savings_ratio(),
            }
        })
        .collect()
}

/// Render E11.
pub fn video_table(rows: &[VideoRow]) -> Table {
    let mut t = Table::new(
        "E11 — Video negotiation (§3.2): 1h of 4K60 (paper: 60→30fps halves data; 4K→HD saves 2.3x, 7GB/h → 3GB/h)",
        &["Scenario", "Wire", "Traditional", "Savings"],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            bytes(r.wire_bytes),
            bytes(r.traditional_bytes),
            format!("{:.2}x", r.savings),
        ]);
    }
    t
}

/// The §2.2 deployment model E13 reports: one origin, `edges` edges
/// that do not cooperate, and a catalog of `objects` large images.
/// Request `r` arrives at edge `r % edges` and asks for object
/// `object(r)`. An edge that generates renders its own copy of an object
/// once and serves its cached copy after; no edge shares a render with
/// another (the running `sww_core::EdgeRouter` renders each recipe once
/// for the whole cluster, which is a different claim).
#[derive(Debug, Clone, Copy)]
pub struct CdnConfig {
    /// Edge sites, at least one.
    pub edges: u64,
    /// Catalog size.
    pub objects: u64,
    /// Requests in the trace.
    pub requests: u64,
    /// The object request `r` asks for, below `objects`.
    pub object: fn(u64) -> u64,
}

/// Media bytes of one catalog image in traditional form.
const MEDIA_BYTES: u64 = 131_072;
/// Prompt-dictionary bytes of the same image in SWW form.
const METADATA_BYTES: u64 = 428;
/// Image side in pixels, which sets the edge's generation cost.
const SIDE: u32 = 1024;

/// One CDN deployment row.
#[derive(Debug, Clone)]
pub struct CdnRow {
    /// Mode label.
    pub label: String,
    /// Total edge storage.
    pub storage_bytes: u64,
    /// Edge→user transmission for the request trace.
    pub egress_bytes: u64,
    /// Edge generation energy (Wh) for the trace.
    pub edge_generation_wh: f64,
    /// Requests an edge served from a copy it had already rendered.
    pub cache_hits: u64,
}

/// The three §2.2 modes over `cfg`'s trace: a classic CDN replicating
/// media, SWW edges storing prompts and generating on request, and full
/// SWW passing prompts through to generating clients.
pub fn cdn_rows(cfg: &CdnConfig) -> Vec<CdnRow> {
    let ws = profile(DeviceKind::Workstation);
    let render_s =
        sww_energy::image_generation_time(ImageModelKind::Sd3Medium, &ws, SIDE, SIDE, 15)
            .expect("edge model is local");
    let render = Energy::from_power(ws.image_power_w, render_s);
    // Each edge renders an object the first time it is asked for it.
    let mut rendered = HashSet::new();
    let mut generation = Energy::ZERO;
    for r in 0..cfg.requests {
        if rendered.insert((r % cfg.edges, (cfg.object)(r))) {
            generation = generation + render;
        }
    }
    let renders = rendered.len() as u64;
    let row = |label: &str, stored: u64, sent: u64, edge_generation_wh, cache_hits| CdnRow {
        label: label.to_string(),
        storage_bytes: cfg.objects * stored * cfg.edges,
        egress_bytes: cfg.requests * sent,
        edge_generation_wh,
        cache_hits,
    };
    vec![
        row("classic (store media)", MEDIA_BYTES, MEDIA_BYTES, 0.0, 0),
        row(
            "SWW edge (store prompts, generate at edge)",
            METADATA_BYTES,
            MEDIA_BYTES,
            generation.wh(),
            cfg.requests - renders,
        ),
        row(
            "full SWW (prompts to clients)",
            METADATA_BYTES,
            METADATA_BYTES,
            0.0,
            0,
        ),
    ]
}

/// Run E13: a 100-edge CDN over a 1000-item catalog of large images,
/// serving a fixed request trace in each mode.
pub fn cdn() -> Vec<CdnRow> {
    cdn_rows(&CdnConfig {
        edges: 100,
        objects: 1000,
        requests: 5000,
        // Zipf-flavoured trace: popular objects dominate.
        object: |r| r * r % 97 % 1000,
    })
}

/// Render E13.
pub fn cdn_table(rows: &[CdnRow]) -> Table {
    let mut t = Table::new(
        "E13 — CDN deployment modes (§2.2): 100 edges, 1000 large images, 5000 requests",
        &["Mode", "Edge storage", "Edge→user bytes", "Edge gen energy"],
    );
    for r in rows {
        t.row([
            r.label.clone(),
            bytes(r.storage_bytes),
            bytes(r.egress_bytes),
            format!("{:.1}Wh", r.edge_generation_wh),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_savings_match_paper_factors() {
        let rows = video();
        // Both support: 2.33 × 2 ≈ 4.67×.
        assert!((rows[0].savings - 4.67).abs() < 0.05, "{}", rows[0].savings);
        assert_eq!(rows[0].traditional_bytes, 7_000_000_000);
        // Either side naive → no savings.
        assert!((rows[1].savings - 1.0).abs() < 1e-6);
        assert!((rows[2].savings - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cdn_storage_and_transmission_tradeoffs() {
        let rows = cdn();
        let classic = &rows[0];
        let edge_gen = &rows[1];
        let full = &rows[2];
        // Storage: both SWW modes shrink storage by the media/metadata
        // ratio (≈306×) across all 100 edges.
        assert!(classic.storage_bytes > edge_gen.storage_bytes * 250);
        assert_eq!(edge_gen.storage_bytes, full.storage_bytes);
        // Transmission: edge generation loses the transmission win.
        assert_eq!(classic.egress_bytes, edge_gen.egress_bytes);
        assert!(full.egress_bytes < classic.egress_bytes / 250);
        // Energy: only the edge-generation mode pays generation energy.
        assert_eq!(classic.edge_generation_wh, 0.0);
        assert!(edge_gen.edge_generation_wh > 1.0);
        assert_eq!(full.edge_generation_wh, 0.0);
    }

    fn one_object(edges: u64, requests: u64) -> CdnRow {
        let cfg = CdnConfig {
            edges,
            objects: 10,
            requests,
            object: |_| 0,
        };
        cdn_rows(&cfg).swap_remove(1)
    }

    #[test]
    fn a_repeat_at_the_same_edge_is_a_cache_hit() {
        let once = one_object(1, 1);
        let twice = one_object(1, 2);
        assert_eq!((once.cache_hits, twice.cache_hits), (0, 1));
        assert!(once.edge_generation_wh > 0.0);
        assert_eq!(twice.edge_generation_wh, once.edge_generation_wh);
    }

    #[test]
    fn another_edge_renders_its_own_copy() {
        let once = one_object(1, 1);
        let two_edges = one_object(2, 2);
        assert_eq!(two_edges.cache_hits, 0);
        assert_eq!(two_edges.edge_generation_wh, 2.0 * once.edge_generation_wh);
    }

    #[test]
    fn prompt_storage_shrinks_by_the_media_ratio() {
        let rows = cdn_rows(&CdnConfig {
            edges: 100,
            objects: 10,
            requests: 0,
            object: |_| 0,
        });
        let ratio = rows[0].storage_bytes as f64 / rows[1].storage_bytes as f64;
        // 131072 / 428 ≈ 306× per object (the Table 2 large-image ratio).
        assert!((300.0..315.0).contains(&ratio), "ratio={ratio:.1}");
        assert_eq!(rows[1].storage_bytes, rows[2].storage_bytes);
    }
}
