//! Ablations of the design choices DESIGN.md calls out: the preloaded
//! pipeline (§4.1), HPACK Huffman coding, upscale-vs-generate (§2.2), and
//! metadata-size sensitivity.

use crate::table::Table;
use std::time::Instant;
use sww_genai::{codec, upscale, DiffusionModel, GenerationPipeline, ImageModelKind};
use sww_http2::hpack::{Decoder, Encoder, HeaderField};

/// Preload ablation result: wall-clock cost of reusing one pipeline vs
/// constructing a fresh one per request (the §4.1 rationale).
#[derive(Debug, Clone)]
pub struct PreloadAblation {
    /// Requests timed.
    pub requests: u32,
    /// Seconds with a single preloaded pipeline.
    pub preloaded_s: f64,
    /// Seconds constructing the pipeline per request.
    pub per_request_s: f64,
}

/// Run the preload ablation (real wall-clock on this machine).
pub fn preload(requests: u32) -> PreloadAblation {
    let prompts: Vec<String> = (0..requests).map(|i| format!("scene number {i}")).collect();
    // Warm-up: pay one-time global initialization (lazily built tables)
    // outside both timed sections.
    let mut warm = GenerationPipeline::preload_default();
    let _ = warm.generate_image("warmup", 64, 64, 10);
    let _ = warm.generate_text(&["warmup".to_string()], 40);
    let start = Instant::now();
    let mut pipeline = GenerationPipeline::preload_default();
    for p in &prompts {
        let _ = pipeline.generate_image(p, 64, 64, 10);
        let _ = pipeline.generate_text(std::slice::from_ref(p), 40);
    }
    let preloaded_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for p in &prompts {
        // The §4.1 anti-pattern: "repeatedly deleted and reloaded within
        // the media generator every time it is invoked".
        let mut fresh = GenerationPipeline::preload_default();
        let _ = fresh.generate_image(p, 64, 64, 10);
        let _ = fresh.generate_text(std::slice::from_ref(p), 40);
    }
    let per_request_s = start.elapsed().as_secs_f64();
    PreloadAblation {
        requests,
        preloaded_s,
        per_request_s,
    }
}

/// Huffman ablation: bytes of a prompt-heavy header block with and
/// without HPACK string compression.
#[derive(Debug, Clone)]
pub struct HuffmanAblation {
    /// Block bytes with Huffman coding.
    pub with_huffman: usize,
    /// Block bytes without.
    pub without_huffman: usize,
}

/// Run the Huffman ablation.
pub fn huffman() -> HuffmanAblation {
    let headers: Vec<HeaderField> = vec![
        HeaderField::new(":method", "GET"),
        HeaderField::new(
            ":path",
            "/wiki/landscape-search-results?query=landscape&page=2",
        ),
        HeaderField::new(
            "user-agent",
            "sww-generative-client/0.1 (prototype evaluation)",
        ),
        HeaderField::new("accept", "text/html,application/xhtml+xml;q=0.9,*/*;q=0.8"),
        HeaderField::new("accept-language", "en-GB,en;q=0.7"),
    ];
    let mut enc_on = Encoder::new();
    enc_on.use_huffman = true;
    let mut enc_off = Encoder::new();
    enc_off.use_huffman = false;
    let block_on = enc_on.encode(&headers);
    let block_off = enc_off.encode(&headers);
    // Sanity: both blocks decode to the same field list.
    assert_eq!(Decoder::new().decode(&block_on).unwrap(), headers);
    assert_eq!(Decoder::new().decode(&block_off).unwrap(), headers);
    HuffmanAblation {
        with_huffman: block_on.len(),
        without_huffman: block_off.len(),
    }
}

/// Upscale-vs-generate ablation (§2.2): shipping a quarter-size unique
/// image and upscaling client-side vs shipping the full-size file.
#[derive(Debug, Clone)]
pub struct UpscaleAblation {
    /// Bytes of the full-resolution encoded image.
    pub full_bytes: usize,
    /// Bytes of the quarter-size image actually shipped.
    pub shipped_bytes: usize,
    /// Transmission saving factor.
    pub savings: f64,
    /// Mean absolute pixel error of the upscaled image vs the original.
    pub upscale_error: f64,
}

/// Run the upscale ablation.
pub fn upscale_vs_ship() -> UpscaleAblation {
    let model = DiffusionModel::new(ImageModelKind::Dalle3);
    let original = model.generate(
        "a unique holiday photograph of a mountain summit",
        512,
        512,
        15,
    );
    let full_bytes = codec::encode(&original, 70).len();
    // Server downsizes to 256² (simulated by regenerating small — the
    // shipped artifact), client upscales 2×.
    let small = model.generate(
        "a unique holiday photograph of a mountain summit",
        256,
        256,
        15,
    );
    let shipped_bytes = codec::encode(&small, 70).len();
    let upscaled = upscale(&small, 2);
    let upscale_error = codec::mean_abs_error(&original, &upscaled);
    UpscaleAblation {
        full_bytes,
        shipped_bytes,
        savings: full_bytes as f64 / shipped_bytes as f64,
        upscale_error,
    }
}

/// Metadata-size sensitivity: compression ratio of the large image as the
/// prompt length grows.
pub(crate) fn metadata_sensitivity() -> Vec<(usize, f64)> {
    let media_bytes = 131_072f64;
    [50usize, 120, 262, 400, 800, 1600]
        .into_iter()
        .map(|prompt_len| {
            let metadata = sww_json::to_string(&sww_json::Value::object([
                (
                    "prompt",
                    sww_json::Value::from("p".repeat(prompt_len).as_str()),
                ),
                ("name", sww_json::Value::from("image.jpg")),
                ("width", sww_json::Value::from(1024i64)),
                ("height", sww_json::Value::from(1024i64)),
            ]))
            .len();
            (prompt_len, media_bytes / metadata as f64)
        })
        .collect()
}

/// Render all ablations.
pub fn table(pre: &PreloadAblation, huff: &HuffmanAblation, up: &UpscaleAblation) -> Table {
    let mut t = Table::new("Ablations (design choices)", &["Ablation", "Result"]);
    t.row([
        "preloaded pipeline (§4.1)".to_string(),
        format!(
            "{} requests: {:.3}s reused vs {:.3}s per-request ({:.1}x)",
            pre.requests,
            pre.preloaded_s,
            pre.per_request_s,
            pre.per_request_s / pre.preloaded_s.max(1e-9)
        ),
    ]);
    t.row([
        "HPACK huffman".to_string(),
        format!(
            "{}B vs {}B raw ({:.0}% smaller)",
            huff.with_huffman,
            huff.without_huffman,
            100.0 * (1.0 - huff.with_huffman as f64 / huff.without_huffman as f64)
        ),
    ]);
    t.row([
        "upscale unique content (§2.2)".to_string(),
        format!(
            "ship {}B instead of {}B ({:.1}x), upscale error {:.1}",
            up.shipped_bytes, up.full_bytes, up.savings, up.upscale_error
        ),
    ]);
    for (len, ratio) in metadata_sensitivity() {
        t.row([
            format!("metadata sensitivity: {len}B prompt"),
            format!("large-image compression {ratio:.0}x"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_wins() {
        // Wall-clock comparison with a thin margin (pipeline construction
        // overhead): keep the thread-pool-heavy experiments in this
        // binary from running concurrently, and retry a bounded number of
        // times so one noisy scheduling slice cannot flip the verdict.
        let _serial = super::super::alloc_serial();
        let mut r = preload(4);
        for _ in 0..2 {
            if r.per_request_s > r.preloaded_s {
                break;
            }
            r = preload(4);
        }
        assert!(
            r.per_request_s > r.preloaded_s,
            "per-request {:.4}s must exceed preloaded {:.4}s",
            r.per_request_s,
            r.preloaded_s
        );
    }

    #[test]
    fn huffman_compresses_headers() {
        let r = huffman();
        assert!(r.with_huffman < r.without_huffman);
    }

    #[test]
    fn upscaling_saves_transmission() {
        let _serial = super::super::alloc_serial();
        let r = upscale_vs_ship();
        assert!(r.savings > 2.0, "savings {:.2}", r.savings);
        // The upscaled image is a usable approximation, not garbage.
        assert!(r.upscale_error < 60.0, "error {:.1}", r.upscale_error);
    }

    #[test]
    fn longer_prompts_cost_ratio() {
        let rows = metadata_sensitivity();
        for pair in rows.windows(2) {
            assert!(pair[0].1 > pair[1].1, "ratio must fall as prompts grow");
        }
        // Even at 1600 B prompts the large image still compresses >50×.
        assert!(rows.last().unwrap().1 > 50.0);
    }
}
