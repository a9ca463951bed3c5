//! Content upscaling (paper §2.2): turning small images into large,
//! high-resolution ones, the intermediate SWW deployment that shrinks
//! *unique* content too. Upscaling is "usually faster than content
//! generation, with sub-second inference" — here a single-pass operation:
//! bilinear magnification plus seeded high-frequency detail synthesis
//! (the one-step-diffusion flavour of the paper's ref \[58\]).

use crate::diffusion::noise::FbmField;
use crate::fnv1a;
use crate::image::ImageBuffer;

/// Upscale `img` by an integer `factor` (2 or 4 in practice).
///
/// Deterministic in the source pixels, so an upscaled image is as cacheable
/// as the original.
pub fn upscale(img: &ImageBuffer, factor: u32) -> ImageBuffer {
    let factor = factor.max(1);
    let w = img.width() * factor;
    let h = img.height() * factor;
    let seed = fnv1a(img.data());
    let mut out = ImageBuffer::new(w, h);
    let detail_amp = 6.0 * (1.0 - 1.0 / f64::from(factor));
    // One lattice cell per source pixel: only a thumbnail's lattice fits
    // the field's table, anything larger hashes its corners as before.
    let detail = FbmField::new(seed, 2, f64::from(img.width()), f64::from(img.height()));
    for y in 0..h {
        let v = f64::from(y) / f64::from(h.saturating_sub(1).max(1));
        let detail_row = detail.row(v * f64::from(img.height()));
        for x in 0..w {
            let u = f64::from(x) / f64::from(w.saturating_sub(1).max(1));
            let base = img.sample(u, v);
            // Synthesized detail: high-frequency texture the source lacks.
            let d = detail_row.at(u * f64::from(img.width())) * detail_amp;
            out.set(
                x,
                y,
                [
                    (base[0] + d).clamp(0.0, 255.0) as u8,
                    (base[1] + d).clamp(0.0, 255.0) as u8,
                    (base[2] + d).clamp(0.0, 255.0) as u8,
                ],
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::{DiffusionModel, ImageModelKind};
    use crate::metrics::clip;

    #[test]
    fn dimensions_scale() {
        let img = ImageBuffer::new(32, 24);
        let up = upscale(&img, 4);
        assert_eq!((up.width(), up.height()), (128, 96));
    }

    #[test]
    fn factor_one_is_near_identity() {
        let m = DiffusionModel::new(ImageModelKind::Sd21Base);
        let img = m.generate("hills", 32, 32, 5);
        let up = upscale(&img, 1);
        assert_eq!((up.width(), up.height()), (32, 32));
        // detail_amp is 0 at factor 1, so only resampling differences.
        let err = crate::image::codec::mean_abs_error(&img, &up);
        assert!(err < 4.0, "err={err}");
    }

    #[test]
    fn deterministic() {
        let img = DiffusionModel::new(ImageModelKind::Sd3Medium).generate("lake", 16, 16, 5);
        assert_eq!(upscale(&img, 2), upscale(&img, 2));
    }

    #[test]
    fn upscaled_image_preserves_semantics() {
        // The prompt signal survives magnification: CLIP-sim of the 2x
        // image stays close to the original's.
        let prompt = "a mountain landscape with a lake at sunset";
        let img = DiffusionModel::new(ImageModelKind::Sd35Medium).generate(prompt, 128, 128, 15);
        let up = upscale(&img, 2);
        let s_orig = clip::clip_score(&img, prompt);
        let s_up = clip::clip_score(&up, prompt);
        assert!(
            (s_orig - s_up).abs() < 0.05,
            "orig {s_orig:.3} vs upscaled {s_up:.3}"
        );
    }

    #[test]
    fn colors_stay_in_range() {
        let mut img = ImageBuffer::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.set(x, y, [255, 0, 128]);
            }
        }
        let up = upscale(&img, 4);
        for px in up.data() {
            let _ = px; // clamped u8 by construction; just exercise access
        }
        assert_eq!(up.data().len(), 32 * 32 * 3);
    }
}
