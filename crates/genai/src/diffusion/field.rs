//! The shared semantic feature space: smooth basis patterns over the
//! latent grid. The generator plants the prompt embedding into images as
//! a weighted sum of these patterns; the CLIP-sim metric recovers it by
//! projection. Keeping both ends on the same basis is what makes the
//! quality metric a real measurement over pixels.

use super::noise::FbmField;
use crate::lanes::wide;
use crate::prompt::EMBED_DIM;
use std::sync::OnceLock;

/// Latent grid edge length.
pub const GRID: usize = 32;

/// Seed namespace for basis patterns (fixed: the basis is global, not
/// prompt- or model-dependent).
const BASIS_SEED: u64 = 0x5157_4942_4153_4953; // "SISABWIQ"

/// A smooth grid-sized field: 3-octave fbm of `seed` sampled at
/// `cell / GRID * scale`, its lattice hashed once for the whole grid.
pub(super) fn smooth_field(seed: u64, scale: f64) -> [f64; GRID * GRID] {
    let field = FbmField::new(seed, 3, scale, scale);
    let mut out = [0.0f64; GRID * GRID];
    sweep_grid(&field, scale, &mut out);
    out
}

wide! {
    /// `out[gy · GRID + gx] = field.at(gx / GRID · scale, gy / GRID · scale)`,
    /// a grid row at a time: 32 rows cross a dozen lattice lines.
    fn sweep_grid(field: &FbmField, scale: f64, out: &mut [f64; GRID * GRID]) {
        let coord = |cell: usize| cell as f64 / GRID as f64 * scale;
        let mut sweep = field.sweep::<GRID>((0..GRID).map(coord));
        for (gy, row) in out.chunks_exact_mut(GRID).enumerate() {
            sweep.row(coord(gy), row);
        }
    }
}

fn basis_raw(dim: usize) -> [f64; GRID * GRID] {
    let seed = BASIS_SEED.wrapping_add(dim as u64 * 0x9e37_79b9);
    let mut p = smooth_field(seed, 4.0);
    // Zero-mean, unit-norm.
    let mean = p.iter().sum::<f64>() / p.len() as f64;
    for v in &mut p {
        *v -= mean;
    }
    let norm = p.iter().map(|v| v * v).sum::<f64>().sqrt();
    for v in &mut p {
        *v /= norm;
    }
    p
}

fn all_bases() -> &'static Vec<[f64; GRID * GRID]> {
    static BASES: OnceLock<Vec<[f64; GRID * GRID]>> = OnceLock::new();
    BASES.get_or_init(|| {
        // Gram–Schmidt orthonormalization: raw smooth fields overlap too
        // much for projection to invert planting, so orthogonalize while
        // keeping each pattern dominated by its own smooth seed field.
        let mut bases: Vec<[f64; GRID * GRID]> = Vec::with_capacity(EMBED_DIM);
        let mut dim = 0usize;
        while bases.len() < EMBED_DIM {
            let mut candidate = basis_raw(dim);
            dim += 1;
            for prev in &bases {
                let dot: f64 = candidate.iter().zip(prev.iter()).map(|(a, b)| a * b).sum();
                for (c, p) in candidate.iter_mut().zip(prev.iter()) {
                    *c -= dot * p;
                }
            }
            let norm = candidate.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-6 {
                continue; // linearly dependent seed field; try the next
            }
            for c in &mut candidate {
                *c /= norm;
            }
            bases.push(candidate);
        }
        bases
    })
}

/// The ideal semantic field for an embedding: `Σ_d e_d · B_d`, scaled so
/// its pointwise magnitude is O(1).
pub fn semantic_target(embedding: &[f32; EMBED_DIM]) -> [f64; GRID * GRID] {
    let mut out = [0.0f64; GRID * GRID];
    plant(embedding, all_bases(), &mut out);
    out
}

wide! {
    fn plant(embedding: &[f32; EMBED_DIM], bases: &[[f64; GRID * GRID]], out: &mut [f64; GRID * GRID]) {
        for (basis, &w) in bases.iter().zip(embedding) {
            let w = f64::from(w);
            if w == 0.0 {
                continue;
            }
            for (o, b) in out.iter_mut().zip(basis.iter()) {
                *o += w * b;
            }
        }
        // Unit-norm basis entries are O(1/GRID); rescale to O(1) pointwise.
        for o in out {
            *o *= GRID as f64;
        }
    }
}

/// Project a grid-sized field onto the basis, recovering an embedding.
/// `field` must have `GRID*GRID` entries and O(1) pointwise magnitude
/// (the inverse of [`semantic_target`]'s scaling is applied internally).
pub fn project(field: &[f64]) -> [f32; EMBED_DIM] {
    debug_assert_eq!(field.len(), GRID * GRID);
    let bases = all_bases();
    let mut out = [0.0f32; EMBED_DIM];
    for (d, basis) in bases.iter().enumerate() {
        let dot: f64 = field.iter().zip(basis.iter()).map(|(f, b)| f * b).sum();
        out[d] = (dot / GRID as f64) as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{cosine, embed_tokens, tokenize};

    /// The sweep against what it replaced — `FbmField::at` cell by cell —
    /// bit for bit, in both instantiations: the two scales the crate uses
    /// and some that put cells on, and rows between, other lattice lines.
    #[test]
    fn smooth_field_is_the_per_cell_evaluation() {
        for (seed, scale) in [
            (1, 3.0),
            (2, 4.0),
            (u64::MAX, 1.0),
            (7, 0.3),
            (9, 13.0),
            (11, 32.0),
        ] {
            let field = FbmField::new(seed, 3, scale, scale);
            let (wide, base) = crate::lanes::both(|| smooth_field(seed, scale).map(f64::to_bits));
            for (cell, (got, base)) in wide.into_iter().zip(base).enumerate() {
                let (gx, gy) = (cell % GRID, cell / GRID);
                let want = field.at(
                    gx as f64 / GRID as f64 * scale,
                    gy as f64 / GRID as f64 * scale,
                );
                assert_eq!(
                    got,
                    want.to_bits(),
                    "seed {seed} scale {scale} cell ({gx}, {gy})"
                );
                assert_eq!(base, got, "seed {seed} scale {scale} cell ({gx}, {gy})");
            }
        }
    }

    #[test]
    fn semantic_target_agrees_across_instantiations() {
        for prompt in ["mountain lake reflection at golden hour", "x", ""] {
            let e = embed_tokens(&tokenize(prompt));
            let (wide, base) = crate::lanes::both(|| semantic_target(&e).map(f64::to_bits));
            assert_eq!(wide, base, "{prompt:?}");
        }
    }

    #[test]
    fn bases_are_normalized() {
        for d in [0, 7, 31, 63] {
            let b = basis_raw(d);
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            let norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(mean.abs() < 1e-12);
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bases_near_orthogonal() {
        // Random smooth fields are not exactly orthogonal, but cross terms
        // must be small for projection to recover the embedding.
        let a = basis_raw(3);
        let b = basis_raw(40);
        let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!(dot.abs() < 0.35, "dot={dot}");
    }

    #[test]
    fn plant_then_project_recovers_embedding() {
        let e = embed_tokens(&tokenize("mountain lake reflection at golden hour"));
        let field = semantic_target(&e);
        let recovered = project(&field);
        let sim = cosine(&recovered, &e);
        assert!(
            sim > 0.85,
            "projection must recover the embedding, sim={sim}"
        );
    }

    #[test]
    fn projection_of_zero_field_is_zero() {
        let zero = vec![0.0f64; GRID * GRID];
        let p = project(&zero);
        assert!(p.iter().all(|&v| v == 0.0));
    }
}
