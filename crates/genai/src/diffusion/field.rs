//! The shared semantic feature space: smooth basis patterns over the
//! latent grid. The generator plants the prompt embedding into images as
//! a weighted sum of these patterns; the CLIP-sim metric recovers it by
//! projection. Keeping both ends on the same basis is what makes the
//! quality metric a real measurement over pixels.

use super::noise::FbmField;
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
    for (gy, row) in out.chunks_exact_mut(GRID).enumerate() {
        let noise = field.row(gy as f64 / GRID as f64 * scale);
        for (gx, v) in row.iter_mut().enumerate() {
            *v = noise.at(gx as f64 / GRID as f64 * scale);
        }
    }
    out
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
    let bases = all_bases();
    let mut out = [0.0f64; GRID * GRID];
    for (d, basis) in bases.iter().enumerate() {
        let w = f64::from(embedding[d]);
        if w == 0.0 {
            continue;
        }
        for (o, b) in out.iter_mut().zip(basis.iter()) {
            *o += w * b;
        }
    }
    // Unit-norm basis entries are O(1/GRID); rescale to O(1) pointwise.
    for o in &mut out {
        *o *= GRID as f64;
    }
    out
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
