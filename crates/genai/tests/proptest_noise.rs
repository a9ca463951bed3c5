//! Property test for the tabulated noise lattice (PR 13): for *arbitrary*
//! seeds, octave counts, declared rectangles and coordinates,
//! [`FbmField::at`] must equal the hashing [`fbm`] bit for bit. The
//! rectangle only decides which corners are read from the table and
//! which are hashed, so the ranges below deliberately straddle it:
//! coordinates are negative, inside, on the boundary and far outside,
//! and extents run from degenerate through "fits" to "overflows the
//! table in its later octaves" and "overflows it entirely".
//!
//! Decode and the smooth fields do not call `at` per pixel: an
//! [`FbmSweep`] carries a strip of columns down the image and keeps, per
//! octave, the two lattice lines the current row lies between (PR 20).
//! The third property pins its rows to the same oracle over the same
//! straddling ranges — columns unsorted, repeated, negative and beyond
//! the table — and drives one sweep through rows that jump, ascend,
//! descend, repeat and creep along inside a lattice cell, since what a
//! sweep holds from the last row is exactly what could go stale.
//!
//! `fbm` and `FbmField` share one interpolation body by design, so a
//! wrong edit to that body would move both together. [`reference`] is
//! the oracle for that: the pre-tabulation `fbm`, kept verbatim (its
//! own hash, its own fused loop), which both must still equal.

use proptest::prelude::*;
use sww_genai::diffusion::noise::{fbm, FbmField, FbmSweep, MAX_OCTAVES};

/// `noise.rs` as it stood before the lattice was tabulated.
mod reference {
    use sww_genai::fnv1a;

    fn lattice(seed: u64, xi: i64, yi: i64) -> f64 {
        let mut buf = [0u8; 24];
        buf[..8].copy_from_slice(&seed.to_le_bytes());
        buf[8..16].copy_from_slice(&xi.to_le_bytes());
        buf[16..].copy_from_slice(&yi.to_le_bytes());
        let h = fnv1a(&buf);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn smoothstep(t: f64) -> f64 {
        t * t * (3.0 - 2.0 * t)
    }

    fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = smoothstep(x - x0);
        let fy = smoothstep(y - y0);
        let (xi, yi) = (x0 as i64, y0 as i64);
        let v00 = lattice(seed, xi, yi);
        let v10 = lattice(seed, xi + 1, yi);
        let v01 = lattice(seed, xi, yi + 1);
        let v11 = lattice(seed, xi + 1, yi + 1);
        let a = v00 + (v10 - v00) * fx;
        let b = v01 + (v11 - v01) * fx;
        a + (b - a) * fy
    }

    pub fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
        let mut total = 0.0;
        let mut amplitude = 1.0;
        let mut frequency = 1.0;
        let mut norm = 0.0;
        for o in 0..octaves.max(1) {
            total += value_noise(
                seed.wrapping_add(u64::from(o) * 0x9e37),
                x * frequency,
                y * frequency,
            ) * amplitude;
            norm += amplitude;
            amplitude *= 0.5;
            frequency *= 2.0;
        }
        total / norm
    }
}

/// Sixteenths, so integer lattice lines and cell interiors both occur.
fn sixteenths(n: i64) -> f64 {
    n as f64 / 16.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn field_equals_fbm_bit_for_bit(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES as u32,
        // -2.0 ..= 40.0: a 3-octave field fits up to ~4.4, a 1-octave
        // field up to ~20.6; beyond that every octave hashes.
        extent in (-32i64..=640, -32i64..=640),
        points in prop::collection::vec((-800i64..=1600, -800i64..=1600), 1..48),
    ) {
        let (x_max, y_max) = (sixteenths(extent.0), sixteenths(extent.1));
        let field = FbmField::new(seed, octaves, x_max, y_max);
        // The corners of the declared rectangle, then the random points.
        let corners = [(0.0, 0.0), (x_max, 0.0), (0.0, y_max), (x_max, y_max)];
        let points = points.iter().map(|&(x, y)| (sixteenths(x), sixteenths(y)));
        for (x, y) in corners.into_iter().chain(points) {
            let want = reference::fbm(seed, x, y, octaves).to_bits();
            prop_assert_eq!(fbm(seed, x, y, octaves).to_bits(), want, "fbm at ({}, {})", x, y);
            prop_assert_eq!(
                field.at(x, y).to_bits(),
                want,
                "seed={} octaves={} rect=[0,{}]x[0,{}] at ({}, {})",
                seed, octaves, x_max, y_max, x, y
            );
        }
    }

    #[test]
    fn row_sweep_equals_fbm_bit_for_bit(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES as u32,
        scale in 1u32..=12,
        side in 1u32..=40,
        y in 0u32..40,
    ) {
        // The consumers' shape: one `row(y)` per image row, `at(x)` per
        // pixel, coordinates `pixel / side * scale`.
        let scale = f64::from(scale);
        let field = FbmField::new(seed, octaves, scale, scale);
        let fy = f64::from(y % side) / f64::from(side) * scale;
        let row = field.row(fy);
        for x in 0..side {
            let fx = f64::from(x) / f64::from(side) * scale;
            prop_assert_eq!(
                row.at(fx).to_bits(),
                reference::fbm(seed, fx, fy, octaves).to_bits()
            );
        }
    }

    #[test]
    fn sweep_rows_equal_fbm_bit_for_bit(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES as u32,
        extent in (-32i64..=640, -32i64..=640),
        xs in prop::collection::vec(-800i64..=1600, 0..29),
        ys in prop::collection::vec(-800i64..=1600, 1..12),
        scan in (-64i64..=640, 1i64..=12),
    ) {
        let (x_max, y_max) = (sixteenths(extent.0), sixteenths(extent.1));
        let field = FbmField::new(seed, octaves, x_max, y_max);
        // The rectangle's edges ride along, and the first column twice.
        let xs: Vec<f64> = [0.0, x_max]
            .into_iter()
            .chain(xs.iter().copied().map(sixteenths))
            .chain(xs.first().copied().map(sixteenths))
            .collect();
        let mut sweep: FbmSweep<'_, 32> = field.sweep(xs.iter().copied());

        // One sweep through every order: as drawn (jumps), ascending,
        // descending, each row twice, then a scanline creeping up in
        // steps below a lattice cell and back down over the same rows.
        let drawn: Vec<f64> = [0.0, y_max].into_iter().chain(ys.into_iter().map(sixteenths)).collect();
        let mut ascending = drawn.clone();
        ascending.sort_by(f64::total_cmp);
        let descending = ascending.iter().rev().copied();
        let twice = drawn.iter().flat_map(|&y| [y, y]);
        let scanline: Vec<f64> = (0..12).map(|k| sixteenths(scan.0 + k * scan.1)).collect();
        let rows = drawn.iter().copied()
            .chain(ascending.iter().copied())
            .chain(descending)
            .chain(twice)
            .chain(scanline.iter().copied())
            .chain(scanline.iter().rev().copied());

        let mut got = vec![0.0; xs.len()];
        for y in rows {
            sweep.row(y, &mut got);
            for (&x, got) in xs.iter().zip(&got) {
                prop_assert_eq!(
                    got.to_bits(),
                    reference::fbm(seed, x, y, octaves).to_bits(),
                    "seed={} octaves={} rect=[0,{}]x[0,{}] at ({}, {})",
                    seed, octaves, x_max, y_max, x, y
                );
            }
        }
    }
}
