//! Seeded value noise and fractional Brownian motion, the spatial
//! randomness source of the procedural generator.
//!
//! The lattice under an image is small: a 64² decode evaluates ~49 000
//! corner values but touches only a few hundred distinct lattice points.
//! [`FbmField`] hashes each of those points once and evaluates fbm from
//! the table. There is **one arithmetic path**: [`fbm`], [`value_noise`]
//! and [`FbmField::at`] all run `value_noise_on` under `sum_octaves`
//! and differ only in where a corner value comes from (a hash, or the
//! table of those same hashes), so the tabulated result is bit-identical
//! to the hashed one by construction, not by a parallel re-derivation.
//!
//! An evaluation splits into a y half (`RowTerm`, fixed along an image
//! row) and an x half (`ColTerm`, fixed down an image column). A
//! caller sweeping an image computes each once per row
//! ([`FbmField::row`]) and once per column ([`FbmField::col`]) and
//! combines them per pixel ([`FbmRow::at_col`]); [`FbmRow::at`] is that
//! same combination with the column terms computed on the spot.

use crate::fnv1a;

/// Hash lattice coordinates to a value in `[-1, 1]`.
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

/// The lattice seed of fbm octave `o`.
fn octave_seed(seed: u64, o: u32) -> u64 {
    seed.wrapping_add(u64::from(o) * 0x9e37)
}

/// The y half of one value-noise evaluation: the lattice row below `y`
/// and the smoothed fraction above it. Invariant along an image row,
/// which is what lets [`FbmRow`] compute it once per row.
#[derive(Debug, Clone, Copy, Default)]
struct RowTerm {
    yi: i64,
    fy: f64,
}

impl RowTerm {
    fn at(y: f64) -> RowTerm {
        let y0 = y.floor();
        RowTerm {
            yi: y0 as i64,
            fy: smoothstep(y - y0),
        }
    }
}

/// The x half of one value-noise evaluation: the lattice column left of
/// `x` and the smoothed fraction past it. Invariant down an image
/// column, which is what lets [`FbmCol`] compute it once per column.
#[derive(Debug, Clone, Copy, Default)]
struct ColTerm {
    xi: i64,
    fx: f64,
}

impl ColTerm {
    fn at(x: f64) -> ColTerm {
        let x0 = x.floor();
        ColTerm {
            xi: x0 as i64,
            fx: smoothstep(x - x0),
        }
    }
}

/// Value noise where a prepared row meets a prepared column, with
/// `corner(xi, yi)` as the lattice source.
#[inline(always)]
fn value_noise_on(row: RowTerm, col: ColTerm, corner: impl Fn(i64, i64) -> f64) -> f64 {
    let (xi, yi) = (col.xi, row.yi);
    let v00 = corner(xi, yi);
    let v10 = corner(xi + 1, yi);
    let v01 = corner(xi, yi + 1);
    let v11 = corner(xi + 1, yi + 1);
    let a = v00 + (v10 - v00) * col.fx;
    let b = v01 + (v11 - v01) * col.fx;
    a + (b - a) * row.fy
}

/// Sum `octaves` layers with doubling frequency and halving amplitude,
/// normalized to `[-1, 1]`; `layer(o, frequency)` is octave `o`'s noise.
#[inline(always)]
fn sum_octaves(octaves: u32, layer: impl Fn(u32, f64) -> f64) -> f64 {
    let mut total = 0.0;
    let mut amplitude = 1.0;
    let mut frequency = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves.max(1) {
        total += layer(o, frequency) * amplitude;
        norm += amplitude;
        amplitude *= 0.5;
        frequency *= 2.0;
    }
    total / norm
}

/// Smooth value noise at `(x, y)`, in `[-1, 1]`.
pub fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    value_noise_on(RowTerm::at(y), ColTerm::at(x), |xi, yi| {
        lattice(seed, xi, yi)
    })
}

/// Fractional Brownian motion: `octaves` layers of value noise with
/// doubling frequency and halving amplitude, normalized to `[-1, 1]`.
pub fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
    sum_octaves(octaves, |o, frequency| {
        value_noise(octave_seed(seed, o), x * frequency, y * frequency)
    })
}

/// Most octaves an [`FbmField`] carries (the generator uses 1–3).
pub const MAX_OCTAVES: usize = 4;

/// Lattice values an [`FbmField`] can hold: 4 KB, so the field lives on
/// the stack. The largest in-crate consumer (the 3-octave basis field
/// over `[0, 4]²`) needs 460.
const TABLE_CELLS: usize = 512;

/// Where one octave's lattice values sit in the table: `w × h` points
/// from lattice `(0, 0)`, row-major at `offset`. `0 × 0` means the
/// octave did not fit and hashes every corner.
#[derive(Debug, Clone, Copy, Default)]
struct OctaveTable {
    w: usize,
    h: usize,
    offset: usize,
}

/// [`fbm`] over a declared rectangle with each octave's lattice hashed
/// once up front instead of four times per evaluation.
///
/// [`at`](FbmField::at) equals [`fbm`] **bit for bit** at every
/// coordinate: inside the rectangle corners come from the table, which
/// holds exactly the values the hash would return; outside it (negative
/// coordinates, beyond the declared maxima) or for an octave whose
/// lattice overflowed the fixed-size table, they come from the hash
/// itself. The rectangle is a performance hint, never a correctness
/// precondition.
///
/// # Example
///
/// ```
/// use sww_genai::diffusion::noise::{fbm, FbmField};
///
/// let field = FbmField::new(7, 3, 4.0, 4.0);
/// assert_eq!(field.at(1.25, 3.5).to_bits(), fbm(7, 1.25, 3.5, 3).to_bits());
/// // Outside the declared rectangle: same value, hashed instead of read.
/// assert_eq!(field.at(-9.5, 80.0).to_bits(), fbm(7, -9.5, 80.0, 3).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct FbmField {
    seed: u64,
    octaves: u32,
    layout: [OctaveTable; MAX_OCTAVES],
    table: [f64; TABLE_CELLS],
}

impl FbmField {
    /// Tabulate `octaves` layers of seed `seed` over `[0, x_max] ×
    /// [0, y_max]` (bounds inclusive, in [`fbm`]'s coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `octaves` exceeds [`MAX_OCTAVES`].
    pub fn new(seed: u64, octaves: u32, x_max: f64, y_max: f64) -> FbmField {
        assert!(
            octaves as usize <= MAX_OCTAVES,
            "FbmField carries at most {MAX_OCTAVES} octaves, asked for {octaves}"
        );
        let octaves = octaves.max(1);
        let mut field = FbmField {
            seed,
            octaves,
            layout: [OctaveTable::default(); MAX_OCTAVES],
            table: [0.0; TABLE_CELLS],
        };
        let mut used = 0usize;
        let mut frequency = 1.0;
        for o in 0..octaves {
            // Corners reach one lattice point past floor(max): +2 points.
            // The float-to-int casts saturate, so a huge or NaN extent
            // overflows the table (and hashes) rather than wrapping.
            let w = ((x_max * frequency).floor() as usize).saturating_add(2);
            let h = ((y_max * frequency).floor() as usize).saturating_add(2);
            frequency *= 2.0;
            if w.saturating_mul(h) > TABLE_CELLS - used {
                continue;
            }
            let octave_seed = octave_seed(seed, o);
            for (i, cell) in field.table[used..used + w * h].iter_mut().enumerate() {
                *cell = lattice(octave_seed, (i % w) as i64, (i / w) as i64);
            }
            field.layout[o as usize] = OctaveTable { w, h, offset: used };
            used += w * h;
        }
        field
    }

    /// Octave `o`'s lattice value at `(xi, yi)`: read if tabulated,
    /// hashed if not.
    #[inline(always)]
    fn corner(&self, o: u32, xi: i64, yi: i64) -> f64 {
        let t = self.layout[o as usize];
        // A negative coordinate casts to a huge u64 and fails the test.
        if (xi as u64) < t.w as u64 && (yi as u64) < t.h as u64 {
            self.table[t.offset + yi as usize * t.w + xi as usize]
        } else {
            lattice(octave_seed(self.seed, o), xi, yi)
        }
    }

    /// Fix `y`: the per-octave row terms are computed here, once, so a
    /// caller sweeping `x` along an image row does not redo them per
    /// pixel.
    pub fn row(&self, y: f64) -> FbmRow<'_> {
        let mut terms = [RowTerm::default(); MAX_OCTAVES];
        let mut frequency = 1.0;
        for term in terms.iter_mut().take(self.octaves as usize) {
            *term = RowTerm::at(y * frequency);
            frequency *= 2.0;
        }
        FbmRow { field: self, terms }
    }

    /// Fix `x`: the per-octave column terms, computed once, so a caller
    /// sweeping an image does not redo them on every row. Combine with a
    /// row through [`FbmRow::at_col`].
    pub fn col(&self, x: f64) -> FbmCol {
        let mut terms = [ColTerm::default(); MAX_OCTAVES];
        let mut frequency = 1.0;
        for term in terms.iter_mut().take(self.octaves as usize) {
            *term = ColTerm::at(x * frequency);
            frequency *= 2.0;
        }
        FbmCol { terms }
    }

    /// `fbm(seed, x, y, octaves)`, bit for bit.
    pub fn at(&self, x: f64, y: f64) -> f64 {
        self.row(y).at(x)
    }
}

/// An [`FbmField`]'s column terms at one `x`; see [`FbmField::col`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FbmCol {
    terms: [ColTerm; MAX_OCTAVES],
}

/// An [`FbmField`] with `y` fixed; see [`FbmField::row`].
#[derive(Debug, Clone)]
pub struct FbmRow<'a> {
    field: &'a FbmField,
    terms: [RowTerm; MAX_OCTAVES],
}

impl FbmRow<'_> {
    /// `fbm(seed, x, y, octaves)` for this row's `y`, bit for bit.
    pub fn at(&self, x: f64) -> f64 {
        self.at_col(&self.field.col(x))
    }

    /// [`at`](FbmRow::at) for the `x` that `col` was computed at by this
    /// row's field, bit for bit.
    pub fn at_col(&self, col: &FbmCol) -> f64 {
        // `col` already holds `x` times each octave's frequency.
        sum_octaves(self.field.octaves, |o, _| {
            value_noise_on(self.terms[o as usize], col.terms[o as usize], |xi, yi| {
                self.field.corner(o, xi, yi)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded() {
        for i in 0..500 {
            let x = i as f64 * 0.173;
            let y = i as f64 * 0.311;
            let v = value_noise(9, x, y);
            assert!((-1.0..=1.0).contains(&v), "v={v}");
            let f = fbm(9, x, y, 4);
            assert!((-1.0..=1.0).contains(&f), "f={f}");
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(value_noise(1, 2.5, 3.5), value_noise(1, 2.5, 3.5));
        assert_ne!(value_noise(1, 2.5, 3.5), value_noise(2, 2.5, 3.5));
    }

    #[test]
    fn continuous_across_lattice() {
        // Values just either side of an integer lattice line are close.
        let a = value_noise(5, 3.0 - 1e-9, 0.4);
        let b = value_noise(5, 3.0 + 1e-9, 0.4);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn lattice_points_match_hash() {
        // At integer coordinates the noise equals the lattice value.
        let v = value_noise(7, 4.0, 9.0);
        assert!((v - lattice(7, 4, 9)).abs() < 1e-12);
    }

    #[test]
    fn fbm_roughly_zero_mean() {
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|i| fbm(3, (i % 63) as f64 * 0.37, (i / 63) as f64 * 0.29, 3))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.1, "mean={mean}");
    }

    fn tabulated_octaves(field: &FbmField) -> usize {
        field.layout.iter().filter(|t| t.w > 0).count()
    }

    #[test]
    fn in_crate_consumers_fit_the_table() {
        // decode's three texture classes, model_distortion, basis_raw.
        for (octaves, extent) in [(2, 4.0), (3, 3.0), (1, 5.0), (3, 4.0)] {
            let field = FbmField::new(11, octaves, extent, extent);
            assert_eq!(tabulated_octaves(&field), octaves as usize);
        }
    }

    #[test]
    fn an_octave_that_overflows_hashes_instead() {
        // 18² fits, 34² does not: octave 0 is read, octave 1 is hashed.
        let partial = FbmField::new(5, 2, 16.0, 16.0);
        assert_eq!(tabulated_octaves(&partial), 1);
        assert_eq!(
            partial.at(7.3, 15.9).to_bits(),
            fbm(5, 7.3, 15.9, 2).to_bits()
        );
        // Extents no table could hold, or that are not extents at all.
        for extent in [1e300, f64::INFINITY, f64::NAN, -7.0] {
            let field = FbmField::new(5, 3, extent, extent);
            assert_eq!(
                field.at(2.5, -1.25).to_bits(),
                fbm(5, 2.5, -1.25, 3).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 octaves")]
    fn more_octaves_than_the_field_carries_is_a_bug() {
        let _ = FbmField::new(1, 5, 1.0, 1.0);
    }
}
