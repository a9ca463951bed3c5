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
//! An evaluation splits into an x half (`ColTerm`: the lattice column left
//! of `x` and the smoothed fraction past it) and a y half (`RowTerm`, the
//! same for `y`), and interpolates in x first: `along_x` is one point of
//! a lattice line, `between` blends the lines below and above. A caller
//! sweeping an image does not evaluate it pixel by pixel. [`FbmSweep`]
//! carries a strip of columns down the image: it computes each column's x
//! half once, keeps per octave the two x-interpolated lattice lines the
//! current row lies between — the same two for every image row until the
//! next lattice line is crossed — and a row is then one `between` per
//! column and octave over contiguous arrays. Those are `value_noise_on`'s
//! and `sum_octaves`' own expressions, hoisted and never reassociated, so
//! a sweep's row equals [`FbmField::at`] bit for bit; `at` stays as the
//! scalar form of the same path, and [`FbmRow`] as its form for a caller
//! whose columns change from row to row.

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

#[inline(always)]
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
    #[inline(always)]
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
/// column, which is what lets [`FbmSweep`] compute it once per column.
#[derive(Debug, Clone, Copy, Default)]
struct ColTerm {
    xi: i64,
    fx: f64,
}

impl ColTerm {
    #[inline(always)]
    fn at(x: f64) -> ColTerm {
        let x0 = x.floor();
        ColTerm {
            xi: x0 as i64,
            fx: smoothstep(x - x0),
        }
    }
}

/// One point of lattice line `yi`, interpolated in x at `col`, with
/// `corner(xi, yi)` as the lattice source.
#[inline(always)]
fn along_x(col: ColTerm, yi: i64, corner: impl Fn(i64, i64) -> f64) -> f64 {
    let v0 = corner(col.xi, yi);
    let v1 = corner(col.xi + 1, yi);
    v0 + (v1 - v0) * col.fx
}

/// Between a point `a` of the lattice line below and the point `b` of the
/// line above it, at smoothed fraction `fy`.
#[inline(always)]
fn between(a: f64, b: f64, fy: f64) -> f64 {
    a + (b - a) * fy
}

/// Value noise where a prepared row meets a prepared column, with
/// `corner(xi, yi)` as the lattice source.
#[inline(always)]
fn value_noise_on(row: RowTerm, col: ColTerm, corner: impl Fn(i64, i64) -> f64) -> f64 {
    let a = along_x(col, row.yi, &corner);
    let b = along_x(col, row.yi + 1, &corner);
    between(a, b, row.fy)
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
/// use sww_genai::{fbm, FbmField};
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

    /// Carry the columns at `xs` down an image: each column's x half of
    /// every octave is computed here, once; see [`FbmSweep`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` yields more than `N` columns.
    #[inline(always)]
    pub fn sweep<const N: usize>(&self, xs: impl IntoIterator<Item = f64>) -> FbmSweep<'_, N> {
        let mut sweep = FbmSweep {
            field: self,
            len: 0,
            cols: [[ColTerm::default(); N]; MAX_OCTAVES],
            yi: [None; MAX_OCTAVES],
            below: [[0.0; N]; MAX_OCTAVES],
            above: [[0.0; N]; MAX_OCTAVES],
        };
        for x in xs {
            assert!(
                sweep.len < N,
                "an FbmSweep<{N}> carries at most {N} columns"
            );
            let mut frequency = 1.0;
            for cols in sweep.cols.iter_mut().take(self.octaves as usize) {
                cols[sweep.len] = ColTerm::at(x * frequency);
                frequency *= 2.0;
            }
            sweep.len += 1;
        }
        sweep
    }

    /// `fbm(seed, x, y, octaves)`, bit for bit.
    pub fn at(&self, x: f64, y: f64) -> f64 {
        self.row(y).at(x)
    }
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
        sum_octaves(self.field.octaves, |o, frequency| {
            let col = ColTerm::at(x * frequency);
            value_noise_on(self.terms[o as usize], col, |xi, yi| {
                self.field.corner(o, xi, yi)
            })
        })
    }
}

/// Up to `N` columns of an [`FbmField`] carried down an image, a row at a
/// time; built by [`FbmField::sweep`].
///
/// Between two lattice lines every image row interpolates the same
/// corners in x and differs only in its y fraction. A sweep keeps, per
/// octave, each column's point on the lattice line below the current row
/// and on the line above it, and recomputes the pair only when a row's
/// lattice row *differs* from the one it holds — rows may ascend,
/// descend, repeat or jump. [`row`](FbmSweep::row) is then one
/// interpolation per column and octave over contiguous arrays, with every
/// expression that of [`FbmField::at`], in its order: the two agree bit
/// for bit at every column and `y`, inside the field's rectangle or not.
/// All of it lives on the stack (`32 · N` bytes an octave, four octaves).
///
/// # Example
///
/// ```
/// use sww_genai::{fbm, FbmField};
///
/// let field = FbmField::new(7, 3, 4.0, 4.0);
/// let xs = [0.0, 1.25, 3.5, -9.5];
/// let mut sweep = field.sweep::<4>(xs);
/// let mut row = [0.0; 4];
/// for y in [0.5, 0.75, 3.0, 80.0, 0.5] {
///     sweep.row(y, &mut row);
///     for (x, v) in xs.iter().zip(row) {
///         assert_eq!(v.to_bits(), fbm(7, *x, y, 3).to_bits());
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FbmSweep<'a, const N: usize> {
    field: &'a FbmField,
    /// Columns carried: the first `len` of every array below.
    len: usize,
    /// Per octave, each column's x half.
    cols: [[ColTerm; N]; MAX_OCTAVES],
    /// Per octave, the lattice row `below` and `above` were computed for.
    yi: [Option<i64>; MAX_OCTAVES],
    /// Per octave, each column's point on lattice line `yi`, `yi + 1`.
    below: [[f64; N]; MAX_OCTAVES],
    above: [[f64; N]; MAX_OCTAVES],
}

impl<const N: usize> FbmSweep<'_, N> {
    /// `out[i] = fbm(seed, xs[i], y, octaves)`, bit for bit, for the `xs`
    /// the sweep was built over.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly one value per column.
    #[inline(always)]
    pub fn row(&mut self, y: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "one output per swept column");
        // `sum_octaves`, octave-major: every column's `total` takes the
        // same additions in the same order as a lone evaluation's.
        out.fill(0.0);
        let mut amplitude = 1.0;
        let mut frequency = 1.0;
        let mut norm = 0.0;
        for o in 0..self.field.octaves as usize {
            let term = RowTerm::at(y * frequency);
            if self.yi[o] != Some(term.yi) {
                self.lines(o, term.yi);
            }
            let below = &self.below[o][..self.len];
            let above = &self.above[o][..self.len];
            for ((total, &a), &b) in out.iter_mut().zip(below).zip(above) {
                *total += between(a, b, term.fy) * amplitude;
            }
            norm += amplitude;
            amplitude *= 0.5;
            frequency *= 2.0;
        }
        for total in out {
            *total /= norm;
        }
    }

    /// Recompute octave `o`'s two lattice lines for lattice row `yi`.
    #[inline(always)]
    fn lines(&mut self, o: usize, yi: i64) {
        let field = self.field;
        let corner = |xi, yi| field.corner(o as u32, xi, yi);
        let lines = self.below[o].iter_mut().zip(&mut self.above[o]);
        for (&col, (below, above)) in self.cols[o][..self.len].iter().zip(lines) {
            *below = along_x(col, yi, corner);
            *above = along_x(col, yi + 1, corner);
        }
        self.yi[o] = Some(yi);
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
    fn a_sweep_refreshes_its_lines_on_inequality_not_on_ascent() {
        // Down, up, the same row twice and a jump, hashed octave included.
        let field = FbmField::new(5, 2, 16.0, 16.0);
        let xs = [0.0, 7.3, 7.3, -2.5, 40.0];
        let mut sweep = field.sweep::<8>(xs);
        let mut row = [0.0; 5];
        for y in [9.75, 9.5, 3.25, 3.25, 15.9, -1.25, 9.75] {
            sweep.row(y, &mut row);
            for (x, got) in xs.iter().zip(row) {
                assert_eq!(got.to_bits(), fbm(5, *x, y, 2).to_bits(), "({x}, {y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 2 columns")]
    fn more_columns_than_a_sweep_carries_is_a_bug() {
        let _ = FbmField::new(1, 1, 1.0, 1.0).sweep::<2>([0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at most 4 octaves")]
    fn more_octaves_than_the_field_carries_is_a_bug() {
        let _ = FbmField::new(1, 5, 1.0, 1.0);
    }
}
