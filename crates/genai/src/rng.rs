//! Deterministic PRNG used by all generators.
//!
//! A small xoshiro256** implementation seeded from prompt hashes, so a
//! prompt always produces the same media (the determinism the
//! byte-accounting experiments rely on).
//!
//! # What defines a draw (PR 18)
//!
//! A standard-normal draw is Box–Muller over two uniforms,
//! `sqrt(-2 ln u1) · cos(2π u2)`, and its `ln` and `cos` are the two
//! private kernels at the bottom of this file, not the host's libm.
//! glibc picks `log`/`cos` variants by CPU, and musl, macOS and Windows
//! ship others, so a libm draw was never the same `f64` everywhere. The
//! kernels use only `+ − × ÷ sqrt` and integer operations on the bits —
//! IEEE-754 rounds each of those identically on every platform and Rust
//! never contracts them into an FMA — so a draw is the same bits in
//! debug and release, on any target and toolchain.
//! `tests::gaussian_stream_matches_recorded_digest` pins the first 65 536
//! draws of `Rng::new(42)` to a recorded sha256; an edit to a
//! coefficient or to the order of an expression fails it.
//!
//! The kernels are domain-restricted — they are what Box–Muller needs,
//! not a math library:
//!
//! - `ln_k` on `[1e-12, 1)` (`u1` after its clamp): fdlibm's `log` shape,
//!   whose documented error is below 1 ULP.
//! - `cos_k` on `[0, 2π)` (`2π u2`): reduction by the nearest multiple of
//!   π/2 with a two-term Cody–Waite subtraction, then fdlibm's
//!   `__kernel_sin` / `__kernel_cos` polynomials. Within 1 ULP, except
//!   within ~1e-10 of a zero of `cos`, where the two-term reduction
//!   leaves an absolute error of ≤ 2⁻⁸⁴ on a result that small — the
//!   error that matters to a draw, which scales it by at most 7.5.
//!
//! Both domains are `debug_assert!`ed, and
//! `tests::kernels_stay_within_two_ulp_of_std` is the standing check
//! against the host's libm. Measured against glibc 2.36 over 20 M draws,
//! `ln_k` differed by 1 ULP for 7.2 % of arguments and `cos_k` for 3.1 %,
//! never by more; a draw — their product, after a square root — differed
//! for 5.9 % of draws, by at most 3 ULP (|Δ| ≤ 8.9e-16). So values
//! *below* the pixel are not those of PR 17; the pixels are
//! (`tests/golden_pixels.rs`, recorded before the change).
//!
//! # One definition, two shapes
//!
//! [`Rng::gaussian`] is one draw; [`Rng::fill_gaussian`] fills a slice
//! with the draws repeated `gaussian()` calls would return, and leaves
//! the generator in the state they would leave. It exists because the
//! kernels are straight-line arithmetic: a fill draws the uniforms of up
//! to 16 draws serially, then runs the kernels over them as one
//! element-wise pass, `gaussian_pass`, which `lanes.rs`'s `wide!`
//! compiles for the baseline and for AVX2 — four draws an instruction
//! where the CPU has it (PR 20). The chunk is short on purpose: the pass
//! over one chunk and the serial xoshiro chain of the next are
//! independent, and an out-of-order core overlaps them only if both fit
//! its window. Every per-pixel or per-cell caller uses the fill: ~7 ns a
//! draw, against ~30 for the libm call chain it replaced, which the
//! scalar `gaussian()` does not beat. Both go through the same
//! `box_muller`, and must: a second definition of a draw would let
//! batched and scalar callers drift apart, and `tests/proptest_rng.rs`
//! holds them together bit for bit. `box_muller`, `ln_k` and `cos_k` are
//! `#[inline(always)]` because a kernel compiled for AVX2 only runs AVX2
//! code it has inlined (`lanes.rs`); left to the inliner's judgement
//! they would still return the same bits, at 11 ns a draw.

use crate::lanes::wide;
use std::f64::consts::PI;

/// xoshiro256** state.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via splitmix64 so nearby seeds diverge.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller: one draw, two uniforms.
    pub fn gaussian(&mut self) -> f64 {
        let (u1, u2) = self.gaussian_uniforms();
        box_muller(u1, u2)
    }

    /// Fill `out` with standard-normal draws: bit for bit the values
    /// `out.len()` calls of [`gaussian`](Rng::gaussian) return, leaving
    /// the generator where they leave it. The uniforms of up to 16 draws
    /// are taken serially into two stack arrays, then one pure
    /// element-wise pass turns them into draws.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let mut u1 = [0.0; FILL_CHUNK];
        let mut u2 = [0.0; FILL_CHUNK];
        for chunk in out.chunks_mut(FILL_CHUNK) {
            for (a, b) in u1.iter_mut().zip(&mut u2).take(chunk.len()) {
                (*a, *b) = self.gaussian_uniforms();
            }
            gaussian_pass(chunk, &u1, &u2);
        }
    }

    /// The uniforms one draw consumes, in stream order: `u1` clamped away
    /// from zero into `ln_k`'s domain, then `u2`.
    fn gaussian_uniforms(&mut self) -> (f64, f64) {
        let u1 = self.uniform().max(1e-12);
        (u1, self.uniform())
    }
}

/// Draws per element-wise pass of [`Rng::fill_gaussian`]: four AVX2
/// vectors, and a divisor of every plane the diffusion kernel fills, so
/// its remainder pass is cold. Measured at 8, 16, 32 and 64: 8 pays the
/// pass's call too often (~9 ns a draw), 16 to 64 read alike (~7.3 ns);
/// 16 is the smallest of those, so the most of one chunk's serial
/// uniforms overlap the pass of the last.
const FILL_CHUNK: usize = 16;

wide! {
    /// The element-wise half of a fill: `out[i]` from `u1[i]`, `u2[i]`.
    fn gaussian_pass(out: &mut [f64], u1: &[f64; FILL_CHUNK], u2: &[f64; FILL_CHUNK]) {
        for ((g, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
            *g = box_muller(a, b);
        }
    }
}

/// The one definition of a draw, from its two uniforms.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_k(u1)).sqrt() * cos_k(2.0 * PI * u2)
}

/// `f64` from its bit pattern — the kernel constants are spelt in hex so
/// no decimal digit can be mistyped.
const fn hex(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Natural logarithm on `[1e-12, 1)`, fdlibm's `log`: split `x = 2^k · m`
/// with `m ∈ [√2/2, √2)`, then `ln m = f − f²/2 + s·(f²/2 + R(s²))` for
/// `f = m − 1`, `s = f / (2 + f)`, and add `k · ln 2` in two parts.
#[inline(always)]
fn ln_k(x: f64) -> f64 {
    const LN2_HI: f64 = hex(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = hex(0x3DEA_39EF_3579_3C76);
    const LG1: f64 = hex(0x3FE5_5555_5555_5593);
    const LG2: f64 = hex(0x3FD9_9999_9997_FA04);
    const LG3: f64 = hex(0x3FD2_4924_9422_9359);
    const LG4: f64 = hex(0x3FCC_71C5_1D8E_78AF);
    const LG5: f64 = hex(0x3FC7_4664_96CB_03DE);
    const LG6: f64 = hex(0x3FC3_9A09_D078_C69F);
    const LG7: f64 = hex(0x3FC2_F112_DF3E_5244);
    /// High word of √2/2: adding `ONE − SQRT_HALF` to `x`'s high word
    /// carries into the exponent exactly when the mantissa is ≥ √2.
    const SQRT_HALF: u64 = 0x3FE6_A09E << 32;
    const ONE: u64 = 0x3FF0_0000 << 32;
    /// 2^52. A biased exponent OR-ed into its empty mantissa reads as
    /// `2^52 + exponent`: an exact integer-to-float conversion that needs
    /// no narrowing integer lane, so the pass vectorizes (~10 % on a fill).
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    debug_assert!((1e-12..1.0).contains(&x), "ln_k domain: {x}");

    let bits = x.to_bits() + (ONE - SQRT_HALF);
    let k = f64::from_bits(bits >> 52 | TWO_52) - (hex(TWO_52) + 1023.0);
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF);

    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// Cosine on `[0, 2π)`: `x = n·π/2 + y` with `n = round(x · 2/π) ∈ 0..=4`
/// and `|y| ≤ π/4` (`y = y0 + y1`, two-term Cody–Waite), then fdlibm's
/// `__kernel_cos` and `__kernel_sin` on `y`, both evaluated; `n` selects
/// one and its sign without a branch.
#[inline(always)]
fn cos_k(x: f64) -> f64 {
    const INV_PIO2: f64 = hex(0x3FE4_5F30_6DC9_C883);
    const PIO2_1: f64 = hex(0x3FF9_21FB_5440_0000);
    const PIO2_1T: f64 = hex(0x3DD0_B461_1A62_6331);
    /// 1.5 · 2^52: adding it rounds to an integer and leaves that integer
    /// in the low mantissa bits.
    const TO_INT: f64 = 6_755_399_441_055_744.0;
    const S1: f64 = hex(0xBFC5_5555_5555_5549);
    const S2: f64 = hex(0x3F81_1111_1110_F8A6);
    const S3: f64 = hex(0xBF2A_01A0_19C1_61D5);
    const S4: f64 = hex(0x3EC7_1DE3_57B1_FE7D);
    const S5: f64 = hex(0xBE5A_E5E6_8A2B_9CEB);
    const S6: f64 = hex(0x3DE5_D93A_5ACF_D57C);
    const C1: f64 = hex(0x3FA5_5555_5555_554C);
    const C2: f64 = hex(0xBF56_C16C_16C1_5177);
    const C3: f64 = hex(0x3EFA_01A0_19CB_1590);
    const C4: f64 = hex(0xBE92_7E4F_809C_52AD);
    const C5: f64 = hex(0x3E21_EE9E_BDB4_B1C4);
    const C6: f64 = hex(0xBDA8_FAE9_BE88_38D4);
    debug_assert!((0.0..2.0 * PI).contains(&x), "cos_k domain: {x}");

    let shifted = x * INV_PIO2 + TO_INT;
    let n = shifted.to_bits();
    let nf = shifted - TO_INT;
    let r = x - nf * PIO2_1;
    let w = nf * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;

    let z = y0 * y0;
    let w = z * z;
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let t = 1.0 - hz;
    let cos = t + (((1.0 - t) - hz) + (z * rc - y0 * y1));
    let v = z * y0;
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S1);

    // n:   0    1     2     3    4
    // cos: cos  -sin  -cos  sin  cos
    let pick = if n & 1 == 0 { cos } else { sin };
    f64::from_bits(pick.to_bits() ^ (((n + 1) & 2) << 62))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = Rng::new(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    /// Distance in representable doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    fn assert_ln_close(x: f64) {
        let (got, want) = (ln_k(x), x.ln());
        assert!(ulps(got, want) <= 2, "ln_k({x:e}) = {got:e}, ln = {want:e}");
    }

    /// Within 2 ULP of std — std may itself be one off — or, beside a
    /// zero of `cos`, within the two-term reduction's absolute error.
    fn assert_cos_close(x: f64) {
        let (got, want) = (cos_k(x), x.cos());
        assert!(
            ulps(got, want) <= 2 || (got - want).abs() <= 2f64.powi(-84),
            "cos_k({x:e}) = {got:e}, cos = {want:e}"
        );
    }

    /// What keeps a mistyped coefficient from hiding under the pixel
    /// floor: both kernels against std over their whole domains. `ulps`
    /// also rejects a NaN (never within 2 ULP) and a wrong sign.
    #[test]
    fn kernels_stay_within_two_ulp_of_std() {
        const EPS: f64 = f64::EPSILON / 2.0;
        let mut r = Rng::new(0x5eed);
        for _ in 0..1_000_000 {
            // What a draw feeds them...
            assert_ln_close(r.uniform().max(1e-12));
            assert_cos_close(2.0 * PI * r.uniform());
            // ...and every binade of ln_k's domain, not just the top few.
            assert_ln_close((r.uniform() * 1e-12f64.ln()).exp().clamp(1e-12, 1.0 - EPS));
        }
        for x in [1e-12, 1.0 - EPS, 0.5, std::f64::consts::FRAC_1_SQRT_2] {
            assert_ln_close(x);
        }
        for x in [0.0, 2.0 * PI * (1.0 - EPS)] {
            assert_cos_close(x);
        }
        let neighbours =
            |x: f64| [x.to_bits() - 1, x.to_bits(), x.to_bits() + 1].map(f64::from_bits);
        for k in 1..=7 {
            // Odd k: the octant seams, where `n` changes; k = 2, 6: the
            // zeros of cos, where the result changes sign.
            for x in neighbours(f64::from(k) * (PI / 4.0)) {
                assert_cos_close(x);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn kernels_reject_arguments_outside_their_domains() {
        for x in [0.0, 1e-13, 1.0, -0.5, f64::NAN] {
            assert!(std::panic::catch_unwind(|| ln_k(x)).is_err(), "ln_k({x})");
        }
        for x in [-1e-300, 2.0 * PI, f64::INFINITY, f64::NAN] {
            assert!(std::panic::catch_unwind(|| cos_k(x)).is_err(), "cos_k({x})");
        }
    }

    /// The definition of a draw, pinned: sha256 over the `to_bits` (little
    /// endian) of the first 65 536 draws of seed 42, recorded when the
    /// kernels were written (PR 18). It must read the same in debug and
    /// release, on every platform and toolchain; `ci.sh` runs both
    /// profiles. There is no bless switch: a digest that moves means the
    /// definition of a draw changed, and every generated image with it.
    #[test]
    fn gaussian_stream_matches_recorded_digest() {
        let mut r = Rng::new(42);
        let mut hash = sww_hash::Sha256::new();
        for _ in 0..65_536 {
            hash.update(&r.gaussian().to_bits().to_le_bytes());
        }
        assert_eq!(
            sww_hash::to_hex(&hash.finalize()),
            "d8d6c39a14ea80cef3c9117ee2f12243dec52f48bc5879245a8f2be44917298f",
            "the gaussian stream drifted from its recorded digest"
        );
    }

    /// One definition, two codegens: a fill is the same bits, and leaves
    /// the same generator, whichever instantiation of `gaussian_pass`
    /// ran — at every length around the 16-draw chunk, from an aligned
    /// and an unaligned start — and both are the scalar draws.
    #[test]
    fn fill_agrees_across_instantiations() {
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 100] {
            for offset in [0, 1, 3] {
                let seed = (len * 8 + offset) as u64;
                let (wide, base) = crate::lanes::both(|| {
                    let mut r = Rng::new(seed);
                    let mut buf = vec![0.0; offset + len];
                    r.fill_gaussian(&mut buf[offset..]);
                    let bits: Vec<u64> = buf[offset..].iter().map(|g| g.to_bits()).collect();
                    (bits, r.next_u64())
                });
                assert_eq!(wide, base, "len {len} offset {offset}");
                let mut r = Rng::new(seed);
                let scalar: Vec<u64> = (0..len).map(|_| r.gaussian().to_bits()).collect();
                assert_eq!(wide, (scalar, r.next_u64()), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
