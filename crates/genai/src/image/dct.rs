//! 8×8 type-II DCT and its inverse, the transform behind the lossy codec.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// Block edge length.
pub const N: usize = 8;

/// The cosine basis, `cos((2x+1)uπ/16) · c(u)`, laid out both ways round
/// so that whichever index a loop runs over is the contiguous one.
struct Basis {
    /// `by_freq[u][x]`.
    by_freq: [[f64; N]; N],
    /// `by_pos[x][u]`: the same values, transposed.
    by_pos: [[f64; N]; N],
}

fn basis() -> &'static Basis {
    static BASIS: OnceLock<Basis> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut by_freq = [[0.0; N]; N];
        let mut by_pos = [[0.0; N]; N];
        for (u, row) in by_freq.iter_mut().enumerate() {
            let cu = if u == 0 {
                (1.0 / N as f64).sqrt()
            } else {
                (2.0 / N as f64).sqrt()
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = cu * ((2.0 * x as f64 + 1.0) * u as f64 * PI / (2.0 * N as f64)).cos();
                by_pos[x][u] = *v;
            }
        }
        Basis { by_freq, by_pos }
    })
}

/// Forward 2-D DCT of one 8×8 block (row-major).
///
/// Coefficient `(v, u)` is `Σ_y (Σ_x block[y][x] · basis[u][x]) · basis[v][y]`,
/// each sum taken in index order from `0.0`. The eight `u` of a row (then
/// of a column pass) accumulate side by side, which is what lets the
/// loops run in vector lanes without reordering any one sum.
/// `#[inline(always)]` so that [`codec::encode`](super::codec::encode)'s
/// kernel compiles it in its own lane width.
#[inline(always)]
pub fn forward(block: &[f64; N * N]) -> [f64; N * N] {
    let Basis { by_freq, by_pos } = basis();
    let mut tmp = [0.0; N * N];
    // Rows.
    for (row, sums) in block.chunks_exact(N).zip(tmp.chunks_exact_mut(N)) {
        for (&p, basis_at_x) in row.iter().zip(by_pos) {
            for (acc, &c) in sums.iter_mut().zip(basis_at_x) {
                *acc += p * c;
            }
        }
    }
    // Columns.
    let mut out = [0.0; N * N];
    for (basis_v, sums) in by_freq.iter().zip(out.chunks_exact_mut(N)) {
        for (row, &c) in tmp.chunks_exact(N).zip(basis_v) {
            for (acc, &t) in sums.iter_mut().zip(row) {
                *acc += t * c;
            }
        }
    }
    out
}

/// Inverse 2-D DCT of one 8×8 coefficient block.
pub fn inverse(coeffs: &[f64; N * N]) -> [f64; N * N] {
    let b = &basis().by_freq;
    let mut tmp = [0.0; N * N];
    // Columns.
    for u in 0..N {
        for y in 0..N {
            let mut acc = 0.0;
            for v in 0..N {
                acc += coeffs[v * N + u] * b[v][y];
            }
            tmp[y * N + u] = acc;
        }
    }
    // Rows.
    let mut out = [0.0; N * N];
    for y in 0..N {
        for x in 0..N {
            let mut acc = 0.0;
            for u in 0..N {
                acc += tmp[y * N + u] * b[u][x];
            }
            out[y * N + x] = acc;
        }
    }
    out
}

/// JPEG-style zigzag scan order for 8×8 blocks.
pub fn zigzag_order() -> &'static [usize; N * N] {
    static ORDER: OnceLock<[usize; N * N]> = OnceLock::new();
    ORDER.get_or_init(|| {
        let mut order = [0usize; N * N];
        let mut idx = 0;
        for s in 0..(2 * N - 1) {
            let coords: Vec<(usize, usize)> = (0..=s)
                .filter_map(|i| {
                    let (x, y) = (i, s - i);
                    (x < N && y < N).then_some((x, y))
                })
                .collect();
            // Odd diagonals run top-right → bottom-left, even the reverse.
            let iter: Box<dyn Iterator<Item = &(usize, usize)>> = if s % 2 == 0 {
                Box::new(coords.iter())
            } else {
                Box::new(coords.iter().rev())
            };
            for &(x, y) in iter {
                order[idx] = y * N + x;
                idx += 1;
            }
        }
        order
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_roundtrip() {
        let mut block = [0.0; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 256) as f64 - 128.0;
        }
        let coeffs = forward(&block);
        let back = inverse(&coeffs);
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// `forward` as it stood before its sums ran side by side (PR 20):
    /// one coefficient at a time, kept verbatim as the oracle.
    fn forward_one_at_a_time(block: &[f64; N * N]) -> [f64; N * N] {
        let b = &basis().by_freq;
        let mut tmp = [0.0; N * N];
        // Rows.
        for y in 0..N {
            for u in 0..N {
                let mut acc = 0.0;
                for x in 0..N {
                    acc += block[y * N + x] * b[u][x];
                }
                tmp[y * N + u] = acc;
            }
        }
        // Columns.
        let mut out = [0.0; N * N];
        for u in 0..N {
            for v in 0..N {
                let mut acc = 0.0;
                for y in 0..N {
                    acc += tmp[y * N + u] * b[v][y];
                }
                out[v * N + u] = acc;
            }
        }
        out
    }

    crate::lanes::wide! {
        /// `forward` as a kernel of its own, so both of its instantiations
        /// can be called; in the crate it is inlined into the codec's.
        fn forward_kernel(block: &[f64; N * N], out: &mut [f64; N * N]) {
            *out = forward(block);
        }
    }

    #[test]
    fn forward_is_the_triple_loop_bit_for_bit_in_both_instantiations() {
        let mut rng = crate::rng::Rng::new(0xdc7);
        for case in 0..200 {
            let mut block = [0.0; N * N];
            for v in &mut block {
                // Pixel-like, fractional, and a few exact zeros of each sign.
                *v = match case % 4 {
                    0 => (rng.below(256) as f64) - 128.0,
                    1 => rng.range(-128.0, 127.0),
                    2 => rng.gaussian() * 1e-3,
                    _ => [0.0, -0.0, 1.0, -1.0][rng.below(4)],
                };
            }
            let want = forward_one_at_a_time(&block).map(f64::to_bits);
            let (wide, base) = crate::lanes::both(|| {
                let mut out = [0.0; N * N];
                forward_kernel(&block, &mut out);
                out.map(f64::to_bits)
            });
            assert_eq!(wide, want, "case {case}");
            assert_eq!(base, want, "case {case}");
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let block = [80.0; 64];
        let coeffs = forward(&block);
        // DC = mean * 8 for an orthonormal 8x8 DCT.
        assert!((coeffs[0] - 80.0 * 8.0).abs() < 1e-9);
        for &c in &coeffs[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn energy_preserved() {
        // Parseval: orthonormal transform preserves the L2 norm.
        let mut block = [0.0; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f64 * 0.7).sin() * 100.0;
        }
        let coeffs = forward(&block);
        let e1: f64 = block.iter().map(|v| v * v).sum();
        let e2: f64 = coeffs.iter().map(|v| v * v).sum();
        assert!((e1 - e2).abs() / e1 < 1e-9);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag_order();
        let mut seen = [false; 64];
        for &i in order.iter() {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert_eq!(order[0], 0);
        assert_eq!(order[63], 63);
        // First few entries of the classic JPEG zigzag.
        assert_eq!(&order[..6], &[0, 1, 8, 16, 9, 2]);
    }
}
