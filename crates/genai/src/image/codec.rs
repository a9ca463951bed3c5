//! Lossy image codec: YCbCr 4:2:0 chroma subsampling + 8×8 block DCT +
//! uniform quantization + zigzag run-length coding + varint entropy stage
//! — the JPEG recipe, self-contained.
//!
//! The codec exists so every byte count the benches report is *measured*
//! from a real encoded artifact: the paper's compression ratios divide
//! media bytes by metadata bytes, and using nominal sizes would beg the
//! question. The format ("SWIM" v2) is:
//!
//! ```text
//! magic "SWIM" | u8 version=2 | u16 width | u16 height | u8 quality |
//!   Y plane (w×h), then Cb and Cr planes (⌈w/2⌉×⌈h/2⌉), each a raster
//!   of 8×8 blocks coded as zigzag RLE of quantized coefficients:
//!   (zero-run varint, value zigzag-varint)*, run=64 end-of-block sentinel.
//! ```
//!
//! Chroma uses quantization steps twice as coarse as luma, as JPEG's
//! default tables do.

use super::buffer::ImageBuffer;
use super::color::{rgb_to_ycbcr, ycbcr_to_rgb};
use super::dct::{forward, inverse, zigzag_order, N};
use crate::lanes::wide;

/// Format version byte.
const VERSION: u8 = 2;

/// Codec errors.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Header missing, magic mismatch or unsupported version.
    BadHeader,
    /// Stream ended early or a varint overflowed.
    Truncated,
    /// Run/level structure inconsistent.
    Corrupt,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad SWIM header"),
            CodecError::Truncated => write!(f, "truncated SWIM stream"),
            CodecError::Corrupt => write!(f, "corrupt SWIM stream"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Quantization step for a coefficient index (zigzag position) at a
/// quality in 1..=100; `chroma` doubles the step like JPEG's tables.
fn quant_step(zig_pos: usize, quality: u8, chroma: bool) -> f64 {
    let q = f64::from(quality.clamp(1, 100));
    let base = 4.0 + zig_pos as f64 * 3.0;
    let scale = if q < 50.0 {
        50.0 / q
    } else {
        (100.0 - q + 1.0) / 51.0
    };
    let step = (base * scale).max(1.0);
    if chroma {
        step * 2.0
    } else {
        step
    }
}

/// A plane's 64 steps by zigzag position, computed once per plane: the
/// block loops below divide and multiply by the same values
/// [`quant_step`] returns, so every byte is what a per-coefficient call
/// produced.
fn quant_steps(quality: u8, chroma: bool) -> [f64; N * N] {
    std::array::from_fn(|zig_pos| quant_step(zig_pos, quality, chroma))
}

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 63 {
            return Err(CodecError::Truncated);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Map signed to unsigned (zigzag integer coding).
fn zz(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzz(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A single-component plane.
struct Plane {
    w: usize,
    h: usize,
    data: Vec<f64>,
}

impl Plane {
    fn new(w: usize, h: usize) -> Plane {
        Plane {
            w,
            h,
            data: vec![0.0; w * h],
        }
    }

    /// Bilinear sample at fractional plane coordinates.
    fn sample(&self, fx: f64, fy: f64) -> f64 {
        let x0 = (fx.floor().max(0.0) as usize).min(self.w - 1);
        let y0 = (fy.floor().max(0.0) as usize).min(self.h - 1);
        let x1 = (x0 + 1).min(self.w - 1);
        let y1 = (y0 + 1).min(self.h - 1);
        let tx = (fx - x0 as f64).clamp(0.0, 1.0);
        let ty = (fy - y0 as f64).clamp(0.0, 1.0);
        let a = self.data[y0 * self.w + x0];
        let b = self.data[y0 * self.w + x1];
        let c = self.data[y1 * self.w + x0];
        let d = self.data[y1 * self.w + x1];
        a * (1.0 - tx) * (1.0 - ty) + b * tx * (1.0 - ty) + c * (1.0 - tx) * ty + d * tx * ty
    }
}

wide! {
    /// Code one plane, block by block: gather (edge blocks repeat the last
    /// row and column), transform, quantise all 64 coefficients, then the
    /// serial run-length pass over them.
    fn encode_plane(plane: &Plane, quality: u8, chroma: bool, out: &mut Vec<u8>) {
        let order = zigzag_order();
        let steps = quant_steps(quality, chroma);
        let bw = plane.w.div_ceil(N);
        let bh = plane.h.div_ceil(N);
        for by in 0..bh {
            for bx in 0..bw {
                let mut block = [0.0f64; N * N];
                for (r, row) in block.chunks_exact_mut(N).enumerate() {
                    let line = &plane.data[(by * N + r).min(plane.h - 1) * plane.w..][..plane.w];
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = line[(bx * N + i).min(plane.w - 1)] - 128.0;
                    }
                }
                let coeffs = forward(&block);
                let mut levels = [0i64; N * N];
                for ((q, &idx), step) in levels.iter_mut().zip(order).zip(steps) {
                    *q = (coeffs[idx] / step).round() as i64;
                }
                let mut run = 0u64;
                for q in levels {
                    if q == 0 {
                        run += 1;
                    } else {
                        put_varint(run, out);
                        put_varint(zz(q), out);
                        run = 0;
                    }
                }
                if run > 0 {
                    put_varint(64, out); // end-of-block sentinel
                }
            }
        }
    }
}

fn decode_plane(
    buf: &[u8],
    pos: &mut usize,
    w: usize,
    h: usize,
    quality: u8,
    chroma: bool,
) -> Result<Plane, CodecError> {
    let order = zigzag_order();
    let steps = quant_steps(quality, chroma);
    let mut plane = Plane::new(w, h);
    let bw = w.div_ceil(N);
    let bh = h.div_ceil(N);
    for by in 0..bh {
        for bx in 0..bw {
            let mut coeffs = [0.0f64; N * N];
            let mut zpos = 0usize;
            while zpos < N * N {
                let run = get_varint(buf, pos)?;
                if run == 64 {
                    break;
                }
                zpos += run as usize;
                if zpos >= N * N {
                    return Err(CodecError::Corrupt);
                }
                let q = unzz(get_varint(buf, pos)?);
                coeffs[order[zpos]] = q as f64 * steps[zpos];
                zpos += 1;
            }
            let block = inverse(&coeffs);
            for (i, v) in block.iter().enumerate() {
                let x = bx * N + i % N;
                let y = by * N + i / N;
                if x < w && y < h {
                    plane.data[y * w + x] = v + 128.0;
                }
            }
        }
    }
    Ok(plane)
}

/// Encode an image at the given quality (1..=100).
pub fn encode(img: &ImageBuffer, quality: u8) -> Vec<u8> {
    let span = sww_obs::Span::begin("sww_genai_stage", "codec_encode");
    let out = encode_inner(img, quality);
    span.finish();
    out
}

fn encode_inner(img: &ImageBuffer, quality: u8) -> Vec<u8> {
    let quality = quality.clamp(1, 100);
    let w = img.width() as usize;
    let h = img.height() as usize;
    let cw = w.div_ceil(2);
    let ch = h.div_ceil(2);

    // Build the full-res Y plane and box-averaged half-res chroma planes.
    let mut y_plane = Plane::new(w, h);
    let mut cb_plane = Plane::new(cw, ch);
    let mut cr_plane = Plane::new(cw, ch);
    let mut cb_acc = vec![0.0f64; cw * ch];
    let mut cr_acc = vec![0.0f64; cw * ch];
    let mut counts = vec![0u32; cw * ch];
    for yy in 0..h {
        for xx in 0..w {
            let p = img.get(xx as u32, yy as u32);
            let [y, cb, cr] = rgb_to_ycbcr([f64::from(p[0]), f64::from(p[1]), f64::from(p[2])]);
            y_plane.data[yy * w + xx] = y;
            let ci = (yy / 2) * cw + xx / 2;
            cb_acc[ci] += cb;
            cr_acc[ci] += cr;
            counts[ci] += 1;
        }
    }
    for i in 0..cw * ch {
        let n = f64::from(counts[i].max(1));
        cb_plane.data[i] = cb_acc[i] / n;
        cr_plane.data[i] = cr_acc[i] / n;
    }

    let mut out = Vec::with_capacity(w * h / 6);
    out.extend_from_slice(b"SWIM");
    out.push(VERSION);
    out.extend_from_slice(&(w as u16).to_be_bytes());
    out.extend_from_slice(&(h as u16).to_be_bytes());
    out.push(quality);
    encode_plane(&y_plane, quality, false, &mut out);
    encode_plane(&cb_plane, quality, true, &mut out);
    encode_plane(&cr_plane, quality, true, &mut out);
    out
}

/// Decode a SWIM stream.
pub fn decode(data: &[u8]) -> Result<ImageBuffer, CodecError> {
    if data.len() < 10 || &data[..4] != b"SWIM" || data[4] != VERSION {
        return Err(CodecError::BadHeader);
    }
    let w = usize::from(u16::from_be_bytes([data[5], data[6]]));
    let h = usize::from(u16::from_be_bytes([data[7], data[8]]));
    let quality = data[9];
    if w == 0 || h == 0 {
        return Err(CodecError::BadHeader);
    }
    let cw = w.div_ceil(2);
    let ch = h.div_ceil(2);
    // The header is input: believe its size only as far as the bytes
    // behind it go. Every block is at least one byte (its end-of-block
    // sentinel, or a run/value pair), so a stream shorter than its block
    // count cannot decode, and saying so here keeps what is allocated
    // below to ~1 KB per byte received. Ten bytes claiming 65 535² would
    // otherwise ask for 34 GB and abort the process.
    let blocks = |w: usize, h: usize| w.div_ceil(N) * h.div_ceil(N);
    if data.len() - 10 < blocks(w, h) + 2 * blocks(cw, ch) {
        return Err(CodecError::Truncated);
    }
    let mut pos = 10usize;
    let y_plane = decode_plane(data, &mut pos, w, h, quality, false)?;
    let cb_plane = decode_plane(data, &mut pos, cw, ch, quality, true)?;
    let cr_plane = decode_plane(data, &mut pos, cw, ch, quality, true)?;

    let mut img = ImageBuffer::new(w as u32, h as u32);
    for yy in 0..h {
        for xx in 0..w {
            let y = y_plane.data[yy * w + xx];
            // Chroma sample at the pixel's position in half-res space.
            let cb = cb_plane.sample(xx as f64 / 2.0 - 0.25, yy as f64 / 2.0 - 0.25);
            let cr = cr_plane.sample(xx as f64 / 2.0 - 0.25, yy as f64 / 2.0 - 0.25);
            let rgb = ycbcr_to_rgb([y, cb, cr]);
            img.set(
                xx as u32,
                yy as u32,
                [
                    rgb[0].round() as u8,
                    rgb[1].round() as u8,
                    rgb[2].round() as u8,
                ],
            );
        }
    }
    Ok(img)
}

/// Mean absolute per-channel error between two same-sized images; the
/// codec's distortion measure used in tests.
pub fn mean_abs_error(a: &ImageBuffer, b: &ImageBuffer) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    let total: f64 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
        .sum();
    total / a.data().len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn gradient_image(w: u32, h: u32) -> ImageBuffer {
        let mut img = ImageBuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [
                        (x * 255 / w.max(1)) as u8,
                        (y * 255 / h.max(1)) as u8,
                        ((x + y) * 127 / (w + h).max(1)) as u8,
                    ],
                );
            }
        }
        img
    }

    #[test]
    fn roundtrip_dimensions_and_quality() {
        let img = gradient_image(64, 48);
        let enc = encode(&img, 80);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.width(), 64);
        assert_eq!(dec.height(), 48);
        assert!(mean_abs_error(&img, &dec) < 5.0, "high quality ≈ low error");
    }

    #[test]
    fn smooth_images_compress_well() {
        let img = gradient_image(256, 256);
        let enc = encode(&img, 75);
        let raw = 256 * 256 * 3;
        assert!(
            enc.len() * 12 < raw,
            "gradient must compress >12x, got {} of {}",
            enc.len(),
            raw
        );
    }

    #[test]
    fn subsampling_beats_full_chroma_on_size() {
        // The 4:2:0 layout carries half the samples of 4:4:4 RGB; even
        // with identical coding the stream must be much smaller than raw.
        let mut img = gradient_image(128, 128);
        let mut rng = Rng::new(9);
        for y in 0..128 {
            for x in 0..128 {
                let mut p = img.get(x, y);
                let n = (rng.gaussian() * 8.0) as i32;
                for c in &mut p {
                    *c = (i32::from(*c) + n).clamp(0, 255) as u8;
                }
                img.set(x, y, p);
            }
        }
        let enc = encode(&img, 60);
        assert!(enc.len() < 128 * 128 * 3 / 4, "{} bytes", enc.len());
    }

    #[test]
    fn quality_trades_size_for_error() {
        let mut img = gradient_image(96, 96);
        let mut rng = Rng::new(5);
        for y in 0..96 {
            for x in 0..96 {
                let mut p = img.get(x, y);
                let n = (rng.gaussian() * 12.0) as i32;
                for c in &mut p {
                    *c = (i32::from(*c) + n).clamp(0, 255) as u8;
                }
                img.set(x, y, p);
            }
        }
        let lo = encode(&img, 20);
        let hi = encode(&img, 90);
        assert!(lo.len() < hi.len());
        let err_lo = mean_abs_error(&img, &decode(&lo).unwrap());
        let err_hi = mean_abs_error(&img, &decode(&hi).unwrap());
        assert!(err_hi < err_lo);
    }

    #[test]
    fn non_multiple_of_eight_sizes() {
        for (w, h) in [(7, 5), (13, 9), (65, 33), (1, 1), (2, 2)] {
            let img = gradient_image(w, h);
            let dec = decode(&encode(&img, 70)).unwrap();
            assert_eq!((dec.width(), dec.height()), (w, h));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"nope").unwrap_err(), CodecError::BadHeader);
        // Version 1 streams are not accepted.
        assert_eq!(
            decode(b"SWIM\x01\x00\x10\x00\x10\x50").unwrap_err(),
            CodecError::BadHeader
        );
        let img = gradient_image(16, 16);
        let enc = encode(&img, 70);
        assert!(decode(&enc[..12]).is_err());
    }

    /// A 10-byte body used to abort the process: the planes were sized
    /// from the header before a byte behind it was read.
    #[test]
    fn a_header_promising_more_than_the_stream_holds_is_truncated() {
        let header = |w: u16, h: u16| {
            let mut stream = b"SWIM\x02".to_vec();
            stream.extend_from_slice(&w.to_be_bytes());
            stream.extend_from_slice(&h.to_be_bytes());
            stream.push(75);
            stream
        };
        assert_eq!(
            decode(b"SWIM\x02\xff\xff\xff\xff\x4b").unwrap_err(),
            CodecError::Truncated
        );
        for (w, h) in [
            (1, 1),
            (8, 8),
            (9, 1),
            (640, 480),
            (1, 65_535),
            (65_535, 65_535),
        ] {
            let mut stream = header(w, h);
            assert_eq!(
                decode(&stream).unwrap_err(),
                CodecError::Truncated,
                "{w}x{h}, header only"
            );
            // One byte short of a byte a block, all of them end-of-block.
            let blocks = |w: usize, h: usize| w.div_ceil(N) * h.div_ceil(N);
            let (w, h) = (usize::from(w), usize::from(h));
            let least = blocks(w, h) + 2 * blocks(w.div_ceil(2), h.div_ceil(2));
            if least <= 1 << 20 {
                stream.resize(10 + least - 1, 64);
                assert_eq!(
                    decode(&stream).unwrap_err(),
                    CodecError::Truncated,
                    "{w}x{h}, short"
                );
                // The least stream there is decodes: every block empty.
                stream.push(64);
                let flat = decode(&stream).expect("one sentinel a block is a whole stream");
                assert_eq!((flat.width() as usize, flat.height() as usize), (w, h));
            }
        }
    }

    fn noisy_image(w: u32, h: u32, seed: u64) -> ImageBuffer {
        let mut img = gradient_image(w, h);
        let mut rng = Rng::new(seed);
        for y in 0..h {
            for x in 0..w {
                let mut p = img.get(x, y);
                for c in &mut p {
                    *c = (i32::from(*c) + (rng.gaussian() * 20.0) as i32).clamp(0, 255) as u8;
                }
                img.set(x, y, p);
            }
        }
        img
    }

    /// One definition, two codegens: `encode_plane` writes the same bytes
    /// whichever instantiation ran, over whole and partial blocks, odd
    /// chroma edges and one-pixel axes.
    #[test]
    fn encode_agrees_across_instantiations() {
        for (i, w) in [1, 2, 7, 8, 9, 16, 17, 65, 130].into_iter().enumerate() {
            for h in [1, 8, 15] {
                let img = noisy_image(w, h, i as u64);
                for quality in [20, 75, 95] {
                    let (wide, base) = crate::lanes::both(|| encode(&img, quality));
                    assert_eq!(wide, base, "{w}x{h} q{quality}");
                    assert_eq!(decode(&wide).map(|d| (d.width(), d.height())), Ok((w, h)));
                }
            }
        }
    }

    #[test]
    fn zigzag_varint_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzz(zz(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2] {
            buf.clear();
            put_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn grey_images_have_tiny_chroma_cost() {
        // A greyscale image's chroma planes quantize to nothing; the
        // stream should be barely larger than a luma-only encoding.
        let mut img = ImageBuffer::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                let v = ((x * 3 + y * 2) % 256) as u8;
                img.set(x, y, [v, v, v]);
            }
        }
        let enc = encode(&img, 70);
        let dec = decode(&enc).unwrap();
        assert!(mean_abs_error(&img, &dec) < 6.0);
    }
}
