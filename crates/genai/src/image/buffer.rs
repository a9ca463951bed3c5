//! RGB image buffer.

/// An 8-bit RGB image, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBuffer {
    width: u32,
    height: u32,
    /// `width * height * 3` octets, RGB interleaved.
    data: Vec<u8>,
}

impl ImageBuffer {
    /// A black image.
    pub fn new(width: u32, height: u32) -> ImageBuffer {
        ImageBuffer {
            width,
            height,
            data: vec![0; (width * height * 3) as usize],
        }
    }

    /// Wrap existing pixel data (must be `width * height * 3` octets).
    pub fn from_data(width: u32, height: u32, data: Vec<u8>) -> ImageBuffer {
        assert_eq!(data.len(), (width * height * 3) as usize);
        ImageBuffer {
            width,
            height,
            data,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixels.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Raw pixel bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Read one pixel.
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        let i = ((y * self.width + x) * 3) as usize;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Write one pixel.
    pub fn set(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        let i = ((y * self.width + x) * 3) as usize;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Bilinear sample at fractional coordinates in `[0,1]²`.
    pub(crate) fn sample(&self, u: f64, v: f64) -> [f64; 3] {
        let x = (u.clamp(0.0, 1.0) * f64::from(self.width - 1)).max(0.0);
        let y = (v.clamp(0.0, 1.0) * f64::from(self.height - 1)).max(0.0);
        let x0 = x.floor() as u32;
        let y0 = y.floor() as u32;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = x - f64::from(x0);
        let fy = y - f64::from(y0);
        let mut out = [0.0; 3];
        for (c, slot) in out.iter_mut().enumerate() {
            let p00 = f64::from(self.get(x0, y0)[c]);
            let p10 = f64::from(self.get(x1, y0)[c]);
            let p01 = f64::from(self.get(x0, y1)[c]);
            let p11 = f64::from(self.get(x1, y1)[c]);
            *slot = p00 * (1.0 - fx) * (1.0 - fy)
                + p10 * fx * (1.0 - fy)
                + p01 * (1.0 - fx) * fy
                + p11 * fx * fy;
        }
        out
    }

    /// Downsample by box-averaging into a `tw × th` grid of RGB floats.
    /// Used by the CLIP-sim feature extractor.
    pub(crate) fn downsample(&self, tw: u32, th: u32) -> Vec<[f64; 3]> {
        let mut out = Vec::with_capacity((tw * th) as usize);
        for ty in 0..th {
            for tx in 0..tw {
                let x0 = (u64::from(tx) * u64::from(self.width) / u64::from(tw)) as u32;
                let x1 = (u64::from(tx + 1) * u64::from(self.width) / u64::from(tw))
                    .max(u64::from(x0) + 1) as u32;
                let y0 = (u64::from(ty) * u64::from(self.height) / u64::from(th)) as u32;
                let y1 = (u64::from(ty + 1) * u64::from(self.height) / u64::from(th))
                    .max(u64::from(y0) + 1) as u32;
                let mut acc = [0.0f64; 3];
                let mut n = 0.0f64;
                for y in y0..y1.min(self.height) {
                    for x in x0..x1.min(self.width) {
                        let p = self.get(x, y);
                        for c in 0..3 {
                            acc[c] += f64::from(p[c]);
                        }
                        n += 1.0;
                    }
                }
                for a in &mut acc {
                    *a /= n.max(1.0);
                }
                out.push(acc);
            }
        }
        out
    }

    /// Mean channel values, for quick content assertions.
    pub(crate) fn mean_rgb(&self) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        for px in self.data.chunks_exact(3) {
            for c in 0..3 {
                acc[c] += f64::from(px[c]);
            }
        }
        let n = self.pixels() as f64;
        acc.map(|a| a / n)
    }

    /// Serialize as binary PPM (P6) for eyeballing outputs.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_roundtrip() {
        let mut img = ImageBuffer::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn sample_interpolates() {
        let mut img = ImageBuffer::new(2, 1);
        img.set(0, 0, [0, 0, 0]);
        img.set(1, 0, [100, 200, 50]);
        let mid = img.sample(0.5, 0.0);
        assert!((mid[0] - 50.0).abs() < 1.0);
        assert!((mid[1] - 100.0).abs() < 1.0);
    }

    #[test]
    fn downsample_averages() {
        let mut img = ImageBuffer::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                img.set(x, y, [if x < 2 { 0 } else { 200 }, 0, 0]);
            }
        }
        let grid = img.downsample(2, 1);
        assert!((grid[0][0] - 0.0).abs() < 1e-9);
        assert!((grid[1][0] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn ppm_header() {
        let img = ImageBuffer::new(3, 2);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 18);
    }

    #[test]
    fn mean_rgb() {
        let mut img = ImageBuffer::new(2, 1);
        img.set(0, 0, [0, 0, 0]);
        img.set(1, 0, [200, 100, 50]);
        let m = img.mean_rgb();
        assert_eq!(m, [100.0, 50.0, 25.0]);
    }
}
