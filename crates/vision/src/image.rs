//! Floating-point image buffers.
//!
//! All vision algorithms in this crate operate on single-channel `f32`
//! images in the nominal range `[0, 255]`. Working in `f32` matters for
//! P3 reconstruction: the correction term `(Ss − Ss²)·w` decodes to
//! *fractional* pixel values, and rounding before the final add would be
//! an extra error source (paper footnote 8).

/// Single-channel `f32` image, row-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImageF32 {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width * height` samples.
    pub data: Vec<f32>,
}

/// Clamp to `[0,255]` and round half up — what `v.round().clamp(0.0,
/// 255.0) as u8` yields for every `f32` (NaN → 0), without the libm
/// `roundf` call `f32::round` is on baseline x86-64.
#[inline]
pub fn round_to_u8(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as u8;
    t + u8::from(c - f32::from(t) >= 0.5)
}

/// A sample the row kernels can read: `f32` itself, or `u8`, which
/// widens exactly — so a kernel fed from an 8-bit plane computes what it
/// would from the `f32` copy, which then need not exist.
pub trait Sample: Copy {
    /// `src` as `f32`s: widened into `buf` (at least as long), or `src`
    /// itself where it already is.
    fn widen<'a>(src: &'a [Self], buf: &'a mut [f32]) -> &'a [f32];
}

impl Sample for f32 {
    fn widen<'a>(src: &'a [f32], _: &'a mut [f32]) -> &'a [f32] {
        src
    }
}

impl Sample for u8 {
    fn widen<'a>(src: &'a [u8], buf: &'a mut [f32]) -> &'a [f32] {
        let buf = &mut buf[..src.len()];
        for (o, &v) in buf.iter_mut().zip(src) {
            *o = f32::from(v);
        }
        buf
    }
}

/// A `width × height` window of samples, rows `stride` apart: what the
/// row kernels read, a row at a time.
#[derive(Debug, Clone, Copy)]
pub struct View<'a, T> {
    /// The window's first sample, and at least what follows it.
    pub data: &'a [T],
    /// Samples from one row's start to the next's.
    pub stride: usize,
    /// Width in samples.
    pub width: usize,
    /// Height in rows.
    pub height: usize,
}

impl<'a, T: Sample> View<'a, T> {
    /// A whole row-major plane.
    pub fn new(data: &'a [T], width: usize, height: usize) -> Self {
        assert!(data.len() >= width * height, "plane shorter than its dimensions");
        Self { data, stride: width, width, height }
    }

    /// The `w × h` window at `(x0, y0)`, which must lie inside.
    pub fn window(&self, x0: usize, y0: usize, w: usize, h: usize) -> Self {
        assert!(x0 + w <= self.width && y0 + h <= self.height, "window outside the plane");
        Self { data: &self.data[y0 * self.stride + x0..], stride: self.stride, width: w, height: h }
    }

    /// Row `y` as `f32`s, through `buf` (at least a row long) if its
    /// samples have to be widened.
    pub fn row<'b>(&'b self, y: usize, buf: &'b mut [f32]) -> &'b [f32] {
        T::widen(&self.data[y * self.stride..][..self.width], buf)
    }
}

impl ImageF32 {
    /// The whole image as the row kernels read it.
    pub fn view(&self) -> View<'_, f32> {
        View::new(&self.data, self.width, self.height)
    }

    /// Allocate a zero image.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0.0; width * height] }
    }

    /// Build from parts, validating length.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Option<Self> {
        (data.len() == width * height).then_some(Self { width, height, data })
    }

    /// Convert from 8-bit samples.
    pub fn from_u8(width: usize, height: usize, data: &[u8]) -> Option<Self> {
        (data.len() == width * height).then(|| Self {
            width,
            height,
            data: data.iter().map(|&v| f32::from(v)).collect(),
        })
    }

    /// Clamp to `[0,255]` and round to 8-bit samples.
    pub fn to_u8(&self) -> Vec<u8> {
        self.data.iter().map(|&v| round_to_u8(v)).collect()
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Pixel accessor with edge clamping.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Elementwise addition — the pixel-domain reconstruction primitive of
    /// paper Eq. 2 (`A·xp + A·(xs + corr)`).
    pub fn add(&self, other: &ImageF32) -> ImageF32 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        ImageF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect(),
        }
    }

    /// Elementwise scale.
    pub fn scale(&self, k: f32) -> ImageF32 {
        ImageF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// Mean sample value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_roundtrip() {
        let img = ImageF32::from_u8(3, 2, &[0, 50, 100, 150, 200, 255]).unwrap();
        assert_eq!(img.to_u8(), vec![0, 50, 100, 150, 200, 255]);
    }

    #[test]
    fn to_u8_clamps() {
        let img = ImageF32::from_raw(2, 1, vec![-5.0, 300.0]).unwrap();
        assert_eq!(img.to_u8(), vec![0, 255]);
    }

    #[test]
    fn round_to_u8_matches_round_then_clamp() {
        let edges = [
            0.499_999_97,
            0.5,
            1.5,
            254.5,
            255.5,
            -0.5,
            254.499_98,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let sweep = (0..=259_000).map(|i| i as f32 / 1000.0 - 2.0);
        for v in edges.into_iter().chain(sweep) {
            assert_eq!(round_to_u8(v), v.round().clamp(0.0, 255.0) as u8, "{v}");
        }
        assert_eq!(edges.map(round_to_u8), [0, 1, 2, 255, 255, 0, 254, 0, 255, 0]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(ImageF32::from_raw(2, 2, vec![0.0; 3]).is_none());
        assert!(ImageF32::from_u8(2, 2, &[0; 5]).is_none());
    }

    #[test]
    fn add_and_scale() {
        let a = ImageF32::from_raw(2, 1, vec![1.0, 2.0]).unwrap();
        let b = ImageF32::from_raw(2, 1, vec![10.0, 20.0]).unwrap();
        assert_eq!(a.add(&b).data, vec![11.0, 22.0]);
        assert_eq!(a.scale(3.0).data, vec![3.0, 6.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(ImageF32::new(0, 0).mean(), 0.0);
    }
}
