//! Minimal owned RGB pixel buffer; a gray image is a [`crate::color::Plane`].
//!
//! Both are deliberately tiny: the heavy image machinery (filters,
//! resizing, metrics) lives in `p3-vision`, which keeps this codec crate
//! dependency-free. Conversions between the two live in downstream crates.

/// Interleaved 8-bit RGB image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RgbImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width * height * 3` bytes, row-major, R then G then B.
    pub data: Vec<u8>,
}

impl RgbImage {
    /// Allocate a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0; width * height * 3] }
    }

    /// Build from parts, validating the buffer length.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Option<Self> {
        (data.len() == width * height * 3).then_some(Self { width, height, data })
    }

    /// Pixel accessor (debug-checked bounds).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, px: [u8; 3]) {
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&px);
    }

    /// Serialize as a binary PPM (P6) — handy for eyeballing benchmark
    /// output (paper Figures 7 and 9 are visual).
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
    fn rgb_get_set() {
        let mut img = RgbImage::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(RgbImage::from_raw(2, 2, vec![0; 12]).is_some());
        assert!(RgbImage::from_raw(2, 2, vec![0; 11]).is_none());
    }

    #[test]
    fn ppm_header() {
        let img = RgbImage::new(5, 7);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 7\n255\n"));
        assert_eq!(ppm.len(), 11 + 5 * 7 * 3);
    }
}
