//! Quantized-coefficient image representation — the P3 insertion point.
//!
//! A [`CoeffImage`] holds, per component, the full grid of quantized 8×8
//! DCT blocks exactly as they exist in the JPEG pipeline between the
//! quantizer and the entropy coder. The P3 split consumes one
//! `CoeffImage` and produces two (public and secret) with identical
//! geometry; both re-encode to standards-compliant JPEG without any
//! further loss.

use crate::quant::QuantTable;
use crate::{JpegError, Result};

/// Number of coefficients per block.
pub const COEFS_PER_BLOCK: usize = 64;

/// One quantized 8×8 block in natural (row-major frequency) order.
/// Index 0 is the DC coefficient.
pub type Block = [i32; COEFS_PER_BLOCK];

/// Per-component coefficient storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentCoeffs {
    /// Component identifier as used in SOF/SOS (1 = Y, 2 = Cb, 3 = Cr by
    /// JFIF convention).
    pub id: u8,
    /// Horizontal sampling factor (1 or 2 here).
    pub h_samp: u8,
    /// Vertical sampling factor.
    pub v_samp: u8,
    /// Index of this component's quantization table in
    /// [`CoeffImage::qtables`].
    pub quant_idx: usize,
    /// Real block columns: `ceil(component_width / 8)`.
    pub blocks_w: usize,
    /// Real block rows.
    pub blocks_h: usize,
    /// Padded block columns (multiple of `h_samp` per MCU row).
    pub padded_w: usize,
    /// Padded block rows.
    pub padded_h: usize,
    /// `padded_w * padded_h` blocks, row-major.
    pub blocks: Vec<Block>,
}

impl ComponentCoeffs {
    /// Immutable block accessor (padded coordinates).
    #[inline]
    pub fn block(&self, bx: usize, by: usize) -> &Block {
        &self.blocks[by * self.padded_w + bx]
    }

    /// Mutable block accessor (padded coordinates).
    #[inline]
    pub fn block_mut(&mut self, bx: usize, by: usize) -> &mut Block {
        &mut self.blocks[by * self.padded_w + bx]
    }
}

/// A complete image in the quantized-DCT-coefficient domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoeffImage {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Quantization tables referenced by the components (up to 4).
    pub qtables: Vec<QuantTable>,
    /// Components in stream order (Y, Cb, Cr or a single gray component).
    pub components: Vec<ComponentCoeffs>,
}

impl CoeffImage {
    /// Largest horizontal sampling factor across components.
    pub fn h_max(&self) -> u8 {
        self.components.iter().map(|c| c.h_samp).max().unwrap_or(1)
    }

    /// Largest vertical sampling factor across components.
    pub fn v_max(&self) -> u8 {
        self.components.iter().map(|c| c.v_samp).max().unwrap_or(1)
    }

    /// MCU columns across the image.
    pub fn mcus_x(&self) -> usize {
        self.width.div_ceil(8 * self.h_max() as usize)
    }

    /// MCU rows down the image.
    pub fn mcus_y(&self) -> usize {
        self.height.div_ceil(8 * self.v_max() as usize)
    }

    /// Construct a zeroed coefficient image with the given geometry.
    ///
    /// `sampling` lists `(h, v)` factors per component; `quant_map` assigns
    /// each component a table index into `qtables`.
    pub fn zeroed(
        width: usize,
        height: usize,
        qtables: Vec<QuantTable>,
        sampling: &[(u8, u8)],
        quant_map: &[usize],
    ) -> Result<Self> {
        let mut ci = Self::default();
        ci.reset(width, height, qtables, sampling, quant_map)?;
        Ok(ci)
    }

    /// Make this the image [`Self::zeroed`] builds from the same
    /// arguments, keeping the block allocations. On an error the image
    /// is left empty.
    pub fn reset(
        &mut self,
        width: usize,
        height: usize,
        qtables: Vec<QuantTable>,
        sampling: &[(u8, u8)],
        quant_map: &[usize],
    ) -> Result<()> {
        let mut components = std::mem::take(&mut self.components);
        *self = Self::default();
        if sampling.is_empty() || sampling.len() > 4 || sampling.len() != quant_map.len() {
            return Err(JpegError::Invalid("bad component specification".into()));
        }
        if width == 0 || height == 0 {
            return Err(JpegError::Invalid("zero image dimension".into()));
        }
        for &(h, v) in sampling {
            if h == 0 || v == 0 || h > 4 || v > 4 {
                return Err(JpegError::Invalid("sampling factor out of range".into()));
            }
        }
        if quant_map.iter().any(|&q| q >= qtables.len()) {
            return Err(JpegError::Invalid("quant table index out of range".into()));
        }
        let h_max = sampling.iter().map(|s| s.0).max().unwrap();
        let v_max = sampling.iter().map(|s| s.1).max().unwrap();
        let mcus_x = width.div_ceil(8 * h_max as usize);
        let mcus_y = height.div_ceil(8 * v_max as usize);
        components.resize_with(sampling.len(), ComponentCoeffs::default);
        let specs = sampling.iter().zip(quant_map.iter());
        for (i, (comp, (&(h, v), &q))) in components.iter_mut().zip(specs).enumerate() {
            let samp_w = (width * h as usize).div_ceil(h_max as usize);
            let samp_h = (height * v as usize).div_ceil(v_max as usize);
            let (padded_w, padded_h) = (mcus_x * h as usize, mcus_y * v as usize);
            let mut blocks = std::mem::take(&mut comp.blocks);
            blocks.clear();
            blocks.resize(padded_w * padded_h, [0i32; COEFS_PER_BLOCK]);
            *comp = ComponentCoeffs {
                id: (i + 1) as u8,
                h_samp: h,
                v_samp: v,
                quant_idx: q,
                blocks_w: samp_w.div_ceil(8),
                blocks_h: samp_h.div_ceil(8),
                padded_w,
                padded_h,
                blocks,
            };
        }
        *self = Self { width, height, qtables, components };
        Ok(())
    }

    /// Verify internal consistency (geometry vs. block counts).
    pub fn validate(&self) -> Result<()> {
        if self.components.is_empty() {
            return Err(JpegError::Invalid("no components".into()));
        }
        for c in &self.components {
            if c.blocks.len() != c.padded_w * c.padded_h {
                return Err(JpegError::Invalid(format!(
                    "component {}: {} blocks but {}x{} padded grid",
                    c.id,
                    c.blocks.len(),
                    c.padded_w,
                    c.padded_h
                )));
            }
            if c.blocks_w > c.padded_w || c.blocks_h > c.padded_h {
                return Err(JpegError::Invalid("real dims exceed padded dims".into()));
            }
            if c.quant_idx >= self.qtables.len() {
                return Err(JpegError::Invalid("dangling quant table index".into()));
            }
        }
        Ok(())
    }

    /// Apply a function to every block of every component. The closure
    /// receives `(component_index, block)`. This is the hook the P3 split
    /// uses.
    pub fn for_each_block_mut<F: FnMut(usize, &mut Block)>(&mut self, mut f: F) {
        for (ci, comp) in self.components.iter_mut().enumerate() {
            for b in comp.blocks.iter_mut() {
                f(ci, b);
            }
        }
    }

    /// Iterate immutably over `(component_index, block)`.
    pub fn for_each_block<F: FnMut(usize, &Block)>(&self, mut f: F) {
        for (ci, comp) in self.components.iter().enumerate() {
            for b in comp.blocks.iter() {
                f(ci, b);
            }
        }
    }

    /// Total number of blocks across components.
    pub fn total_blocks(&self) -> usize {
        self.components.iter().map(|c| c.blocks.len()).sum()
    }

    /// Histogram of absolute AC coefficient values (used by the
    /// threshold-guessing attack of paper §3.4 and by tests).
    pub fn ac_magnitude_histogram(&self) -> std::collections::BTreeMap<u32, u64> {
        let mut hist = std::collections::BTreeMap::new();
        self.for_each_block(|_, b| {
            for &c in &b[1..] {
                if c != 0 {
                    *hist.entry(c.unsigned_abs()).or_insert(0u64) += 1;
                }
            }
        });
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> Vec<QuantTable> {
        vec![QuantTable::luma(85), QuantTable::chroma(85)]
    }

    #[test]
    fn geometry_444() {
        let img =
            CoeffImage::zeroed(100, 60, tables(), &[(1, 1), (1, 1), (1, 1)], &[0, 1, 1]).unwrap();
        assert_eq!(img.mcus_x(), 13);
        assert_eq!(img.mcus_y(), 8);
        for c in &img.components {
            assert_eq!(c.blocks_w, 13);
            assert_eq!(c.blocks_h, 8);
            assert_eq!(c.padded_w, 13);
            assert_eq!(c.blocks.len(), 13 * 8);
        }
        img.validate().unwrap();
    }

    #[test]
    fn geometry_420() {
        let img =
            CoeffImage::zeroed(100, 60, tables(), &[(2, 2), (1, 1), (1, 1)], &[0, 1, 1]).unwrap();
        assert_eq!(img.mcus_x(), 7); // ceil(100/16)
        assert_eq!(img.mcus_y(), 4); // ceil(60/16)
        let y = &img.components[0];
        assert_eq!((y.blocks_w, y.blocks_h), (13, 8));
        assert_eq!((y.padded_w, y.padded_h), (14, 8));
        let cb = &img.components[1];
        assert_eq!((cb.blocks_w, cb.blocks_h), (7, 4)); // ceil(50/8)=7, ceil(30/8)=4
        assert_eq!((cb.padded_w, cb.padded_h), (7, 4));
        img.validate().unwrap();
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(CoeffImage::zeroed(0, 10, tables(), &[(1, 1)], &[0]).is_err());
        assert!(CoeffImage::zeroed(10, 10, tables(), &[], &[]).is_err());
        assert!(CoeffImage::zeroed(10, 10, tables(), &[(0, 1)], &[0]).is_err());
        assert!(CoeffImage::zeroed(10, 10, tables(), &[(1, 1)], &[5]).is_err());
        assert!(CoeffImage::zeroed(10, 10, tables(), &[(1, 1), (1, 1)], &[0]).is_err());
    }

    #[test]
    fn block_accessors() {
        let mut img = CoeffImage::zeroed(32, 32, tables(), &[(1, 1)], &[0]).unwrap();
        img.components[0].block_mut(2, 3)[5] = 42;
        assert_eq!(img.components[0].block(2, 3)[5], 42);
        assert_eq!(img.components[0].block(0, 0)[5], 0);
    }

    #[test]
    fn for_each_block_covers_everything() {
        let mut img =
            CoeffImage::zeroed(33, 17, tables(), &[(2, 2), (1, 1), (1, 1)], &[0, 1, 1]).unwrap();
        let mut n = 0usize;
        img.for_each_block_mut(|_, b| {
            b[0] = 7;
            n += 1;
        });
        assert_eq!(n, img.total_blocks());
        let mut n2 = 0usize;
        img.for_each_block(|_, b| {
            assert_eq!(b[0], 7);
            n2 += 1;
        });
        assert_eq!(n, n2);
    }

    #[test]
    fn histogram_counts_ac_only() {
        let mut img = CoeffImage::zeroed(8, 8, tables(), &[(1, 1)], &[0]).unwrap();
        let b = img.components[0].block_mut(0, 0);
        b[0] = 100; // DC — excluded
        b[1] = 5;
        b[2] = -5;
        b[3] = 2;
        let h = img.ac_magnitude_histogram();
        assert_eq!(h.get(&5), Some(&2));
        assert_eq!(h.get(&2), Some(&1));
        assert_eq!(h.get(&100), None);
    }

    #[test]
    fn validate_detects_corruption() {
        let mut img = CoeffImage::zeroed(16, 16, tables(), &[(1, 1)], &[0]).unwrap();
        img.components[0].blocks.pop();
        assert!(img.validate().is_err());
    }
}
