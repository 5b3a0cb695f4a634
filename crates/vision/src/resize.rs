//! Image resampling, cropping, sharpening — the transform zoo a PSP
//! applies server-side.
//!
//! The paper (§4.1) observes that a PSP resize is "often accompanied by a
//! filtering step for antialiasing and may be followed by a sharpening
//! step, together with a color adjustment step", none of which are visible
//! to the client. The recipient proxy therefore searches candidate
//! pipelines ("we select several candidate settings for colorspace
//! conversion, filtering, sharpening, enhancing, and gamma corrections")
//! — this module provides the enumerable candidate space, modelled on
//! ImageMagick's resize filters (paper ref. \[28\]).
//!
//! Resampling and cropping are **linear** operators: `A(αa + βb) =
//! αA(a) + βA(b)`. That property (verified by property tests downstream)
//! is what makes P3's Eq. 2 reconstruction exact. Sharpening is also
//! linear, so every pipeline built from this module commutes with Eq. 2.

use crate::filter::{accumulate_h, accumulate_v, gaussian_kernel};
use crate::image::{ImageF32, Sample, View};
use std::sync::{Arc, Mutex, PoisonError};

/// Resampling kernels, mirroring the common ImageMagick set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizeFilter {
    /// Box (nearest-area average).
    Box,
    /// Triangle / bilinear tent.
    Triangle,
    /// Catmull-Rom cubic (B=0, C=0.5).
    CatmullRom,
    /// Mitchell-Netravali cubic (B=C=1/3).
    Mitchell,
    /// Lanczos, 2-lobe.
    Lanczos2,
    /// Lanczos, 3-lobe (ImageMagick default for downsizing).
    Lanczos3,
}

impl ResizeFilter {
    /// All filters, for exhaustive pipeline search.
    pub fn all() -> &'static [ResizeFilter] {
        &[
            ResizeFilter::Box,
            ResizeFilter::Triangle,
            ResizeFilter::CatmullRom,
            ResizeFilter::Mitchell,
            ResizeFilter::Lanczos2,
            ResizeFilter::Lanczos3,
        ]
    }

    /// Kernel support radius (in source pixels at scale 1).
    fn support(&self) -> f32 {
        match self {
            ResizeFilter::Box => 0.5,
            ResizeFilter::Triangle => 1.0,
            ResizeFilter::CatmullRom | ResizeFilter::Mitchell => 2.0,
            ResizeFilter::Lanczos2 => 2.0,
            ResizeFilter::Lanczos3 => 3.0,
        }
    }

    /// Kernel value at distance `x`.
    pub fn eval(&self, x: f32) -> f32 {
        let x = x.abs();
        match self {
            ResizeFilter::Box => {
                if x < 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
            ResizeFilter::Triangle => {
                if x < 1.0 {
                    1.0 - x
                } else {
                    0.0
                }
            }
            ResizeFilter::CatmullRom => cubic_bc(x, 0.0, 0.5),
            ResizeFilter::Mitchell => cubic_bc(x, 1.0 / 3.0, 1.0 / 3.0),
            ResizeFilter::Lanczos2 => lanczos(x, 2.0),
            ResizeFilter::Lanczos3 => lanczos(x, 3.0),
        }
    }
}

fn cubic_bc(x: f32, b: f32, c: f32) -> f32 {
    if x < 1.0 {
        ((12.0 - 9.0 * b - 6.0 * c) * x * x * x
            + (-18.0 + 12.0 * b + 6.0 * c) * x * x
            + (6.0 - 2.0 * b))
            / 6.0
    } else if x < 2.0 {
        ((-b - 6.0 * c) * x * x * x
            + (6.0 * b + 30.0 * c) * x * x
            + (-12.0 * b - 48.0 * c) * x
            + (8.0 * b + 24.0 * c))
            / 6.0
    } else {
        0.0
    }
}

fn sinc(x: f32) -> f32 {
    if x.abs() < 1e-6 {
        1.0
    } else {
        let px = std::f32::consts::PI * x;
        px.sin() / px
    }
}

fn lanczos(x: f32, a: f32) -> f32 {
    if x < a {
        sinc(x) * sinc(x / a)
    } else {
        0.0
    }
}

/// One axis of a separable linear map, flattened: output position `d` is
/// `Σ weight[k] · src[index[k]]` over `k` in `bounds[d]..bounds[d + 1]`,
/// accumulated in that order. Edge clamping is folded into the indices,
/// so every index is `< src_len` and the inner loops never test a bound
/// of the image.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisTaps {
    src_len: usize,
    bounds: Vec<u32>,
    index: Vec<u32>,
    weight: Vec<f32>,
}

/// The last few tap tables built, by key, kept process-wide for tables
/// that are pure functions of their key and cost more to build than to
/// look up: the oldest goes when a new one would exceed `kept`.
pub struct TapCache<K> {
    tables: Mutex<Vec<(K, Arc<AxisTaps>)>>,
    kept: usize,
}

impl<K: PartialEq> TapCache<K> {
    /// An empty cache that keeps `kept` tables.
    pub const fn new(kept: usize) -> Self {
        Self { tables: Mutex::new(Vec::new()), kept }
    }

    /// The table kept under `key`, or `build()` kept under it.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> AxisTaps) -> Arc<AxisTaps> {
        let tables = || self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, taps)) = tables().iter().find(|(k, _)| *k == key) {
            return Arc::clone(taps);
        }
        let taps = Arc::new(build());
        let mut kept = tables();
        if kept.len() == self.kept {
            kept.remove(0);
        }
        kept.push((key, Arc::clone(&taps)));
        taps
    }
}

/// Resize tap tables cost a kernel evaluation per tap (Lanczos: two
/// `sin`s), so a photo's ladder and every view of it share them.
const RESIZE_TAPS_KEPT: usize = 16;
static RESIZE_TAPS: TapCache<(usize, usize, ResizeFilter)> = TapCache::new(RESIZE_TAPS_KEPT);

/// Source rows [`apply_separable`]'s horizontal pass resamples together.
const ROW_GROUP: usize = 16;

impl AxisTaps {
    fn with_capacity(src_len: usize, dst_len: usize, taps: usize) -> Self {
        assert!(src_len > 0 && src_len <= u32::MAX as usize, "axis length out of range");
        let mut bounds = Vec::with_capacity(dst_len + 1);
        bounds.push(0);
        Self { src_len, bounds, index: Vec::with_capacity(taps), weight: Vec::with_capacity(taps) }
    }

    fn push_tap(&mut self, index: usize, weight: f32) {
        debug_assert!(index < self.src_len);
        self.index.push(index as u32);
        self.weight.push(weight);
    }

    fn end_output(&mut self) {
        self.bounds.push(self.index.len() as u32);
    }

    /// Number of source positions.
    pub fn src_len(&self) -> usize {
        self.src_len
    }

    /// Number of output positions.
    pub fn dst_len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// `(indices, weights)` of output position `d`.
    #[inline]
    pub fn taps(&self, d: usize) -> (&[u32], &[f32]) {
        let run = self.bounds[d] as usize..self.bounds[d + 1] as usize;
        (&self.index[run.clone()], &self.weight[run])
    }

    /// The map whose output `d`, for `d` in `0..dst_len`, is the sum of
    /// `weight · src[index]` over the `(index, weight)` pairs `taps(d)`
    /// yields, in that order.
    pub fn from_fn<I: IntoIterator<Item = (usize, f32)>>(
        src_len: usize,
        dst_len: usize,
        mut taps: impl FnMut(usize) -> I,
    ) -> AxisTaps {
        let mut out = Self::with_capacity(src_len, dst_len, dst_len);
        for d in 0..dst_len {
            for (index, weight) in taps(d) {
                out.push_tap(index, weight);
            }
            out.end_output();
        }
        out
    }

    /// The transposed map, source-major: its output `s` lists every
    /// output of `self` that reads source `s`, in output order, with the
    /// weight it reads it by.
    pub fn transpose(&self) -> AxisTaps {
        let mut bounds = vec![0u32; self.src_len + 1];
        for &s in &self.index {
            bounds[s as usize + 1] += 1;
        }
        for s in 0..self.src_len {
            bounds[s + 1] += bounds[s];
        }
        let mut next = bounds.clone();
        let (mut index, mut weight) = (vec![0; self.index.len()], vec![0.0; self.index.len()]);
        for d in 0..self.dst_len() {
            let (srcs, weights) = self.taps(d);
            for (&s, &w) in srcs.iter().zip(weights) {
                let slot = &mut next[s as usize];
                (index[*slot as usize], weight[*slot as usize]) = (d as u32, w);
                *slot += 1;
            }
        }
        AxisTaps { src_len: self.dst_len(), bounds, index, weight }
    }

    /// The resampling taps of [`resize`] along one axis (kernel widened
    /// when minifying so it antialiases; weights normalized per output).
    pub fn resize(src_len: usize, dst_len: usize, filter: ResizeFilter) -> Arc<AxisTaps> {
        RESIZE_TAPS.get_or_build((src_len, dst_len, filter), || {
            Self::build_resize(src_len, dst_len, filter)
        })
    }

    fn build_resize(src_len: usize, dst_len: usize, filter: ResizeFilter) -> AxisTaps {
        let scale = src_len as f32 / dst_len as f32;
        // Widen the kernel when minifying so it acts as an antialias filter.
        let filter_scale = scale.max(1.0);
        let support = filter.support() * filter_scale;
        let last = src_len as isize - 1;
        let mut out = Self::with_capacity(src_len, dst_len, dst_len * (2 * support as usize + 2));
        for d in 0..dst_len {
            let center = (d as f32 + 0.5) * scale - 0.5;
            let start = (center - support).ceil() as isize;
            let end = (center + support).floor() as isize;
            let first = out.weight.len();
            let mut sum = 0.0f32;
            for s in start..=end {
                let w = filter.eval((s as f32 - center) / filter_scale);
                out.push_tap(s.clamp(0, last) as usize, w);
                sum += w;
            }
            if sum.abs() > 1e-8 {
                for w in &mut out.weight[first..] {
                    *w /= sum;
                }
            }
            out.end_output();
        }
        out
    }

    /// The window [`crop`] keeps of a `src_len` axis: `want` samples from
    /// `start`, clamped to bounds and never empty.
    pub fn window(src_len: usize, start: usize, want: usize) -> AxisTaps {
        let (start, len) = clamp_window(src_len, start, want);
        let mut out = Self::with_capacity(src_len, len, len);
        for d in 0..len {
            out.push_tap(start + d, 1.0);
            out.end_output();
        }
        out
    }

    /// Centre-aligned bilinear interpolation from `src_len` to `dst_len`
    /// samples — JPEG chroma upsampling along one axis.
    pub fn bilinear(src_len: usize, dst_len: usize) -> AxisTaps {
        let scale = src_len as f32 / dst_len as f32;
        let last = src_len as isize - 1;
        let mut out = Self::with_capacity(src_len, dst_len, 2 * dst_len);
        for d in 0..dst_len {
            let pos = (d as f32 + 0.5) * scale - 0.5;
            let lo = pos.floor();
            let frac = pos - lo;
            out.push_tap((lo as isize).clamp(0, last) as usize, 1.0 - frac);
            out.push_tap((lo as isize + 1).clamp(0, last) as usize, frac);
            out.end_output();
        }
        out
    }

    /// Box-filter decimation of a `src_len` axis by `factor`: output `d`
    /// is the mean of samples `d·factor ..` up to `factor` of them, the
    /// last output averaging only what is left — `ceil(src_len / factor)`
    /// outputs, the average JPEG chroma downsampling takes (before it
    /// rounds).
    pub fn box_down(src_len: usize, factor: usize) -> AxisTaps {
        assert!(factor > 0, "zero box factor");
        let dst_len = src_len.div_ceil(factor);
        let mut out = Self::with_capacity(src_len, dst_len, src_len);
        for d in 0..dst_len {
            let run = d * factor..((d + 1) * factor).min(src_len);
            let weight = 1.0 / run.len() as f32;
            for s in run {
                out.push_tap(s, weight);
            }
            out.end_output();
        }
        out
    }

    /// The product `outer · self`: one table that maps `self`'s source
    /// straight to `outer`'s outputs, taps on the same source sample
    /// merged.
    pub fn then(&self, outer: &AxisTaps) -> AxisTaps {
        assert_eq!(outer.src_len, self.dst_len(), "composed axes disagree");
        let mut out = Self::with_capacity(self.src_len, outer.dst_len(), outer.index.len() * 2);
        let mut row = vec![0.0f32; self.src_len];
        for d in 0..outer.dst_len() {
            let (mut lo, mut hi) = (usize::MAX, 0);
            let (mids, outer_w) = outer.taps(d);
            for (&mid, &ow) in mids.iter().zip(outer_w) {
                let (srcs, inner_w) = self.taps(mid as usize);
                for (&s, &iw) in srcs.iter().zip(inner_w) {
                    row[s as usize] += ow * iw;
                    lo = lo.min(s as usize);
                    hi = hi.max(s as usize);
                }
            }
            for (s, w) in row.iter_mut().enumerate().take(hi + 1).skip(lo) {
                if *w != 0.0 {
                    out.push_tap(s, *w);
                    *w = 0.0;
                }
            }
            out.end_output();
        }
        out
    }
}

/// Apply the separable map `yt ⊗ xt` to the `xt.src_len() × yt.src_len()`
/// plane at the top-left of `src` (rows `stride` apart): horizontal pass
/// into `rows`, then vertical into `out`. Both are overwritten whatever
/// they held, so a caller may reuse their allocations across calls;
/// source rows no vertical tap reads are skipped.
pub fn apply_separable(
    src: &[f32],
    stride: usize,
    xt: &AxisTaps,
    yt: &AxisTaps,
    rows: &mut Vec<f32>,
    out: &mut ImageF32,
) {
    assert!(stride >= xt.src_len && src.len() >= (yt.src_len - 1) * stride + xt.src_len);
    let (w, h) = (xt.dst_len(), yt.dst_len());
    let src = View { data: src, stride, width: xt.src_len, height: yt.src_len };
    let first = resample_h(&src, xt, yt, rows);
    (out.width, out.height) = (w, h);
    out.data.clear();
    out.data.resize(w * h, 0.0);
    for (y, acc) in out.data.chunks_exact_mut(w).enumerate() {
        resample_v(acc, yt, y, &rows[..], first);
    }
}

/// [`apply_separable`] of a [`View`] (as wide and high as the taps'
/// sources), a row at a time: `emit(y, row)` is handed each output row,
/// top to bottom, while it is still in cache, and no output plane
/// exists.
pub fn apply_separable_rows<T: Sample>(
    src: &View<'_, T>,
    xt: &AxisTaps,
    yt: &AxisTaps,
    rows: &mut Vec<f32>,
    mut emit: impl FnMut(usize, &[f32]),
) {
    let (w, h) = (xt.dst_len(), yt.dst_len());
    let first = resample_h(src, xt, yt, rows);
    // The horizontal pass sized its spare tail for at least one row.
    let tail = rows.len() - w;
    let (rows, spare) = rows.split_at_mut(tail);
    for y in 0..h {
        spare.fill(0.0);
        resample_v(spare, yt, y, rows, first);
        emit(y, spare);
    }
}

/// The horizontal pass of [`apply_separable`]: every source row a
/// vertical tap reads, resampled by `xt`, at the front of `rows`, which
/// also keeps a spare tail of at least one output row. Returns the index
/// of the first of those source rows.
fn resample_h<T: Sample>(
    src: &View<'_, T>,
    xt: &AxisTaps,
    yt: &AxisTaps,
    rows: &mut Vec<f32>,
) -> usize {
    assert!((src.width, src.height) == (xt.src_len, yt.src_len), "taps for another plane");
    let w = xt.dst_len();
    assert!(w > 0 && yt.dst_len() > 0, "zero target dimension");
    let first = yt.index.iter().min().map_or(0, |&y| y as usize);
    let last = yt.index.iter().max().map_or(0, |&y| y as usize);
    // One output's sum is a chain of dependent adds, and its taps sit
    // at arbitrary columns: a row at a time is scalar and waits on the
    // adder. So `ROW_GROUP` source rows are interleaved column by column
    // behind the output rows, and each tap becomes one multiply-add
    // across the group — a lane per row, every lane summing its own
    // row's taps in table order, which is the bits of the scalar loop.
    // The last group slides back over rows already done rather than
    // leave a remainder; fewer rows than a group take the scalar loop.
    let kept = last + 1 - first;
    rows.clear();
    rows.resize(kept * w + (ROW_GROUP * xt.src_len).max(w) + xt.src_len, 0.0);
    let (rows, spare) = rows.split_at_mut(kept * w);
    let (widened, group) = spare.split_at_mut(xt.src_len);
    if kept >= ROW_GROUP {
        for y0 in (0..kept).step_by(ROW_GROUP).map(|y| y.min(kept - ROW_GROUP)) {
            for r in 0..ROW_GROUP {
                let line = src.row(first + y0 + r, widened);
                for (cell, &v) in group.chunks_exact_mut(ROW_GROUP).zip(line) {
                    cell[r] = v;
                }
            }
            let band = &mut rows[y0 * w..][..ROW_GROUP * w];
            for x in 0..w {
                let (index, weight) = xt.taps(x);
                let mut acc = [0.0f32; ROW_GROUP];
                for (&i, &wt) in index.iter().zip(weight) {
                    let cell = &group[i as usize * ROW_GROUP..][..ROW_GROUP];
                    for (a, &v) in acc.iter_mut().zip(cell) {
                        *a += wt * v;
                    }
                }
                for (r, a) in acc.into_iter().enumerate() {
                    band[r * w + x] = a;
                }
            }
        }
    } else {
        for (y, row) in rows.chunks_exact_mut(w).enumerate() {
            let line = src.row(first + y, widened);
            for (x, o) in row.iter_mut().enumerate() {
                let (index, weight) = xt.taps(x);
                let mut acc = 0.0f32;
                for (&i, &wt) in index.iter().zip(weight) {
                    acc += wt * line[i as usize];
                }
                *o = acc;
            }
        }
    }
    first
}

/// Output row `y` of the vertical pass, accumulated onto `acc` a tap at
/// a time from the rows [`resample_h`] left (`first` being the source
/// row at their front).
fn resample_v(acc: &mut [f32], yt: &AxisTaps, y: usize, rows: &[f32], first: usize) {
    let w = acc.len();
    let (index, weight) = yt.taps(y);
    for (&i, &wt) in index.iter().zip(weight) {
        for (a, &v) in acc.iter_mut().zip(&rows[(i as usize - first) * w..][..w]) {
            *a += wt * v;
        }
    }
}

/// Resize with the given filter (separable, horizontal then vertical).
pub fn resize(img: &ImageF32, new_w: usize, new_h: usize, filter: ResizeFilter) -> ImageF32 {
    assert!(new_w > 0 && new_h > 0, "zero target dimension");
    if new_w == img.width && new_h == img.height {
        return img.clone();
    }
    let xt = AxisTaps::resize(img.width, new_w, filter);
    let yt = AxisTaps::resize(img.height, new_h, filter);
    let mut out = ImageF32::new(0, 0);
    apply_separable(&img.data, img.width, &xt, &yt, &mut Vec::new(), &mut out);
    out
}

/// Crop a rectangle (clamped to bounds). Cropping is linear; the paper
/// notes PSPs crop at arbitrary boundaries which the proxy approximates
/// at 8×8 granularity — callers choose the geometry.
pub fn crop(img: &ImageF32, x0: usize, y0: usize, w: usize, h: usize) -> ImageF32 {
    let (x0, w) = clamp_window(img.width, x0, w);
    let (y0, h) = clamp_window(img.height, y0, h);
    let mut out = ImageF32::new(w, h);
    for (y, row) in out.data.chunks_exact_mut(w).enumerate() {
        row.copy_from_slice(&img.data[(y0 + y) * img.width + x0..][..w]);
    }
    out
}

/// `want` samples from `start` on an axis of `len`, clamped to bounds and
/// never empty — the window [`crop`] keeps of each axis.
pub fn clamp_window(len: usize, start: usize, want: usize) -> (usize, usize) {
    let start = start.min(len.saturating_sub(1));
    (start, want.min(len - start).max(1))
}

/// Unsharp-mask sharpening: `out = img + amount * (img - blur(img))`.
/// Linear in the image for fixed parameters.
pub fn sharpen(img: &ImageF32, sigma: f32, amount: f32) -> ImageF32 {
    if amount == 0.0 {
        return img.clone();
    }
    let mut out = ImageF32::default();
    sharpen_into(img, sigma, amount, &mut Vec::new(), &mut out);
    out
}

/// [`sharpen`] into a caller's plane through a caller's `ring`, both
/// overwritten whatever they held.
pub fn sharpen_into(
    img: &ImageF32,
    sigma: f32,
    amount: f32,
    ring: &mut Vec<f32>,
    out: &mut ImageF32,
) {
    (out.width, out.height) = (img.width, img.height);
    out.data.clear();
    sharpen_rows(&img.view(), sigma, amount, ring, |_, row| out.data.extend_from_slice(row));
}

/// [`sharpen`] of a [`View`], a row at a time: `emit(y, row)` is
/// handed each output row, top to bottom. The blur's horizontal pass
/// lives only as the kernel's height of rows in `ring`, each computed
/// once as the vertical pass reaches it, so the unsharp touches no plane
/// but its input.
pub fn sharpen_rows<T: Sample>(
    img: &View<'_, T>,
    sigma: f32,
    amount: f32,
    ring: &mut Vec<f32>,
    mut emit: impl FnMut(usize, &[f32]),
) {
    let (w, h) = (img.width, img.height);
    if w == 0 {
        return;
    }
    let kernel = gaussian_kernel(sigma);
    let (slots, r) = (kernel.len(), kernel.len() / 2);
    ring.clear();
    ring.resize((slots + 2) * w, 0.0);
    let (ring, spare) = ring.split_at_mut(slots * w);
    let (acc, widened) = spare.split_at_mut(w);
    // Rows `0..blurred` of the horizontal pass are done; row `sy` sits
    // in slot `sy % slots`, and output row `y` reads `y − r ..= y + r`.
    let mut blurred = 0;
    for y in 0..h {
        while blurred <= (y + r).min(h - 1) {
            let slot = &mut ring[blurred % slots * w..][..w];
            slot.fill(0.0);
            accumulate_h(slot, &kernel, img.row(blurred, widened));
            blurred += 1;
        }
        acc.fill(0.0);
        accumulate_v(acc, &kernel, (y, h), |sy| &ring[sy % slots * w..][..w]);
        for (o, &v) in acc.iter_mut().zip(img.row(y, widened)) {
            *o = v + amount * (v - *o);
        }
        emit(y, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::oracle::{self, bits, noise};
    use proptest::prelude::*;

    /// `resize` as it was before the tap tables: weights rebuilt per
    /// call, every tap bounds-clamped. Kept as the bit-identity oracle.
    fn resize_old(img: &ImageF32, new_w: usize, new_h: usize, filter: ResizeFilter) -> ImageF32 {
        fn build_weights(src: usize, dst: usize, filter: ResizeFilter) -> Vec<(isize, Vec<f32>)> {
            let scale = src as f32 / dst as f32;
            let filter_scale = scale.max(1.0);
            let support = filter.support() * filter_scale;
            let mut rows = Vec::with_capacity(dst);
            for d in 0..dst {
                let center = (d as f32 + 0.5) * scale - 0.5;
                let start = (center - support).ceil() as isize;
                let end = (center + support).floor() as isize;
                let mut weights: Vec<f32> = (start..=end)
                    .map(|s| filter.eval((s as f32 - center) / filter_scale))
                    .collect();
                let sum: f32 = weights.iter().fold(0.0, |a, w| a + w);
                if sum.abs() > 1e-8 {
                    weights.iter_mut().for_each(|w| *w /= sum);
                }
                rows.push((start, weights));
            }
            rows
        }
        if new_w == img.width && new_h == img.height {
            return img.clone();
        }
        let mut tmp = ImageF32::new(new_w, img.height);
        let wrows = build_weights(img.width, new_w, filter);
        for y in 0..img.height {
            for (x, (start, weights)) in wrows.iter().enumerate() {
                let mut acc = 0.0f32;
                for (k, &w) in weights.iter().enumerate() {
                    acc += w * img.get_clamped(start + k as isize, y as isize);
                }
                tmp.set(x, y, acc);
            }
        }
        let mut out = ImageF32::new(new_w, new_h);
        for (y, (start, weights)) in build_weights(img.height, new_h, filter).iter().enumerate() {
            for x in 0..new_w {
                let mut acc = 0.0f32;
                for (k, &w) in weights.iter().enumerate() {
                    acc += w * tmp.get_clamped(x as isize, start + k as isize);
                }
                out.set(x, y, acc);
            }
        }
        out
    }

    /// The plane a row kernel emits, top to bottom, into `out`.
    fn gather(out: &mut ImageF32) -> impl FnMut(usize, &[f32]) + '_ {
        |y, row| {
            assert_eq!(y, out.height, "rows out of order");
            (out.width, out.height) = (row.len(), y + 1);
            out.data.extend_from_slice(row);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn resize_is_bit_identical_to_the_old_loop(
            w in 1usize..=400, h in 1usize..=24, new_w in 1usize..=400, new_h in 1usize..=24,
            transpose in any::<bool>(), filter in 0usize..6, seed in any::<u32>(),
        ) {
            // The wide axis sweeps 1…400 on both sides of the ratio; the
            // other stays short so a case costs milliseconds.
            let (w, h, new_w, new_h) = if transpose { (h, w, new_h, new_w) } else { (w, h, new_w, new_h) };
            let img = noise(w, h, seed);
            let filter = ResizeFilter::all()[filter];
            let new = resize(&img, new_w, new_h, filter);
            let old = resize_old(&img, new_w, new_h, filter);
            prop_assert_eq!(bits(&new), bits(&old), "{:?} {}x{} -> {}x{}", filter, w, h, new_w, new_h);
            if (new_w, new_h) != (w, h) {
                // Row by row through a dirty buffer: the same plane.
                let (xt, yt) = (AxisTaps::resize(w, new_w, filter), AxisTaps::resize(h, new_h, filter));
                let (mut rows, mut streamed) = (noise(7, 5, seed).data, ImageF32::default());
                apply_separable_rows(&img.view(), &xt, &yt, &mut rows, gather(&mut streamed));
                prop_assert_eq!(bits(&streamed), bits(&old));
            }
        }

        #[test]
        fn sharpen_is_bit_identical_to_the_old_loops(
            w in 1usize..=400, h in 1usize..=24, transpose in any::<bool>(),
            sigma in 1usize..=8, amount in 1usize..=6, seed in any::<u32>(),
        ) {
            let (w, h) = if transpose { (h, w) } else { (w, h) };
            let img = noise(w, h, seed);
            let (sigma, amount) = (sigma as f32 * 0.25, amount as f32 * 0.25);
            let mut old = oracle::gaussian_blur(&img, sigma);
            for (o, &v) in old.data.iter_mut().zip(&img.data) {
                *o = v + amount * (v - *o);
            }
            prop_assert_eq!(bits(&sharpen(&img, sigma, amount)), bits(&old));
            // Dirty planes of another size are overwritten whole.
            let (mut ring, mut out) = (noise(h + 2, w + 5, seed).data, noise(3, 7, seed));
            sharpen_into(&img, sigma, amount, &mut ring, &mut out);
            prop_assert_eq!(bits(&out), bits(&old));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A window of an 8-bit plane, widened as the kernels read it,
        /// gives the bits of the same window copied out as `f32`.
        #[test]
        fn kernels_read_u8_windows_bit_identically_to_their_f32_copies(
            w in 1usize..=90, h in 1usize..=40, x0 in 0usize..=7, y0 in 0usize..=7,
            new_w in 1usize..=90, new_h in 1usize..=40, filter in 0usize..6, seed in any::<u32>(),
        ) {
            let (full_w, full_h) = (w + x0 + 3, h + y0 + 2);
            let bytes: Vec<u8> = noise(full_w, full_h, seed).data.iter().map(|v| (*v as i32 & 255) as u8).collect();
            let window = View::new(&bytes, full_w, full_h).window(x0, y0, w, h);
            let copy = crop(&ImageF32::from_u8(full_w, full_h, &bytes).unwrap(), x0, y0, w, h);
            let mut sharp = ImageF32::default();
            sharpen_rows(&window, 0.8, 0.5, &mut Vec::new(), gather(&mut sharp));
            prop_assert_eq!(bits(&sharp), bits(&sharpen(&copy, 0.8, 0.5)));
            if (new_w, new_h) != (w, h) {
                let filter = ResizeFilter::all()[filter];
                let (xt, yt) = (AxisTaps::resize(w, new_w, filter), AxisTaps::resize(h, new_h, filter));
                let mut resized = ImageF32::default();
                apply_separable_rows(&window, &xt, &yt, &mut Vec::new(), gather(&mut resized));
                prop_assert_eq!(bits(&resized), bits(&resize(&copy, new_w, new_h, filter)));
            }
        }
    }

    /// The horizontal pass takes source rows `ROW_GROUP` at a time, the
    /// last group sliding back over the one before: 1…33 rows are fewer
    /// than a group, whole groups, and every length of slide.
    #[test]
    fn resize_is_bit_identical_to_the_old_loop_for_every_row_group_remainder() {
        for h in 1..=2 * ROW_GROUP + 1 {
            for (i, &filter) in ResizeFilter::all().iter().enumerate() {
                let img = noise(61, h, 7 * h as u32 + i as u32);
                for (new_w, new_h) in [(23, h), (97, h), (40, 2 * h + 1)] {
                    let new = resize(&img, new_w, new_h, filter);
                    let old = resize_old(&img, new_w, new_h, filter);
                    assert_eq!(bits(&new), bits(&old), "{filter:?} 61x{h} -> {new_w}x{new_h}");
                }
            }
        }
    }

    #[test]
    fn composed_taps_equal_the_stages_in_sequence() {
        let src: Vec<f32> = (0..40).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let run = |t: &AxisTaps, v: &[f32]| -> Vec<f32> {
            (0..t.dst_len())
                .map(|d| {
                    let (i, w) = t.taps(d);
                    i.iter().zip(w).map(|(&i, &w)| w * v[i as usize]).sum()
                })
                .collect()
        };
        let up = AxisTaps::bilinear(40, 79);
        let win = AxisTaps::window(79, 5, 60);
        let down = AxisTaps::resize(60, 23, ResizeFilter::Lanczos3);
        let staged = run(&down, &run(&win, &run(&up, &src)));
        let fused = run(&up.then(&win).then(&down), &src);
        assert_eq!(fused.len(), 23);
        for (a, b) in staged.iter().zip(&fused) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn resize_taps_are_cached_and_the_cache_is_bounded() {
        let a = AxisTaps::resize(311, 97, ResizeFilter::Mitchell);
        assert!(Arc::ptr_eq(&a, &AxisTaps::resize(311, 97, ResizeFilter::Mitchell)));
        for dst in 1..=2 * RESIZE_TAPS_KEPT {
            AxisTaps::resize(313, dst, ResizeFilter::Box);
        }
        let kept = RESIZE_TAPS.tables.lock().unwrap().len();
        assert!(kept <= RESIZE_TAPS_KEPT, "{kept} tables kept");
        assert_eq!(*a, *AxisTaps::resize(311, 97, ResizeFilter::Mitchell), "rebuilt equal");
    }

    fn gradient(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (x as f32 * 2.0 + y as f32 * 3.0) % 256.0);
            }
        }
        img
    }

    #[test]
    fn kernels_are_normalized_at_zero() {
        for f in ResizeFilter::all() {
            assert!(f.eval(0.0) > 0.8, "{f:?}"); // Mitchell(0) = 8/9
            assert_eq!(f.eval(f.support() + 0.1), 0.0, "{f:?} beyond support");
        }
    }

    #[test]
    fn resize_constant_stays_constant() {
        let img = ImageF32::from_raw(40, 30, vec![123.0; 1200]).unwrap();
        for f in ResizeFilter::all() {
            let out = resize(&img, 17, 11, *f);
            for &v in &out.data {
                assert!((v - 123.0).abs() < 0.01, "{f:?}: {v}");
            }
        }
    }

    #[test]
    fn resize_identity_is_noop() {
        let img = gradient(20, 20);
        let out = resize(&img, 20, 20, ResizeFilter::Lanczos3);
        assert_eq!(out.data, img.data);
    }

    #[test]
    fn downsample_then_dims() {
        let img = gradient(100, 60);
        let out = resize(&img, 25, 15, ResizeFilter::Mitchell);
        assert_eq!((out.width, out.height), (25, 15));
    }

    #[test]
    fn resize_is_linear() {
        let a = gradient(32, 24);
        let mut b = ImageF32::new(32, 24);
        for (i, v) in b.data.iter_mut().enumerate() {
            *v = ((i * 31) % 256) as f32;
        }
        for f in [ResizeFilter::Triangle, ResizeFilter::Lanczos3, ResizeFilter::Mitchell] {
            let lhs = resize(&a.scale(2.0).add(&b.scale(-1.0)), 13, 9, f);
            let rhs = resize(&a, 13, 9, f).scale(2.0).add(&resize(&b, 13, 9, f).scale(-1.0));
            for i in 0..lhs.data.len() {
                assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-2, "{f:?} at {i}");
            }
        }
    }

    #[test]
    fn crop_extracts_rectangle() {
        let img = gradient(10, 10);
        let out = crop(&img, 2, 3, 4, 5);
        assert_eq!((out.width, out.height), (4, 5));
        assert_eq!(out.get(0, 0), img.get(2, 3));
        assert_eq!(out.get(3, 4), img.get(5, 7));
    }

    #[test]
    fn crop_clamps_to_bounds() {
        let img = gradient(10, 10);
        let out = crop(&img, 8, 8, 100, 100);
        assert_eq!((out.width, out.height), (2, 2));
    }

    #[test]
    fn sharpen_amount_zero_is_identity() {
        let img = gradient(16, 16);
        assert_eq!(sharpen(&img, 1.0, 0.0).data, img.data);
    }

    #[test]
    fn sharpen_increases_edge_contrast() {
        let mut img = ImageF32::new(16, 16);
        for y in 0..16 {
            for x in 8..16 {
                img.set(x, y, 200.0);
            }
        }
        let out = sharpen(&img, 1.0, 1.0);
        // Overshoot on the bright side of the edge.
        assert!(out.get(8, 8) > img.get(8, 8));
        assert!(out.get(7, 8) < img.get(7, 8));
    }

    #[test]
    fn distinct_filters_give_distinct_downsamples() {
        // The reverse-engineering search relies on filters being
        // distinguishable by output.
        let mut img = ImageF32::new(64, 64);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = (((i * 2654435761) >> 8) % 256) as f32;
        }
        let outs: Vec<ImageF32> =
            ResizeFilter::all().iter().map(|f| resize(&img, 17, 17, *f)).collect();
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                let diff: f32 =
                    outs[i].data.iter().zip(outs[j].data.iter()).map(|(a, b)| (a - b).abs()).sum();
                assert!(diff > 1.0, "filters {i} and {j} indistinguishable");
            }
        }
    }
}
