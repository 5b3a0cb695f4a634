//! Recipient-side reconstruction — paper §3.3.
//!
//! Two regimes:
//!
//! * **Unprocessed** ([`crate::recombine_coeffs`]): the public part
//!   comes back byte-identical, so Eq. 1 recombines quantized
//!   coefficients exactly and the result is bit-exact relative to the
//!   sender's original coefficients.
//! * **Processed**: the PSP applied some transform `A` to the public
//!   part. By Eq. 2, `A·y = A·xp + A·(xs + corr)`: push the
//!   secret+correction image, a *signed fractional delta*, through the
//!   same linear `A` locally, and add. The inverse DCT, the chroma
//!   upsample and `A` are all linear and separable, so per axis they
//!   multiply out into one table from a block's frequency to the output
//!   grid, and `A·(xs + corr)` is evaluated **per nonzero secret
//!   coefficient**, straight into output-resolution planes in the
//!   secret's component space: no sample plane at the secret's
//!   resolution is ever decoded, and a view costs what its size and the
//!   secret's nonzeros cost.
//!
//! The processed regime has two tails:
//!
//! * [`reconstruct_view`], the proxy's, never leaves YCbCr. The served
//!   rung is decoded to its component planes at their own sampling, each
//!   plane gets its component's delta at that sampling — for a 4:2:0
//!   chroma plane the taps end in a box-down to the served grid, the
//!   average the PSP's own 4:2:0 encode takes, after any unsharp, as the
//!   PSP sharpens before it encodes — and the planes are encoded again
//!   at the served frame's sampling. No chroma is upsampled and no pixel
//!   converted to RGB; a sample is rounded once.
//! * [`reconstruct_processed`] adds to RGB pixels: the 3×3 YCbCr→RGB
//!   matrix commutes with any per-channel spatial `A`, so it is applied
//!   once per *output* pixel, fused with the add.

use std::cell::RefCell;
use std::sync::Arc;

use p3_jpeg::block::{Block, CoeffImage, ComponentCoeffs};
use p3_jpeg::color::Plane;
use p3_jpeg::dct::basis;
use p3_jpeg::decoder::{coeffs_to_planes_into, decode_to_coeffs_into};
use p3_jpeg::encoder::{encode_coeffs, planes_to_coeffs_into};
use p3_jpeg::image::RgbImage;
use p3_jpeg::Mode;
use p3_vision::image::{round_to_u8, ImageF32};
use p3_vision::resize::{apply_separable, sharpen_into, AxisTaps, ResizeFilter, TapCache};

use crate::transform::TransformSpec;
use crate::{P3Error, Result};

/// What [`transformed_delta`] works in: eight output-wide frequency rows
/// of one block row (also the box-down's intermediate rows after an
/// unsharp), the projected plane and blurred-row ring of the unsharp, and
/// the transformed delta per component. All of it is at output
/// resolution: nothing here grows with the secret's size.
#[derive(Default)]
struct DeltaScratch {
    rows: Vec<f32>,
    stage: ImageF32,
    ring: Vec<f32>,
    delta: Vec<ImageF32>,
}

impl DeltaScratch {
    fn bytes(&self) -> usize {
        let delta: usize = self.delta.iter().map(|d| d.data.capacity()).sum();
        4 * (self.rows.capacity() + self.stage.data.capacity() + self.ring.capacity() + delta)
    }
}

/// Per-thread scratch of both tails, reused from view to view so the hot
/// path faults no fresh pages: the delta's planes, and the frames of a
/// [`reconstruct_view`] — the served rung's coefficients and component
/// planes, the secret part's coefficients, the re-encoded view's
/// coefficients.
#[derive(Default)]
struct Scratch {
    work: DeltaScratch,
    served: CoeffImage,
    planes: Vec<Plane>,
    secret: CoeffImage,
    out: CoeffImage,
}

/// Bytes (4 MiB) above which a thread releases its scratch after the
/// view instead of keeping it: one huge photo must not pin its planes
/// to a worker thread for good.
const SCRATCH_KEPT: usize = 4 << 20;

impl Scratch {
    fn bytes(&self) -> usize {
        let frames = [&self.served, &self.secret, &self.out];
        let blocks: usize =
            frames.iter().flat_map(|f| &f.components).map(|c| c.blocks.capacity()).sum();
        let planes: usize = self.planes.iter().map(|p| p.data.capacity()).sum();
        self.work.bytes() + std::mem::size_of::<Block>() * blocks + planes
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run `view` on this thread's scratch, then release the scratch if the
/// view left it above [`SCRATCH_KEPT`].
fn with_scratch<R>(view: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        let out = view(scratch);
        if scratch.bytes() > SCRATCH_KEPT {
            *scratch = Scratch::default();
        }
        out
    })
}

/// One axis of a component's delta: `samp` samples (in blocks of eight)
/// along an axis of `full` pixels, then chroma upsample, crop, resize and
/// box-down by `down`.
#[derive(Clone, Copy, PartialEq)]
struct AxisKey {
    samp: usize,
    full: usize,
    crop: Option<(usize, usize)>,
    resize: Option<(usize, ResizeFilter)>,
    down: usize,
}

/// The last few [`spread`]s: a view's four (luma and chroma, two axes)
/// are the same for every photo of one size viewed at one rung, and a
/// size's three rungs fit. Bounded by count: one for an axis of 8 192
/// samples is about a megabyte at most.
static SPREADS: TapCache<AxisKey> = TapCache::new(16);

/// One axis of `box · A ∘ upsample ∘ IDCT`, source-major: the exact
/// matrix product of the 8-point inverse DCT basis of each block and the
/// chroma upsample, crop, resize and box-down taps, transposed so that
/// output `8·b + u` lists what frequency `u` of block `b` adds to each
/// target position. No sample plane exists at any stage.
fn spread(key: AxisKey) -> Arc<AxisTaps> {
    SPREADS.get_or_build(key, || {
        let AxisKey { samp, full, crop, resize, down } = key;
        // The sample-domain stages first, so the basis, eight taps a
        // sample, multiplies in once instead of widening every stage.
        let mut len = full;
        let mut taps = if samp != full {
            AxisTaps::bilinear(samp, full)
        } else {
            AxisTaps::window(samp, 0, samp)
        };
        if let Some((start, want)) = crop {
            let window = AxisTaps::window(len, start, want);
            len = window.dst_len();
            taps = taps.then(&window);
        }
        if let Some((dst, filter)) = resize {
            taps = taps.then(&AxisTaps::resize(len, dst, filter));
            len = dst;
        }
        if down > 1 {
            taps = taps.then(&AxisTaps::box_down(len, down));
        }
        let b = basis();
        let idct = AxisTaps::from_fn(samp.div_ceil(8) * 8, samp, |x| {
            (0..8).map(move |u| (x / 8 * 8 + u, b[u][x % 8]))
        });
        idct.then(&taps).transpose()
    })
}

/// `yt ⊗ xt` of one component of the secret + correction image — `xs +
/// (Ss − Ss²)·w`, i.e. `−2T` on every negative AC coefficient, fused into
/// dequantization — into `out`, with `xt` / `yt` its [`spread`]s. Block
/// row by block row, each nonzero coefficient `(u, v)` of a block is
/// scattered along `xt` into output-wide frequency row `v`, and the span
/// of each frequency row the block row reached is added along `yt` into
/// the output rows: the cost is the secret's nonzeros and the output's
/// size, not the secret's.
fn project(
    comp: &ComponentCoeffs,
    steps: &[u16; 64],
    t: u16,
    (xt, yt): (&AxisTaps, &AxisTaps),
    rows: &mut Vec<f32>,
    out: &mut ImageF32,
) {
    let (w, h) = (xt.src_len(), yt.src_len());
    let correction = -2 * i32::from(t);
    (out.width, out.height) = (w, h);
    out.data.clear();
    out.data.resize(w * h, 0.0);
    rows.clear();
    rows.resize(8 * w, 0.0);
    for by in 0..yt.dst_len() / 8 {
        // Per frequency row, the span this block row wrote.
        let mut reach = [(usize::MAX, 0); 8];
        for bx in 0..xt.dst_len() / 8 {
            let block = comp.block(bx, by);
            let last = if block[1..] == [0; 63] { 1 } else { 64 };
            for (k, &c) in block.iter().enumerate().take(last).filter(|&(_, &c)| c != 0) {
                let c = if k > 0 && c < 0 { c.saturating_add(correction) } else { c };
                let c = c as f32 * f32::from(steps[k]);
                let (index, weight) = xt.taps(bx * 8 + k % 8);
                let (Some(&lo), Some(&hi)) = (index.first(), index.last()) else { continue };
                let row = &mut rows[k / 8 * w..][..w];
                for (&x, &wt) in index.iter().zip(weight) {
                    row[x as usize] += c * wt;
                }
                let span = &mut reach[k / 8];
                *span = (span.0.min(lo as usize), span.1.max(hi as usize + 1));
            }
        }
        for (v, &span) in reach.iter().enumerate().filter(|(_, &(lo, hi))| lo < hi) {
            add_row(&mut rows[v * w..][..w], yt.taps(by * 8 + v), span, &mut out.data);
        }
    }
}

/// Add `row[lo..hi]` into the rows of `out` (as wide as `row`) that
/// `(index, weight)` name, by those weights, and clear it.
fn add_row(
    row: &mut [f32],
    (index, weight): (&[u32], &[f32]),
    (lo, hi): (usize, usize),
    out: &mut [f32],
) {
    let w = row.len();
    let row = &mut row[lo..hi];
    for (&y, &wt) in index.iter().zip(weight) {
        for (o, &r) in out[y as usize * w..][lo..hi].iter_mut().zip(&*row) {
            *o += wt * r;
        }
    }
    row.fill(0.0);
}

/// `A·(xs + corr)` per component into `scratch.delta`, still in the
/// secret's component space (Y, or Y/Cb/Cr): component `i` at output
/// resolution box-averaged by `down[i]` — `(1, 1)` is the output grid
/// itself, a 4:2:0 chroma plane's `(2, 2)` the grid the PSP's encode
/// downsamples its chroma to.
fn transformed_delta(
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
    down: &[(usize, usize)],
    scratch: &mut DeltaScratch,
) -> Result<()> {
    let (w, h) = (secret.width, secret.height);
    let (h_max, v_max) = (usize::from(secret.h_max()), usize::from(secret.v_max()));
    let (cw, ch) = TransformSpec { resize_to: None, ..*transform }.output_dims(w, h);
    // Like `resize`, the stage is a no-op as a whole or runs on both axes.
    let resize = transform.resize_to.filter(|&dims| dims != (cw, ch));
    let (filter, crop) = (transform.filter, transform.crop);
    let (sigma, amount) = transform.sharpen;
    debug_assert_eq!(down.len(), secret.components.len(), "one target grid per component");
    scratch.delta.resize_with(down.len(), || ImageF32::new(0, 0));
    let axis = |samp, full, crop, resize: Option<usize>, down| {
        spread(AxisKey { samp, full, crop, resize: resize.map(|n| (n, filter)), down })
    };
    for ((comp, delta), &down) in secret.components.iter().zip(&mut scratch.delta).zip(down) {
        let samp = (
            (w * usize::from(comp.h_samp)).div_ceil(h_max),
            (h * usize::from(comp.v_samp)).div_ceil(v_max),
        );
        let (bw, bh) = (samp.0.div_ceil(8), samp.1.div_ceil(8));
        if bw > comp.padded_w || bh > comp.padded_h {
            return Err(P3Error::Mismatch(format!(
                "component {} needs {bw}x{bh} blocks but carries {}x{}",
                comp.id, comp.padded_w, comp.padded_h
            )));
        }
        // The unsharp runs at output resolution, so a box-down it
        // precedes cannot fold into the spreads.
        let (folded, after) = if amount == 0.0 { (down, (1, 1)) } else { ((1, 1), down) };
        let xt = axis(samp.0, w, crop.map(|(x, _, cw, _)| (x, cw)), resize.map(|r| r.0), folded.0);
        let yt = axis(samp.1, h, crop.map(|(_, y, _, ch)| (y, ch)), resize.map(|r| r.1), folded.1);
        let steps = &secret.qtables[comp.quant_idx].table;
        let DeltaScratch { rows, stage, ring, .. } = scratch;
        if amount == 0.0 {
            project(comp, steps, t, (&xt, &yt), rows, delta);
            continue;
        }
        project(comp, steps, t, (&xt, &yt), rows, stage);
        sharpen_into(stage, sigma, amount, ring, delta);
        if after != (1, 1) {
            let bx = AxisTaps::box_down(delta.width, after.0);
            let by = AxisTaps::box_down(delta.height, after.1);
            apply_separable(&delta.data, delta.width, &bx, &by, rows, stage);
            std::mem::swap(stage, delta);
        }
    }
    Ok(())
}

/// Reconstruct an image whose public part was processed by `transform`
/// (paper Eq. 2), in RGB pixels.
///
/// * `processed_public` — the RGB pixels downloaded from the PSP
///   (already `A·xp`).
/// * `secret` — the decoded secret part at **original** resolution.
/// * `t` — the split threshold from the secret container.
/// * `transform` — the known or reverse-engineered pipeline `A`.
pub fn reconstruct_processed(
    processed_public: &RgbImage,
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
) -> Result<RgbImage> {
    let (ew, eh) = transform.output_dims(secret.width, secret.height);
    if (processed_public.width, processed_public.height) != (ew, eh) {
        return Err(P3Error::Mismatch(format!(
            "transform yields {ew}x{eh} but public part is {}x{}",
            processed_public.width, processed_public.height
        )));
    }
    secret.validate()?;
    let down: &[(usize, usize)] = match secret.components.len() {
        1 => &[(1, 1)],
        3 => &[(1, 1); 3],
        n => return Err(P3Error::Mismatch(format!("{n}-component secret part"))),
    };
    with_scratch(|Scratch { work, .. }| {
        transformed_delta(secret, t, transform, down, work)
            .map(|()| add_delta(processed_public, &work.delta))
    })
}

/// The fused tail of Eq. 2, once per output pixel: `clamp(round(public +
/// M·(dY, dCb, dCr)))` with `M` the linear part of the JFIF YCbCr→RGB
/// map (offsets cancel in deltas; a 1-component secret adds its luma
/// delta to all three channels).
fn add_delta(public: &RgbImage, delta: &[ImageF32]) -> RgbImage {
    let mut out = RgbImage::new(public.width, public.height);
    let dy = &delta[0].data;
    let (dcb, dcr) = if delta.len() == 3 { (&delta[1].data, &delta[2].data) } else { (dy, dy) };
    let gray = delta.len() == 1;
    let pixels = out.data.chunks_exact_mut(3).zip(public.data.chunks_exact(3));
    for ((o, p), ((&y, &cb), &cr)) in pixels.zip(dy.iter().zip(dcb).zip(dcr)) {
        let d = if gray {
            [y, y, y]
        } else {
            [y + 1.402 * cr, y - 0.344_136_3 * cb - 0.714_136_3 * cr, y + 1.772 * cb]
        };
        for c in 0..3 {
            o[c] = round_to_u8(f32::from(p[c]) + d[c]);
        }
    }
    out
}

/// Eq. 2 on a served rung's own component planes, in place: `planes`
/// are the decoded planes of the frame `served` (whose size and sampling
/// factors are all this reads of it), and each gets its component's
/// `A·(xs + corr)` at its own sampling, rounded once. A gray secret
/// under a colour rung adds to Y alone — what adding its delta to R, G
/// and B alike is in YCbCr.
fn add_delta_planes(
    served: &CoeffImage,
    planes: &mut [Plane],
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
    scratch: &mut DeltaScratch,
) -> Result<()> {
    let (ew, eh) = transform.output_dims(secret.width, secret.height);
    if (served.width, served.height) != (ew, eh) {
        return Err(P3Error::Mismatch(format!(
            "transform yields {ew}x{eh} but the served rung is {}x{}",
            served.width, served.height
        )));
    }
    secret.validate()?;
    let (n, served_n) = (secret.components.len(), served.components.len());
    if !matches!((n, served_n), (1 | 3, 3) | (1, 1)) || planes.len() != served_n {
        return Err(P3Error::Mismatch(format!(
            "{n}-component secret part under a {served_n}-component rung of {} planes",
            planes.len()
        )));
    }
    let (h_max, v_max) = (served.h_max(), served.v_max());
    let mut down = [(1, 1); 3];
    for ((comp, plane), down) in served.components.iter().zip(&*planes).zip(&mut down) {
        let grid = (h_max % comp.h_samp == 0 && v_max % comp.v_samp == 0)
            .then(|| (usize::from(h_max / comp.h_samp), usize::from(v_max / comp.v_samp)))
            .filter(|&(fx, fy)| (plane.width, plane.height) == (ew.div_ceil(fx), eh.div_ceil(fy)));
        *down = grid.ok_or_else(|| {
            P3Error::Mismatch(format!(
                "served component {} is {}x{} at {}x{} sampling, no box-down of {ew}x{eh}",
                comp.id, plane.width, plane.height, comp.h_samp, comp.v_samp
            ))
        })?;
    }
    transformed_delta(secret, t, transform, &down[..n], scratch)?;
    for (plane, delta) in planes.iter_mut().zip(&scratch.delta) {
        for (p, &d) in plane.data.iter_mut().zip(&delta.data) {
            *p = round_to_u8(f32::from(*p) + d);
        }
    }
    Ok(())
}

/// The proxy's view of a processed photo (paper Eq. 2, §4.1), in YCbCr
/// planes from end to end: the served rung `served_jpeg` is decoded to
/// its component planes at their own sampling, each plane gets its
/// component's `A·(xs + corr)` — `A` being `estimate` of the rung's
/// dimensions — and the planes are encoded again at the rung's sampling
/// factors and `quality` as an optimized baseline JPEG. `secret_jpeg`
/// and `t` are the secret container's part and threshold.
///
/// A served rung that does not decode is [`P3Error::Served`], apart from
/// a secret part that does not ([`P3Error::Jpeg`]). A rung the secret's
/// delta has no place in — fewer components than the secret, a plane no
/// box-down of `A`'s output grid gives — and a non-linear `A` are
/// [`P3Error::Mismatch`].
pub fn reconstruct_view(
    served_jpeg: &[u8],
    secret_jpeg: &[u8],
    t: u16,
    estimate: impl FnOnce((usize, usize)) -> TransformSpec,
    quality: u8,
) -> Result<Vec<u8>> {
    with_scratch(|scratch| {
        let Scratch { work, served, planes, secret, out } = scratch;
        decode_to_coeffs_into(served_jpeg, served)
            .and_then(|_| coeffs_to_planes_into(served, planes))
            .map_err(P3Error::Served)?;
        let transform = estimate((served.width, served.height));
        decode_to_coeffs_into(secret_jpeg, secret)?;
        add_delta_planes(served, planes, secret, t, &transform, work)?;
        let mut sampling = [(1, 1); 3];
        for (s, c) in sampling.iter_mut().zip(&served.components) {
            *s = (c.h_samp, c.v_samp);
        }
        let frame = (served.width, served.height);
        planes_to_coeffs_into(planes, frame, &sampling[..planes.len()], quality, out)?;
        Ok(encode_coeffs(out, Mode::BaselineOptimized, 0)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_coeffs;
    use p3_jpeg::encoder::{gray_to_coeffs, pixels_to_coeffs, Subsampling};
    use p3_vision::metrics::psnr;
    use proptest::prelude::*;

    /// The dense evaluation of [`transformed_delta`] the projection
    /// replaced, kept as its oracle: every block inverse-transformed into
    /// a zero-filled plane at the component's native resolution, the
    /// plane resampled by the composed taps, then the unsharp and the
    /// box-down after it. The textbook `f32` IDCT stands in for the AAN
    /// one it ran on, which had no other caller and is gone.
    mod dense {
        use super::super::*;
        use p3_jpeg::dct::reference::idct8x8;

        fn decode_delta(
            comp: &ComponentCoeffs,
            steps: &[u16; 64],
            t: u16,
            (samp_w, samp_h): (usize, usize),
            plane: &mut Vec<f32>,
        ) -> Result<usize> {
            let (bw, bh) = (samp_w.div_ceil(8), samp_h.div_ceil(8));
            if bw > comp.padded_w || bh > comp.padded_h {
                return Err(P3Error::Mismatch(format!(
                    "component {} needs {bw}x{bh} blocks but carries {}x{}",
                    comp.id, comp.padded_w, comp.padded_h
                )));
            }
            let correction = -2 * i32::from(t);
            let stride = bw * 8;
            plane.clear();
            plane.resize(stride * bh * 8, 0.0);
            for by in 0..bh {
                let band = &mut plane[by * 8 * stride..(by + 1) * 8 * stride];
                for bx in 0..bw {
                    let block = comp.block(bx, by);
                    let mut coeffs = [0f32; 64];
                    coeffs[0] = block[0] as f32 * f32::from(steps[0]);
                    for k in 1..64 {
                        let c = block[k].saturating_add(if block[k] < 0 { correction } else { 0 });
                        coeffs[k] = c as f32 * f32::from(steps[k]);
                    }
                    let px = idct8x8(&coeffs);
                    for (row, px) in band.chunks_exact_mut(stride).zip(px.chunks_exact(8)) {
                        row[bx * 8..bx * 8 + 8].copy_from_slice(px);
                    }
                }
            }
            Ok(stride)
        }

        fn axis_taps(
            samp: usize,
            full: usize,
            crop: Option<(usize, usize)>,
            resize: Option<(usize, ResizeFilter)>,
            down: usize,
        ) -> Arc<AxisTaps> {
            let mut len = full;
            let mut stages: Vec<Arc<AxisTaps>> = Vec::with_capacity(4);
            if samp != full {
                stages.push(Arc::new(AxisTaps::bilinear(samp, full)));
            }
            if let Some((start, want)) = crop {
                let window = AxisTaps::window(len, start, want);
                len = window.dst_len();
                stages.push(Arc::new(window));
            }
            if let Some((dst, filter)) = resize {
                stages.push(AxisTaps::resize(len, dst, filter));
                len = dst;
            }
            if down > 1 {
                stages.push(Arc::new(AxisTaps::box_down(len, down)));
            }
            stages
                .into_iter()
                .reduce(|inner, outer| Arc::new(inner.then(&outer)))
                .unwrap_or_else(|| Arc::new(AxisTaps::window(full, 0, full)))
        }

        pub fn transformed_delta(
            secret: &CoeffImage,
            t: u16,
            transform: &TransformSpec,
            down: &[(usize, usize)],
        ) -> Result<Vec<ImageF32>> {
            let (w, h) = (secret.width, secret.height);
            let (h_max, v_max) = (usize::from(secret.h_max()), usize::from(secret.v_max()));
            let (cw, ch) = TransformSpec { resize_to: None, ..*transform }.output_dims(w, h);
            let resize = transform.resize_to.filter(|&dims| dims != (cw, ch));
            let (filter, crop) = (transform.filter, transform.crop);
            let (sigma, amount) = transform.sharpen;
            let (mut plane, mut rows, mut stage, mut out) =
                (Vec::new(), Vec::new(), ImageF32::default(), Vec::new());
            for (comp, &down) in secret.components.iter().zip(down) {
                let samp = (
                    (w * usize::from(comp.h_samp)).div_ceil(h_max),
                    (h * usize::from(comp.v_samp)).div_ceil(v_max),
                );
                let steps = &secret.qtables[comp.quant_idx].table;
                let stride = decode_delta(comp, steps, t, samp, &mut plane)?;
                let (folded, after) = if amount == 0.0 { (down, (1, 1)) } else { ((1, 1), down) };
                let x = axis_taps(
                    samp.0,
                    w,
                    crop.map(|(x, _, cw, _)| (x, cw)),
                    resize.map(|(rw, _)| (rw, filter)),
                    folded.0,
                );
                let y = axis_taps(
                    samp.1,
                    h,
                    crop.map(|(_, y, _, ch)| (y, ch)),
                    resize.map(|(_, rh)| (rh, filter)),
                    folded.1,
                );
                let mut delta = ImageF32::default();
                if amount == 0.0 {
                    apply_separable(&plane, stride, &x, &y, &mut rows, &mut delta);
                    out.push(delta);
                    continue;
                }
                apply_separable(&plane, stride, &x, &y, &mut rows, &mut stage);
                sharpen_into(&stage, sigma, amount, &mut Vec::new(), &mut delta);
                if after != (1, 1) {
                    let bx = AxisTaps::box_down(delta.width, after.0);
                    let by = AxisTaps::box_down(delta.height, after.1);
                    apply_separable(&delta.data, delta.width, &bx, &by, &mut rows, &mut stage);
                    std::mem::swap(&mut stage, &mut delta);
                }
                out.push(delta);
            }
            Ok(out)
        }
    }

    /// A coefficient image of `w`×`h` at `layout` (gray, 4:4:4, 4:2:2,
    /// 4:2:0): the secret part of a test card split at `t`, or — `whole`
    /// — the card's own coefficients, whose AC magnitudes no secret part
    /// carries.
    fn secret_of(w: usize, h: usize, layout: usize, t: u16, whole: bool) -> CoeffImage {
        let img = test_image(w, h);
        let ci = match layout {
            0 => gray_to_coeffs(&crate::pixel::image_to_gray(&crate::pixel::rgb_to_luma(&img)), 90),
            1 => pixels_to_coeffs(&img, 90, Subsampling::S444),
            2 => pixels_to_coeffs(&img, 90, Subsampling::S422),
            _ => pixels_to_coeffs(&img, 90, Subsampling::S420),
        }
        .unwrap();
        if whole {
            ci
        } else {
            split_coeffs(&ci, t).unwrap().1
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The projection evaluates the operator the dense path did, to
        /// within `f32` rounding, on every kind of `A` a view meets.
        #[test]
        fn projection_matches_the_dense_delta(
            (w, h) in (1usize..=70, 1usize..=60), layout in 0usize..4, whole in any::<bool>(),
            t in 1u16..=20, scale in (1usize..=90, 1usize..=90), filter in 0usize..6,
            cropped in any::<bool>(), crop in (0usize..=40, 0usize..=40, 1usize..=60, 1usize..=60),
            resized in any::<bool>(), sharpened in any::<bool>(), boxed in 0usize..4,
        ) {
            let secret = secret_of(w, h, layout, t, whole);
            let transform = TransformSpec {
                crop: cropped.then_some(crop),
                resize_to: resized.then(|| ((w * scale.0).div_ceil(40), (h * scale.1).div_ceil(40))),
                filter: ResizeFilter::all()[filter],
                sharpen: if sharpened { (0.8, 0.5) } else { (1.0, 0.0) },
            };
            let grid = [(1, 1), (2, 1), (1, 2), (2, 2)][boxed];
            let down: Vec<_> = (0..secret.components.len())
                .map(|i| if i == 0 { (1, 1) } else { grid })
                .collect();
            let mut scratch = DeltaScratch::default();
            transformed_delta(&secret, t, &transform, &down, &mut scratch).unwrap();
            let want = dense::transformed_delta(&secret, t, &transform, &down).unwrap();
            for (i, (got, want)) in scratch.delta.iter().zip(&want).enumerate() {
                prop_assert_eq!((got.width, got.height), (want.width, want.height));
                let worst = got.data.iter().zip(&want.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
                prop_assert!(worst <= 1e-3, "component {}: {} apart, {:?}", i, worst, transform);
            }
        }
    }

    #[test]
    fn a_thumb_of_a_big_secret_keeps_no_original_sized_plane() {
        // A 1600×1200 gray secret with AC in every fourth block: the
        // projection's scratch is the thumb's size, not the secret's.
        let (w, h) = (1600, 1200);
        let mut secret = gray_to_coeffs(&Plane::new(w, h), 90).unwrap();
        secret.for_each_block_mut(|_, b| *b = [0; 64]);
        for (i, b) in secret.components[0].blocks.iter_mut().enumerate() {
            b[0] = (i % 7) as i32 - 3;
            if i % 4 == 0 {
                b[9] = -2;
            }
        }
        let thumb = TransformSpec::resize(75, 56, ResizeFilter::Lanczos3);
        let mut scratch = DeltaScratch::default();
        transformed_delta(&secret, 10, &thumb, &[(1, 1)], &mut scratch).unwrap();
        // Under four thumb-sized planes: not a hundredth of one of the
        // secret's.
        let (bytes, plane) = (scratch.bytes(), 4 * w * h);
        assert!(
            bytes < 4 * 75 * 56 * 4,
            "a 75x56 view grew {bytes} B of scratch (plane {plane} B)"
        );
    }

    fn test_image(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = (128.0 + 90.0 * ((x as f32) * 0.11).sin()) as u8;
                let g = (128.0 + 90.0 * ((y as f32) * 0.13).cos()) as u8;
                let b = ((x * 2 + y * 3) % 256) as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    fn luma_psnr(a: &RgbImage, b: &RgbImage) -> f64 {
        psnr(&crate::pixel::rgb_to_luma(a), &crate::pixel::rgb_to_luma(b))
    }

    #[test]
    fn identity_reconstruction_matches_plain_decode() {
        let img = test_image(64, 48);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        // Public as pixels (what an identity-PSP would serve, pre-re-encode).
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let rec =
            reconstruct_processed(&public_rgb, &secret, 10, &TransformSpec::identity()).unwrap();
        let direct = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let p = luma_psnr(&rec, &direct);
        assert!(p > 40.0, "identity pixel reconstruction PSNR {p:.1} dB");
    }

    #[test]
    fn resize_reconstruction_beats_public_alone() {
        let img = test_image(128, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec::resize(64, 48, ResizeFilter::Triangle);

        // PSP side: decode public, resize, serve.
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let served_rgb = t.apply_rgb(&public_rgb);

        // Reference: the original, resized by the same pipeline.
        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let reference = t.apply_rgb(&orig_rgb);

        let rec = reconstruct_processed(&served_rgb, &secret, 10, &t).unwrap();
        let rec_psnr = luma_psnr(&rec, &reference);
        let pub_psnr = luma_psnr(&served_rgb, &reference);
        assert!(rec_psnr > 35.0, "reconstruction {rec_psnr:.1} dB too low");
        assert!(rec_psnr > pub_psnr + 10.0, "rec {rec_psnr:.1} vs public {pub_psnr:.1}");
    }

    #[test]
    fn crop_reconstruction() {
        let img = test_image(96, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 15).unwrap();
        let t = TransformSpec { crop: Some((16, 24, 48, 40)), ..TransformSpec::default() };

        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let served_rgb = t.apply_rgb(&public_rgb);

        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let reference = t.apply_rgb(&orig_rgb);

        let rec = reconstruct_processed(&served_rgb, &secret, 15, &t).unwrap();
        let p = luma_psnr(&rec, &reference);
        assert!(p > 38.0, "crop reconstruction PSNR {p:.1}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let img = test_image(32, 32);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (_, secret, _) = split_coeffs(&ci, 10).unwrap();
        let wrong = RgbImage::new(10, 10);
        assert!(reconstruct_processed(&wrong, &secret, 10, &TransformSpec::identity()).is_err());
    }

    #[test]
    fn all_zero_secret_adds_nothing() {
        // The delta of a real secret part carries the DC, so it is not
        // zero-mean; but an all-zero secret must leave the public part
        // exactly as served, whatever `A` is — in RGB pixels, and in the
        // served rung's planes, box-down and unsharp included.
        let ci = pixels_to_coeffs(&test_image(48, 32), 90, Subsampling::S420).unwrap();
        let mut zero = ci.clone();
        zero.for_each_block_mut(|_, b| *b = [0; 64]);
        let t = TransformSpec::resize(20, 14, ResizeFilter::Lanczos3);
        let served = test_image(20, 14);
        assert_eq!(reconstruct_processed(&served, &zero, 10, &t).unwrap().data, served.data);
        let sharpened = TransformSpec { sharpen: (0.8, 0.5), ..t };
        for t in [t, sharpened] {
            let (frame, mut planes) = rung(&served, Subsampling::S420);
            let before = planes.clone();
            add_delta_planes(&frame, &mut planes, &zero, 10, &t, &mut DeltaScratch::default())
                .unwrap();
            assert_eq!(planes, before, "{t:?}");
        }
    }

    /// `img` as a PSP serves it at `sampling`: its frame and its decoded
    /// component planes.
    fn rung(img: &RgbImage, sampling: Subsampling) -> (CoeffImage, Vec<Plane>) {
        let frame = pixels_to_coeffs(img, 85, sampling).unwrap();
        let mut planes = Vec::new();
        coeffs_to_planes_into(&frame, &mut planes).unwrap();
        (frame, planes)
    }

    #[test]
    fn hostile_rung_geometry_is_a_mismatch_not_a_panic_or_a_skip() {
        let ci = pixels_to_coeffs(&test_image(64, 48), 90, Subsampling::S420).unwrap();
        let (_, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec::resize(32, 24, ResizeFilter::Triangle);
        let served = test_image(32, 24);
        let planar = |frame: &CoeffImage, planes: &mut [Plane], t: &TransformSpec| {
            add_delta_planes(frame, planes, &secret, 10, t, &mut DeltaScratch::default())
        };
        let mismatch = |r: Result<()>| assert!(matches!(r, Err(P3Error::Mismatch(_))), "{r:?}");

        // A gray rung for a colour photo: the chroma deltas have nowhere
        // to go. So has a rung that lost a plane on the way.
        let gray =
            gray_to_coeffs(&crate::pixel::image_to_gray(&crate::pixel::rgb_to_luma(&served)), 85)
                .unwrap();
        let mut gray_planes = Vec::new();
        coeffs_to_planes_into(&gray, &mut gray_planes).unwrap();
        mismatch(planar(&gray, &mut gray_planes, &t));
        let (frame, mut planes) = rung(&served, Subsampling::S420);
        mismatch(planar(&frame, &mut planes[..2], &t));

        // A plane the composed taps do not reach: full-size chroma under
        // a 4:2:0 frame, and a luma plane a row short.
        let (_, full_chroma) = rung(&served, Subsampling::S444);
        mismatch(planar(&frame, &mut full_chroma.clone(), &t));
        let mut short = planes.clone();
        short[0] = Plane::new(32, 23);
        mismatch(planar(&frame, &mut short, &t));
        // A sampling no box-down gives (luma at 2, chroma at 3).
        let mut odd = frame.clone();
        odd.components[1].h_samp = 3;
        mismatch(planar(&odd, &mut planes.clone(), &t));

        // The same, end to end through the JPEG entry: an error, never a
        // view.
        let gray_jpeg = encode_coeffs(&gray, Mode::BaselineOptimized, 0).unwrap();
        let secret_jpeg = encode_coeffs(&secret, Mode::BaselineOptimized, 0).unwrap();
        let view = reconstruct_view(&gray_jpeg, &secret_jpeg, 10, |_| t, 90);
        assert!(matches!(view, Err(P3Error::Mismatch(_))), "{view:?}");
        let served_jpeg = encode_coeffs(&frame, Mode::BaselineOptimized, 0).unwrap();
        assert!(reconstruct_view(&served_jpeg, &secret_jpeg, 10, |_| t, 90).is_ok());
    }

    #[test]
    fn planar_view_keeps_the_rung_sampling_and_beats_the_public_part() {
        let img = test_image(128, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec {
            sharpen: (0.8, 0.5),
            ..TransformSpec::resize(64, 48, ResizeFilter::Lanczos3)
        };
        // PSP side: decode, transform per RGB channel, serve as 4:2:0.
        let apply = |ci: &CoeffImage| t.apply_rgb(&p3_jpeg::decoder::coeffs_to_rgb(ci).unwrap());
        let reference = apply(&ci);
        let served = pixels_to_coeffs(&apply(&public), 85, Subsampling::S420).unwrap();
        let served_jpeg = encode_coeffs(&served, Mode::Progressive, 0).unwrap();
        let secret_jpeg = encode_coeffs(&secret, Mode::BaselineOptimized, 0).unwrap();
        let view = reconstruct_view(
            &served_jpeg,
            &secret_jpeg,
            10,
            |dims| {
                assert_eq!(dims, (64, 48));
                t
            },
            95,
        )
        .unwrap();
        let (frame, _) = p3_jpeg::decode_to_coeffs(&view).unwrap();
        let sampling: Vec<_> = frame.components.iter().map(|c| (c.h_samp, c.v_samp)).collect();
        assert_eq!(sampling, [(2, 2), (1, 1), (1, 1)]);
        let view = p3_jpeg::decode_to_rgb(&view).unwrap();
        let rec = luma_psnr(&view, &reference);
        let public = luma_psnr(&p3_jpeg::decoder::coeffs_to_rgb(&served).unwrap(), &reference);
        assert!(rec > 30.0 && rec > public + 10.0, "view {rec:.1} dB, public part {public:.1} dB");
    }

    #[test]
    fn a_gray_secret_under_a_colour_rung_adds_to_luma_alone() {
        // A gray upload's public part comes back in colour: the PSP
        // re-encodes every rendition as 4:2:0.
        let gray = crate::pixel::image_to_gray(&crate::pixel::rgb_to_luma(&test_image(48, 40)));
        let ci = gray_to_coeffs(&gray, 90).unwrap();
        let (_, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec::resize(24, 20, ResizeFilter::Triangle);
        let (frame, mut planes) = rung(&test_image(24, 20), Subsampling::S420);
        let before = planes.clone();
        add_delta_planes(&frame, &mut planes, &secret, 10, &t, &mut DeltaScratch::default())
            .unwrap();
        assert_ne!(planes[0], before[0]);
        assert_eq!(planes[1..], before[1..]);
    }

    #[test]
    fn box_down_is_the_chroma_downsample_before_rounding() {
        for (w, h) in [(8, 6), (9, 7), (1, 1), (16, 5)] {
            let mut plane = Plane::new(w, h);
            for (i, v) in plane.data.iter_mut().enumerate() {
                *v = (i * 37 % 251) as u8;
            }
            let samples: Vec<f32> = plane.data.iter().map(|&v| f32::from(v)).collect();
            for (fx, fy) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
                let (xt, yt) = (AxisTaps::box_down(w, fx), AxisTaps::box_down(h, fy));
                let mut out = ImageF32::default();
                apply_separable(&samples, w, &xt, &yt, &mut Vec::new(), &mut out);
                let want = p3_jpeg::color::downsample(&plane, fx, fy);
                assert_eq!(
                    (out.width, out.height),
                    (want.width, want.height),
                    "{w}x{h} / {fx}x{fy}"
                );
                for (&got, &want) in out.data.iter().zip(&want.data) {
                    assert!(
                        (got - f32::from(want)).abs() <= 0.5,
                        "{w}x{h} / {fx}x{fy}: {got} vs {want}"
                    );
                }
            }
        }
        // `then` composes the box-down behind a resize: one table, the
        // two stages in sequence.
        let resize = AxisTaps::resize(37, 19, ResizeFilter::Lanczos3);
        let boxed = AxisTaps::box_down(19, 2);
        let composed = resize.then(&boxed);
        assert_eq!(composed.dst_len(), 10);
        let src: Vec<f32> = (0..37).map(|i| (i * i % 41) as f32).collect();
        let run = |xt: &AxisTaps, src: &[f32]| {
            let mut out = ImageF32::default();
            apply_separable(
                src,
                src.len(),
                xt,
                &AxisTaps::window(1, 0, 1),
                &mut Vec::new(),
                &mut out,
            );
            out.data
        };
        let staged = run(&boxed, &run(&resize, &src));
        for (a, b) in run(&composed, &src).iter().zip(&staged) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn inconsistent_geometry_is_an_error_not_a_panic() {
        let ci = pixels_to_coeffs(&test_image(32, 32), 90, Subsampling::S444).unwrap();
        let (_, mut secret, _) = split_coeffs(&ci, 10).unwrap();
        let public = RgbImage::new(64, 64);
        // Claims 64x64 pixels but carries the blocks of 32x32: passes
        // `validate` (which checks counts, not coverage).
        secret.width = 64;
        secret.height = 64;
        let err = reconstruct_processed(&public, &secret, 10, &TransformSpec::identity());
        assert!(matches!(err, Err(P3Error::Mismatch(_))), "{err:?}");
        // A dangling quant index is `validate`'s to refuse.
        let (_, mut secret, _) = split_coeffs(&ci, 10).unwrap();
        secret.components[0].quant_idx = 9;
        let err =
            reconstruct_processed(&test_image(32, 32), &secret, 10, &TransformSpec::identity());
        assert!(matches!(err, Err(P3Error::Jpeg(_))), "{err:?}");
    }
}
