//! Synthetic natural-image generation.
//!
//! JPEG's effectiveness — and therefore P3's public/secret size split —
//! rests on natural images concentrating their energy in low spatial
//! frequencies. The generators here build scenes whose spectra follow the
//! same power law: multi-octave value noise (≈ 1/f^α), ridged mountain
//! silhouettes, smooth sky gradients, and textured objects with sharp
//! occlusion edges (which populate the high-frequency AC coefficients the
//! way real photographs do).

use p3_jpeg::image::RgbImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic value-noise lattice with smooth interpolation.
#[derive(Debug, Clone)]
struct ValueNoise {
    lattice: Vec<f32>,
    size: usize,
}

impl ValueNoise {
    /// Build a `size × size` random lattice from a seed.
    pub fn new(seed: u64, size: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lattice = (0..size * size).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Self { lattice, size }
    }

    fn at(&self, ix: i64, iy: i64) -> f32 {
        let n = self.size as i64;
        let x = ix.rem_euclid(n) as usize;
        let y = iy.rem_euclid(n) as usize;
        self.lattice[y * self.size + x]
    }

    /// Smoothly interpolated sample at continuous coordinates.
    pub fn sample(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor() as i64;
        let y0 = y.floor() as i64;
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        // Smoothstep weights avoid lattice artifacts.
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let v00 = self.at(x0, y0);
        let v10 = self.at(x0 + 1, y0);
        let v01 = self.at(x0, y0 + 1);
        let v11 = self.at(x0 + 1, y0 + 1);
        v00 * (1.0 - sx) * (1.0 - sy)
            + v10 * sx * (1.0 - sy)
            + v01 * (1.0 - sx) * sy
            + v11 * sx * sy
    }

    /// Fractal (multi-octave) noise with per-octave gain `gain` — the
    /// spectral slope knob. `gain = 0.5` gives roughly 1/f² power.
    fn fbm(&self, x: f32, y: f32, octaves: usize, gain: f32) -> f32 {
        let mut amp = 1.0f32;
        let mut freq = 1.0f32;
        let mut sum = 0.0f32;
        let mut norm = 0.0f32;
        for _ in 0..octaves {
            sum += amp * self.sample(x * freq, y * freq);
            norm += amp;
            amp *= gain;
            freq *= 2.0;
        }
        sum / norm.max(1e-6)
    }
}

/// Scene composition parameters.
#[derive(Debug, Clone)]
pub struct SceneParams {
    /// Number of mountain ridge layers.
    pub ridges: usize,
    /// Number of textured foreground objects.
    pub objects: usize,
    /// Texture contrast (0 = smooth, 1 = busy).
    pub texture: f32,
}

impl Default for SceneParams {
    fn default() -> Self {
        Self { ridges: 2, objects: 4, texture: 0.6 }
    }
}

/// Generate a color "vacation photo": sky gradient, sun, ridge layers,
/// textured ground, and occluding objects.
pub fn scene(seed: u64, width: usize, height: usize, params: &SceneParams) -> RgbImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = ValueNoise::new(seed.wrapping_add(1), 64);
    let detail = ValueNoise::new(seed.wrapping_add(2), 64);

    // Sky palette.
    let sky_top = [
        rng.gen_range(60..120) as f32,
        rng.gen_range(120..170) as f32,
        rng.gen_range(190..255) as f32,
    ];
    let sky_bot = [
        rng.gen_range(170..230) as f32,
        rng.gen_range(190..240) as f32,
        rng.gen_range(220..255) as f32,
    ];
    let sun_x = rng.gen_range(0.1..0.9) * width as f32;
    let sun_y = rng.gen_range(0.05..0.35) * height as f32;
    let sun_r = rng.gen_range(0.03..0.08) * width as f32;

    // Ridge layers: base height + fractal perturbation, darker when closer.
    let mut ridge_height: Vec<Vec<f32>> = Vec::new();
    let mut ridge_color: Vec<[f32; 3]> = Vec::new();
    for r in 0..params.ridges {
        let base = 0.35 + 0.2 * (r as f32 + rng.gen_range(0.0..0.4));
        let rough = rng.gen_range(0.05..0.15);
        let heights: Vec<f32> = (0..width)
            .map(|x| {
                let n = noise.fbm(x as f32 * 0.015 + r as f32 * 37.0, r as f32 * 11.0, 5, 0.55);
                (base + rough * n) * height as f32
            })
            .collect();
        ridge_height.push(heights);
        let shade = 120.0 - r as f32 * 35.0;
        ridge_color.push([
            shade * rng.gen_range(0.6..1.0),
            shade * rng.gen_range(0.7..1.1),
            shade * rng.gen_range(0.6..1.0),
        ]);
    }

    // Ground.
    let ground_y = 0.72 * height as f32;
    let ground_color = [
        rng.gen_range(90..150) as f32,
        rng.gen_range(110..170) as f32,
        rng.gen_range(50..110) as f32,
    ];

    // Objects: textured ellipses and boxes.
    struct Obj {
        cx: f32,
        cy: f32,
        rx: f32,
        ry: f32,
        color: [f32; 3],
        boxy: bool,
    }
    let objects: Vec<Obj> = (0..params.objects)
        .map(|_| Obj {
            cx: rng.gen_range(0.1..0.9) * width as f32,
            cy: rng.gen_range(0.55..0.95) * height as f32,
            rx: rng.gen_range(0.04..0.14) * width as f32,
            ry: rng.gen_range(0.05..0.18) * height as f32,
            color: [
                rng.gen_range(40..230) as f32,
                rng.gen_range(40..230) as f32,
                rng.gen_range(40..230) as f32,
            ],
            boxy: rng.gen_bool(0.4),
        })
        .collect();

    let tex_amp = params.texture * 30.0;
    let mut img = RgbImage::new(width, height);
    for y in 0..height {
        let t = y as f32 / height as f32;
        for x in 0..width {
            let mut px = [
                sky_top[0] * (1.0 - t) + sky_bot[0] * t,
                sky_top[1] * (1.0 - t) + sky_bot[1] * t,
                sky_top[2] * (1.0 - t) + sky_bot[2] * t,
            ];
            // Sun glow.
            let d2 = (x as f32 - sun_x).powi(2) + (y as f32 - sun_y).powi(2);
            let glow = (-d2 / (2.0 * sun_r * sun_r)).exp() * 90.0;
            px[0] += glow;
            px[1] += glow * 0.9;
            px[2] += glow * 0.5;
            // Ridges back-to-front.
            for (heights, color) in ridge_height.iter().zip(ridge_color.iter()) {
                if (y as f32) > heights[x] {
                    let tex = detail.fbm(x as f32 * 0.08, y as f32 * 0.08, 4, 0.5) * tex_amp;
                    px = [color[0] + tex, color[1] + tex, color[2] + tex];
                }
            }
            // Ground with stronger texture.
            if (y as f32) > ground_y {
                let tex =
                    detail.fbm(x as f32 * 0.12 + 91.0, y as f32 * 0.12, 5, 0.55) * tex_amp * 1.5;
                px = [ground_color[0] + tex, ground_color[1] + tex, ground_color[2] + tex];
            }
            // Objects (front-most last).
            for o in &objects {
                let dx = (x as f32 - o.cx) / o.rx;
                let dy = (y as f32 - o.cy) / o.ry;
                let inside =
                    if o.boxy { dx.abs() < 1.0 && dy.abs() < 1.0 } else { dx * dx + dy * dy < 1.0 };
                if inside {
                    let tex =
                        detail.fbm(x as f32 * 0.2 + o.cx, y as f32 * 0.2 + o.cy, 3, 0.5) * tex_amp;
                    // Simple top-left shading.
                    let shade = 1.0 - 0.25 * (dx + dy).clamp(-1.0, 1.0);
                    px = [
                        (o.color[0] + tex) * shade,
                        (o.color[1] + tex) * shade,
                        (o.color[2] + tex) * shade,
                    ];
                }
            }
            img.set(
                x,
                y,
                [
                    px[0].round().clamp(0.0, 255.0) as u8,
                    px[1].round().clamp(0.0, 255.0) as u8,
                    px[2].round().clamp(0.0, 255.0) as u8,
                ],
            );
        }
    }
    img
}

/// A high-detail texture image (the USC-SIPI set mixes scenes with pure
/// texture/pattern images like Mandrill's fur).
pub fn texture_image(seed: u64, width: usize, height: usize) -> RgbImage {
    let noise_r = ValueNoise::new(seed, 64);
    let noise_g = ValueNoise::new(seed.wrapping_add(7), 64);
    let noise_b = ValueNoise::new(seed.wrapping_add(13), 64);
    let mut img = RgbImage::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let fx = x as f32 * 0.05;
            let fy = y as f32 * 0.05;
            let r = (noise_r.fbm(fx, fy, 6, 0.65) * 0.5 + 0.5) * 255.0;
            let g = (noise_g.fbm(fx * 1.3, fy * 0.9, 6, 0.6) * 0.5 + 0.5) * 255.0;
            let b = (noise_b.fbm(fx * 0.8, fy * 1.2, 5, 0.55) * 0.5 + 0.5) * 255.0;
            img.set(
                x,
                y,
                [r.clamp(0.0, 255.0) as u8, g.clamp(0.0, 255.0) as u8, b.clamp(0.0, 255.0) as u8],
            );
        }
    }
    img
}

/// Seeded Zipfian photo-popularity sampler: rank `i` (0-based) is drawn
/// with probability proportional to `1/(i+1)^s`.
///
/// Sharing workloads are heavily skewed — a small set of photos absorbs
/// most views — and the `p3 simulate` harness models that skew with
/// this sampler. Draws come from a precomputed cumulative-weight table
/// and a binary search, so sampling is O(log n) over populations of
/// millions, and the whole sequence is a pure function of
/// `(n, exponent, seed)` for reproducible runs.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative normalized weights; `cdf[i]` = P(rank ≤ i).
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    /// Build a sampler over ranks `0..n` with skew `exponent` (s = 1.0
    /// is the classic Zipf law; 0.0 degenerates to uniform).
    ///
    /// # Panics
    /// If `n == 0` or `exponent` is negative/non-finite.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf population must be non-empty");
        assert!(exponent >= 0.0 && exponent.is_finite(), "bad Zipf exponent {exponent}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let norm = acc;
        for w in &mut cdf {
            *w /= norm;
        }
        Zipf { cdf, rng: StdRng::seed_from_u64(seed) }
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability mass of one rank.
    pub fn weight(&self, rank: usize) -> f64 {
        match rank {
            0 => self.cdf[0],
            _ => self.cdf[rank] - self.cdf[rank - 1],
        }
    }

    /// Draw the next rank.
    pub fn next_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // First index whose cumulative mass exceeds u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_vision::image::ImageF32;

    /// A grayscale fractal-noise field in `[0, 255]`.
    fn noise_field(
        seed: u64,
        width: usize,
        height: usize,
        base_scale: f32,
        octaves: usize,
        gain: f32,
    ) -> ImageF32 {
        let noise = ValueNoise::new(seed, 64);
        let mut img = ImageF32::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let v = noise.fbm(x as f32 * base_scale, y as f32 * base_scale, octaves, gain);
                img.set(x, y, (v * 0.5 + 0.5) * 255.0);
            }
        }
        img
    }

    #[test]
    fn noise_is_deterministic() {
        let a = noise_field(5, 32, 32, 0.1, 4, 0.5);
        let b = noise_field(5, 32, 32, 0.1, 4, 0.5);
        assert_eq!(a.data, b.data);
        let c = noise_field(6, 32, 32, 0.1, 4, 0.5);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn noise_in_range() {
        let img = noise_field(1, 64, 64, 0.07, 5, 0.5);
        for &v in &img.data {
            assert!((0.0..=255.0).contains(&v));
        }
        // Not degenerate.
        let m = img.mean();
        assert!(m > 60.0 && m < 200.0, "mean {m}");
    }

    #[test]
    fn fbm_energy_decays_with_frequency() {
        // High-gain (slow-decay) noise must be rougher than low-gain noise:
        // measure mean absolute pixel-difference (a cheap high-frequency
        // energy proxy).
        let rough = noise_field(9, 64, 64, 0.1, 6, 0.85);
        let smooth = noise_field(9, 64, 64, 0.1, 6, 0.35);
        let hf = |im: &ImageF32| {
            let mut acc = 0.0f32;
            for y in 0..im.height {
                for x in 1..im.width {
                    acc += (im.get(x, y) - im.get(x - 1, y)).abs();
                }
            }
            acc
        };
        assert!(hf(&rough) > hf(&smooth));
    }

    #[test]
    fn scenes_are_deterministic_and_varied() {
        let a = scene(11, 96, 64, &SceneParams::default());
        let b = scene(11, 96, 64, &SceneParams::default());
        assert_eq!(a.data, b.data);
        let c = scene(12, 96, 64, &SceneParams::default());
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn scene_has_sky_and_ground_structure() {
        let img = scene(3, 128, 96, &SceneParams::default());
        // Sky (top rows) should be bluer than ground (bottom rows) on
        // average.
        let mean_b_top: f64 = (0..128).map(|x| f64::from(img.get(x, 2)[2])).sum::<f64>() / 128.0;
        let mean_b_bot: f64 = (0..128).map(|x| f64::from(img.get(x, 93)[2])).sum::<f64>() / 128.0;
        assert!(mean_b_top > mean_b_bot, "top B {mean_b_top} vs bottom B {mean_b_bot}");
    }

    #[test]
    fn texture_has_high_frequency_content() {
        let img = texture_image(4, 64, 64);
        let mut diffs = 0u64;
        for y in 0..64 {
            for x in 1..64 {
                let a = img.get(x, y)[0] as i64;
                let b = img.get(x - 1, y)[0] as i64;
                diffs += (a - b).unsigned_abs();
            }
        }
        assert!(diffs / (64 * 63) >= 2, "texture too flat");
    }
}
