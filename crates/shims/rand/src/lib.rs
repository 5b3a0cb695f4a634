//! Offline stand-in for the crates.io `rand` crate.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace vendors the *subset* of the `rand 0.8` API it actually uses:
//! [`RngCore`], [`Rng::gen_range`] / [`Rng::gen_bool`],
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and [`thread_rng`].
//!
//! [`rngs::StdRng`] is SplitMix64 — deterministic and not cryptographic,
//! but statistically solid for the synthetic datasets and randomized
//! attacks in this repo. [`thread_rng`] is different: call sites use it for
//! key material and AES nonces, so it draws from the OS CSPRNG
//! (`/dev/urandom`) directly rather than any in-process stream.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

/// Types that can be sampled uniformly from a range by the shim.
pub trait SampleUniform: Sized {
    /// Sample uniformly from `[low, high)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Sample uniformly from `[low, high]`. Panics if `low > high`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range {low}..{high}");
                let span = (high as i128 - low as i128) as u128;
                (low as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range {low}..={high}");
                let span = (high as i128 - low as i128) as u128 + 1;
                (low as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range {low}..{high}");
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                low + ((high - low) as f64 * unit) as $t
            }
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                Self::sample_range(rng, low, high)
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`], mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw one sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// High-level sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`a..b` or `a..=b`).
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Deterministic construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // One warm-up scramble so nearby seeds diverge immediately.
            let mut state = seed;
            let _ = splitmix64(&mut state);
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }

    /// Non-deterministic generator returned by [`crate::thread_rng`].
    ///
    /// Draws directly from the OS CSPRNG (`/dev/urandom`), because call
    /// sites use this for key material and AES nonces. There is
    /// deliberately no in-process fallback: on a platform without the
    /// device this panics rather than silently degrading to guessable
    /// entropy (which would risk nonce reuse and key recovery).
    #[derive(Debug)]
    pub struct ThreadRng {
        urandom: std::fs::File,
    }

    impl ThreadRng {
        pub(crate) fn new() -> Self {
            let urandom = std::fs::File::open("/dev/urandom")
                .expect("rand shim: /dev/urandom unavailable; refusing to hand out weak randomness for key material");
            ThreadRng { urandom }
        }
    }

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            use std::io::Read;
            let mut buf = [0u8; 8];
            self.urandom.read_exact(&mut buf).expect("rand shim: short read from /dev/urandom");
            u64::from_le_bytes(buf)
        }
    }
}

/// A generator backed by the OS CSPRNG (see [`rngs::ThreadRng`]).
///
/// Unlike the real `rand`, this returns an owned generator rather than a
/// handle to thread-local state; call sites in this workspace only ever use
/// it as a temporary (`rand::thread_rng().fill_bytes(..)`), so the
/// difference is unobservable.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng::new()
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&f));
            let i: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    /// `seed_from_u64` seeds every dataset corpus and every chaos plan,
    /// so its stream is pinned: a change here re-rolls all of them.
    #[test]
    fn seeded_stream_is_pinned() {
        let golden: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0x6e78_9e6a_a1b9_65f4,
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                    0x1b39_896a_51a8_749b,
                    0x53cb_9f0c_747e_a2ea,
                    0x2c82_9abe_1f45_32e1,
                    0xc584_133a_c916_ab3c,
                    0x3ee5_7890_41c9_8ac3,
                ],
            ),
            (
                42,
                [
                    0x28ef_e333_b266_f103,
                    0x4752_6757_130f_9f52,
                    0x581c_e1ff_0e4a_e394,
                    0x09bc_585a_2448_23f2,
                    0xde44_31fa_3c80_db06,
                    0x37e9_671c_4537_6d5d,
                    0xccf6_35ee_9e9e_2fa4,
                    0x5705_b877_0b3d_7dd5,
                ],
            ),
            (
                u64::MAX,
                [
                    0xe99f_f867_dbf6_82c9,
                    0x382f_f84c_b272_81e9,
                    0x6d1d_b36c_cba9_82d2,
                    0xb4a0_472e_5780_69ae,
                    0xd31d_adbd_a438_bb33,
                    0xf14f_2cf8_0208_3fa5,
                    0x405d_a438_a39e_8064,
                    0xc4fe_a708_156e_0c84,
                ],
            ),
        ];
        for (seed, words) in golden {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(words.map(|_| rng.next_u64()), words, "seed {seed}");
        }
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<u32> = (0..16).map(|_| rng.gen_range(0..1000)).collect();
        assert_eq!(
            draws,
            [804, 346, 203, 674, 305, 798, 182, 985, 425, 83, 516, 990, 344, 190, 680, 327]
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_eq!(buf, [248, 54, 151, 147, 77, 49, 151, 192, 71, 193, 107, 16, 240]);
    }

    #[test]
    fn thread_rng_instances_diverge() {
        let a = super::thread_rng().next_u64();
        let b = super::thread_rng().next_u64();
        assert_ne!(a, b);
    }
}
