//! The seed's photo corpus and the correctness oracle for views.
//!
//! The oracle never sees a split photo: a second `PspCore` is fed each
//! *unsplit* original, and what it serves per (photo, size) is the
//! reference a reconstructed view is held against.

use crate::gen::Rng;
use p3_datasets::synth::{scene, SceneParams};
use p3_jpeg::RgbImage;
use p3_psp::{PspCore, PspProfile, SizeRequest};

pub const SCENES: usize = 64;
pub const WIDTH: usize = 320;
pub const HEIGHT: usize = 240;
pub const QUALITY: u8 = 90;

/// A view must come this close to the reference rendition...
pub const MIN_PSNR_DB: f64 = 27.0;
/// ...and beat the public part alone by this much, which proves the
/// secret part was applied.
pub const MIN_GAIN_DB: f64 = 10.0;

/// The sizes a client asks for, with their share per hundred views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Thumb,
    Big,
}

pub const SIZE_MIX: [(Size, usize); 3] = [(Size::Small, 60), (Size::Thumb, 25), (Size::Big, 15)];

impl Size {
    pub const ALL: [Size; 3] = [Size::Small, Size::Thumb, Size::Big];

    pub fn query(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Thumb => "thumb",
            Size::Big => "big",
        }
    }

    pub fn request(self) -> SizeRequest {
        match self {
            Size::Small => SizeRequest::Small,
            Size::Thumb => SizeRequest::Thumb,
            Size::Big => SizeRequest::Big,
        }
    }
}

/// Run `f(0..n)` on two threads (the box has two cores) and collect the
/// results in order.
pub fn on_two_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (front, back) = out.split_at_mut(n / 2);
    std::thread::scope(|s| {
        let f = &f;
        s.spawn(move || front.iter_mut().enumerate().for_each(|(i, slot)| *slot = Some(f(i))));
        back.iter_mut().enumerate().for_each(|(i, slot)| *slot = Some(f(n / 2 + i)));
    });
    out.into_iter().map(|slot| slot.expect("every slot was filled")).collect()
}

/// `count` 320x240 q90 scenes; the seed picks them all.
pub fn photos(seed: u64, count: usize) -> Result<Vec<Vec<u8>>, String> {
    let mut rng = Rng::new(seed);
    let scene_seeds: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
    on_two_threads(count, |i| {
        let image = scene(scene_seeds[i], WIDTH, HEIGHT, &SceneParams::default());
        p3_jpeg::Encoder::new().quality(QUALITY).encode_rgb(&image)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(|e| format!("encode corpus: {e}"))
}

/// PSNR over the RGB bytes of two images of equal size, in dB. The
/// benchmark's own arithmetic, so the oracle does not lean on the code
/// it judges.
pub fn psnr_db(a: &RgbImage, b: &RgbImage) -> f64 {
    debug_assert_eq!(a.data.len(), b.data.len());
    let sum: u64 = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| {
            let d = i64::from(x) - i64::from(y);
            (d * d) as u64
        })
        .sum();
    if sum == 0 {
        return 99.0;
    }
    let mse = sum as f64 / a.data.len() as f64;
    10.0 * (255.0 * 255.0 / mse).log10()
}

/// Why a view was not accepted.
pub enum ViewFault {
    /// The server said it failed.
    Refused(String),
    /// It looked like success and was wrong.
    Wrong(String),
}

pub struct ViewOracle {
    /// Reference rendition per photo, in `Size::ALL` order.
    references: Vec<[RgbImage; 3]>,
    /// PSNR of the public part alone against the reference.
    public_db: Vec<[f64; 3]>,
}

impl ViewOracle {
    /// Feed every unsplit original to a PSP of its own and keep what it
    /// serves.
    pub fn build(photos: &[Vec<u8>]) -> Result<ViewOracle, String> {
        let psp = PspCore::new(PspProfile::facebook());
        let references = on_two_threads(photos.len(), |i| -> Result<[RgbImage; 3], String> {
            let id = psp.upload(&photos[i]).map_err(|e| format!("oracle upload: {e}"))?;
            let rendition = |size: Size| -> Result<RgbImage, String> {
                let jpeg = psp.fetch(id, size.request()).ok_or("oracle fetch: no rendition")?;
                p3_jpeg::decode_to_rgb(&jpeg).map_err(|e| format!("oracle decode: {e}"))
            };
            Ok([rendition(Size::Small)?, rendition(Size::Thumb)?, rendition(Size::Big)?])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(ViewOracle { public_db: vec![[0.0; 3]; references.len()], references })
    }

    /// Record how close the *public part alone* comes, from what the
    /// real PSP serves for the split photo.
    pub fn learn_public(&mut self, photo: usize, psp: &PspCore, psp_id: u64) -> Result<(), String> {
        for (slot, size) in Size::ALL.into_iter().enumerate() {
            let jpeg = psp.fetch(psp_id, size.request()).ok_or("PSP lost a preloaded photo")?;
            let public = p3_jpeg::decode_to_rgb(&jpeg).map_err(|e| format!("public part: {e}"))?;
            let reference = &self.references[photo][slot];
            if (public.width, public.height) != (reference.width, reference.height) {
                return Err("public rendition and reference differ in size".into());
            }
            self.public_db[photo][slot] = psnr_db(&public, reference);
        }
        Ok(())
    }

    /// Judge one answer to `GET /photos/{id}?size=`; returns its PSNR.
    pub fn check(
        &self,
        photo: usize,
        size: Size,
        response: &p3_net::Response,
    ) -> Result<f64, ViewFault> {
        if !response.status.is_success() {
            return Err(ViewFault::Refused(format!("status {}", response.status.0)));
        }
        let slot = Size::ALL.iter().position(|s| *s == size).expect("a listed size");
        let reference = &self.references[photo][slot];
        let view = p3_jpeg::decode_to_rgb(&response.body)
            .map_err(|e| ViewFault::Wrong(format!("200 with an undecodable body: {e}")))?;
        if (view.width, view.height) != (reference.width, reference.height) {
            return Err(ViewFault::Wrong(format!(
                "{}x{} for a {}x{} rendition",
                view.width, view.height, reference.width, reference.height
            )));
        }
        let db = psnr_db(&view, reference);
        let public = self.public_db[photo][slot];
        if db < MIN_PSNR_DB || db < public + MIN_GAIN_DB {
            return Err(ViewFault::Wrong(format!(
                "photo {photo} {}: {db:.1} dB against the reference, public part alone {public:.1} dB",
                size.query()
            )));
        }
        Ok(db)
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE): the benchmark's own, to check `x-p3-crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    !data.iter().fold(!0u32, |crc, &b| (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn psnr_of_known_error() {
        let a = RgbImage::new(4, 4);
        let mut b = RgbImage::new(4, 4);
        assert_eq!(psnr_db(&a, &b), 99.0);
        b.data.iter_mut().for_each(|v| *v = 5);
        // mse 25: 10 log10(65025 / 25)
        assert!((psnr_db(&a, &b) - 34.1514).abs() < 1e-3);
    }

    #[test]
    fn two_threads_keep_order() {
        assert_eq!(on_two_threads(7, |i| i * i), vec![0, 1, 4, 9, 16, 25, 36]);
        assert_eq!(on_two_threads(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn corpus_repeats_per_seed() {
        assert_eq!(photos(3, 2).unwrap(), photos(3, 2).unwrap());
        assert_ne!(photos(3, 2).unwrap(), photos(4, 2).unwrap());
    }
}
