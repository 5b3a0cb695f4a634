//! The load half of a phase: the pinned golden corpus, the seeded
//! request plan, and a closed-loop batch driver that hash-verifies
//! every answer.

use p3_core::pixel::rgb_to_luma;
use p3_datasets::synth::Zipf;
use p3_jpeg::RgbImage;
use p3_net::{http_get, http_post};
use p3_vision::metrics::psnr;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fraction of requests that are reads (the rest upload a fresh photo).
const READ_MIX: f64 = 0.9;
/// Zipf exponent of photo popularity over the pinned corpus.
const ZIPF_EXPONENT: f64 = 1.1;
/// Client threads driving a batch, each with one request in flight.
const WORKERS: usize = 8;

/// A read is pinned as golden only if its luma PSNR against the
/// uploaded pixels clears this. Calibrated on what the simulate
/// topology serves for [`photo_jpeg`] (96×72 scenes, facebook PSP, T = 15)
/// over 1 499 seeds — 1 to 1 199 plus 300 spread over `u64`: the
/// proxy's reconstruction reads 34.55–40.45 dB, the PSP's public part
/// of the same photo 14.55–21.43 dB. The floor is the midpoint: 6.5 dB
/// under the worst reconstruction, 6.5 dB over the best public part.
const PIN_PSNR_FLOOR_DB: f64 = 28.0;

/// A pinned photo: uploaded before the run, its reconstructed bytes
/// hashed right after a verified first read. Every later read must be
/// byte-identical or an explicit error.
pub struct PinnedPhoto {
    /// PSP-assigned photo ID.
    pub id: String,
    /// SHA-256 of the reconstructed JPEG the proxy served at pin time.
    pub golden: [u8; 32],
}

/// One planned request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read the pinned photo at this index of the corpus.
    Read(usize),
    /// Upload the fresh photo `photo_jpeg` makes from this seed.
    Write(u64),
}

/// What a batch's answers were.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Reads answered 200 with byte-identical golden content.
    pub ok_reads: u64,
    /// Writes answered success.
    pub ok_writes: u64,
    /// Client-visible explicit errors (non-2xx or transport) — allowed
    /// while a fault is armed.
    pub explicit_errors: u64,
    /// Responses that were *wrong*: 200 with bytes that differ from the
    /// pinned golden copy. Must be zero, always.
    pub wrong_data: u64,
}

impl std::ops::AddAssign for Outcomes {
    fn add_assign(&mut self, o: Outcomes) {
        self.ok_reads += o.ok_reads;
        self.ok_writes += o.ok_writes;
        self.explicit_errors += o.explicit_errors;
        self.wrong_data += o.wrong_data;
    }
}

/// Deterministic synthetic photo for upload traffic.
fn photo_jpeg(seed: u64) -> Vec<u8> {
    let img = p3_datasets::synth::scene(seed, 96, 72, &p3_datasets::synth::SceneParams::default());
    p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode synth jpeg")
}

/// The pin-time oracle: `served` must decode to the uploaded photo, not
/// to its privacy-degraded public part. Returns the measured PSNR.
fn check_pin(uploaded: &RgbImage, served: &[u8]) -> Result<f64, String> {
    let got = p3_jpeg::decode_to_rgb(served).map_err(|e| format!("not a JPEG: {e}"))?;
    if (got.width, got.height) != (uploaded.width, uploaded.height) {
        return Err(format!("served {}x{}, not the upload's size", got.width, got.height));
    }
    let db = psnr(&rgb_to_luma(uploaded), &rgb_to_luma(&got));
    if db < PIN_PSNR_FLOOR_DB {
        return Err(format!(
            "luma PSNR {db:.1} dB against the upload is under the {PIN_PSNR_FLOOR_DB} dB floor: \
             a public part, not a reconstruction"
        ));
    }
    Ok(db)
}

/// Upload `count` photos through the proxy and pin each one's golden
/// reconstructed bytes with a verify-read that passes `check_pin`.
/// Runs before any fault is armed.
pub fn pin_corpus(proxy: SocketAddr, count: usize, seed: u64) -> Result<Vec<PinnedPhoto>, String> {
    let mut pinned = Vec::with_capacity(count);
    for i in 0..count {
        let jpeg = photo_jpeg(seed.wrapping_add(i as u64));
        let uploaded = p3_jpeg::decode_to_rgb(&jpeg).expect("decode own upload");
        let resp = http_post(proxy, "/photos", "image/jpeg", jpeg)
            .map_err(|e| format!("pin upload {i}: {e}"))?;
        if !resp.status.is_success() {
            return Err(format!("pin upload {i}: status {}", resp.status.0));
        }
        let id = String::from_utf8_lossy(&resp.body).trim().to_string();
        let read = http_get(proxy, &format!("/photos/{id}"))
            .map_err(|e| format!("pin verify-read {id}: {e}"))?;
        if !read.status.is_success() {
            return Err(format!("pin verify-read {id}: status {}", read.status.0));
        }
        check_pin(&uploaded, &read.body).map_err(|e| format!("pin verify-read {id}: {e}"))?;
        pinned.push(PinnedPhoto { id, golden: p3_crypto::sha256(&read.body) });
    }
    Ok(pinned)
}

/// The `batch` requests of phase number `phase_no` (counted from the
/// start of the run, across soak rounds): a pure function of its
/// arguments, so a run's whole request sequence follows from `--seed`.
pub fn request_plan(seed: u64, photos: usize, batch: usize, phase_no: u64) -> Vec<Request> {
    let stream = seed ^ phase_no.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(stream);
    let mut popularity = Zipf::new(photos, ZIPF_EXPONENT, stream ^ 0x5eed);
    (0..batch)
        .map(|_| {
            if rng.gen_bool(READ_MIX) {
                Request::Read(popularity.next_rank())
            } else {
                Request::Write(rng.next_u64())
            }
        })
        .collect()
}

/// One read of a pinned photo, verified against its golden hash.
fn read_pinned(proxy: SocketAddr, photo: &PinnedPhoto, out: &mut Outcomes) {
    match http_get(proxy, &format!("/photos/{}", photo.id)) {
        Ok(resp) if !resp.status.is_success() => out.explicit_errors += 1,
        Ok(resp) if p3_crypto::sha256(&resp.body) == photo.golden => out.ok_reads += 1,
        Ok(_) => out.wrong_data += 1,
        Err(_) => out.explicit_errors += 1,
    }
}

/// Drive `plan` closed-loop — `WORKERS` threads, each sending its
/// next request when the last one answered — and return once every
/// request has its answer.
pub fn run_batch(proxy: SocketAddr, pinned: &[PinnedPhoto], plan: &[Request]) -> Outcomes {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Outcomes::default();
        while let Some(request) = plan.get(next.fetch_add(1, Ordering::Relaxed)) {
            match request {
                Request::Read(photo) => read_pinned(proxy, &pinned[*photo], &mut mine),
                Request::Write(seed) => {
                    match http_post(proxy, "/photos", "image/jpeg", photo_jpeg(*seed)) {
                        Ok(resp) if resp.status.is_success() => mine.ok_writes += 1,
                        _ => mine.explicit_errors += 1,
                    }
                }
            }
        }
        mine
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS).map(|_| s.spawn(worker)).collect();
        let mut total = Outcomes::default();
        for handle in workers {
            total += handle.join().expect("a batch worker panicked");
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Stack, StackSpec};

    #[test]
    fn request_plan_is_a_pure_function_of_the_seed() {
        let plan = |seed, phase_no| request_plan(seed, 10, 200, phase_no);
        assert_eq!(plan(42, 3), plan(42, 3), "same seed, same phase: same plan");
        assert_ne!(plan(42, 3), plan(43, 3), "another seed: another plan");
        assert_ne!(plan(42, 3), plan(42, 4), "each phase gets its own stretch of the sequence");
        let reads = plan(42, 0).iter().filter(|r| matches!(r, Request::Read(_))).count();
        assert!((160..=195).contains(&reads), "90/10 mix, got {reads} reads of 200");
        assert!(plan(42, 0).iter().all(|r| match r {
            Request::Read(photo) => *photo < 10,
            Request::Write(_) => true,
        }));
    }

    /// What the oracle exists for: a proxy that passed the PSP's public
    /// part through at pin time must not get it pinned as golden. The
    /// PSP's own answer *is* that public part.
    #[test]
    fn pin_oracle_rejects_the_public_part_and_passes_every_reconstruction() {
        let stack = Stack::spawn(StackSpec::default()).expect("stack");
        for seed in 42..74u64 {
            let jpeg = photo_jpeg(seed);
            let uploaded = p3_jpeg::decode_to_rgb(&jpeg).unwrap();
            let resp = http_post(stack.proxy.addr(), "/photos", "image/jpeg", jpeg).unwrap();
            let id = String::from_utf8_lossy(&resp.body).trim().to_string();
            let path = format!("/photos/{id}");
            let reconstructed = http_get(stack.proxy.addr(), &path).unwrap();
            let db = check_pin(&uploaded, &reconstructed.body)
                .unwrap_or_else(|e| panic!("seed {seed}: true reconstruction refused: {e}"));
            assert!(db >= PIN_PSNR_FLOOR_DB + 5.0, "seed {seed}: {db:.1} dB leaves no margin");
            let public = http_get(stack.psp.addr(), &path).unwrap();
            assert!(public.status.is_success());
            let err = check_pin(&uploaded, &public.body).expect_err("public part pinned");
            assert!(err.contains("under the 28 dB floor"), "seed {seed}: {err}");
        }
    }
}
