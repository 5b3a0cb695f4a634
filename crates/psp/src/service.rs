//! The PSP service: in-process core plus an HTTP front-end.
//!
//! [`PspCore`] implements the provider behaviour directly (used by the
//! benchmark harness, which doesn't need sockets); [`PspService`] wraps
//! it in the `p3-net` HTTP server for the full-system experiments.

use crate::profile::{PspProfile, SizeRequest};
use p3_core::pixel::{rgb_to_planes_u8, round_into_channel};
use p3_core::transform::{TransformScratch, TransformSpec};
use p3_jpeg::block::CoeffImage;
use p3_jpeg::color::Plane;
use p3_jpeg::decoder::{coeffs_to_rgb_into, decode_to_coeffs_into};
use p3_jpeg::encoder::{encode_coeffs, pixels_to_coeffs_into};
use p3_jpeg::image::RgbImage;
use p3_jpeg::Subsampling;
use p3_net::{Request, Response, Server, StatusCode};
use p3_vision::image::View;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Why an upload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadError {
    /// Body did not decode as JPEG ("PSPs reject fully-encrypted
    /// images").
    NotJpeg,
    /// §4.2 countermeasure tripped: looks like a P3 public part.
    LooksEncrypted,
    /// Image too large for the simulator.
    TooLarge,
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::NotJpeg => write!(f, "body is not a decodable JPEG"),
            UploadError::LooksEncrypted => {
                write!(f, "upload rejected: appears to be an encrypted/clipped image")
            }
            UploadError::TooLarge => write!(f, "image too large"),
        }
    }
}

struct StoredPhoto {
    /// The upload after marker stripping (what "full" serves if within
    /// the ladder cap).
    stripped: Vec<u8>,
    /// Pixels of the ceiling rendition before its JPEG encode — what
    /// dynamic transforms start from. Rebuilt from `stripped` on the
    /// first dynamic fetch (the decode and transform `upload` ran, so
    /// the same pixels) rather than held uncompressed, ~20× the upload's
    /// size, for every photo stored.
    ceiling_rgb: OnceLock<RgbImage>,
    /// Pre-built ladder renditions keyed by max side.
    renditions: HashMap<usize, Vec<u8>>,
}

/// The pixels every rendition of a photo starts from, as 8-bit channels
/// split once per photo; the kernels widen the rows they read.
#[derive(Default)]
struct Source {
    planes: [Vec<u8>; 3],
    width: usize,
    height: usize,
}

impl Source {
    fn split(&mut self, rgb: &RgbImage) {
        rgb_to_planes_u8(rgb, &mut self.planes);
        (self.width, self.height) = (rgb.width, rgb.height);
    }
}

/// The planes one photo's trip through the hidden pipeline works in,
/// checked out of [`PspCore`]'s pool so a rendition allocates only its
/// JPEG. Every user overwrites what it reads: a scratch carries no
/// sample from one photo to the next.
#[derive(Default)]
struct LadderScratch {
    source: Source,
    transform: TransformScratch,
    /// The source pixels until they are split, then each rendition's.
    rgb: RgbImage,
    /// The codec's sample planes and coefficients: the source's, then
    /// each rendition's.
    ycc: Vec<Plane>,
    coeffs: CoeffImage,
}

/// Bytes above which a scratch is dropped after use instead of going
/// back to the pool: one huge upload must not pin its planes to the
/// provider for good. (A 320x240 photo's is 1.3 MB, a 600x800 one's 10.)
const SCRATCH_KEPT: usize = 16 << 20;

impl LadderScratch {
    /// Bytes held allocated.
    fn bytes(&self) -> usize {
        let planes: usize = self.source.planes.iter().map(Vec::capacity).sum();
        let ycc: usize = self.ycc.iter().map(|p| p.data.capacity()).sum();
        let blocks: usize = self.coeffs.components.iter().map(|c| c.blocks.capacity()).sum();
        4 * self.transform.samples()
            + planes
            + self.rgb.data.capacity()
            + ycc
            + blocks * std::mem::size_of::<p3_jpeg::block::Block>()
    }

    /// Decode `jpeg` — its coefficients to `self.coeffs`, its pixels to
    /// the source of the transforms that follow; returns its dimensions.
    fn decode(&mut self, jpeg: &[u8]) -> p3_jpeg::Result<(usize, usize)> {
        decode_to_coeffs_into(jpeg, &mut self.coeffs)?;
        coeffs_to_rgb_into(&self.coeffs, &mut self.ycc, &mut self.rgb)?;
        self.source.split(&self.rgb);
        Ok((self.rgb.width, self.rgb.height))
    }

    /// Run `spec` on the split source, channel by channel, each row
    /// rounded into `self.rgb` as its last stage emits it.
    fn transform(&mut self, spec: &TransformSpec) {
        let Source { planes, width, height } = &self.source;
        let (w, h) = spec.output_dims(*width, *height);
        (self.rgb.width, self.rgb.height) = (w, h);
        self.rgb.data.resize(3 * w * h, 0);
        for (c, plane) in planes.iter().enumerate() {
            spec.apply_rows(&View::new(plane, *width, *height), &mut self.transform, |y, row| {
                round_into_channel(row, c, &mut self.rgb.data[3 * w * y..][..3 * w]);
            });
        }
    }
}

/// The provider, sans HTTP.
pub struct PspCore {
    profile: PspProfile,
    /// Photos sit behind `Arc` so the map's lock covers a lookup, never
    /// pixel work.
    photos: Mutex<HashMap<u64, Arc<StoredPhoto>>>,
    next_id: AtomicU64,
    /// Idle scratches, one per upload or dynamic fetch that has run at
    /// once. On the provider rather than the thread so that whichever
    /// thread serves the next photo finds the planes warm.
    scratch: Mutex<Vec<LadderScratch>>,
}

impl fmt::Debug for PspCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PspCore {{ profile: {} }}", self.profile.name)
    }
}

impl PspCore {
    /// New provider with a profile.
    pub fn new(profile: PspProfile) -> Self {
        Self {
            profile,
            photos: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The provider's profile (tests/benches may want the ground truth;
    /// the *proxy* must not peek — it reverse-engineers instead).
    pub fn profile(&self) -> &PspProfile {
        &self.profile
    }

    /// Run `work` with a scratch from the pool (a fresh one when every
    /// pooled one is in use).
    fn with_scratch<R>(&self, work: impl FnOnce(&mut LadderScratch) -> R) -> R {
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        let out = work(&mut scratch);
        if scratch.bytes() <= SCRATCH_KEPT {
            self.scratch.lock().push(scratch);
        }
        out
    }

    /// The JPEG of the rendition `scratch.transform` left.
    fn encode(&self, scratch: &mut LadderScratch) -> Vec<u8> {
        let LadderScratch { rgb, ycc, coeffs, .. } = scratch;
        pixels_to_coeffs_into(rgb, self.profile.quality, Subsampling::S420, ycc, coeffs)
            .expect("re-encode");
        encode_coeffs(coeffs, self.profile.output_mode, 0).expect("re-encode")
    }

    /// Upload a photo; returns the assigned ID.
    pub fn upload(&self, body: &[u8]) -> Result<u64, UploadError> {
        // The decoder judges the first frame header alone (and refuses
        // one over its ceiling before allocating for it); a stream with
        // a second is not a photo whatever the first claims.
        p3_jpeg::marker::summarize(body).map_err(|_| UploadError::NotJpeg)?;
        let stripped =
            p3_jpeg::marker::strip_app_markers(body).map_err(|_| UploadError::NotJpeg)?;
        let renditions = self.with_scratch(|scratch| {
            let (w, h) = scratch.decode(body).map_err(|e| match e {
                p3_jpeg::JpegError::TooLarge { .. } => UploadError::TooLarge,
                _ => UploadError::NotJpeg,
            })?;
            if self.profile.detect_p3_uploads {
                // The countermeasure of §4.2: a clipped public part shows
                // a histogram spike at its maximum AC magnitude and no DC.
                let coeffs = &scratch.coeffs;
                let dc_all_zero = {
                    let mut all_zero = true;
                    coeffs.for_each_block(|_, b| all_zero &= b[0] == 0);
                    all_zero
                };
                if dc_all_zero && p3_core::attack::guess_threshold(coeffs).is_some() {
                    return Err(UploadError::LooksEncrypted);
                }
            }
            // Build the static ladder with the hidden pipeline, every
            // rung from the upload's own pixels. The first entry is the
            // storage ceiling.
            let rung = |&side: &usize| {
                scratch.transform(&self.profile.transform_to_side(w, h, side));
                let mut jpeg = self.encode(scratch);
                jpeg.shrink_to_fit();
                (side, jpeg)
            };
            Ok(self.profile.ladder.iter().map(rung).collect())
        })?;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let photo = StoredPhoto { stripped, ceiling_rgb: OnceLock::new(), renditions };
        self.photos.lock().insert(id, Arc::new(photo));
        Ok(id)
    }

    /// The pixels dynamic transforms start from: the upload through the
    /// ceiling's transform (the upload itself under an empty ladder).
    fn ceiling_rgb<'a>(&self, photo: &'a StoredPhoto) -> &'a RgbImage {
        photo.ceiling_rgb.get_or_init(|| {
            self.with_scratch(|scratch| {
                let (w, h) = scratch.decode(&photo.stripped).expect("decoded at upload");
                if let Some(&side) = self.profile.ladder.first() {
                    scratch.transform(&self.profile.transform_to_side(w, h, side));
                }
                scratch.rgb.clone()
            })
        })
    }

    /// A dynamic rendition: `spec` of the ceiling's pixels, encoded.
    fn render(&self, src: &RgbImage, spec: &TransformSpec) -> Vec<u8> {
        self.with_scratch(|scratch| {
            scratch.source.split(src);
            scratch.transform(spec);
            self.encode(scratch)
        })
    }

    /// Fetch a rendition. `None` if the photo does not exist.
    pub fn fetch(&self, id: u64, req: SizeRequest) -> Option<Vec<u8>> {
        let photo = Arc::clone(self.photos.lock().get(&id)?);
        match req {
            SizeRequest::Full | SizeRequest::Big | SizeRequest::Small | SizeRequest::Thumb => {
                let side = self.profile.ladder_side(req)?;
                photo.renditions.get(&side).cloned()
            }
            SizeRequest::Fit(w, h) => {
                let src = self.ceiling_rgb(&photo);
                let max_side = usize::from(w.max(h)).max(1);
                let spec = self.profile.transform_to_side(src.width, src.height, max_side);
                Some(self.render(src, &spec))
            }
            SizeRequest::Crop(x, y, w, h) => {
                let spec = TransformSpec {
                    crop: Some((
                        usize::from(x),
                        usize::from(y),
                        usize::from(w).max(1),
                        usize::from(h).max(1),
                    )),
                    resize_to: None,
                    filter: self.profile.filter,
                    sharpen: (1.0, 0.0),
                    gamma: 1.0,
                };
                Some(self.render(self.ceiling_rgb(&photo), &spec))
            }
        }
    }

    /// Raw stored (marker-stripped) upload, for tests.
    pub fn stored_original(&self, id: u64) -> Option<Vec<u8>> {
        let photo = Arc::clone(self.photos.lock().get(&id)?);
        Some(photo.stripped.clone())
    }

    /// Number of stored photos.
    pub fn photo_count(&self) -> usize {
        self.photos.lock().len()
    }

    /// Delete a photo and every rendition of it. Returns false if the ID
    /// was unknown. Real PSPs expose this to the uploader; the P3 proxy
    /// uses it to roll back an upload whose secret part failed to land
    /// in storage.
    pub fn delete(&self, id: u64) -> bool {
        self.photos.lock().remove(&id).is_some()
    }
}

/// HTTP front-end: `POST /photos` → id, `GET /photos/{id}?size=...`.
pub struct PspService {
    server: Server,
    core: Arc<PspCore>,
}

impl PspService {
    /// Start serving on an ephemeral port.
    pub fn spawn(profile: PspProfile) -> std::io::Result<PspService> {
        let core = Arc::new(PspCore::new(profile));
        let c = Arc::clone(&core);
        let server = Server::spawn(Arc::new(move |req: &Request| handle(&c, req)))?;
        Ok(PspService { server, core })
    }

    /// Listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The in-process core behind the HTTP front-end.
    pub fn core(&self) -> &Arc<PspCore> {
        &self.core
    }

    /// Stop serving.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Route one HTTP request against a [`PspCore`] — exposed so the CLI can
/// host the simulator on its own server instance.
pub fn handle_http(core: &PspCore, req: &Request) -> Response {
    handle(core, req)
}

fn handle(core: &PspCore, req: &Request) -> Response {
    use p3_net::Method;
    match (req.method, req.path.as_str()) {
        (Method::Post, "/photos") => match core.upload(&req.body) {
            Ok(id) => Response::text(StatusCode::CREATED, &id.to_string()),
            Err(UploadError::NotJpeg) => Response::text(StatusCode::BAD_REQUEST, "not a JPEG"),
            Err(UploadError::LooksEncrypted) => Response::text(StatusCode::BAD_REQUEST, "rejected"),
            Err(UploadError::TooLarge) => {
                Response::text(StatusCode::PAYLOAD_TOO_LARGE, "too large")
            }
        },
        (Method::Get, path) if path.starts_with("/photos/") => {
            let id: Option<u64> =
                path["/photos/".len()..].split('/').next().and_then(|s| s.parse().ok());
            let Some(id) = id else {
                return Response::text(StatusCode::BAD_REQUEST, "bad id");
            };
            let size = PspProfile::parse_size(&req.query);
            match core.fetch(id, size) {
                Some(jpeg) => Response::ok("image/jpeg", jpeg),
                None => Response::text(StatusCode::NOT_FOUND, "no such photo"),
            }
        }
        (Method::Delete, path) if path.starts_with("/photos/") => {
            let id: Option<u64> =
                path["/photos/".len()..].split('/').next().and_then(|s| s.parse().ok());
            let Some(id) = id else {
                return Response::text(StatusCode::BAD_REQUEST, "bad id");
            };
            if core.delete(id) {
                Response::text(StatusCode::OK, "deleted")
            } else {
                Response::text(StatusCode::NOT_FOUND, "no such photo")
            }
        }
        _ => Response::text(StatusCode::NOT_FOUND, "unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_jpeg::decoder::MAX_SIDE;

    fn photo_jpeg(w: usize, h: usize) -> Vec<u8> {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [((x * 7) % 256) as u8, ((y * 5) % 256) as u8, ((x + y) % 256) as u8],
                );
            }
        }
        p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).unwrap()
    }

    #[test]
    fn upload_assigns_monotone_ids() {
        let core = PspCore::new(PspProfile::facebook());
        let a = core.upload(&photo_jpeg(64, 48)).unwrap();
        let b = core.upload(&photo_jpeg(32, 32)).unwrap();
        assert!(b > a);
        assert_eq!(core.photo_count(), 2);
    }

    #[test]
    fn rejects_garbage_uploads() {
        let core = PspCore::new(PspProfile::facebook());
        assert_eq!(core.upload(b"fully encrypted blob").unwrap_err(), UploadError::NotJpeg);
    }

    /// `jpeg` with the dimensions its first frame header claims
    /// overwritten.
    fn with_claimed_dims(jpeg: &[u8], w: u16, h: u16) -> Vec<u8> {
        let sof = jpeg.windows(2).position(|m| m == [0xFF, p3_jpeg::marker::SOF0]).unwrap();
        let mut out = jpeg.to_vec();
        // marker(2) length(2) precision(1) height(2) width(2)
        out[sof + 5..sof + 7].copy_from_slice(&h.to_be_bytes());
        out[sof + 7..sof + 9].copy_from_slice(&w.to_be_bytes());
        out
    }

    #[test]
    fn oversized_frame_header_is_refused_before_the_decoder_allocates_for_it() {
        let core = PspCore::new(PspProfile::facebook());
        let jpeg = photo_jpeg(64, 64);
        // 60 000 x 60 000 is a 21 GB coefficient image to a decoder that
        // believes it.
        let bomb = with_claimed_dims(&jpeg, 60_000, 60_000);
        assert_eq!(core.upload(&bomb).unwrap_err(), UploadError::TooLarge);
        // A second frame header does not hide the first from the check.
        let sof = jpeg.windows(2).position(|m| m == [0xFF, p3_jpeg::marker::SOF0]).unwrap();
        let len = usize::from(u16::from_be_bytes([jpeg[sof + 2], jpeg[sof + 3]])) + 2;
        let mut twice = bomb[..sof + len].to_vec();
        twice.extend_from_slice(&jpeg[sof..]);
        assert_eq!(core.upload(&twice).unwrap_err(), UploadError::NotJpeg);
        // The limit itself still reaches the decoder, which finds the
        // scan too short for the frame it was promised.
        let wide = with_claimed_dims(&jpeg, MAX_SIDE as u16, 64);
        assert_eq!(core.upload(&wide).unwrap_err(), UploadError::NotJpeg);
        assert_eq!(
            core.upload(&with_claimed_dims(&jpeg, MAX_SIDE as u16 + 1, 64)).unwrap_err(),
            UploadError::TooLarge
        );
        assert_eq!(core.photo_count(), 0);

        let mut svc = PspService::spawn(PspProfile::facebook()).unwrap();
        let resp = p3_net::http_post(svc.addr(), "/photos", "image/jpeg", bomb).unwrap();
        assert_eq!(resp.status, StatusCode::PAYLOAD_TOO_LARGE);
        svc.shutdown();
    }

    #[test]
    fn scratch_pool_is_bounded() {
        // One rung, no unsharp: the test is about the planes, and a
        // debug build resamples slowly.
        let core = PspCore::new(PspProfile { ladder: vec![75], ..PspProfile::flickr() });
        for (w, h) in [(64, 48), (96, 96), (64, 48)] {
            core.upload(&photo_jpeg(w, h)).unwrap();
        }
        assert_eq!(core.scratch.lock().len(), 1, "sequential uploads share one scratch");
        // 3 Mpx is 36 MB of source planes alone: that scratch is dropped,
        // not pooled, and the one it grew from went with it.
        let id = core.upload(&photo_jpeg(2048, 1536)).unwrap();
        assert!(core.scratch.lock().is_empty(), "an oversized scratch went back to the pool");
        // Its ceiling (75 px) is small again: a dynamic fetch re-pools.
        core.fetch(id, SizeRequest::Fit(40, 40)).unwrap();
        let pool = core.scratch.lock();
        assert_eq!(pool.len(), 1);
        assert!(pool[0].bytes() <= SCRATCH_KEPT);
    }

    #[test]
    fn a_reused_scratch_leaks_nothing_into_the_next_photo() {
        let requests = [
            SizeRequest::Big,
            SizeRequest::Small,
            SizeRequest::Thumb,
            SizeRequest::Fit(50, 40),
            SizeRequest::Crop(8, 8, 32, 24),
        ];
        let photos = [photo_jpeg(400, 300), photo_jpeg(40, 56), photo_jpeg(200, 150)];
        let fresh: Vec<Vec<Vec<u8>>> = photos
            .iter()
            .map(|jpeg| {
                let core = PspCore::new(PspProfile::facebook());
                let id = core.upload(jpeg).unwrap();
                requests.iter().map(|&req| core.fetch(id, req).unwrap()).collect()
            })
            .collect();
        // Big, small, big again through one provider: every plane of the
        // one pooled scratch is larger than, and dirty from, the photo
        // before.
        let core = PspCore::new(PspProfile::facebook());
        for k in [0, 1, 2, 1, 0] {
            let id = core.upload(&photos[k]).unwrap();
            for (&req, want) in requests.iter().zip(&fresh[k]) {
                assert_eq!(&core.fetch(id, req).unwrap(), want, "photo {k} {req:?}");
            }
        }
        assert_eq!(core.scratch.lock().len(), 1);
    }

    #[test]
    fn concurrent_uploads_fetches_and_deletes_agree_with_one_thread() {
        const THREADS: usize = 4;
        const OPS: usize = 12;
        let requests = [
            SizeRequest::Big,
            SizeRequest::Thumb,
            SizeRequest::Fit(50, 40),
            SizeRequest::Crop(8, 8, 32, 24),
        ];
        let photos = [photo_jpeg(96, 72), photo_jpeg(160, 120), photo_jpeg(64, 64)];
        let want: Vec<Vec<Vec<u8>>> = photos
            .iter()
            .map(|jpeg| {
                let core = PspCore::new(PspProfile::facebook());
                let id = core.upload(jpeg).unwrap();
                requests.iter().map(|&req| core.fetch(id, req).unwrap()).collect()
            })
            .collect();
        let core = PspCore::new(PspProfile::facebook());
        // Ids any thread may fetch, with the photo each holds; a thread
        // deletes only ids it uploaded, so a fetch of a listed id can
        // lose the race to its delete but never see other bytes.
        let listed: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
        let start = std::sync::Barrier::new(THREADS);
        let kept: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (core, listed, start, photos, want) =
                        (&core, &listed, &start, &photos, &want);
                    s.spawn(move || {
                        start.wait();
                        let mut kept = 0;
                        for op in 0..OPS {
                            let k = (t + op) % photos.len();
                            let id = core.upload(&photos[k]).unwrap();
                            listed.lock().push((id, k));
                            // A photo some thread (often another) put up.
                            let (other, ok) = {
                                let listed = listed.lock();
                                listed[(t * 7 + op * 3) % listed.len()]
                            };
                            let req = (t + op) % requests.len();
                            if let Some(got) = core.fetch(other, requests[req]) {
                                assert_eq!(got, want[ok][req], "photo {ok} {:?}", requests[req]);
                            }
                            for (&req, want) in requests.iter().zip(&want[k]) {
                                assert_eq!(&core.fetch(id, req).unwrap(), want);
                            }
                            if op % 3 == 0 {
                                kept += 1;
                            } else {
                                assert!(core.delete(id));
                                assert!(core.fetch(id, SizeRequest::Big).is_none());
                            }
                        }
                        kept
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(core.photo_count(), kept);
        assert!(core.scratch.lock().len() <= THREADS);
    }

    #[test]
    fn ladder_renditions_have_expected_sizes() {
        let core = PspCore::new(PspProfile::facebook());
        let id = core.upload(&photo_jpeg(1440, 960)).unwrap();
        let big = core.fetch(id, SizeRequest::Big).unwrap();
        let small = core.fetch(id, SizeRequest::Small).unwrap();
        let thumb = core.fetch(id, SizeRequest::Thumb).unwrap();
        let sb = p3_jpeg::marker::summarize(&big).unwrap();
        assert_eq!((sb.width, sb.height), (720, 480));
        assert!(sb.progressive, "facebook serves progressive");
        let ss = p3_jpeg::marker::summarize(&small).unwrap();
        assert_eq!(ss.width.max(ss.height), 130);
        let st = p3_jpeg::marker::summarize(&thumb).unwrap();
        assert_eq!(st.width.max(st.height), 75);
    }

    #[test]
    fn markers_are_stripped() {
        let core = PspCore::new(PspProfile::facebook());
        // Inject a COM marker into an upload.
        let mut jpeg = photo_jpeg(64, 64);
        let mut with_comment = jpeg[..2].to_vec();
        p3_jpeg::marker::write_segment(&mut with_comment, p3_jpeg::marker::COM, b"secret-stash");
        with_comment.extend_from_slice(&jpeg.split_off(2));
        let id = core.upload(&with_comment).unwrap();
        let stored = core.stored_original(id).unwrap();
        let summary = p3_jpeg::marker::summarize(&stored).unwrap();
        assert!(!summary.markers.contains(&p3_jpeg::marker::COM));
    }

    #[test]
    fn dynamic_fit_and_crop() {
        let core = PspCore::new(PspProfile::flickr());
        let id = core.upload(&photo_jpeg(640, 480)).unwrap();
        let fit = core.fetch(id, SizeRequest::Fit(100, 100)).unwrap();
        let s = p3_jpeg::marker::summarize(&fit).unwrap();
        assert_eq!(s.width.max(s.height), 100);
        let crop = core.fetch(id, SizeRequest::Crop(10, 20, 64, 48)).unwrap();
        let s = p3_jpeg::marker::summarize(&crop).unwrap();
        assert_eq!((s.width, s.height), (64, 48));
    }

    #[test]
    fn missing_photo_is_none() {
        let core = PspCore::new(PspProfile::facebook());
        assert!(core.fetch(999, SizeRequest::Big).is_none());
    }

    #[test]
    fn delete_removes_photo_and_renditions() {
        let core = PspCore::new(PspProfile::facebook());
        let id = core.upload(&photo_jpeg(64, 48)).unwrap();
        assert!(core.delete(id));
        assert_eq!(core.photo_count(), 0);
        assert!(core.fetch(id, SizeRequest::Big).is_none());
        assert!(!core.delete(id), "double delete must report unknown id");
    }

    #[test]
    fn http_delete_roundtrip() {
        let mut svc = PspService::spawn(PspProfile::facebook()).unwrap();
        let resp =
            p3_net::http_post(svc.addr(), "/photos", "image/jpeg", photo_jpeg(64, 48)).unwrap();
        let id: u64 = String::from_utf8_lossy(&resp.body).trim().parse().unwrap();
        let del = p3_net::http_delete(svc.addr(), &format!("/photos/{id}")).unwrap();
        assert!(del.status.is_success());
        let gone = p3_net::http_get(svc.addr(), &format!("/photos/{id}?size=big")).unwrap();
        assert_eq!(gone.status, StatusCode::NOT_FOUND);
        let again = p3_net::http_delete(svc.addr(), &format!("/photos/{id}")).unwrap();
        assert_eq!(again.status, StatusCode::NOT_FOUND);
        svc.shutdown();
    }

    #[test]
    fn hostile_profile_rejects_p3_public_parts() {
        let hostile = PspCore::new(PspProfile::hostile());
        let codec =
            p3_core::P3Codec::new(p3_core::P3Config { threshold: 10, ..Default::default() });
        let (public, _, _) = codec.split_jpeg(&photo_jpeg(128, 128)).unwrap();
        assert_eq!(hostile.upload(&public).unwrap_err(), UploadError::LooksEncrypted);
        // A normal photo still goes through.
        assert!(hostile.upload(&photo_jpeg(64, 64)).is_ok());
        // And the benign facebook profile accepts P3 parts.
        let benign = PspCore::new(PspProfile::facebook());
        assert!(benign.upload(&public).is_ok());
    }

    #[test]
    fn http_frontend_roundtrip() {
        let mut svc = PspService::spawn(PspProfile::facebook()).unwrap();
        let resp =
            p3_net::http_post(svc.addr(), "/photos", "image/jpeg", photo_jpeg(256, 192)).unwrap();
        assert!(resp.status.is_success());
        let id: u64 = String::from_utf8_lossy(&resp.body).trim().parse().unwrap();
        let img = p3_net::http_get(svc.addr(), &format!("/photos/{id}?size=small")).unwrap();
        assert!(img.status.is_success());
        assert_eq!(img.headers.get("content-type"), Some("image/jpeg"));
        let s = p3_jpeg::marker::summarize(&img.body).unwrap();
        assert_eq!(s.width.max(s.height), 130);
        // Unknown photo → 404.
        let missing = p3_net::http_get(svc.addr(), "/photos/424242").unwrap();
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        svc.shutdown();
    }
}
