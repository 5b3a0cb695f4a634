//! The PSP service: in-process core plus an HTTP front-end.
//!
//! [`PspCore`] implements the provider behaviour directly (used by the
//! benchmark harness, which doesn't need sockets); [`PspService`] wraps
//! it in the `p3-net` HTTP server for the full-system experiments.

use crate::profile::{PspProfile, SizeRequest};
use p3_core::pixel::{channels_to_rgb, rgb_to_channels};
use p3_core::transform::TransformSpec;
use p3_jpeg::encoder::encode_coeffs;
use p3_jpeg::image::RgbImage;
use p3_net::{Request, Response, Server, StatusCode};
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

/// The provider, sans HTTP.
pub struct PspCore {
    profile: PspProfile,
    photos: Mutex<HashMap<u64, StoredPhoto>>,
    next_id: AtomicU64,
}

impl fmt::Debug for PspCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PspCore {{ profile: {} }}", self.profile.name)
    }
}

impl PspCore {
    /// New provider with a profile.
    pub fn new(profile: PspProfile) -> Self {
        Self { profile, photos: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1) }
    }

    /// The provider's profile (tests/benches may want the ground truth;
    /// the *proxy* must not peek — it reverse-engineers instead).
    pub fn profile(&self) -> &PspProfile {
        &self.profile
    }

    /// Apply the hidden pipeline to pixels for a target max side.
    fn transform_pixels(&self, rgb: &RgbImage, spec: &TransformSpec) -> RgbImage {
        let ch = rgb_to_channels(rgb);
        channels_to_rgb(&[spec.apply(&ch[0]), spec.apply(&ch[1]), spec.apply(&ch[2])])
    }

    fn encode(&self, rgb: &RgbImage) -> Vec<u8> {
        let ci = p3_jpeg::encoder::pixels_to_coeffs(
            rgb,
            self.profile.quality,
            p3_jpeg::Subsampling::S420,
        )
        .expect("re-encode");
        encode_coeffs(&ci, self.profile.output_mode, 0).expect("re-encode")
    }

    /// Upload a photo; returns the assigned ID.
    pub fn upload(&self, body: &[u8]) -> Result<u64, UploadError> {
        let (coeffs, _) = p3_jpeg::decode_to_coeffs(body).map_err(|_| UploadError::NotJpeg)?;
        if coeffs.width > 8192 || coeffs.height > 8192 {
            return Err(UploadError::TooLarge);
        }
        if self.profile.detect_p3_uploads {
            // The countermeasure of §4.2: a clipped public part shows a
            // histogram spike at its maximum AC magnitude and no DC.
            let dc_all_zero = {
                let mut all_zero = true;
                coeffs.for_each_block(|_, b| all_zero &= b[0] == 0);
                all_zero
            };
            if dc_all_zero && p3_core::attack::guess_threshold(&coeffs).is_some() {
                return Err(UploadError::LooksEncrypted);
            }
        }
        let stripped =
            p3_jpeg::marker::strip_app_markers(body).map_err(|_| UploadError::NotJpeg)?;
        let rgb = p3_jpeg::decoder::coeffs_to_rgb(&coeffs).map_err(|_| UploadError::NotJpeg)?;

        // Build the static ladder with the hidden pipeline. The first
        // entry is the storage ceiling.
        let renditions = self
            .profile
            .ladder
            .iter()
            .map(|&side| {
                let spec = self.profile.transform_to_side(rgb.width, rgb.height, side);
                (side, self.encode(&self.transform_pixels(&rgb, &spec)))
            })
            .collect();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.photos
            .lock()
            .insert(id, StoredPhoto { stripped, ceiling_rgb: OnceLock::new(), renditions });
        Ok(id)
    }

    /// The pixels dynamic transforms start from: the upload through the
    /// ceiling's transform (the upload itself under an empty ladder).
    fn ceiling_rgb<'a>(&self, photo: &'a StoredPhoto) -> &'a RgbImage {
        photo.ceiling_rgb.get_or_init(|| {
            let rgb = p3_jpeg::decode_to_rgb(&photo.stripped).expect("decoded at upload");
            match self.profile.ladder.first() {
                Some(&side) => {
                    let spec = self.profile.transform_to_side(rgb.width, rgb.height, side);
                    self.transform_pixels(&rgb, &spec)
                }
                None => rgb,
            }
        })
    }

    /// Fetch a rendition. `None` if the photo does not exist.
    pub fn fetch(&self, id: u64, req: SizeRequest) -> Option<Vec<u8>> {
        let photos = self.photos.lock();
        let photo = photos.get(&id)?;
        match req {
            SizeRequest::Full | SizeRequest::Big | SizeRequest::Small | SizeRequest::Thumb => {
                let side = self.profile.ladder_side(req)?;
                photo.renditions.get(&side).cloned()
            }
            SizeRequest::Fit(w, h) => {
                let src = self.ceiling_rgb(photo);
                let max_side = usize::from(w.max(h)).max(1);
                let spec = self.profile.transform_to_side(src.width, src.height, max_side);
                Some(self.encode(&self.transform_pixels(src, &spec)))
            }
            SizeRequest::Crop(x, y, w, h) => {
                let src = self.ceiling_rgb(photo);
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
                Some(self.encode(&self.transform_pixels(src, &spec)))
            }
        }
    }

    /// Raw stored (marker-stripped) upload, for tests.
    pub fn stored_original(&self, id: u64) -> Option<Vec<u8>> {
        self.photos.lock().get(&id).map(|p| p.stripped.clone())
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
