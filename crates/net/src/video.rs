//! Proxy routes for the §4.2 video extension: split on upload, ranged
//! GOP streaming on download.
//!
//! Video objects are proxy-terminated — the PSP never sees them. Each
//! uploaded clip becomes three blobs on the (untrusted) storage tier,
//! keyed by a content hash of the original stream:
//!
//! * `vid:{id}:pub` — the public `P3V1` stream (I-frames degraded);
//! * `vid:{id}:sec` — the sealed secret stream (one envelope holding
//!   every I-frame's secret container);
//! * `vid:{id}:idx` — a small plaintext frame-offset table (`P3VI`)
//!   mapping each frame record to its byte range inside the public
//!   blob.
//!
//! Playback-before-download: `GET /videos/{id}?gop=k` fetches the tiny
//! index, computes GOP *k*'s byte range, and issues a **ranged** GET
//! (`Range: bytes=a-b` → `206`) against the public blob — so the first
//! GOP is on screen after transferring only its slice of the video
//! (`tests/system_e2e.rs` pins every GOP read as a partial fetch). The
//! sealed secret stream is fetched the way a photo's secret part is —
//! the proxy's sharded LRU, then one storage GET that concurrent misses
//! share — so successive GOPs of one clip decrypt from cache.
//! `GET /videos/{id}` (no query) reconstructs the whole clip.

use crate::http::{Method, Request, Response, StatusCode};
use crate::proxy::{bad_gateway, fetch_secret, storage_get, Fetch, ProxyCtx};
use p3_crypto::EnvelopeKey;
use p3_video::{FrameKind, VideoStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Index-table magic + version line.
const IDX_MAGIC: &str = "P3VI 1";

/// One frame record's location inside the public blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameLoc {
    kind: FrameKind,
    /// Byte offset of the record (kind byte) in the public stream.
    offset: u64,
    /// Record length: 5-byte header + JPEG payload.
    len: u64,
}

/// Parsed `vid:{id}:idx` blob.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VideoIndex {
    width: u16,
    height: u16,
    fps: u16,
    /// Total public-blob length (container header + all records).
    total: u64,
    frames: Vec<FrameLoc>,
}

impl VideoIndex {
    /// Build the offset table for a serialized public stream.
    fn build(stream: &VideoStream) -> VideoIndex {
        let mut frames = Vec::with_capacity(stream.frames.len());
        let mut offset = 14u64; // P3V1 container header
        for (kind, jpeg) in &stream.frames {
            let len = 5 + jpeg.len() as u64;
            frames.push(FrameLoc { kind: *kind, offset, len });
            offset += len;
        }
        VideoIndex {
            width: stream.width,
            height: stream.height,
            fps: stream.fps,
            total: offset,
            frames,
        }
    }

    fn to_text(&self) -> String {
        let mut out = format!(
            "{IDX_MAGIC}\ndims {} {} {}\ntotal {}\n",
            self.width, self.height, self.fps, self.total
        );
        for f in &self.frames {
            let kind = if f.kind == FrameKind::I { 'I' } else { 'P' };
            out.push_str(&format!("frame {kind} {} {}\n", f.offset, f.len));
        }
        out
    }

    fn parse(text: &str) -> Option<VideoIndex> {
        let mut lines = text.lines();
        if lines.next()? != IDX_MAGIC {
            return None;
        }
        let dims: Vec<u16> = lines
            .next()?
            .strip_prefix("dims ")?
            .split(' ')
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let [width, height, fps] = dims[..] else { return None };
        let total: u64 = lines.next()?.strip_prefix("total ")?.parse().ok()?;
        let mut frames = Vec::new();
        for line in lines {
            let mut parts = line.strip_prefix("frame ")?.split(' ');
            let kind = match parts.next()? {
                "I" => FrameKind::I,
                "P" => FrameKind::P,
                _ => return None,
            };
            let offset = parts.next()?.parse().ok()?;
            let len = parts.next()?.parse().ok()?;
            if parts.next().is_some() {
                return None;
            }
            frames.push(FrameLoc { kind, offset, len });
        }
        (!frames.is_empty()).then_some(VideoIndex { width, height, fps, total, frames })
    }

    /// Indices (into `frames`) of the I-frames, i.e. GOP starts.
    fn gop_starts(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind == FrameKind::I)
            .map(|(i, _)| i)
            .collect()
    }

    /// Inclusive byte range `[start, end]` of GOP `k` in the public
    /// blob, plus the frame-index range it spans.
    fn gop_range(&self, k: usize) -> Option<(u64, u64, std::ops::Range<usize>)> {
        let starts = self.gop_starts();
        let first = *starts.get(k)?;
        let after = starts.get(k + 1).copied().unwrap_or(self.frames.len());
        let start = self.frames[first].offset;
        let end = match self.frames.get(after) {
            Some(f) => f.offset - 1,
            None => self.total - 1,
        };
        Some((start, end, first..after))
    }
}

/// `/videos/{id}` → id (no sub-paths: video routes have no size/crop
/// variants, so anything deeper is not ours).
pub(crate) fn video_id_from_path(path: &str) -> Option<String> {
    let id = path.strip_prefix("/videos/")?;
    (!id.is_empty() && !id.contains('/')).then(|| id.to_string())
}

fn storage_blob_path(id: &str, part: &str) -> String {
    format!("/blobs/vid:{id}:{part}")
}

/// The per-video envelope key: derived from the master key and the
/// video's content-addressed ID, mirroring the photo path's
/// (master, photo-ID) derivation.
fn video_key(ctx: &ProxyCtx, id: &str) -> EnvelopeKey {
    EnvelopeKey::derive(&ctx.cfg.master_key, format!("vid:{id}").as_bytes())
}

/// `POST /videos` with a `P3V1` body: split, store public + secret +
/// index, answer with the assigned ID.
pub(crate) fn handle_video_upload(req: &Request, ctx: &ProxyCtx) -> Response {
    let stream = match VideoStream::from_bytes(&req.body) {
        Ok(s) => s,
        Err(e) => return Response::text(StatusCode::BAD_REQUEST, &format!("not a P3V1 clip: {e}")),
    };
    // Content-addressed ID: same clip, same ID — a retried upload
    // overwrites its own blobs instead of leaking orphans.
    let digest = p3_crypto::sha256(&req.body);
    let id: String = digest[..12].iter().map(|b| format!("{b:02x}")).collect();
    let key = video_key(ctx, &id);
    let (public, secret) = match p3_video::split_video(&stream, &ctx.cfg.codec, &key) {
        Ok(parts) => parts,
        Err(e) => return Response::text(StatusCode::BAD_REQUEST, &format!("unsplittable: {e}")),
    };
    let index = VideoIndex::build(&public);
    let parts: [(&str, Vec<u8>); 3] =
        [("pub", public.to_bytes()), ("sec", secret), ("idx", index.to_text().into_bytes())];
    for (i, (part, bytes)) in parts.iter().enumerate() {
        let put = ctx.pool.put(
            ctx.cfg.storage_addr,
            &storage_blob_path(&id, part),
            "application/octet-stream",
            bytes.clone(),
        );
        let err = match put {
            Ok(r) if r.status.is_success() => None,
            Ok(r) => Some(format!("storage: {}", r.status.0)),
            Err(e) => Some(format!("storage: {e}")),
        };
        if let Some(err) = err {
            // Roll back whatever landed; a partial video (public part
            // present, secret lost) must not survive a failed upload.
            for (part, _) in parts.iter().take(i) {
                let _ = ctx.pool.delete(ctx.cfg.storage_addr, &storage_blob_path(&id, part));
            }
            return bad_gateway(&err, None);
        }
    }
    ctx.stats.videos_split.fetch_add(1, Ordering::Relaxed);
    let mut resp = Response::text(StatusCode::CREATED, &id);
    resp.headers.set("x-p3-video-gops", index.gop_starts().len().to_string());
    resp
}

/// The 502 for a storage GET that failed.
fn unavailable(retry_after: Option<String>) -> Response {
    bad_gateway("storage unavailable", retry_after.as_deref())
}

fn fetch_blob(ctx: &ProxyCtx, path: &str, range: Option<(u64, u64)>) -> Fetch<Response> {
    let mut req = Request::new(Method::Get, path, Vec::new());
    if let Some((a, b)) = range {
        req.headers.set("range", format!("bytes={a}-{b}"));
    }
    storage_get(ctx, req)
}

/// The sealed secret stream, through the photo path's secret fetch
/// (cache, then a singleflighted storage GET).
fn fetch_video_secret(ctx: &ProxyCtx, id: &str) -> Result<Arc<Vec<u8>>, Response> {
    match fetch_secret(&format!("vid:{id}:sec"), ctx) {
        Fetch::Found(blob) => Ok(blob),
        // An index exists but its secret stream does not: inconsistent
        // storage, not a definitive "no such video" — never serve the
        // degraded public part in its place.
        Fetch::Absent => Err(bad_gateway("video secret stream missing", None)),
        Fetch::Failed(retry_after) => Err(unavailable(retry_after)),
    }
}

/// `GET /videos/{id}` — whole clip; `GET /videos/{id}?gop=k` — one GOP
/// fragment fetched with a ranged storage read.
pub(crate) fn handle_video_download(req: &Request, id: &str, ctx: &ProxyCtx) -> Response {
    let index = match fetch_blob(ctx, &storage_blob_path(id, "idx"), None) {
        Fetch::Found(r) => match VideoIndex::parse(&String::from_utf8_lossy(&r.body)) {
            Some(idx) => idx,
            None => return bad_gateway("corrupt video index", None),
        },
        Fetch::Absent => return Response::text(StatusCode::NOT_FOUND, "no such video"),
        Fetch::Failed(retry_after) => return unavailable(retry_after),
    };
    match req.query_param("gop") {
        Some(k) => match k.parse::<usize>() {
            Ok(k) => serve_gop(id, &index, k, ctx),
            Err(_) => Response::text(StatusCode::BAD_REQUEST, "gop must be a number"),
        },
        None => serve_full(id, &index, ctx),
    }
}

fn open_containers(
    ctx: &ProxyCtx,
    id: &str,
    blob: &[u8],
) -> Result<Vec<p3_core::container::SecretContainer>, Response> {
    p3_video::open_secret_stream(blob, &video_key(ctx, id))
        .map_err(|e| bad_gateway(&format!("secret stream rejected: {e}"), None))
}

fn serve_full(id: &str, index: &VideoIndex, ctx: &ProxyCtx) -> Response {
    let public_bytes = match fetch_blob(ctx, &storage_blob_path(id, "pub"), None) {
        Fetch::Found(r) => r.body,
        Fetch::Absent => return bad_gateway("video public stream missing", None),
        Fetch::Failed(retry_after) => return unavailable(retry_after),
    };
    let secret_blob = match fetch_video_secret(ctx, id) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let stream = match VideoStream::from_bytes(&public_bytes) {
        Ok(s) => s,
        Err(e) => return bad_gateway(&format!("corrupt public stream: {e}"), None),
    };
    match p3_video::reconstruct_video(&stream, &secret_blob, &video_key(ctx, id)) {
        Ok(restored) => {
            ctx.stats.video_fulls_served.fetch_add(1, Ordering::Relaxed);
            let mut resp = Response::ok("video/p3v", restored.to_bytes());
            resp.headers.set("x-p3-video-gops", index.gop_starts().len().to_string());
            resp
        }
        Err(e) => bad_gateway(&format!("video reconstruction failed: {e}"), None),
    }
}

fn serve_gop(id: &str, index: &VideoIndex, k: usize, ctx: &ProxyCtx) -> Response {
    let Some((start, end, span)) = index.gop_range(k) else {
        return Response::text(
            StatusCode::NOT_FOUND,
            &format!("gop {k} out of range (video has {})", index.gop_starts().len()),
        );
    };
    // The ranged read: only this GOP's slice of the public blob crosses
    // the wire — playback starts before the rest of the clip exists
    // locally.
    let fragment = match fetch_blob(ctx, &storage_blob_path(id, "pub"), Some((start, end))) {
        Fetch::Found(r) if r.status == StatusCode::PARTIAL_CONTENT => r.body,
        // A storage tier without range support answers 200-whole; slice
        // locally so the client contract holds either way.
        Fetch::Found(r) => {
            let (a, b) = (start as usize, (end + 1) as usize);
            if b > r.body.len() {
                return bad_gateway("public stream shorter than its index", None);
            }
            r.body[a..b].to_vec()
        }
        Fetch::Absent => return bad_gateway("video public stream missing", None),
        Fetch::Failed(retry_after) => return unavailable(retry_after),
    };
    if fragment.len() as u64 != end - start + 1 {
        return bad_gateway("ranged read returned wrong slice", None);
    }
    // Parse the fragment's frame records against the index.
    let locs = &index.frames[span.clone()];
    let mut frames = Vec::with_capacity(locs.len());
    for loc in locs {
        let a = (loc.offset - start) as usize;
        let b = a + loc.len as usize;
        if b > fragment.len() || loc.len < 5 {
            return bad_gateway("index and fragment disagree", None);
        }
        frames.push((loc.kind, fragment[a + 5..b].to_vec()));
    }
    let secret_blob = match fetch_video_secret(ctx, id) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let containers = match open_containers(ctx, id, &secret_blob) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    let Some(container) = containers.get(k) else {
        return bad_gateway("secret stream has no container for this gop", None);
    };
    // GOP fragment: reconstruct the leading I-frame, keep P-frames.
    let Some((FrameKind::I, iframe_jpeg)) = frames.first() else {
        return bad_gateway("gop fragment does not start with an I-frame", None);
    };
    match p3_core::pipeline::rejoin(iframe_jpeg, container) {
        Ok(rejoined) => {
            frames[0] = (FrameKind::I, rejoined);
            ctx.stats.video_gops_served.fetch_add(1, Ordering::Relaxed);
            let fragment_stream =
                VideoStream { width: index.width, height: index.height, fps: index.fps, frames };
            let mut resp = Response::ok("video/p3v", fragment_stream.to_bytes());
            resp.headers.set("x-p3-gop", k.to_string());
            resp.headers.set("x-p3-video-gops", index.gop_starts().len().to_string());
            resp.headers.set("x-p3-range-bytes", (end - start + 1).to_string());
            resp
        }
        Err(e) => bad_gateway(&format!("gop reconstruction failed: {e}"), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> VideoStream {
        VideoStream {
            width: 64,
            height: 48,
            fps: 24,
            frames: vec![
                (FrameKind::I, vec![1; 10]),
                (FrameKind::P, vec![2; 4]),
                (FrameKind::P, vec![3; 6]),
                (FrameKind::I, vec![4; 8]),
                (FrameKind::P, vec![5; 2]),
            ],
        }
    }

    #[test]
    fn video_id_extraction() {
        assert_eq!(video_id_from_path("/videos/abc123"), Some("abc123".into()));
        assert_eq!(video_id_from_path("/videos/"), None);
        assert_eq!(video_id_from_path("/videos/a/b"), None);
        assert_eq!(video_id_from_path("/photos/42"), None);
    }

    #[test]
    fn index_roundtrip_and_offsets() {
        let stream = sample_stream();
        let idx = VideoIndex::build(&stream);
        assert_eq!(idx.total, stream.to_bytes().len() as u64);
        assert_eq!(VideoIndex::parse(&idx.to_text()), Some(idx.clone()));
        // Each record's slice of the serialized stream holds that frame.
        let bytes = stream.to_bytes();
        for (loc, (_, jpeg)) in idx.frames.iter().zip(&stream.frames) {
            let a = loc.offset as usize;
            let b = a + loc.len as usize;
            assert_eq!(&bytes[a + 5..b], &jpeg[..]);
        }
    }

    #[test]
    fn gop_ranges_tile_the_stream() {
        let idx = VideoIndex::build(&sample_stream());
        assert_eq!(idx.gop_starts(), vec![0, 3]);
        let (a0, b0, span0) = idx.gop_range(0).unwrap();
        let (a1, b1, span1) = idx.gop_range(1).unwrap();
        assert_eq!(a0, 14, "first gop starts right after the container header");
        assert_eq!(b0 + 1, a1, "gops tile with no gap");
        assert_eq!(b1, idx.total - 1, "last gop runs to end of blob");
        assert_eq!(span0, 0..3);
        assert_eq!(span1, 3..5);
        assert!(idx.gop_range(2).is_none());
    }

    #[test]
    fn index_rejects_malformed() {
        assert!(VideoIndex::parse("").is_none());
        assert!(VideoIndex::parse("P3VI 2\ndims 1 1 1\ntotal 14\nframe I 14 6\n").is_none());
        assert!(VideoIndex::parse("P3VI 1\ndims 1 1\ntotal 14\nframe I 14 6\n").is_none());
        assert!(VideoIndex::parse("P3VI 1\ndims 1 1 1\ntotal 14\n").is_none(), "no frames");
        assert!(VideoIndex::parse("P3VI 1\ndims 1 1 1\ntotal 14\nframe X 14 6\n").is_none());
        assert!(VideoIndex::parse("P3VI 1\ndims 1 1 1\ntotal 14\nframe I 14 6 9\n").is_none());
    }
}
