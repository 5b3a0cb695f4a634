//! Proxy routes for the §4.2 video extension: split on upload, ranged
//! GOP streaming on download.
//!
//! Video objects are proxy-terminated — the PSP never sees them. Each
//! uploaded clip becomes two blobs on the (untrusted) storage tier:
//!
//! * `vid:{id}:pub` — the public `P3V1` stream (I-frames degraded);
//! * `vid:{id}:sec` — the sealed secret stream, the clip's only trusted
//!   record: the stream's geometry and, per GOP, its byte length in the
//!   public blob, the SHA-256 of those bytes and the I-frame's secret
//!   container ([`p3_video::GopTable`]).
//!
//! A download opens the secret stream first — from the proxy's sharded
//! LRU, else one storage GET that concurrent misses share — so a clip
//! without one is a 404, and a warm view costs one storage GET.
//! Playback-before-download: `GET /videos/{id}?gop=k` takes GOP *k*'s
//! byte range from the table and issues a **ranged** GET (`Range:
//! bytes=a-b` → `206`) against the public blob — so the first GOP is on
//! screen after transferring only its slice of the video
//! (`tests/system_e2e.rs` pins every GOP read as a partial fetch). The
//! slice must match its sealed digest, so altered or misplaced public
//! bytes are a 502, never a wrong frame. `GET /videos/{id}` (no query)
//! reconstructs the whole clip the same way, GOP by GOP.

use crate::http::{Method, Request, Response, StatusCode};
use crate::proxy::{bad_gateway, fetch_secret, storage_get, Fetch, ProxyCtx};
use p3_crypto::EnvelopeKey;
use p3_video::VideoStream;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// `/videos/{id}` → id (no sub-paths: video routes have no size/crop
/// variants, so anything deeper is not ours).
pub(crate) fn video_id_from_path(path: &str) -> Option<String> {
    let id = path.strip_prefix("/videos/")?;
    (!id.is_empty() && !id.contains('/')).then(|| id.to_string())
}

fn storage_blob_path(id: &str, part: &str) -> String {
    format!("/blobs/vid:{id}:{part}")
}

/// A clip's ID: a keyed hash of the original stream, so the same clip
/// under the same master key gets the same ID (a retried upload
/// overwrites its own blobs) while the store, which sees the ID, cannot
/// test a candidate clip against it.
fn video_id(master_key: &[u8], clip: &[u8]) -> String {
    let id_key = p3_crypto::hmac_sha256(master_key, b"p3-video-id-v1");
    p3_crypto::hmac_sha256(&id_key, clip)[..12].iter().map(|b| format!("{b:02x}")).collect()
}

/// The per-video envelope key: derived from the master key and the
/// video's ID, mirroring the photo path's (master, photo-ID) derivation.
fn video_key(ctx: &ProxyCtx, id: &str) -> EnvelopeKey {
    EnvelopeKey::derive(&ctx.cfg.master_key, format!("vid:{id}").as_bytes())
}

/// `POST /videos` with a `P3V1` body: split, store the public and the
/// sealed secret stream, answer with the assigned ID.
pub(crate) fn handle_video_upload(req: &Request, ctx: &ProxyCtx) -> Response {
    let stream = match VideoStream::from_bytes(&req.body) {
        Ok(s) => s,
        Err(e) => return Response::text(StatusCode::BAD_REQUEST, &format!("not a P3V1 clip: {e}")),
    };
    let id = video_id(&ctx.cfg.master_key, &req.body);
    let (public, secret) =
        match p3_video::split_video(&stream, &ctx.cfg.codec, &video_key(ctx, &id)) {
            Ok(parts) => parts,
            Err(e) => {
                return Response::text(StatusCode::BAD_REQUEST, &format!("unsplittable: {e}"))
            }
        };
    // The public stream first: a clip exists once its secret stream
    // does. A failed secret PUT leaves the public stream where it is:
    // the ID is stable, so that blob may be an earlier, complete
    // upload's, and without a secret stream it is unreachable anyway.
    if let Err(err) = put_blob(ctx, &storage_blob_path(&id, "pub"), public) {
        return bad_gateway(&err, None);
    }
    if let Err(err) = put_blob(ctx, &storage_blob_path(&id, "sec"), secret) {
        return bad_gateway(&err, None);
    }
    ctx.stats.videos_split.fetch_add(1, Ordering::Relaxed);
    let mut resp = Response::text(StatusCode::CREATED, &id);
    resp.headers.set("x-p3-video-gops", stream.iframe_indices().len().to_string());
    resp
}

fn put_blob(ctx: &ProxyCtx, path: &str, bytes: Vec<u8>) -> Result<(), String> {
    match ctx.pool.put(ctx.cfg.storage_addr, path, "application/octet-stream", bytes) {
        Ok(r) if r.status.is_success() => Ok(()),
        Ok(r) => Err(format!("storage: {}", r.status.0)),
        Err(e) => Err(format!("storage: {e}")),
    }
}

/// The 502 for a storage GET that failed.
fn unavailable(retry_after: Option<String>) -> Response {
    bad_gateway("storage unavailable", retry_after.as_deref())
}

/// The public blob, or a byte range of it.
fn fetch_public(
    ctx: &ProxyCtx,
    id: &str,
    range: Option<Range<usize>>,
) -> Result<Response, Response> {
    let mut req = Request::new(Method::Get, &storage_blob_path(id, "pub"), Vec::new());
    if let Some(r) = range {
        req.headers.set("range", format!("bytes={}-{}", r.start, r.end - 1));
    }
    match storage_get(ctx, req) {
        Fetch::Found(r) => Ok(r),
        Fetch::Absent => Err(bad_gateway("video public stream missing", None)),
        Fetch::Failed(retry_after) => Err(unavailable(retry_after)),
    }
}

/// `GET /videos/{id}` — whole clip; `GET /videos/{id}?gop=k` — one GOP
/// fragment fetched with a ranged storage read.
pub(crate) fn handle_video_download(req: &Request, id: &str, ctx: &ProxyCtx) -> Response {
    let Ok(gop) = req.query_param("gop").map(str::parse::<usize>).transpose() else {
        return Response::text(StatusCode::BAD_REQUEST, "gop must be a number");
    };
    let secret = match fetch_secret(&format!("vid:{id}:sec"), ctx) {
        Fetch::Found(blob) => blob,
        Fetch::Absent => return Response::text(StatusCode::NOT_FOUND, "no such video"),
        Fetch::Failed(retry_after) => return unavailable(retry_after),
    };
    let key = video_key(ctx, id);
    let served = match gop {
        Some(k) => serve_gop(id, &secret, &key, k, ctx),
        None => serve_full(id, &secret, &key, ctx),
    };
    served.unwrap_or_else(|resp| resp)
}

fn rejected(e: p3_video::VideoError) -> Response {
    bad_gateway(&format!("video reconstruction failed: {e}"), None)
}

fn serve_full(
    id: &str,
    secret: &[u8],
    key: &EnvelopeKey,
    ctx: &ProxyCtx,
) -> Result<Response, Response> {
    let public = fetch_public(ctx, id, None)?.body;
    let restored = p3_video::reconstruct_video(&public, secret, key).map_err(rejected)?;
    ctx.stats.video_fulls_served.fetch_add(1, Ordering::Relaxed);
    let gops = restored.iframe_indices().len();
    let mut resp = Response::ok("video/p3v", restored.to_bytes());
    resp.headers.set("x-p3-video-gops", gops.to_string());
    Ok(resp)
}

fn serve_gop(
    id: &str,
    secret: &[u8],
    key: &EnvelopeKey,
    k: usize,
    ctx: &ProxyCtx,
) -> Result<Response, Response> {
    let table = p3_video::open_secret_stream(secret, key)
        .map_err(|e| bad_gateway(&format!("secret stream rejected: {e}"), None))?;
    let Some(range) = table.range(k) else {
        return Err(Response::text(
            StatusCode::NOT_FOUND,
            &format!("gop {k} out of range (video has {})", table.gop_count()),
        ));
    };
    // The ranged read: only this GOP's slice of the public blob crosses
    // the wire — playback starts before the rest of the clip exists
    // locally.
    let r = fetch_public(ctx, id, Some(range.clone()))?;
    let fragment = if r.status == StatusCode::PARTIAL_CONTENT {
        &r.body[..]
    } else {
        // A storage tier without range support answers 200-whole; slice
        // locally so the client contract holds either way.
        r.body.get(range.clone()).unwrap_or_default()
    };
    let restored = p3_video::reconstruct_gop(fragment, &table, k).map_err(rejected)?;
    ctx.stats.video_gops_served.fetch_add(1, Ordering::Relaxed);
    let mut resp = Response::ok("video/p3v", restored.to_bytes());
    resp.headers.set("x-p3-gop", k.to_string());
    resp.headers.set("x-p3-video-gops", table.gop_count().to_string());
    resp.headers.set("x-p3-range-bytes", range.len().to_string());
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_id_extraction() {
        assert_eq!(video_id_from_path("/videos/abc123"), Some("abc123".into()));
        assert_eq!(video_id_from_path("/videos/"), None);
        assert_eq!(video_id_from_path("/videos/a/b"), None);
        assert_eq!(video_id_from_path("/photos/42"), None);
    }

    #[test]
    fn video_id_is_keyed_and_stable() {
        let clip = b"P3V1 a clip's bytes";
        let id = video_id(b"master", clip);
        assert_eq!(id.len(), 24);
        let bare: String =
            p3_crypto::sha256(clip)[..12].iter().map(|b| format!("{b:02x}")).collect();
        assert_ne!(id, bare, "the id must not be the clip's bare hash");
        assert_eq!(
            video_id(b"master", clip),
            id,
            "one master key, one id: retries stay idempotent"
        );
        assert_ne!(video_id(b"other master", clip), id, "another master key, another id");
        assert_ne!(video_id(b"master", b"another clip"), id);
    }
}
