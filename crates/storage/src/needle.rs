//! The needle frame: one blob record inside a packed log segment.
//!
//! Haystack-style layout — every record in a segment is a
//! self-delimiting, self-verifying frame:
//!
//! ```text
//! offset  size        field
//! ------  ----------  -----------------------------------------------
//!      0  4           magic  "P3N1"
//!      4  1           flags  (bit 0 = tombstone)
//!      5  2           id length, u16 LE
//!      7  8           sequence number, u64 LE
//!     15  8           payload length, u64 LE
//!     23  id_len      blob ID bytes (UTF-8)
//!      …  payload_len payload bytes (empty for tombstones)
//!      …  4           CRC32 (IEEE) over bytes [4 .. crc offset)
//!      …  4           trailer magic "p3nt"
//! ```
//!
//! The CRC covers everything between the magic and itself — flags,
//! lengths, sequence, ID, and payload — so a torn write, a truncation,
//! or a single flipped byte anywhere in the frame is detected. The
//! trailer magic is a cheap "did the whole frame land" probe: recovery
//! can reject a torn tail before paying the CRC over a large payload.
//!
//! **Sequence numbers make replay order-free.** Every frame carries the
//! store-wide monotonic sequence it was appended under, and recovery
//! keeps, per ID, the frame with the highest sequence. Compaction
//! copies frames *preserving* their original sequence, so a copied
//! frame can land physically after a newer re-put in the same segment
//! without ever winning replay — the invariant that makes "rewrite a
//! segment under live writes" safe without any write stalls.

use crate::StorageError;
use std::io::Read;

/// Frame magic ("P3 Needle v1").
pub const MAGIC: [u8; 4] = *b"P3N1";
/// Trailer magic closing every frame.
pub const TRAILER: [u8; 4] = *b"p3nt";
/// Fixed header length (magic + flags + id len + seq + payload len).
pub const HEADER_LEN: usize = 4 + 1 + 2 + 8 + 8;
/// Fixed per-frame overhead beyond ID + payload (header + CRC + trailer).
pub const OVERHEAD: usize = HEADER_LEN + 4 + 4;

/// Flag bit: this needle is a tombstone (payload is empty; the ID is
/// deleted as of this needle's sequence number).
pub const FLAG_TOMBSTONE: u8 = 0x01;

/// Total frame length for an ID/payload pair.
pub fn frame_len(id_len: usize, payload_len: usize) -> usize {
    OVERHEAD + id_len + payload_len
}

/// Encode one needle frame.
pub fn encode(id: &str, seq: u64, flags: u8, payload: &[u8]) -> Vec<u8> {
    assert!(id.len() <= u16::MAX as usize, "blob id too long for a needle frame");
    let mut out = Vec::with_capacity(frame_len(id.len(), payload.len()));
    out.extend_from_slice(&MAGIC);
    out.push(flags);
    out.extend_from_slice(&(id.len() as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(payload);
    let crc = crc32_fin(crc32_feed(crc32_init(), &out[4..]));
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&TRAILER);
    out
}

/// One intact needle found by a segment scan (payload bytes verified
/// and discarded; the index only needs the location).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// Blob ID.
    pub id: String,
    /// Store-wide sequence number this frame was appended under.
    pub seq: u64,
    /// Frame flags ([`FLAG_TOMBSTONE`] etc.).
    pub flags: u8,
    /// Frame start offset within the segment.
    pub offset: u64,
    /// Whole-frame length in bytes.
    pub frame_len: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl ScanEntry {
    /// True when this needle is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }
}

/// Result of scanning one segment: the intact needle prefix and the
/// byte length it covers. `valid_len < file len` means the tail is torn
/// or rotted — recovery truncates the *active* segment there (the
/// kill-mid-group-commit case) and simply stops indexing a sealed one.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Intact needles, in file order.
    pub entries: Vec<ScanEntry>,
    /// Byte length of the intact prefix.
    pub valid_len: u64,
}

/// Sequentially scan a segment stream, verifying every frame's CRC, and
/// stop at the first torn or corrupt needle. Never fails on bad data —
/// a damaged tail yields the intact prefix, which is exactly what
/// recovery wants (`Err` is reserved for real I/O failures).
pub fn scan<R: Read>(mut r: R) -> Result<ScanOutcome, StorageError> {
    let mut entries = Vec::new();
    let mut valid_len = 0u64;
    let mut header = [0u8; HEADER_LEN];
    loop {
        match read_exact_or_eof(&mut r, &mut header)? {
            Fill::Eof => break,
            Fill::Short => break, // torn mid-header
            Fill::Full => {}
        }
        if header[..4] != MAGIC {
            break;
        }
        let flags = header[4];
        let id_len = u16::from_le_bytes(header[5..7].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(header[7..15].try_into().unwrap());
        let payload_len = u64::from_le_bytes(header[15..23].try_into().unwrap());
        // A corrupt length field would otherwise ask for a huge read;
        // cap at something no legal frame exceeds (payloads are photo
        // secret parts, tens of MB at the very most).
        if payload_len > (u32::MAX as u64) || id_len == 0 {
            break;
        }
        let body_len = id_len + payload_len as usize;
        let mut body = vec![0u8; body_len + 4 + 4]; // + crc + trailer
        match read_exact_or_eof(&mut r, &mut body)? {
            Fill::Full => {}
            Fill::Eof | Fill::Short => break, // torn mid-body
        }
        let (body, tail) = body.split_at(body_len);
        let want_crc = u32::from_le_bytes(tail[..4].try_into().unwrap());
        if tail[4..] != TRAILER {
            break;
        }
        let crc = crc32_fin(crc32_feed(crc32_feed(crc32_init(), &header[4..]), body));
        if crc != want_crc {
            break;
        }
        let Ok(id) = std::str::from_utf8(&body[..id_len]) else {
            break;
        };
        let frame = frame_len(id_len, payload_len as usize) as u64;
        entries.push(ScanEntry {
            id: id.to_string(),
            seq,
            flags,
            offset: valid_len,
            frame_len: frame as u32,
            payload_len: payload_len as u32,
        });
        valid_len += frame;
    }
    Ok(ScanOutcome { entries, valid_len })
}

/// Decode and verify one whole frame read back from its indexed
/// location. Returns the payload, or `None` when the bytes no longer
/// verify (rot since the open-time scan).
pub fn decode_frame(raw: &[u8], want_id: &str, want_seq: u64) -> Option<Vec<u8>> {
    if raw.len() < OVERHEAD || raw[..4] != MAGIC {
        return None;
    }
    let id_len = u16::from_le_bytes(raw[5..7].try_into().unwrap()) as usize;
    let seq = u64::from_le_bytes(raw[7..15].try_into().unwrap());
    let payload_len = u64::from_le_bytes(raw[15..23].try_into().unwrap()) as usize;
    if raw.len() != frame_len(id_len, payload_len) {
        return None;
    }
    let body_end = HEADER_LEN + id_len + payload_len;
    let want_crc = u32::from_le_bytes(raw[body_end..body_end + 4].try_into().unwrap());
    if raw[body_end + 4..] != TRAILER {
        return None;
    }
    if crc32_fin(crc32_feed(crc32_init(), &raw[4..body_end])) != want_crc {
        return None;
    }
    // Location sanity: the frame at this offset must be the one the
    // index meant (a wrong-offset read after a software bug must never
    // silently serve some other blob's bytes).
    if &raw[HEADER_LEN..HEADER_LEN + id_len] != want_id.as_bytes() || seq != want_seq {
        return None;
    }
    Some(raw[HEADER_LEN + id_len..body_end].to_vec())
}

enum Fill {
    Full,
    Short,
    Eof,
}

/// Fill `buf` from the reader; distinguishes clean EOF at a frame
/// boundary from a short (torn) read.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Fill, StorageError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { Fill::Eof } else { Fill::Short }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Full)
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data` in one shot.
/// Public because the same checksum travels end to end: stamped into
/// every needle frame here, echoed over the wire as `x-p3-crc32`, and
/// re-verified by the cluster router before any replica's answer is
/// accepted.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_fin(crc32_feed(crc32_init(), data))
}

/// Incremental CRC32: the streaming form lets the segment scan hash
/// header and payload without concatenating them.
pub fn crc32_init() -> u32 {
    !0u32
}

/// Feed bytes into a streaming CRC32 state.
pub fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    for &b in data {
        state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// Finalize a streaming CRC32 state.
pub fn crc32_fin(state: u32) -> u32 {
    !state
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
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
    fn streaming_crc_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let (a, b) = data.split_at(13);
        assert_eq!(crc32_fin(crc32_feed(crc32_feed(crc32_init(), a), b)), crc32(data));
    }

    #[test]
    fn encode_scan_roundtrip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode("photo-1", 1, 0, b"payload one"));
        buf.extend_from_slice(&encode("photo-2", 2, FLAG_TOMBSTONE, b""));
        buf.extend_from_slice(&encode("ünïcode/id", 3, 0, &vec![0xAB; 4096]));
        let out = scan(&buf[..]).unwrap();
        assert_eq!(out.valid_len, buf.len() as u64);
        assert_eq!(out.entries.len(), 3);
        assert_eq!(out.entries[0].id, "photo-1");
        assert_eq!(out.entries[0].seq, 1);
        assert!(!out.entries[0].is_tombstone());
        assert!(out.entries[1].is_tombstone());
        assert_eq!(out.entries[2].payload_len, 4096);
        assert_eq!(out.entries[1].offset, out.entries[0].frame_len as u64);
    }

    #[test]
    fn any_truncation_recovers_exact_prefix() {
        let frames: Vec<Vec<u8>> =
            (0..4).map(|i| encode(&format!("id-{i}"), i as u64, 0, &[i as u8; 100])).collect();
        let buf: Vec<u8> = frames.concat();
        let mut boundary = 0usize;
        for cut in 0..buf.len() {
            // How many whole frames fit in the first `cut` bytes?
            let mut whole = 0;
            let mut end = 0;
            for f in &frames {
                if end + f.len() <= cut {
                    end += f.len();
                    whole += 1;
                }
            }
            boundary = boundary.max(end);
            let out = scan(&buf[..cut]).unwrap();
            assert_eq!(out.entries.len(), whole, "cut at {cut}");
            assert_eq!(out.valid_len, end as u64, "cut at {cut}");
        }
        assert!(boundary > 0);
    }

    #[test]
    fn single_byte_corruption_stops_scan_at_damaged_needle() {
        let frames: Vec<Vec<u8>> =
            (0..3).map(|i| encode(&format!("id-{i}"), i as u64, 0, &[7u8; 64])).collect();
        let clean: Vec<u8> = frames.concat();
        let f0 = frames[0].len();
        let f1 = frames[1].len();
        for pos in f0..f0 + f1 {
            let mut buf = clean.clone();
            buf[pos] ^= 0x40;
            let out = scan(&buf[..]).unwrap();
            // The first frame always survives; the damaged second frame
            // (and everything after — no resync) must not be indexed.
            assert_eq!(out.entries.len(), 1, "corrupt byte at {pos}");
            assert_eq!(out.valid_len, f0 as u64);
        }
    }

    #[test]
    fn decode_frame_verifies_location_identity() {
        let frame = encode("photo-9", 42, 0, b"bytes");
        assert_eq!(decode_frame(&frame, "photo-9", 42).as_deref(), Some(&b"bytes"[..]));
        assert!(decode_frame(&frame, "photo-8", 42).is_none(), "wrong id must not decode");
        assert!(decode_frame(&frame, "photo-9", 41).is_none(), "wrong seq must not decode");
        let mut rot = frame.clone();
        rot[HEADER_LEN + 9] ^= 1;
        assert!(decode_frame(&rot, "photo-9", 42).is_none(), "flipped byte must not decode");
        assert!(decode_frame(&frame[..frame.len() - 1], "photo-9", 42).is_none(), "truncated");
    }

    #[test]
    fn absurd_length_field_is_rejected_not_allocated() {
        let mut frame = encode("x", 1, 0, b"p");
        // Pretend the payload is 2^40 bytes: scan must stop cleanly.
        frame[15..23].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let out = scan(&frame[..]).unwrap();
        assert!(out.entries.is_empty());
        assert_eq!(out.valid_len, 0);
    }
}
