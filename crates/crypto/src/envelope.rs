//! The encrypt-then-MAC envelope protecting P3 secret parts at rest.
//!
//! The storage provider holding secret parts is untrusted (paper §4.1:
//! "because the secret part is encrypted, we do not assume that the
//! storage provider is trusted"). The envelope provides confidentiality
//! (AES-256-CTR) and integrity (HMAC-SHA256 over header ‖ nonce ‖
//! ciphertext). Tampering — by the storage provider, the PSP, or an
//! eavesdropper — is detected at open time; the paper notes tampering
//! cannot be *prevented*, only detected, and that is what we implement.
//!
//! Wire layout:
//!
//! ```text
//! magic  "P3SE"            4 bytes
//! version 0x01             1 byte
//! nonce                   12 bytes
//! ciphertext               N bytes
//! tag (HMAC-SHA256)       32 bytes
//! ```

use crate::aes::Aes;
use crate::ctr::AesCtr;
use crate::hkdf::hkdf_sha256;
use crate::hmac::{hmac_sha256, verify_tag};
use rand::RngCore;

const MAGIC: &[u8; 4] = b"P3SE";
const VERSION: u8 = 1;
const OVERHEAD: usize = 4 + 1 + 12 + 32;

/// Envelope failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Buffer shorter than the fixed envelope framing.
    TooShort,
    /// Magic or version mismatch.
    BadHeader,
    /// MAC verification failed: the blob was corrupted or tampered with.
    BadTag,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::TooShort => write!(f, "envelope truncated"),
            EnvelopeError::BadHeader => write!(f, "envelope header mismatch"),
            EnvelopeError::BadTag => write!(f, "envelope authentication failed"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Encryption + MAC keys derived from a master secret.
///
/// The AES-256 round keys are expanded eagerly — once per envelope key —
/// so sealing and opening share one schedule instead of re-running the
/// key expansion per operation.
#[derive(Clone)]
pub struct EnvelopeKey {
    /// Expanded AES-256 schedule for the encryption key.
    aes: Aes,
    mac: [u8; 32],
}

impl std::fmt::Debug for EnvelopeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EnvelopeKey {{ .. }}")
    }
}

impl EnvelopeKey {
    /// Derive the envelope key pair from a master key and a context string
    /// (P3 uses the PSP-assigned photo ID so every photo gets unique keys).
    pub fn derive(master: &[u8], context: &[u8]) -> Self {
        let okm = hkdf_sha256(master, b"p3-envelope-v1", context, 64);
        let mut enc = [0u8; 32];
        let mut mac = [0u8; 32];
        enc.copy_from_slice(&okm[..32]);
        mac.copy_from_slice(&okm[32..]);
        Self { aes: Aes::new(&enc), mac }
    }

    /// Build from explicit key material (tests, interop).
    pub fn from_raw(enc: [u8; 32], mac: [u8; 32]) -> Self {
        Self { aes: Aes::new(&enc), mac }
    }
}

/// Seal `plaintext` with a fresh random nonce.
pub fn seal(key: &EnvelopeKey, plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    rand::thread_rng().fill_bytes(&mut nonce);
    seal_with_nonce(key, plaintext, nonce)
}

/// Seal with a caller-supplied nonce (deterministic tests).
fn seal_with_nonce(key: &EnvelopeKey, plaintext: &[u8], nonce: [u8; 12]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&nonce);
    let ct_start = out.len();
    out.extend_from_slice(plaintext);
    AesCtr::from_aes(key.aes.clone(), nonce).encrypt(&mut out[ct_start..]);
    let tag = hmac_sha256(&key.mac, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verify and decrypt an envelope.
pub fn open(key: &EnvelopeKey, blob: &[u8]) -> Result<Vec<u8>, EnvelopeError> {
    if blob.len() < OVERHEAD {
        return Err(EnvelopeError::TooShort);
    }
    let (body, tag_bytes) = blob.split_at(blob.len() - 32);
    if &body[..4] != MAGIC || body[4] != VERSION {
        return Err(EnvelopeError::BadHeader);
    }
    let expected = hmac_sha256(&key.mac, body);
    let tag: [u8; 32] = tag_bytes.try_into().expect("split length");
    if !verify_tag(&expected, &tag) {
        return Err(EnvelopeError::BadTag);
    }
    let nonce: [u8; 12] = body[5..17].try_into().expect("fixed slice");
    let mut pt = body[17..].to_vec();
    AesCtr::from_aes(key.aes.clone(), nonce).decrypt(&mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EnvelopeKey {
        EnvelopeKey::derive(b"group master key", b"photo-123")
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key();
        for len in [0usize, 1, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let blob = seal(&k, &pt);
            assert_eq!(blob.len(), pt.len() + OVERHEAD);
            assert_eq!(open(&k, &blob).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let k = key();
        let pt = vec![0x41u8; 256];
        let blob = seal(&k, &pt);
        // The ciphertext region must not contain a long run of the input.
        let ct = &blob[17..blob.len() - 32];
        assert!(!ct.windows(8).any(|w| w == &pt[..8]));
    }

    #[test]
    fn tamper_detected_everywhere() {
        let k = key();
        let blob = seal(&k, b"secret part bytes");
        for idx in 0..blob.len() {
            let mut bad = blob.clone();
            bad[idx] ^= 0x01;
            let res = open(&k, &bad);
            assert!(res.is_err(), "flip at {idx} accepted");
        }
    }

    #[test]
    fn truncation_detected() {
        let k = key();
        let blob = seal(&k, b"0123456789");
        for cut in 1..blob.len() {
            assert!(open(&k, &blob[..cut]).is_err(), "cut {cut}");
        }
        assert!(open(&k, &[]).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let blob = seal(&key(), b"data");
        let other = EnvelopeKey::derive(b"different master", b"photo-123");
        assert_eq!(open(&other, &blob), Err(EnvelopeError::BadTag));
    }

    #[test]
    fn per_photo_keys_differ() {
        let a = seal_with_nonce(&EnvelopeKey::derive(b"m", b"photo-1"), b"same", [0; 12]);
        let b = seal_with_nonce(&EnvelopeKey::derive(b"m", b"photo-2"), b"same", [0; 12]);
        assert_ne!(a, b);
    }

    #[test]
    fn nonces_randomize_ciphertext() {
        let k = key();
        let a = seal(&k, b"same message");
        let b = seal(&k, b"same message");
        assert_ne!(a, b, "two seals produced identical blobs (nonce reuse?)");
    }
}
