//! CTR mode (NIST SP 800-38A) over [`Aes`].
//!
//! CTR turns the block cipher into a stream cipher: the secret part of a
//! photo (an encrypted JPEG of arbitrary length) needs no padding, and
//! encryption equals decryption. The 16-byte counter block is a 12-byte
//! random nonce followed by a 32-bit big-endian block counter — the same
//! layout AES-GCM uses.
//!
//! The keystream is produced in 8-block (128-byte) batches: counter
//! blocks are fed to the cipher as column words (no per-block byte
//! packing), and the XOR into the data runs over `u64` lanes, 16 lane
//! operations per batch instead of 128 byte operations.

use crate::aes::Aes;

/// Blocks per keystream batch.
const BATCH_BLOCKS: u32 = 8;
/// Bytes per keystream batch.
const BATCH_BYTES: usize = BATCH_BLOCKS as usize * 16;

/// AES-CTR stream cipher.
#[derive(Debug, Clone)]
pub struct AesCtr {
    aes: Aes,
    /// Nonce as the three high column words of every counter block.
    nonce_words: [u32; 3],
}

impl AesCtr {
    /// Create a CTR instance from a key (16/24/32 bytes) and 12-byte nonce.
    /// The round keys are expanded here, once, not per block.
    pub fn new(key: &[u8], nonce: [u8; 12]) -> Self {
        Self::from_aes(Aes::new(key), nonce)
    }

    /// Build from an already-expanded cipher (lets an envelope reuse one
    /// key schedule across seal and open).
    pub fn from_aes(aes: Aes, nonce: [u8; 12]) -> Self {
        let nonce_words = [
            u32::from_be_bytes(nonce[0..4].try_into().expect("4 bytes")),
            u32::from_be_bytes(nonce[4..8].try_into().expect("4 bytes")),
            u32::from_be_bytes(nonce[8..12].try_into().expect("4 bytes")),
        ];
        Self { aes, nonce_words }
    }

    /// Keystream block `counter` as big-endian bytes.
    #[inline]
    fn keystream_block(&self, counter: u32) -> [u8; 16] {
        let [n0, n1, n2] = self.nonce_words;
        let out = self.aes.encrypt_words([n0, n1, n2, counter]);
        let mut ks = [0u8; 16];
        for (c, w) in out.iter().enumerate() {
            ks[c * 4..c * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        ks
    }

    /// XOR the keystream into `data` starting at block `counter_start`
    /// (use 0 unless seeking). Encryption and decryption are the same
    /// operation.
    ///
    /// Runs the AES-NI pipeline when the CPU has it (and
    /// `P3_FORCE_SCALAR` hasn't disabled hardware paths); the portable
    /// T-table batch path below is the always-compiled oracle it is
    /// tested bit-exact against.
    fn apply_keystream(&self, data: &mut [u8], counter_start: u32) {
        #[cfg(target_arch = "x86_64")]
        if p3_par::features::aes_ni() {
            // SAFETY: AES-NI support verified by the dispatch gate.
            unsafe { crate::aesni::ctr_xor(&self.aes, self.nonce_words, counter_start, data) };
            return;
        }
        self.apply_keystream_soft(data, counter_start);
    }

    /// Portable batched keystream (see module docs).
    fn apply_keystream_soft(&self, data: &mut [u8], counter_start: u32) {
        let mut counter = counter_start;
        let mut batches = data.chunks_exact_mut(BATCH_BYTES);
        for batch in &mut batches {
            let mut ks = [0u8; BATCH_BYTES];
            for b in 0..BATCH_BLOCKS {
                let block = self.keystream_block(counter.wrapping_add(b));
                ks[b as usize * 16..b as usize * 16 + 16].copy_from_slice(&block);
            }
            // XOR over u64 lanes.
            for (d, k) in batch.chunks_exact_mut(8).zip(ks.chunks_exact(8)) {
                let lane = u64::from_ne_bytes(d.try_into().expect("8-byte lane"))
                    ^ u64::from_ne_bytes(k.try_into().expect("8-byte lane"));
                d.copy_from_slice(&lane.to_ne_bytes());
            }
            counter = counter.wrapping_add(BATCH_BLOCKS);
        }
        // Tail: fewer than 8 blocks, possibly a partial final block.
        for chunk in batches.into_remainder().chunks_mut(16) {
            let ks = self.keystream_block(counter);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Convenience: encrypt a buffer starting at counter 0.
    pub fn encrypt(&self, data: &mut [u8]) {
        self.apply_keystream(data, 0);
    }

    /// Convenience: decrypt a buffer starting at counter 0.
    pub fn decrypt(&self, data: &mut [u8]) {
        self.apply_keystream(data, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, adapted: the NIST vector
    /// uses a full 16-byte initial counter block; we reproduce it by
    /// splitting it into our nonce/counter layout.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        // NIST initial counter block f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff:
        // nonce = first 12 bytes, counter = 0xfcfdfeff.
        let nonce: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb").try_into().unwrap();
        let ctr = AesCtr::new(&key, nonce);
        let mut data = hex("6bc1bee22e409f96e93d7e117393172a");
        ctr.apply_keystream(&mut data, 0xfcfdfeff);
        assert_eq!(data, hex("874d6191b620e3261bef6864990db6ce"));
    }

    #[test]
    fn roundtrip_arbitrary_lengths() {
        let ctr = AesCtr::new(&[1u8; 16], [2u8; 12]);
        // Straddle the 128-byte batch boundary in both directions.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 127, 128, 129, 255, 256, 1000] {
            let orig: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut data = orig.clone();
            ctr.encrypt(&mut data);
            if len > 4 {
                assert_ne!(data, orig, "len {len}");
            }
            ctr.decrypt(&mut data);
            assert_eq!(data, orig, "len {len}");
        }
    }

    #[test]
    fn batched_path_matches_blockwise_path() {
        // The 8-block batch must produce byte-identical output to a
        // single-block walk over the same counters.
        let ctr = AesCtr::new(&[9u8; 32], [5u8; 12]);
        let mut batched = vec![0u8; 400];
        ctr.apply_keystream(&mut batched, 7);
        let mut blockwise = vec![0u8; 400];
        for (i, chunk) in blockwise.chunks_mut(16).enumerate() {
            let mut one = chunk.to_vec();
            ctr.apply_keystream(&mut one, 7 + i as u32);
            chunk.copy_from_slice(&one);
        }
        assert_eq!(batched, blockwise);
    }

    #[test]
    fn counter_wraps_across_batch() {
        // A batch that straddles u32 counter wraparound must stay
        // consistent with seeking.
        let ctr = AesCtr::new(&[3u8; 16], [8u8; 12]);
        let mut whole = vec![0u8; 160];
        ctr.apply_keystream(&mut whole, u32::MAX - 2);
        let mut tail = vec![0u8; 16];
        ctr.apply_keystream(&mut tail, 0); // block index 3: MAX-2+3 wraps to 0
        assert_eq!(&whole[48..64], &tail[..]);
    }

    /// The AES-NI pipeline must be bit-exact with the portable batch
    /// path for every key size, length class (batch, single-block, and
    /// partial-block tails), and counter start — including a batch that
    /// straddles u32 counter wraparound.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn aesni_matches_soft_path_exactly() {
        if !std::arch::is_x86_feature_detected!("aes") {
            return; // nothing to cross-check on this machine
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 29 + 3) as u8).collect();
            let ctr = AesCtr::new(&key, [0xA7; 12]);
            for &(len, start) in &[
                (1usize, 0u32),
                (15, 3),
                (16, 5),
                (127, 1),
                (128, 0),
                (129, 9),
                (240, u32::MAX - 2),
                (1000, 42),
            ] {
                let orig: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
                let mut soft = orig.clone();
                ctr.apply_keystream_soft(&mut soft, start);
                let mut ni = orig;
                // SAFETY: AES-NI support checked above.
                unsafe { crate::aesni::ctr_xor(&ctr.aes, ctr.nonce_words, start, &mut ni) };
                assert_eq!(ni, soft, "key_len {key_len} len {len} start {start}");
            }
        }
    }

    /// The public entry point must produce the same bytes whichever
    /// implementation the dispatch gate picks.
    #[test]
    fn dispatch_is_transparent() {
        let ctr = AesCtr::new(&[0x5C; 32], [0x36; 12]);
        let mut via_dispatch = vec![0u8; 300];
        ctr.apply_keystream(&mut via_dispatch, 11);
        let mut via_soft = vec![0u8; 300];
        ctr.apply_keystream_soft(&mut via_soft, 11);
        assert_eq!(via_dispatch, via_soft);
    }

    #[test]
    fn different_nonces_differ() {
        let a = AesCtr::new(&[1u8; 16], [0u8; 12]);
        let b = AesCtr::new(&[1u8; 16], [1u8; 12]);
        let mut da = vec![0u8; 32];
        let mut db = vec![0u8; 32];
        a.encrypt(&mut da);
        b.encrypt(&mut db);
        assert_ne!(da, db);
    }

    #[test]
    fn keystream_is_seekable() {
        let ctr = AesCtr::new(&[9u8; 16], [3u8; 12]);
        let mut whole = vec![0u8; 48];
        ctr.encrypt(&mut whole);
        // Encrypt the second 16-byte block independently.
        let mut part = vec![0u8; 16];
        ctr.apply_keystream(&mut part, 1);
        assert_eq!(&whole[16..32], &part[..]);
    }
}
