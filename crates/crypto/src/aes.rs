//! AES block cipher (FIPS-197) for 128/192/256-bit keys.
//!
//! Encryption — the only direction CTR mode ever exercises — runs on the
//! classic T-table formulation: SubBytes, ShiftRows, and MixColumns of a
//! whole round collapse into four 256-entry `u32` table lookups plus
//! XORs per column, so the inner loop touches no per-byte S-box at all.
//! Round keys are expanded once per cipher instance (i.e. once per
//! envelope) into column words. There is no inverse cipher: CTR
//! decryption is encryption of the same counter stream. The textbook
//! byte-wise rounds survive as a `#[cfg(test)]` oracle for the table
//! path (and, through it, for the AES-NI pipeline in `ctr`). Validated
//! against the FIPS-197 appendix vectors and NIST SP 800-38A.

/// Forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1B)
}

/// Encryption T-tables: `TE[r][x]` is the MixColumns contribution of
/// S-box output `S(x)` arriving in state row `r`, as a big-endian column
/// word. One full round is `TE[0][..] ^ TE[1][..] ^ TE[2][..] ^ TE[3][..]
/// ^ rk` per column.
static TE: [[u32; 256]; 4] = build_te();

const fn build_te() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s1 = s as u32;
        let s2 = xtime(s) as u32;
        let s3 = s2 ^ s1;
        // MixColumns matrix rows (2 3 1 1 / 1 2 3 1 / 1 1 2 3 / 3 1 1 2),
        // one table per input row.
        t[0][i] = (s2 << 24) | (s1 << 16) | (s1 << 8) | s3;
        t[1][i] = (s3 << 24) | (s2 << 16) | (s1 << 8) | s1;
        t[2][i] = (s1 << 24) | (s3 << 16) | (s2 << 8) | s1;
        t[3][i] = (s1 << 24) | (s1 << 16) | (s3 << 8) | s2;
        i += 1;
    }
    t
}

/// AES cipher instance with an expanded key schedule.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    /// The same schedule as big-endian column words (encrypt fast path).
    round_key_words: Vec<[u32; 4]>,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes {{ rounds: {} }}", self.rounds)
    }
}

impl Aes {
    /// Expanded round keys as 16-byte blocks (for the AES-NI pipeline,
    /// which loads them directly into vector registers).
    #[inline]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    /// Construct from a 16-, 24-, or 32-byte key.
    ///
    /// # Panics
    /// Panics on any other key length — key sizing is a programming error,
    /// not a runtime condition.
    pub fn new(key: &[u8]) -> Self {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            24 => (6, 12),
            32 => (8, 14),
            n => panic!("invalid AES key length {n}"),
        };
        let nwords = 4 * (rounds + 1);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut round_keys = Vec::with_capacity(rounds + 1);
        let mut round_key_words = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            let mut rkw = [0u32; 4];
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                rkw[c] = u32::from_be_bytes(w[r * 4 + c]);
            }
            round_keys.push(rk);
            round_key_words.push(rkw);
        }
        Self { round_keys, round_key_words, rounds }
    }

    /// Encrypt one block given as four big-endian column words — the
    /// T-table fast path CTR mode feeds directly, skipping all byte
    /// (un)packing for the counter block.
    #[inline]
    pub fn encrypt_words(&self, input: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_key_words;
        let [mut w0, mut w1, mut w2, mut w3] = input;
        w0 ^= rk[0][0];
        w1 ^= rk[0][1];
        w2 ^= rk[0][2];
        w3 ^= rk[0][3];
        for rk_r in rk.iter().take(self.rounds).skip(1) {
            // ShiftRows is absorbed into the column rotation of the
            // lookups: row `r` of output column `c` comes from column
            // `c + r` of the input state.
            let t0 = TE[0][(w0 >> 24) as usize]
                ^ TE[1][((w1 >> 16) & 0xFF) as usize]
                ^ TE[2][((w2 >> 8) & 0xFF) as usize]
                ^ TE[3][(w3 & 0xFF) as usize]
                ^ rk_r[0];
            let t1 = TE[0][(w1 >> 24) as usize]
                ^ TE[1][((w2 >> 16) & 0xFF) as usize]
                ^ TE[2][((w3 >> 8) & 0xFF) as usize]
                ^ TE[3][(w0 & 0xFF) as usize]
                ^ rk_r[1];
            let t2 = TE[0][(w2 >> 24) as usize]
                ^ TE[1][((w3 >> 16) & 0xFF) as usize]
                ^ TE[2][((w0 >> 8) & 0xFF) as usize]
                ^ TE[3][(w1 & 0xFF) as usize]
                ^ rk_r[2];
            let t3 = TE[0][(w3 >> 24) as usize]
                ^ TE[1][((w0 >> 16) & 0xFF) as usize]
                ^ TE[2][((w1 >> 8) & 0xFF) as usize]
                ^ TE[3][(w2 & 0xFF) as usize]
                ^ rk_r[3];
            (w0, w1, w2, w3) = (t0, t1, t2, t3);
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let last = &rk[self.rounds];
        let sub = |w: u32, shift: u32| u32::from(SBOX[((w >> shift) & 0xFF) as usize]);
        let o0 = (sub(w0, 24) << 24) | (sub(w1, 16) << 16) | (sub(w2, 8) << 8) | sub(w3, 0);
        let o1 = (sub(w1, 24) << 24) | (sub(w2, 16) << 16) | (sub(w3, 8) << 8) | sub(w0, 0);
        let o2 = (sub(w2, 24) << 24) | (sub(w3, 16) << 16) | (sub(w0, 8) << 8) | sub(w1, 0);
        let o3 = (sub(w3, 24) << 24) | (sub(w0, 16) << 16) | (sub(w1, 8) << 8) | sub(w2, 0);
        [o0 ^ last[0], o1 ^ last[1], o2 ^ last[2], o3 ^ last[3]]
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let input = [
            u32::from_be_bytes(block[0..4].try_into().expect("4 bytes")),
            u32::from_be_bytes(block[4..8].try_into().expect("4 bytes")),
            u32::from_be_bytes(block[8..12].try_into().expect("4 bytes")),
            u32::from_be_bytes(block[12..16].try_into().expect("4 bytes")),
        ];
        let out = self.encrypt_words(input);
        for (c, w) in out.iter().enumerate() {
            block[c * 4..c * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
    }
}

#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State layout is column-major: byte `state[c*4 + r]` is row `r`, col `c`.
#[cfg(test)]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
        }
    }
}

#[cfg(test)]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[c * 4], state[c * 4 + 1], state[c * 4 + 2], state[c * 4 + 3]];
        state[c * 4] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[c * 4 + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[c * 4 + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[c * 4 + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn fips197_aes128_example() {
        // FIPS-197 Appendix B.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let aes = Aes::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key = hex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    /// Byte-oriented FIPS-197 encryption built from the textbook round
    /// primitives — an independent check on the T-table fast path.
    fn encrypt_block_bytewise(aes: &Aes, block: &mut [u8; 16]) {
        add_round_key(block, &aes.round_keys[0]);
        for r in 1..aes.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &aes.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &aes.round_keys[aes.rounds]);
    }

    #[test]
    fn table_path_matches_bytewise_path() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 29 + 3) as u8).collect();
            let aes = Aes::new(&key);
            for seed in 0u8..16 {
                let mut a = [0u8; 16];
                for (i, b) in a.iter_mut().enumerate() {
                    *b = seed.wrapping_mul(47).wrapping_add(i as u8 * 13);
                }
                let mut b = a;
                aes.encrypt_block(&mut a);
                encrypt_block_bytewise(&aes, &mut b);
                assert_eq!(a, b, "key_len {key_len} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 15]);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(&[0xAA; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("170") && !dbg.to_lowercase().contains("aa"), "{dbg}");
    }
}
