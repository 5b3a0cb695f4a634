//! Zig-zag coefficient ordering.
//!
//! JPEG entropy coding serializes each 8×8 block in zig-zag order so that
//! the low-frequency coefficients (which are statistically larger) come
//! first and the trailing high-frequency zeros compress into EOB symbols.
//! Coefficients in this crate are *stored* in natural (row-major frequency)
//! order; the permutation is applied only at the entropy-coding boundary.

/// `ZIGZAG[i]` is the natural-order index of the `i`-th zig-zag position.
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// `NATURAL_TO_ZIGZAG[n]` is the zig-zag position of natural-order index `n`
/// (the inverse permutation of [`ZIGZAG`]).
const NATURAL_TO_ZIGZAG: [usize; 64] = build_inverse();

/// [`ZIGZAG`] as a byte table (lepton-style `UNZIGZAG`): the encoder and
/// decoder hot loops index this 64-byte LUT — exactly one cache line —
/// instead of the 512-byte `usize` table.
pub const UNZIGZAG: [u8; 64] = build_unzigzag();

/// Byte-wise permutation tables: `MASK_TO_ZIGZAG[k][b]` is the zig-zag-order
/// bitmask contributed by byte `b` at byte position `k` of a natural-order
/// 64-bit coefficient mask. ORing the eight lookups permutes the whole
/// mask in constant time — the encoder's AC band rule uses this instead of
/// scattering one bit per set bit (16 KiB).
pub static MASK_TO_ZIGZAG: [[u64; 256]; 8] = build_mask_lut();

const fn build_inverse() -> [usize; 64] {
    let mut inv = [0usize; 64];
    let mut i = 0;
    while i < 64 {
        inv[ZIGZAG[i]] = i;
        i += 1;
    }
    inv
}

const fn build_mask_lut() -> [[u64; 256]; 8] {
    let mut lut = [[0u64; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut m = 0u64;
            let mut j = 0;
            while j < 8 {
                if b & (1 << j) != 0 {
                    m |= 1 << NATURAL_TO_ZIGZAG[8 * k + j];
                }
                j += 1;
            }
            lut[k][b] = m;
            b += 1;
        }
        k += 1;
    }
    lut
}

const fn build_unzigzag() -> [u8; 64] {
    let mut zz = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        zz[i] = ZIGZAG[i] as u8;
        i += 1;
    }
    zz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in ZIGZAG.iter() {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inverse_is_consistent() {
        for z in 0..64 {
            assert_eq!(NATURAL_TO_ZIGZAG[ZIGZAG[z]], z);
        }
    }

    #[test]
    fn unzigzag_matches_zigzag() {
        for z in 0..64 {
            assert_eq!(usize::from(UNZIGZAG[z]), ZIGZAG[z]);
        }
    }

    #[test]
    fn first_and_last_entries_match_spec() {
        // First row of the spec's zig-zag table.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        // DC is always first; the highest frequency is always last.
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn mask_lut_permutes_bitmasks() {
        // Single bits land on their zig-zag position.
        for n in 0..64 {
            let zz: u64 = (0..8)
                .map(|k| MASK_TO_ZIGZAG[k][((1u64 << n) >> (8 * k)) as u8 as usize])
                .fold(0, |a, m| a | m);
            assert_eq!(zz, 1u64 << NATURAL_TO_ZIGZAG[n], "bit {n}");
        }
        // A pseudo-random dense mask permutes bit-for-bit.
        let m: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut expect = 0u64;
        for (n, &zz) in NATURAL_TO_ZIGZAG.iter().enumerate() {
            if m & (1 << n) != 0 {
                expect |= 1 << zz;
            }
        }
        let got = (0..8).fold(0u64, |a, k| a | MASK_TO_ZIGZAG[k][(m >> (8 * k)) as u8 as usize]);
        assert_eq!(got, expect);
    }

    #[test]
    fn diagonal_neighbors() {
        // Spot-check a mid-table run against ITU T.81 Figure A.6.
        assert_eq!(&ZIGZAG[20..25], &[40, 48, 41, 34, 27]);
    }
}
