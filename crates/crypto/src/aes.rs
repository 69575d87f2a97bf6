//! AES-128 block cipher (FIPS-197), implemented from the algebraic
//! definition.
//!
//! The S-box is derived at first use from its definition — the affine
//! transform of the multiplicative inverse in GF(2⁸) — rather than
//! transcribed, which makes the implementation self-checking (a single wrong
//! table entry would fail the FIPS-197 known-answer tests below).
//!
//! Counter-mode encryption of NVM cache lines ([`crate::ctr`]) only requires
//! the forward cipher, but the inverse cipher is provided for completeness
//! and testing.

use std::sync::OnceLock;

/// GF(2⁸) multiplication modulo the AES polynomial x⁸+x⁴+x³+x+1 (0x11B).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); 0 maps to 0 by convention.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8)* (order 255).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// Combined SubBytes+MixColumns lookup for the forward cipher:
    /// `te0[x]` is the column contribution `(2·S(x), S(x), S(x), 3·S(x))`
    /// as a big-endian word; the tables for the other three rows are byte
    /// rotations of this one, so only one is stored.
    te0: [u32; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        let mut te0 = [0u32; 256];
        for i in 0..256u16 {
            let inv = gf_inv(i as u8);
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
            let s = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            sbox[i as usize] = s;
            inv_sbox[s as usize] = i as u8;
            let s2 = xtime(s);
            te0[i as usize] = u32::from_be_bytes([s2, s, s, s ^ s2]);
        }
        Tables {
            sbox,
            inv_sbox,
            te0,
        }
    })
}

const NB: usize = 4; // columns in the state
const NR: usize = 10; // rounds for AES-128
const NK: usize = 4; // key words

/// An expanded AES-128 key.
///
/// # Example
///
/// ```
/// use janus_crypto::Aes128;
/// let aes = Aes128::new(*b"0123456789abcdef");
/// let block = *b"payload_16_bytes";
/// assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NR + 1],
    /// Round keys as big-endian column words, for the word-oriented
    /// forward cipher.
    round_key_words: [[u32; 4]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").field("rounds", &NR).finish()
    }
}

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys.
    pub fn new(key: [u8; 16]) -> Self {
        let t = tables();
        let mut w = [[0u8; 4]; NB * (NR + 1)];
        for i in 0..NK {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in NK..NB * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1); // RotWord
                for b in &mut temp {
                    *b = t.sbox[*b as usize]; // SubWord
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        let mut round_key_words = [[0u32; 4]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..NB {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[NB * r + c]);
                round_key_words[r][c] = u32::from_be_bytes(w[NB * r + c]);
            }
        }
        Aes128 {
            round_keys,
            round_key_words,
        }
    }

    /// Encrypts one 16-byte block: on the CPU's AES instructions when
    /// [`hardware_available`], else [`Aes128::encrypt_block_portable`].
    /// The counter-mode hot path encrypts four blocks per cache line.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if hardware_available() {
            // SAFETY: `hardware_available` confirmed the CPU has AES-NI.
            return unsafe { ni::encrypt_block(&self.round_keys, block) };
        }
        self.encrypt_block_portable(block)
    }

    /// Encrypts one 16-byte block without CPU cryptography instructions:
    /// the fallback of [`Aes128::encrypt_block`] and the oracle its
    /// hardware path is tested against.
    ///
    /// Word-oriented: each column is a big-endian `u32` and a full
    /// SubBytes+ShiftRows+MixColumns round is four table lookups (byte
    /// rotations of [`Tables::te0`]) per column. Identical output to the
    /// byte-wise definition.
    pub fn encrypt_block_portable(&self, block: [u8; 16]) -> [u8; 16] {
        let te0 = &tables().te0;
        let sbox = &tables().sbox;
        let rk = &self.round_key_words;
        let mut c = [0u32; 4];
        for (i, ci) in c.iter_mut().enumerate() {
            *ci = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4-byte column"))
                ^ rk[0][i];
        }
        for k in rk.iter().take(NR).skip(1) {
            // Output column i takes row r from input column (i + r) mod 4
            // (ShiftRows), folded through the merged S-box/MixColumns table.
            let n = [
                te0[(c[0] >> 24) as usize]
                    ^ te0[(c[1] >> 16) as usize & 0xFF].rotate_right(8)
                    ^ te0[(c[2] >> 8) as usize & 0xFF].rotate_right(16)
                    ^ te0[c[3] as usize & 0xFF].rotate_right(24)
                    ^ k[0],
                te0[(c[1] >> 24) as usize]
                    ^ te0[(c[2] >> 16) as usize & 0xFF].rotate_right(8)
                    ^ te0[(c[3] >> 8) as usize & 0xFF].rotate_right(16)
                    ^ te0[c[0] as usize & 0xFF].rotate_right(24)
                    ^ k[1],
                te0[(c[2] >> 24) as usize]
                    ^ te0[(c[3] >> 16) as usize & 0xFF].rotate_right(8)
                    ^ te0[(c[0] >> 8) as usize & 0xFF].rotate_right(16)
                    ^ te0[c[1] as usize & 0xFF].rotate_right(24)
                    ^ k[2],
                te0[(c[3] >> 24) as usize]
                    ^ te0[(c[0] >> 16) as usize & 0xFF].rotate_right(8)
                    ^ te0[(c[1] >> 8) as usize & 0xFF].rotate_right(16)
                    ^ te0[c[2] as usize & 0xFF].rotate_right(24)
                    ^ k[3],
            ];
            c = n;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let k = &rk[NR];
        let mut out = [0u8; 16];
        for i in 0..4 {
            let w = u32::from_be_bytes([
                sbox[(c[i] >> 24) as usize],
                sbox[(c[(i + 1) % 4] >> 16) as usize & 0xFF],
                sbox[(c[(i + 2) % 4] >> 8) as usize & 0xFF],
                sbox[c[(i + 3) % 4] as usize & 0xFF],
            ]) ^ k[i];
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let t = tables();
        let mut s = block;
        add_round_key(&mut s, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            inv_shift_rows(&mut s);
            sub_bytes(&mut s, &t.inv_sbox);
            add_round_key(&mut s, &self.round_keys[round]);
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        sub_bytes(&mut s, &t.inv_sbox);
        add_round_key(&mut s, &self.round_keys[0]);
        s
    }
}

/// Whether [`Aes128::encrypt_block`] runs on the CPU's AES instructions
/// (AES-NI). Detected on first use and fixed for the process.
pub fn hardware_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("aes"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// AES-128 encryption of one block with AES-NI. The round keys are
    /// the FIPS-197 byte strings, which is the byte order `aesenc` takes.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_block(round_keys: &[[u8; 16]; 11], block: [u8; 16]) -> [u8; 16] {
        let rk = |r: usize| _mm_loadu_si128(round_keys[r].as_ptr().cast::<__m128i>());
        let mut s = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), rk(0));
        for r in 1..10 {
            s = _mm_aesenc_si128(s, rk(r));
        }
        s = _mm_aesenclast_si128(s, rk(10));
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), s);
        out
    }
}

// State layout: s[r + 4c] is row r, column c (column-major, as in FIPS-197).

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in s.iter_mut() {
        *b = sbox[*b as usize];
    }
}

// Byte-wise forward round steps: superseded by the T-table path in
// `encrypt_block` but kept as the executable reference it is tested against.
#[cfg(test)]
fn shift_rows(s: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
        for c in 0..4 {
            s[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

fn inv_shift_rows(s: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
        for c in 0..4 {
            s[r + 4 * c] = row[(c + 4 - r) % 4];
        }
    }
}

/// Doubling in GF(2⁸) — `gf_mul(b, 2)` without the bit loop. MixColumns
/// only needs ×2 and ×3 (= ×2 ⊕ ×1), and it runs 36 times per block, so the
/// forward cipher uses this specialized form.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1B)
}

#[cfg(test)]
fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        // All four outputs share ⊕ of the column; ×3 x = ×2 x ⊕ x.
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        s[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        s[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        s[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        s[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        s[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        s[4 * c + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        s[4 * c + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        // Spot values from FIPS-197 Figure 7.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        // Inverse really inverts.
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn gf_mul_examples() {
        // {57} . {83} = {c1} (FIPS-197 §4.2)
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        // {57} . {13} = {fe}
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        let aes = Aes128::new(key);
        assert_eq!(
            hex::encode(&aes.encrypt_block(pt)),
            "3925841d02dc09fbdc118597196a0b32"
        );
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes128::new(key);
        let ct = aes.encrypt_block(pt);
        assert_eq!(hex::encode(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    /// The FIPS-197 byte-wise round sequence, used to validate the T-table
    /// implementation in `encrypt_block`.
    fn encrypt_block_reference(aes: &Aes128, block: [u8; 16]) -> [u8; 16] {
        let t = tables();
        let mut s = block;
        add_round_key(&mut s, &aes.round_keys[0]);
        for round in 1..NR {
            sub_bytes(&mut s, &t.sbox);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &aes.round_keys[round]);
        }
        sub_bytes(&mut s, &t.sbox);
        shift_rows(&mut s);
        add_round_key(&mut s, &aes.round_keys[NR]);
        s
    }

    #[test]
    fn ttable_matches_bytewise_reference() {
        let aes = Aes128::new([0x3C; 16]);
        let mut block = [0u8; 16];
        for i in 0..256u32 {
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(17).wrapping_add(j as u8 * 7);
            }
            assert_eq!(
                aes.encrypt_block_portable(block),
                encrypt_block_reference(&aes, block),
                "i={i}"
            );
        }
    }

    #[test]
    fn round_trip_random_blocks() {
        let aes = Aes128::new([0xA5; 16]);
        let mut block = [0u8; 16];
        for i in 0..500u32 {
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
            assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new([0; 16]);
        let b = Aes128::new([1; 16]);
        assert_ne!(a.encrypt_block([0; 16]), b.encrypt_block([0; 16]));
    }

    #[test]
    fn debug_hides_key_material() {
        let aes = Aes128::new([0x42; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("42"), "debug output leaked key bytes: {dbg}");
    }
}
