//! SHA-1 (FIPS 180-4), used by the integrity-verification BMO.
//!
//! The paper's Bonsai Merkle Tree uses SHA-1 hashing hardware with a 40 ns
//! latency per node (Table 3); the message authentication code of each data
//! block is `MAC = Hash(EncData, Counter)` (§4.2). This module supplies the
//! functional digest.
//!
//! The implementation is streaming and allocation-free: callers on the
//! simulator hot path (Merkle node hashing, per-write MACs) hash millions of
//! short messages, so the digest must not heap-allocate a padded copy of its
//! input per call.

/// Incremental SHA-1 state: feed bytes with [`Sha1::update`], then consume
/// with [`Sha1::finalize`]. Padding lives on the stack.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Partial block awaiting compression.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message bytes fed so far.
    len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh state with the FIPS 180-4 initialization vector.
    pub fn new() -> Self {
        Sha1 {
            h: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data` into the state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return; // data exhausted before completing a block
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut self.h, chunk.try_into().expect("64-byte chunk"));
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Applies padding and returns the 160-bit digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then 64-bit big-endian length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress(&mut self.h, &block);

        let mut out = [0u8; 20];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Whether [`compress`] runs on the CPU's SHA extensions (SHA-NI).
/// Detected on first use and fixed for the process.
pub fn hardware_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The SHA-1 compression function: folds one 64-byte block into the
/// state `h`, on the CPU's SHA extensions when [`hardware_available`],
/// else with [`compress_portable`].
pub fn compress(h: &mut [u32; 5], chunk: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if hardware_available() {
        // SAFETY: `hardware_available` confirmed SHA, SSSE3 and SSE4.1.
        unsafe { ni::compress(h, chunk) };
        return;
    }
    compress_portable(h, chunk)
}

#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    /// [`super::compress`] with SHA-NI. Lanes hold words most significant
    /// first: `abcd` is `[a, b, c, d]` from the top lane down, and each
    /// message vector holds four consecutive schedule words `W[4g..4g+4]`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(h: &mut [u32; 5], chunk: &[u8; 64]) {
        // Reverses all 16 bytes: big-endian words, word 0 in the top lane.
        let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let mut w: [__m128i; 4] = [_mm_set_epi32(0, 0, 0, 0); 4];
        for (g, wg) in w.iter_mut().enumerate() {
            let bytes = _mm_loadu_si128(chunk.as_ptr().add(16 * g).cast());
            *wg = _mm_shuffle_epi8(bytes, bswap);
        }
        let abcd_in = _mm_shuffle_epi32(_mm_loadu_si128(h.as_ptr().cast()), 0x1B);
        let e_in = _mm_set_epi32(h[4] as i32, 0, 0, 0);

        let mut abcd = abcd_in;
        // The state entering the previous group of four rounds: four
        // rounds after it, e = rotl30(its a).
        let mut prev = abcd_in;
        // Group `g` of four rounds with boolean function `f` (g / 5). Spelt
        // out per group so every index is a constant and the schedule
        // stays in registers.
        macro_rules! group {
            ($g:literal, $f:literal) => {
                let g: usize = $g;
                if g >= 4 {
                    // W[4g..] from groups g-4 .. g-1, held in w[g % 4] onwards.
                    let x = _mm_sha1msg1_epu32(w[g % 4], w[(g + 1) % 4]);
                    w[g % 4] = _mm_sha1msg2_epu32(_mm_xor_si128(x, w[(g + 2) % 4]), w[(g + 3) % 4]);
                }
                let e = if g == 0 {
                    _mm_add_epi32(e_in, w[0])
                } else {
                    _mm_sha1nexte_epu32(prev, w[g % 4])
                };
                prev = abcd;
                abcd = _mm_sha1rnds4_epu32(abcd, e, $f);
            };
        }
        group!(0, 0);
        group!(1, 0);
        group!(2, 0);
        group!(3, 0);
        group!(4, 0);
        group!(5, 1);
        group!(6, 1);
        group!(7, 1);
        group!(8, 1);
        group!(9, 1);
        group!(10, 2);
        group!(11, 2);
        group!(12, 2);
        group!(13, 2);
        group!(14, 2);
        group!(15, 3);
        group!(16, 3);
        group!(17, 3);
        group!(18, 3);
        group!(19, 3);
        let e_out = _mm_sha1nexte_epu32(prev, e_in);
        abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B);
        _mm_storeu_si128(h.as_mut_ptr().cast(), abcd);
        h[4] = _mm_extract_epi32(e_out, 3) as u32;
    }
}

/// The SHA-1 compression function without CPU cryptography instructions:
/// the fallback of [`compress`] and the oracle its hardware path is tested
/// against.
pub fn compress_portable(h: &mut [u32; 5], chunk: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, word) in chunk.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    // Four fixed-bound phases instead of one loop with a per-round match:
    // the round function is branch-free within each phase.
    macro_rules! rounds {
        ($range:expr, $f:expr, $k:expr) => {
            for i in $range {
                let f: u32 = $f(b, c, d);
                let temp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add(w[i]);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = temp;
            }
        };
    }
    rounds!(
        0..20,
        |b: u32, c: u32, d: u32| (b & c) | ((!b) & d),
        0x5A82_7999u32
    );
    rounds!(20..40, |b: u32, c: u32, d: u32| b ^ c ^ d, 0x6ED9_EBA1u32);
    rounds!(
        40..60,
        |b: u32, c: u32, d: u32| (b & c) | (b & d) | (c & d),
        0x8F1B_BCDCu32
    );
    rounds!(60..80, |b: u32, c: u32, d: u32| b ^ c ^ d, 0xCA62_C1D6u32);
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Computes the 160-bit SHA-1 digest of `data`.
///
/// # Example
///
/// ```
/// use janus_crypto::{sha1, hex};
/// assert_eq!(
///     hex::encode(&sha1(b"")),
///     "da39a3ee5e6b4b0d3255bfef95601890afd80709"
/// );
/// ```
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut s = Sha1::new();
    s.update(data);
    s.finalize()
}

/// Computes SHA-1 over the concatenation of several byte slices without an
/// intermediate allocation.
///
/// Used for Merkle-tree node hashing (`Hash(child0 ‖ child1 ‖ …)`) and MAC
/// computation (`Hash(EncData ‖ Counter)`).
pub fn sha1_concat(parts: &[&[u8]]) -> [u8; 20] {
    let mut s = Sha1::new();
    for p in parts {
        s.update(p);
    }
    s.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips180_vectors() {
        assert_eq!(
            hex::encode(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex::encode(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex::encode(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn length_boundary_padding() {
        // Messages near the 55/56-byte padding boundary exercise the
        // two-block padding path.
        for len in 50..70 {
            let data = vec![0x5Au8; len];
            let d1 = sha1(&data);
            let d2 = sha1(&data);
            assert_eq!(d1, d2);
            // Appending one byte must change the digest.
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(sha1(&longer), d1, "len={len}");
        }
    }

    #[test]
    fn concat_equals_manual_concat() {
        let a = [1u8; 10];
        let b = [2u8; 20];
        let mut joined = Vec::new();
        joined.extend_from_slice(&a);
        joined.extend_from_slice(&b);
        assert_eq!(sha1_concat(&[&a, &b]), sha1(&joined));
    }

    #[test]
    fn streaming_split_points_agree() {
        // Feeding the message in every possible two-part split must match
        // the one-shot digest (exercises buffered partial blocks).
        let data: Vec<u8> = (0..200u8).collect();
        let oneshot = sha1(&data);
        for split in 0..=data.len() {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), oneshot, "split={split}");
        }
    }
}
