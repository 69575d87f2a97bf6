//! MD5 (RFC 1321), used as the deduplication fingerprint.
//!
//! The paper's deduplication BMO hashes each cache line to detect duplicate
//! values; its default configuration uses MD5 at 321 ns per line (Table 3,
//! following NV-Dedup/DeWrite). The sine-derived round constants are computed
//! at first use from their definition `K[i] = ⌊|sin(i+1)|·2³²⌋` rather than
//! transcribed.

use std::sync::OnceLock;

/// Per-round left-rotate amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, // round 1
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, // round 2
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, // round 3
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, // round 4
];

fn k_table() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let mut k = [0u32; 64];
        for (i, ki) in k.iter_mut().enumerate() {
            *ki = (((i as f64 + 1.0).sin().abs()) * 4294967296.0) as u32;
        }
        k
    })
}

/// Computes the 128-bit MD5 digest of `data`.
///
/// # Example
///
/// ```
/// use janus_crypto::{md5, hex};
/// assert_eq!(hex::encode(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
pub fn md5(data: &[u8]) -> [u8; 16] {
    let k = k_table();
    let mut h: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

    // Whole blocks straight from the input; padding on the stack, so no
    // per-call allocation (janus-benchmark's ledger times one digest per
    // replayed write).
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        compress(&mut h, k, chunk.try_into().expect("64-byte chunk"));
    }
    let rem = chunks.remainder();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 64];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    if rem.len() >= 56 {
        compress(&mut h, k, &tail);
        tail = [0u8; 64];
    }
    tail[56..].copy_from_slice(&bit_len.to_le_bytes());
    compress(&mut h, k, &tail);

    let mut out = [0u8; 16];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

fn compress(h: &mut [u32; 4], k: &[u32; 64], chunk: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (i, word) in chunk.chunks_exact(4).enumerate() {
        m[i] = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
    }
    let (mut a, mut b, mut c, mut d) = (h[0], h[1], h[2], h[3]);
    // Four fixed-bound phases instead of one loop with a per-round match:
    // the round function and message-word schedule are branch-free within
    // each phase.
    macro_rules! rounds {
        ($range:expr, $f:expr, $g:expr) => {
            for i in $range {
                let f: u32 = $f(b, c, d);
                let g: usize = $g(i);
                let f2 = f.wrapping_add(a).wrapping_add(k[i]).wrapping_add(m[g]);
                a = d;
                d = c;
                c = b;
                b = b.wrapping_add(f2.rotate_left(S[i]));
            }
        };
    }
    rounds!(
        0..16,
        |b: u32, c: u32, d: u32| (b & c) | ((!b) & d),
        |i: usize| i
    );
    rounds!(
        16..32,
        |b: u32, c: u32, d: u32| (d & b) | ((!d) & c),
        |i: usize| (5 * i + 1) % 16
    );
    rounds!(32..48, |b: u32, c: u32, d: u32| b ^ c ^ d, |i: usize| (3
        * i
        + 5)
        % 16);
    rounds!(48..64, |b: u32, c: u32, d: u32| c ^ (b | !d), |i: usize| (7
        * i)
        % 16);
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc1321_test_suite() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(
                hex::encode(&md5(input.as_bytes())),
                expected,
                "input={input:?}"
            );
        }
    }

    #[test]
    fn k_constants_match_reference_values() {
        let k = k_table();
        // First and last constants from RFC 1321's reference implementation.
        assert_eq!(k[0], 0xd76a_a478);
        assert_eq!(k[1], 0xe8c7_b756);
        assert_eq!(k[63], 0xeb86_d391);
    }

    #[test]
    fn padding_boundaries() {
        for len in 50..70 {
            let data = vec![0xA5u8; len];
            let d = md5(&data);
            let mut longer = data.clone();
            longer.push(1);
            assert_ne!(md5(&longer), d, "len={len}");
        }
    }

    #[test]
    fn cache_line_sized_inputs() {
        // The dedup BMO always hashes 64-byte lines; two lines differing in
        // one byte must fingerprint differently.
        let mut a = [0u8; 64];
        let b = a;
        a[63] = 1;
        assert_ne!(md5(&a), md5(&b));
    }
}
