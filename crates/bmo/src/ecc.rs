//! SECDED error correction (Table 1, "Durability / Error Correction").
//!
//! A Hamming(72,64) code per 8-byte word: 7 Hamming check bits correct any
//! single-bit error and an overall parity bit detects (but cannot correct)
//! double-bit errors — the standard memory-ECC organization, costing 8
//! check bits per 64 data bits (12.5 %), with sub-nanosecond hardware
//! latency (Table 1 quotes 0.4–3 ns).
//!
//! NVM cells wear out and stick; per-word SECDED keeps single stuck bits
//! transparent. The module is a self-contained functional substrate: the
//! timing model charges the (negligible) Table-1 latency; these routines
//! provide the encode/decode/correct behaviour and its tests.

use janus_nvm::line::{Line, LINE_BYTES};

/// The 8 check bits protecting one 64-bit word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Check(pub u8);

/// Decode outcome for one word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// No error detected.
    Clean(u64),
    /// A single-bit error was corrected (bit index in the 72-bit codeword
    /// space; data errors report the corrected word).
    Corrected(u64),
    /// An uncorrectable (≥2-bit) error was detected.
    Uncorrectable,
}

impl Decoded {
    /// The recovered word, if any.
    pub fn value(self) -> Option<u64> {
        match self {
            Decoded::Clean(w) | Decoded::Corrected(w) => Some(w),
            Decoded::Uncorrectable => None,
        }
    }
}

/// Codeword layout: bits 1..=71 (1-indexed, classic Hamming layout);
/// power-of-two positions hold check bits, the rest data bits in order.
/// `POSITION[k]` is the codeword position of data bit `k`.
const POSITION: [u8; 64] = {
    let mut pos = [0u8; 64];
    let mut k = 0;
    let mut p = 1u32;
    while p <= 71 {
        if !p.is_power_of_two() {
            pos[k] = p as u8;
            k += 1;
        }
        p += 1;
    }
    pos
};

/// `COVER[i]` holds the data bits whose codeword position has bit `i` set,
/// so Hamming check bit `i` is the parity of `word & COVER[i]`.
const COVER: [u64; 7] = {
    let mut cover = [0u64; 7];
    let mut k = 0;
    while k < 64 {
        let mut i = 0;
        while i < 7 {
            if POSITION[k] >> i & 1 == 1 {
                cover[i] |= 1 << k;
            }
            i += 1;
        }
        k += 1;
    }
    cover
};

/// Marks a syndrome that names no data bit (a check-bit position, or a
/// position outside the 72-bit codeword).
const NO_DATA_BIT: u8 = u8::MAX;

/// Syndrome (codeword position) → the data bit stored there.
const DATA_BIT: [u8; 128] = {
    let mut table = [NO_DATA_BIT; 128];
    let mut k = 0;
    while k < 64 {
        table[POSITION[k] as usize] = k as u8;
        k += 1;
    }
    table
};

/// The 7 Hamming check bits of a word's data positions.
fn hamming_bits(word: u64) -> u8 {
    let mut check = 0u8;
    for (i, cover) in COVER.iter().enumerate() {
        check |= ((word & cover).count_ones() as u8 & 1) << i;
    }
    check
}

/// Encodes a word: returns its SECDED check byte (7 Hamming bits + overall
/// parity in bit 7).
pub fn encode(word: u64) -> Check {
    let ham = hamming_bits(word);
    // Overall parity covers the 64 data bits and the 7 hamming bits.
    let overall = (word.count_ones() + ham.count_ones()) as u8 & 1;
    Check(ham | (overall << 7))
}

/// Decodes a possibly corrupted `(word, check)` pair.
pub fn decode(word: u64, check: Check) -> Decoded {
    let stored_ham = check.0 & 0x7F;
    // Each stored check bit sits at position 2^i, the only check position
    // its own parity group covers, so the syndrome is a plain XOR.
    let syndrome = hamming_bits(word) ^ stored_ham;
    let overall_stored = check.0 >> 7;
    let overall_actual = (word.count_ones() + stored_ham.count_ones()) as u8 & 1;
    let overall_bad = overall_stored != overall_actual;

    match (syndrome, overall_bad) {
        (0, false) => Decoded::Clean(word),
        (0, true) => {
            // The overall parity bit itself flipped; data intact.
            Decoded::Corrected(word)
        }
        (s, true) if (1..=71).contains(&s) => {
            // Single-bit error at position s: flip it if it holds data (a
            // flipped check bit leaves the word intact).
            match DATA_BIT[s as usize] {
                NO_DATA_BIT => Decoded::Corrected(word),
                k => Decoded::Corrected(word ^ (1 << k)),
            }
        }
        // Syndrome non-zero but overall parity consistent → double error.
        _ => Decoded::Uncorrectable,
    }
}

/// Check bytes for a whole 64-byte line (one per u64 word).
pub fn encode_line(line: &Line) -> [Check; 8] {
    let mut out = [Check(0); 8];
    for (k, o) in out.iter_mut().enumerate() {
        *o = encode(line.read_u64(k * 8));
    }
    out
}

/// Decodes a line; returns the corrected line and the number of corrected
/// words, or `None` if any word was uncorrectable.
pub fn decode_line(line: &Line, checks: &[Check; 8]) -> Option<(Line, usize)> {
    let mut out = Line::zero();
    let mut corrected = 0;
    for (k, check) in checks.iter().enumerate().take(LINE_BYTES / 8) {
        match decode(line.read_u64(k * 8), *check) {
            Decoded::Clean(w) => out.write_u64(k * 8, w),
            Decoded::Corrected(w) => {
                corrected += 1;
                out.write_u64(k * 8, w);
            }
            Decoded::Uncorrectable => return None,
        }
    }
    Some((out, corrected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_check::{forall_cfg, gen, Config};
    use janus_sim::rng::SimRng;

    /// The bit-serial codec: builds the 128-bit codeword one bit at a time
    /// and recomputes every parity group over positions 1..=71. Kept as the
    /// executable specification the mask codec is held to.
    mod serial {
        use super::super::{Check, Decoded};

        fn data_positions() -> impl Iterator<Item = u32> {
            (1u32..=71).filter(|p| !p.is_power_of_two())
        }

        fn spread(word: u64) -> u128 {
            let mut cw: u128 = 0;
            for (k, p) in data_positions().enumerate() {
                if word >> k & 1 == 1 {
                    cw |= 1u128 << p;
                }
            }
            cw
        }

        fn gather(cw: u128) -> u64 {
            let mut word = 0u64;
            for (k, p) in data_positions().enumerate() {
                if cw >> p & 1 == 1 {
                    word |= 1u64 << k;
                }
            }
            word
        }

        fn hamming_bits(cw: u128) -> u8 {
            let mut check = 0u8;
            for i in 0..7u32 {
                let mut parity = 0u32;
                for p in 1u32..=71 {
                    if p >> i & 1 == 1 && cw >> p & 1 == 1 {
                        parity ^= 1;
                    }
                }
                check |= (parity as u8) << i;
            }
            check
        }

        pub fn encode(word: u64) -> Check {
            let ham = hamming_bits(spread(word));
            let overall = (word.count_ones() + ham.count_ones()) as u8 & 1;
            Check(ham | (overall << 7))
        }

        pub fn decode(word: u64, check: Check) -> Decoded {
            let mut cw = spread(word);
            let stored_ham = check.0 & 0x7F;
            for i in 0..7u32 {
                if stored_ham >> i & 1 == 1 {
                    cw |= 1u128 << (1u32 << i);
                }
            }
            let syndrome = u32::from(hamming_bits(cw));
            let overall_stored = check.0 >> 7;
            let overall_actual = (word.count_ones() + stored_ham.count_ones()) as u8 & 1;
            match (syndrome, overall_stored != overall_actual) {
                (0, false) => Decoded::Clean(word),
                (0, true) => Decoded::Corrected(word),
                (s, true) if (1..=71).contains(&s) => Decoded::Corrected(gather(cw ^ (1u128 << s))),
                _ => Decoded::Uncorrectable,
            }
        }
    }

    /// Flips codeword bit `bit` of `(word, check)`: 0..64 are data bits,
    /// 64..72 the check byte; anything else flips nothing.
    fn flip(word: u64, check: Check, bit: u32) -> (u64, Check) {
        match bit {
            0..=63 => (word ^ (1 << bit), check),
            64..=71 => (word, Check(check.0 ^ (1 << (bit - 64)))),
            _ => (word, check),
        }
    }

    #[test]
    fn codec_matches_the_bit_serial_oracle() {
        // Flip indices 72..=79 mean "no flip", so a case carries 0, 1 or 2
        // flipped codeword bits (equal indices cancel to 0).
        let cases = gen::tuple4(
            &gen::any_u64(),
            &gen::any_u8(),
            &gen::range_u32(0..80),
            &gen::range_u32(0..80),
        );
        forall_cfg(
            &Config::with_cases(2_000),
            &cases,
            |&(word, check, a, b)| {
                assert_eq!(encode(word), serial::encode(word), "encode {word:#x}");
                for check in [encode(word), Check(check)] {
                    let (w, c) = flip(word, check, a);
                    let (w, c) = flip(w, c, b);
                    assert_eq!(
                        decode(w, c),
                        serial::decode(w, c),
                        "decode {w:#x} / {:#04x}",
                        c.0
                    );
                }
            },
        );
    }

    #[test]
    fn exhaustive_flips_match_the_oracle() {
        for word in [
            0u64,
            u64::MAX,
            0xA5A5_5A5A_0F0F_F0F0,
            0x0123_4567_89AB_CDEF,
            0x8000_0000_0000_0001,
        ] {
            let check = encode(word);
            assert_eq!(check, serial::encode(word));
            for a in 0..72 {
                let (w1, c1) = flip(word, check, a);
                let single = decode(w1, c1);
                assert_eq!(single, serial::decode(w1, c1), "{word:#x} bit {a}");
                assert_eq!(single.value(), Some(word), "{word:#x} bit {a}");
                for b in a + 1..72 {
                    let (w2, c2) = flip(w1, c1, b);
                    let double = decode(w2, c2);
                    assert_eq!(double, serial::decode(w2, c2), "{word:#x} bits {a},{b}");
                    assert_eq!(double, Decoded::Uncorrectable, "{word:#x} bits {a},{b}");
                }
            }
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for w in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let c = encode(w);
            assert_eq!(decode(w, c), Decoded::Clean(w));
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let word = 0xA5A5_5A5A_0F0F_F0F0u64;
        let check = encode(word);
        for bit in 0..64 {
            let corrupted = word ^ (1u64 << bit);
            match decode(corrupted, check) {
                Decoded::Corrected(w) => assert_eq!(w, word, "bit {bit}"),
                other => panic!("bit {bit}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        let word = 0x0123_4567_89AB_CDEFu64;
        let check = encode(word);
        for bit in 0..8 {
            let corrupted = Check(check.0 ^ (1 << bit));
            match decode(word, corrupted) {
                Decoded::Corrected(w) => assert_eq!(w, word, "check bit {bit}"),
                other => panic!("check bit {bit}: {other:?}"),
            }
        }
    }

    #[test]
    fn double_bit_errors_are_detected_not_miscorrected() {
        let mut rng = SimRng::new(7);
        let mut detected = 0;
        let trials = 500;
        for _ in 0..trials {
            let word = rng.next_u64();
            let check = encode(word);
            let b1 = rng.gen_range(64);
            let mut b2 = rng.gen_range(64);
            while b2 == b1 {
                b2 = rng.gen_range(64);
            }
            let corrupted = word ^ (1 << b1) ^ (1 << b2);
            match decode(corrupted, check) {
                Decoded::Uncorrectable => detected += 1,
                Decoded::Corrected(w) => {
                    assert_ne!(w, corrupted, "double error silently accepted");
                    panic!("double error mis-corrected");
                }
                Decoded::Clean(_) => panic!("double error undetected"),
            }
        }
        assert_eq!(detected, trials);
    }

    #[test]
    fn random_round_trip_fuzz() {
        let mut rng = SimRng::new(13);
        for _ in 0..2_000 {
            let w = rng.next_u64();
            let c = encode(w);
            // flip one random of the 72 bits
            let bit = rng.gen_range(72);
            let (cw, cc) = if bit < 64 {
                (w ^ (1u64 << bit), c)
            } else {
                (w, Check(c.0 ^ (1 << (bit - 64))))
            };
            assert_eq!(decode(cw, cc).value(), Some(w));
        }
    }

    #[test]
    fn line_level_encode_decode() {
        let line = Line::from_words(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let checks = encode_line(&line);
        // Clean.
        assert_eq!(decode_line(&line, &checks), Some((line, 0)));
        // One flipped bit in word 3.
        let mut bad = line;
        bad.write_u64(24, line.read_u64(24) ^ (1 << 17));
        assert_eq!(decode_line(&bad, &checks), Some((line, 1)));
        // Two flipped bits in one word: uncorrectable.
        let mut worse = line;
        worse.write_u64(24, line.read_u64(24) ^ 0b11);
        assert_eq!(decode_line(&worse, &checks), None);
    }

    #[test]
    fn storage_overhead_is_one_byte_per_word() {
        // 8 check bytes per 64-byte line = 12.5% — the standard ECC DIMM
        // organization.
        assert_eq!(std::mem::size_of::<[Check; 8]>(), 8);
    }
}
