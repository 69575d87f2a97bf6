#![warn(missing_docs)]

//! # janus-crypto — functional cryptographic primitives for the NVM backend
//!
//! The Janus paper's evaluated NVM system integrates three backend memory
//! operations (BMOs): counter-mode **AES-128** encryption, **SHA-1**-based
//! Bonsai-Merkle-Tree integrity verification, and **MD5**/**CRC-32**
//! fingerprint deduplication (Table 3: "AES-128 (Encryption): 40 ns, SHA-1
//! (Integrity): 40 ns, MD5 (Deduplication): 321 ns"). This crate implements
//! all four primitives from scratch — no external crypto dependencies — and
//! validates them against the standard published test vectors (FIPS-197,
//! FIPS-180, RFC 1321, IEEE 802.3). On x86-64 CPUs with AES-NI and SHA-NI,
//! the AES rounds and the SHA-1 compression function run on those
//! instructions (detected once per process); the portable code is the
//! fallback and the oracle they are tested against.
//!
//! Timing is *not* modeled here: the simulator charges the paper's fixed
//! hardware latencies for each operation; this crate provides the functional
//! results so the system can be checked end-to-end (decrypt-verify round
//! trips, Merkle root checks, crash-recovery correctness).
//!
//! # Example
//!
//! ```
//! use janus_crypto::{Aes128, sha1, md5, crc32, hex};
//!
//! let key = Aes128::new([0u8; 16]);
//! let ct = key.encrypt_block([0u8; 16]);
//! assert_eq!(key.decrypt_block(ct), [0u8; 16]);
//!
//! assert_eq!(hex::encode(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
//! assert_eq!(hex::encode(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! ```

pub mod aes;
pub mod crc;
pub mod ctr;
pub mod md5;
pub mod sha1;

pub use aes::Aes128;
pub use crc::crc32;
pub use ctr::{decrypt_line, encrypt_line, line_mac, otp_for_line};
pub use md5::md5;
pub use sha1::sha1;

/// Minimal hex encoding used in doc tests and debugging output.
pub mod hex {
    /// Encodes bytes as lowercase hex.
    ///
    /// ```
    /// assert_eq!(janus_crypto::hex::encode(&[0xde, 0xad]), "dead");
    /// ```
    pub fn encode(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// The two fingerprint algorithms evaluated for deduplication (§5.2.4,
/// Figure 12): MD5 (stronger, 321 ns) and CRC-32 (lightweight, ~¼ of MD5's
/// latency, following DeWrite).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FingerprintAlgo {
    /// 128-bit MD5 digest of the cache line.
    #[default]
    Md5,
    /// 32-bit IEEE CRC of the cache line.
    Crc32,
}

impl FingerprintAlgo {
    /// Computes the fingerprint of `data` under this algorithm.
    ///
    /// MD5 yields its full 128-bit digest; CRC-32 yields the 32-bit checksum
    /// zero-extended to 128 bits (making collisions between distinct lines
    /// realistically possible, which the dedup table must tolerate).
    pub fn fingerprint(self, data: &[u8]) -> u128 {
        match self {
            FingerprintAlgo::Md5 => u128::from_be_bytes(md5(data)),
            FingerprintAlgo::Crc32 => crc32(data) as u128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_algos_differ_and_are_deterministic() {
        let data = [7u8; 64];
        let m = FingerprintAlgo::Md5.fingerprint(&data);
        let c = FingerprintAlgo::Crc32.fingerprint(&data);
        assert_eq!(m, FingerprintAlgo::Md5.fingerprint(&data));
        assert_eq!(c, FingerprintAlgo::Crc32.fingerprint(&data));
        assert_ne!(m, c);
        assert!(c <= u32::MAX as u128);
    }

    #[test]
    fn fingerprints_distinguish_values() {
        let a = [1u8; 64];
        let b = [2u8; 64];
        assert_ne!(
            FingerprintAlgo::Md5.fingerprint(&a),
            FingerprintAlgo::Md5.fingerprint(&b)
        );
        assert_ne!(
            FingerprintAlgo::Crc32.fingerprint(&a),
            FingerprintAlgo::Crc32.fingerprint(&b)
        );
    }
}
