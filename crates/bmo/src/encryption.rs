//! The counter-mode encryption engine (sub-operations E1–E4, functional
//! side).
//!
//! Each dedup-heap slot is encrypted under a per-slot counter that
//! monotonically increases on reuse (E1), a one-time pad derived from the
//! counter and the slot's NVM address (E2), an XOR (E3), and a MAC over the
//! ciphertext and counter (E4). The caller allocates the counters:
//! [`crate::pipeline::BmoPipeline`] keeps the one write counter, which
//! crash recovery restores.

use janus_crypto::aes::Aes128;
use janus_crypto::ctr::{decrypt_line, encrypt_line, line_mac, otp_for_line};
use janus_nvm::line::Line;

use crate::metadata::slot_data_addr;

/// An encrypted slot write ready to be placed in NVM.
#[derive(Clone, Copy, Debug)]
pub struct EncryptedWrite {
    /// The counter used (store in the slot's metadata entry).
    pub counter: u64,
    /// The ciphertext line.
    pub cipher: Line,
    /// `MAC = Hash(EncData ‖ Counter)`.
    pub mac: [u8; 20],
}

/// The engine: the expanded AES key.
///
/// # Example
///
/// ```
/// use janus_bmo::encryption::EncryptionEngine;
/// use janus_nvm::line::Line;
///
/// let e = EncryptionEngine::new([7u8; 16]);
/// let w = e.encrypt_slot_with_counter(3, 1, &Line::splat(0x5A));
/// assert_eq!(e.decrypt_slot(3, w.counter, &w.cipher), Line::splat(0x5A));
/// assert!(e.verify_mac(&w.cipher, w.counter, &w.mac));
/// ```
#[derive(Clone, Debug)]
pub struct EncryptionEngine {
    aes: Aes128,
}

impl EncryptionEngine {
    /// Creates an engine with the given 128-bit memory encryption key.
    pub fn new(key: [u8; 16]) -> Self {
        EncryptionEngine {
            aes: Aes128::new(key),
        }
    }

    /// E2+E3+E4 for a slot write under `counter` (E1, allocated by the
    /// caller; 0 is reserved for "never written").
    pub fn encrypt_slot_with_counter(
        &self,
        slot: u64,
        counter: u64,
        data: &Line,
    ) -> EncryptedWrite {
        let otp = otp_for_line(&self.aes, counter, slot_data_addr(slot).byte());
        let cipher = Line(encrypt_line(data.as_bytes(), &otp));
        let mac = line_mac(cipher.as_bytes(), counter);
        EncryptedWrite {
            counter,
            cipher,
            mac,
        }
    }

    /// Decrypts a slot's ciphertext under its counter.
    pub fn decrypt_slot(&self, slot: u64, counter: u64, cipher: &Line) -> Line {
        let otp = otp_for_line(&self.aes, counter, slot_data_addr(slot).byte());
        Line(decrypt_line(cipher.as_bytes(), &otp))
    }

    /// Checks a slot's MAC.
    pub fn verify_mac(&self, cipher: &Line, counter: u64, mac: &[u8; 20]) -> bool {
        line_mac(cipher.as_bytes(), counter) == *mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> EncryptionEngine {
        EncryptionEngine::new([0xAA; 16])
    }

    #[test]
    fn cipher_differs_from_plain_and_round_trips() {
        let e = engine();
        let data = Line::from_words(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let w = e.encrypt_slot_with_counter(10, 1, &data);
        assert_ne!(w.cipher, data);
        assert_eq!(e.decrypt_slot(10, w.counter, &w.cipher), data);
    }

    #[test]
    fn same_data_different_slots_gets_different_cipher() {
        let e = engine();
        let data = Line::splat(3);
        let w1 = e.encrypt_slot_with_counter(1, 1, &data);
        let w2 = e.encrypt_slot_with_counter(2, 1, &data);
        assert_ne!(w1.cipher, w2.cipher, "the address diversifies the pad");
    }

    #[test]
    fn counter_reuse_same_slot_changes_cipher() {
        let e = engine();
        let data = Line::splat(3);
        let w1 = e.encrypt_slot_with_counter(1, 1, &data);
        let w2 = e.encrypt_slot_with_counter(1, 2, &data);
        assert_ne!(w1.cipher, w2.cipher, "the counter diversifies the pad");
    }

    #[test]
    fn mac_detects_tampering() {
        let e = engine();
        let w = e.encrypt_slot_with_counter(5, 1, &Line::splat(9));
        assert!(e.verify_mac(&w.cipher, w.counter, &w.mac));
        let mut tampered = w.cipher;
        tampered.0[0] ^= 1;
        assert!(!e.verify_mac(&tampered, w.counter, &w.mac));
        assert!(!e.verify_mac(&w.cipher, w.counter + 1, &w.mac));
    }

    #[test]
    fn wrong_key_fails_decrypt() {
        let e1 = engine();
        let e2 = EncryptionEngine::new([0xBB; 16]);
        let data = Line::splat(4);
        let w = e1.encrypt_slot_with_counter(0, 1, &data);
        assert_ne!(e2.decrypt_slot(0, w.counter, &w.cipher), data);
    }
}
