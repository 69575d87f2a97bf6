//! Counter-mode encryption of 64-byte NVM cache lines.
//!
//! The paper (§3.1): "Its hardware implementation typically encrypts a unique
//! counter together with the address of the data block into a bitstream
//! called one-time padding (OTP), and then it XORs this bitstream with the
//! data block to complete the encryption":
//!
//! * **E2** — `OTP = En(counter | address)` — [`otp_for_line`]
//! * **E3** — `EncData = OTP ⊕ Data` — [`encrypt_line`] / [`decrypt_line`]
//! * **E4** — `MAC = Hash(EncData, Counter)` — [`line_mac`]
//!
//! A 64-byte line needs four AES blocks of pad; each pad block binds the
//! counter, the line address, and the block index so no pad bytes repeat
//! across (counter, address) pairs.

use crate::aes::Aes128;
use crate::sha1::sha1_concat;

/// Size of a cache line in bytes (the BMO granularity; §4.3.2: "pre-execution
/// operations after the decoder stage all have one-cache-line granularity").
pub const LINE_BYTES: usize = 64;

/// Generates the one-time pad for a line: four AES-128 encryptions of
/// `(counter, address, block-index)` tuples.
pub fn otp_for_line(key: &Aes128, counter: u64, addr: u64) -> [u8; LINE_BYTES] {
    let mut otp = [0u8; LINE_BYTES];
    for i in 0..4usize {
        // Little-endian counter (bytes 0..8), low six address bytes
        // (8..14), block index (14..16); built as one word so the block
        // reaches the cipher in a single 16-byte store.
        let block =
            counter as u128 | ((addr & 0xFFFF_FFFF_FFFF) as u128) << 64 | (i as u128) << 112;
        let pad = key.encrypt_block(block.to_le_bytes());
        otp[16 * i..16 * (i + 1)].copy_from_slice(&pad);
    }
    otp
}

/// Encrypts a line by XOR with its one-time pad (sub-operation E3).
pub fn encrypt_line(data: &[u8; LINE_BYTES], otp: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for i in 0..LINE_BYTES {
        out[i] = data[i] ^ otp[i];
    }
    out
}

/// Decrypts a line. Counter-mode decryption is the same XOR; the separate
/// name keeps call sites self-documenting.
pub fn decrypt_line(cipher: &[u8; LINE_BYTES], otp: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    encrypt_line(cipher, otp)
}

/// Computes the per-line message authentication code
/// `MAC = Hash(EncData ‖ Counter)` (§4.2, sub-operation E4).
pub fn line_mac(cipher: &[u8; LINE_BYTES], counter: u64) -> [u8; 20] {
    sha1_concat(&[cipher, &counter.to_le_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Aes128 {
        Aes128::new([0x11; 16])
    }

    #[test]
    fn round_trip() {
        let k = key();
        let data = {
            let mut d = [0u8; LINE_BYTES];
            for (i, b) in d.iter_mut().enumerate() {
                *b = i as u8;
            }
            d
        };
        let otp = otp_for_line(&k, 42, 0x1000);
        let ct = encrypt_line(&data, &otp);
        assert_ne!(ct, data);
        assert_eq!(decrypt_line(&ct, &otp), data);
    }

    #[test]
    fn otp_unique_per_counter_and_address() {
        let k = key();
        let a = otp_for_line(&k, 1, 0x1000);
        let b = otp_for_line(&k, 2, 0x1000);
        let c = otp_for_line(&k, 1, 0x1040);
        assert_ne!(a, b, "same address, different counters");
        assert_ne!(a, c, "same counter, different addresses");
    }

    #[test]
    fn otp_blocks_do_not_repeat_within_line() {
        let k = key();
        let otp = otp_for_line(&k, 7, 0x2000);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(otp[16 * i..16 * i + 16], otp[16 * j..16 * j + 16]);
            }
        }
    }

    #[test]
    fn mac_binds_cipher_and_counter() {
        let ct = [0xAB; LINE_BYTES];
        let m1 = line_mac(&ct, 1);
        let m2 = line_mac(&ct, 2);
        assert_ne!(m1, m2);
        let mut ct2 = ct;
        ct2[0] ^= 1;
        assert_ne!(line_mac(&ct2, 1), m1);
    }

    #[test]
    fn otp_block_layout() {
        let k = key();
        let (counter, addr) = (0x0102_0304_0506_0708u64, 0xAABB_CCDD_EEFF_1122u64);
        let otp = otp_for_line(&k, counter, addr);
        for i in 0..4u16 {
            let mut block = [0u8; 16];
            block[0..8].copy_from_slice(&counter.to_le_bytes());
            block[8..14].copy_from_slice(&addr.to_le_bytes()[0..6]);
            block[14..16].copy_from_slice(&i.to_le_bytes());
            let i = i as usize;
            assert_eq!(
                otp[16 * i..16 * i + 16],
                k.encrypt_block(block),
                "block {i}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let k = key();
        assert_eq!(otp_for_line(&k, 9, 9), otp_for_line(&k, 9, 9));
    }
}
