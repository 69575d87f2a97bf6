//! Property-based tests for the cryptographic primitives (ported from
//! proptest to the in-repo janus-check harness).

use janus_check::{assume, forall, gen};
use janus_crypto::aes::Aes128;
use janus_crypto::ctr::{decrypt_line, encrypt_line, otp_for_line};
// `sha1` names both the module (hardware/portable compression) and the
// one-shot digest function.
use janus_crypto::{crc32, md5, sha1, FingerprintAlgo};

/// AES decrypt(encrypt(x)) == x for any block and key.
#[test]
fn aes_round_trip() {
    let g = gen::pair(&gen::bytes16(), &gen::bytes16());
    forall(&g, |(key, block)| {
        let aes = Aes128::new(*key);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(*block)), *block);
    });
}

/// AES is a permutation: distinct plaintexts yield distinct ciphertexts.
#[test]
fn aes_injective() {
    let g = gen::tuple3(&gen::bytes16(), &gen::bytes16(), &gen::bytes16());
    forall(&g, |(key, a, b)| {
        assume(a != b);
        let aes = Aes128::new(*key);
        assert_ne!(aes.encrypt_block(*a), aes.encrypt_block(*b));
    });
}

/// Counter-mode line encryption round-trips under any (counter, addr).
#[test]
fn ctr_round_trip() {
    let g = gen::tuple4(
        &gen::bytes16(),
        &gen::vec_of(&gen::any_u8(), 64..65),
        &gen::any_u64(),
        &gen::any_u64(),
    );
    forall(&g, |(key, data, counter, addr)| {
        let aes = Aes128::new(*key);
        let line: [u8; 64] = data.clone().try_into().unwrap();
        let otp = otp_for_line(&aes, *counter, *addr);
        assert_eq!(decrypt_line(&encrypt_line(&line, &otp), &otp), line);
    });
}

/// Digests are deterministic and input-sensitive.
#[test]
fn digests_deterministic() {
    let data = gen::vec_of(&gen::any_u8(), 0..200);
    forall(&data, |data| {
        assert_eq!(md5(data), md5(data));
        assert_eq!(sha1(data), sha1(data));
        assert_eq!(crc32(data), crc32(data));
    });
}

/// Appending a byte changes every digest (for these sizes, collisions
/// would be astronomically unlikely — a failure indicates a bug).
#[test]
fn digests_extension_sensitive() {
    let g = gen::pair(&gen::vec_of(&gen::any_u8(), 0..100), &gen::any_u8());
    forall(&g, |(data, extra)| {
        let mut longer = data.clone();
        longer.push(*extra);
        assert_ne!(md5(data), md5(&longer));
        assert_ne!(sha1(data), sha1(&longer));
    });
}

/// The AES-NI path of `encrypt_block` agrees with the portable cipher for
/// any key and block.
#[test]
fn aes_hardware_matches_portable() {
    if !janus_crypto::aes::hardware_available() {
        eprintln!("skipped: this CPU has no AES instructions");
        return;
    }
    let g = gen::pair(&gen::bytes16(), &gen::bytes16());
    forall(&g, |(key, block)| {
        let aes = Aes128::new(*key);
        assert_eq!(
            aes.encrypt_block(*block),
            aes.encrypt_block_portable(*block)
        );
    });
}

/// The SHA-NI compression function agrees with the portable one for any
/// state and block.
#[test]
fn sha1_compress_hardware_matches_portable() {
    if !sha1::hardware_available() {
        eprintln!("skipped: this CPU has no SHA instructions");
        return;
    }
    let g = gen::pair(
        &gen::vec_of(&gen::any_u64(), 5..6),
        &gen::vec_of(&gen::any_u8(), 64..65),
    );
    forall(&g, |(state, block)| {
        let mut hw: [u32; 5] = std::array::from_fn(|i| state[i] as u32);
        let mut portable = hw;
        let block: &[u8; 64] = block.as_slice().try_into().unwrap();
        sha1::compress(&mut hw, block);
        sha1::compress_portable(&mut portable, block);
        assert_eq!(hw, portable);
    });
}

/// SHA-1 on the portable compression function alone, padding by hand.
fn sha1_portable(data: &[u8]) -> [u8; 20] {
    let mut h = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        sha1::compress_portable(&mut h, block.try_into().unwrap());
    }
    let mut out = [0u8; 20];
    for (o, w) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// `sha1()` (hardware compression where present) agrees with the
/// portable digest at every message length 0..=200.
#[test]
fn sha1_every_length_matches_portable() {
    if !sha1::hardware_available() {
        eprintln!("skipped: this CPU has no SHA instructions");
        return;
    }
    let data = gen::vec_of(&gen::any_u8(), 200..201);
    forall(&data, |data| {
        for len in 0..=data.len() {
            assert_eq!(sha1(&data[..len]), sha1_portable(&data[..len]), "len={len}");
        }
    });
}

/// Fingerprints agree with their base digest.
#[test]
fn fingerprint_consistency() {
    let data = gen::vec_of(&gen::any_u8(), 64..65);
    forall(&data, |data| {
        assert_eq!(
            FingerprintAlgo::Md5.fingerprint(data),
            u128::from_be_bytes(md5(data))
        );
        assert_eq!(
            FingerprintAlgo::Crc32.fingerprint(data),
            crc32(data) as u128
        );
    });
}
