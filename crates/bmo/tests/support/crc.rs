// Forged CRC-32 collisions, shared by the dedup unit tests (through
// `include!`) and the property tests.

use janus_crypto::crc32;
use janus_nvm::line::Line;

/// `base` with its last four bytes chosen so that `crc32(line) == target`.
/// CRC-32 is affine over GF(2): flipping tail bit `i` XORs a fixed column
/// into the checksum, and for CRC-32 those 32 columns are independent, so
/// Gaussian elimination solves for any target.
pub fn with_crc(base: Line, target: u32) -> Line {
    let tail = |t: u32| {
        let mut l = base;
        l.0[60..].copy_from_slice(&t.to_le_bytes());
        l
    };
    let c0 = crc32(tail(0).as_bytes());
    // basis[b]: a column combination whose leading bit is b, and the tail
    // bits that produce it.
    let mut basis = [(0u32, 0u32); 32];
    for i in 0..32 {
        let (mut v, mut bits) = (crc32(tail(1 << i).as_bytes()) ^ c0, 1u32 << i);
        for b in (0..32).rev() {
            if (v >> b) & 1 == 0 {
                continue;
            }
            if basis[b].0 == 0 {
                basis[b] = (v, bits);
                break;
            }
            v ^= basis[b].0;
            bits ^= basis[b].1;
        }
    }
    let (mut v, mut bits) = (target ^ c0, 0u32);
    for b in (0..32).rev() {
        if (v >> b) & 1 == 1 {
            assert_ne!(basis[b].0, 0, "CRC-32 tail map is invertible");
            v ^= basis[b].0;
            bits ^= basis[b].1;
        }
    }
    let line = tail(bits);
    assert_eq!(crc32(line.as_bytes()), target);
    line
}

/// Three distinct lines sharing one CRC-32.
pub fn colliding_triple() -> [Line; 3] {
    let a = Line::splat(1);
    let target = crc32(a.as_bytes());
    [
        a,
        with_crc(Line::splat(2), target),
        with_crc(Line::splat(3), target),
    ]
}
