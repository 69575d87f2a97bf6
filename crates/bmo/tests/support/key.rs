// Forged content-key collisions, shared by the dedup unit tests (through
// `include!`) and the property tests.

use std::hash::Hasher;

use janus_nvm::line::Line;
use janus_sim::hash::FxHasher;

/// FxHash of `bytes`, the dedup store's content key of a line.
fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// `base` with its last word chosen so that its content key is `target`.
/// FxHash folds a line's eight words as `h = (h.rotl(5) ^ w) * SEED`, and
/// the multiplier is odd, so the last round inverts: fold the first seven
/// words, then solve `w = target * SEED⁻¹ ^ h.rotl(5)` for the eighth.
pub fn with_key(base: Line, target: u64) -> Line {
    // One round from the zero state multiplies the word by the seed.
    let seed = {
        let mut h = FxHasher::default();
        h.write_u64(1);
        h.finish()
    };
    // Newton's iteration doubles the correct low bits of an odd number's
    // inverse mod 2⁶⁴; the seed is its own inverse mod 8.
    let mut inverse = seed;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inverse)));
    }
    assert_eq!(seed.wrapping_mul(inverse), 1, "FxHash's multiplier is odd");
    let mut line = base;
    let word = target.wrapping_mul(inverse) ^ fx(&base.as_bytes()[..56]).rotate_left(5);
    line.write_u64(56, word);
    assert_eq!(fx(line.as_bytes()), target);
    line
}

/// `n` distinct lines sharing one content key.
pub fn colliding_lines(n: u8) -> Vec<Line> {
    let target = fx(Line::splat(1).as_bytes());
    (1..=n).map(|b| with_key(Line::splat(b), target)).collect()
}
