//! Order statistics and the FNV-1a digest.

/// Median and quartiles of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median and quartiles with the interpolation Python's
/// `statistics.quantiles(xs, n=4)` uses (its default "exclusive" method),
/// so spreads reported here match the ones an outside checker computes
/// from the same values. A single sample is its own median and quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    // Python clamps the index but not the weight, so with two or three
    // samples the outer quartiles extrapolate; mirror that exactly.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Median of a non-empty sample set.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over byte strings.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
