//! The host-speed probe: a fixed piece of work that uses nothing but the
//! standard library's collections, so no change to this repository can
//! change it.
//!
//! The benchmark runs on shared virtual machines whose speed drifts as
//! neighbouring machines load the host: on the 2-vCPU VM of the baseline,
//! the same repetition took 0.50 s in one minute and 0.66 s in another,
//! while nothing else ran in the VM. That drift moves every workload's
//! times together and far more than the bounds allow. The probe runs just
//! before and just after each repetition; the repetition's host times are
//! then scaled by `REFERENCE_S / probe time`, which counts them in
//! reference seconds: seconds of a host on which the probe takes
//! [`REFERENCE_S`]. Ordered maps, hash maps and allocation churn are the
//! simulator's own diet, so the probe slows with the host in about the
//! same proportion the simulator does. Over 18 minutes on that VM, scaling
//! cut the quartile spread of 16-second medians of the run time from 11%
//! to 2% on `tatp_janus` and from 12% to 3% on `tpcc_serialized`; a probe
//! with a 400k-key tree, or a pointer chase through 64 MiB, tracked the
//! host worse.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Probe seconds on the reference host: the quiet-host median on the
/// baseline's 2-vCPU x86-64 VM.
pub const REFERENCE_S: f64 = 0.0165;

/// Keys the probe inserts, then looks up.
const KEYS: u64 = 60_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the probe once; returns its host seconds.
pub fn run() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut tree = BTreeMap::new();
    for _ in 0..KEYS {
        let key = xorshift(&mut x) % 1_000_000;
        tree.insert(key, x);
    }
    // A fixed hasher: the default one is seeded anew in every process.
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for _ in 0..KEYS {
        let key = xorshift(&mut x) % 1_000_000;
        if let Some(v) = tree.get(&key) {
            acc ^= v;
        }
        *counts.entry(key & 0xffff).or_default() += 1;
    }
    black_box((acc, counts.len()));
    t.elapsed().as_secs_f64()
}

/// `host_s` host seconds counted in reference seconds, given the probe
/// seconds measured around them.
pub fn to_reference(host_s: f64, probe_s: f64) -> f64 {
    host_s * REFERENCE_S / probe_s
}
