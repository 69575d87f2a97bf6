//! Open-loop multi-tenant traffic generation.
//!
//! A [`TenantSpec`] describes one tenant of a shared Janus memory system:
//! its transaction mix (any Table 4 workload), key skew, transaction count,
//! and an open-loop [`Arrival`] process. [`try_generate_tenant`] turns a spec
//! into a [`TenantStream`] — the closed-loop per-core program is split at
//! transaction-commit boundaries into self-contained fragments, and each
//! fragment gets an arrival time drawn from the tenant's own deterministic
//! RNG stream.
//!
//! Determinism: every tenant's RNG is derived from `(seed, tenant id)`
//! alone, and generation never reads the core count or job fan-out — so a
//! tenant's traffic is byte-identical whether the run executes on 1 core or
//! 16, serially or under `--jobs N`. [`digest`] fingerprints a stream set
//! so CI can assert exactly that.

use janus_core::ir::{Op, Program};
use janus_core::tenant::TenantStream;
use janus_nvm::store::LineStore;
use janus_sim::rng::SimRng;
use janus_sim::time::Cycles;

use crate::undo::Instrumentation;
use crate::{try_generate, GenError, Workload, WorkloadConfig};

/// An open-loop arrival process (inter-arrival gaps in cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Poisson process: exponential inter-arrival gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap.
        mean: Cycles,
    },
    /// Bursty arrivals: burst *starts* form a Poisson process with mean gap
    /// `mean × burst` (so the long-run rate matches a plain Poisson process
    /// of the same `mean`), and each burst delivers `burst` transactions
    /// spaced `intra` cycles apart.
    Bursty {
        /// Mean inter-arrival gap of the equivalent smooth process.
        mean: Cycles,
        /// Transactions per burst.
        burst: usize,
        /// Gap between transactions inside a burst.
        intra: Cycles,
    },
}

impl Arrival {
    /// Parses `poisson:MEAN` or `bursty:MEAN:BURST[:INTRA]` (MEAN and INTRA
    /// in cycles; INTRA defaults to 200).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the expected syntax.
    pub fn parse(s: &str) -> Result<Arrival, String> {
        let err = || {
            format!("bad arrival spec {s:?}: expected poisson:MEAN or bursty:MEAN:BURST[:INTRA]")
        };
        let mut parts = s.split(':');
        let kind = parts.next().ok_or_else(err)?;
        let num = |p: Option<&str>| p.and_then(|v| v.parse::<u64>().ok()).ok_or_else(err);
        let arrival = match kind {
            "poisson" => Arrival::Poisson {
                mean: Cycles(num(parts.next())?),
            },
            "bursty" => {
                let mean = Cycles(num(parts.next())?);
                let burst = num(parts.next())? as usize;
                let intra = match parts.next() {
                    Some(v) => Cycles(v.parse::<u64>().map_err(|_| err())?),
                    None => Cycles(200),
                };
                if burst == 0 {
                    return Err(err());
                }
                Arrival::Bursty { mean, burst, intra }
            }
            _ => return Err(err()),
        };
        if parts.next().is_some() {
            return Err(err());
        }
        match arrival {
            Arrival::Poisson { mean } | Arrival::Bursty { mean, .. } if mean.0 == 0 => Err(err()),
            a => Ok(a),
        }
    }

    /// Samples `n` ascending arrival times from the process.
    pub fn sample(&self, n: usize, rng: &mut SimRng) -> Vec<Cycles> {
        // Exponential gap via inversion; `1 - u` keeps ln's argument in
        // (0, 1] so the gap is finite and non-negative.
        let mut exp_gap = |mean: f64| -> f64 { -(1.0 - rng.next_f64()).ln() * mean };
        let mut out = Vec::with_capacity(n);
        match *self {
            Arrival::Poisson { mean } => {
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += exp_gap(mean.0 as f64);
                    out.push(Cycles(t as u64));
                }
            }
            Arrival::Bursty { mean, burst, intra } => {
                let start_mean = (mean.0 as f64) * burst as f64;
                let mut t = 0.0f64;
                while out.len() < n {
                    t += exp_gap(start_mean);
                    let base = t as u64;
                    for k in 0..burst {
                        if out.len() == n {
                            break;
                        }
                        out.push(Cycles(base + k as u64 * intra.0));
                    }
                }
                // Burst trains can overlap a slow burst-start gap; arrival
                // order is what the front end requires.
                out.sort_unstable();
            }
        }
        out
    }
}

impl std::fmt::Display for Arrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arrival::Poisson { mean } => write!(f, "poisson:{}", mean.0),
            Arrival::Bursty { mean, burst, intra } => {
                write!(f, "bursty:{}:{burst}:{}", mean.0, intra.0)
            }
        }
    }
}

/// One tenant's traffic description.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Transaction mix: any Table 4 workload generator.
    pub workload: Workload,
    /// Transactions the tenant submits over the run.
    pub transactions: usize,
    /// Open-loop arrival process.
    pub arrival: Arrival,
    /// Optional Zipfian key skew (θ ∈ [0,1); `None` = uniform).
    pub key_skew: Option<f64>,
    /// Payload bytes per transaction step.
    pub tx_size_bytes: usize,
    /// Manual `PRE_*` calls or markers only.
    pub instrumentation: Instrumentation,
}

impl TenantSpec {
    /// A spec with the given mix and arrival process and the default
    /// closed-loop generation knobs.
    pub fn new(workload: Workload, transactions: usize, arrival: Arrival) -> Self {
        let d = WorkloadConfig::default();
        TenantSpec {
            workload,
            transactions,
            arrival,
            key_skew: d.key_skew,
            tx_size_bytes: d.tx_size_bytes,
            instrumentation: d.instrumentation,
        }
    }
}

/// A generated tenant: the open-loop stream plus its functional oracle.
#[derive(Clone, Debug)]
pub struct TenantTraffic {
    /// The stream [`janus_core::system::System::try_run_tenants`] consumes.
    pub stream: TenantStream,
    /// Expected final value of every line the tenant writes (tenants use
    /// disjoint address regions, so oracles are independently checkable).
    pub expected: LineStore,
    /// Resident data-structure ranges `(first, nlines)` assumed warm in
    /// the LLC for steady-state measurement.
    pub resident: Vec<(janus_nvm::addr::LineAddr, u64)>,
}

/// Splits a closed-loop program into self-contained transaction fragments
/// at `TxCommit` boundaries. Any prologue before the first `TxBegin`
/// (data-structure initialisation) rides with the first fragment; a
/// trailing epilogue rides with the last.
pub fn split_transactions(program: &Program) -> Vec<Program> {
    let mut fragments = Vec::new();
    let mut current = Vec::new();
    for op in &program.ops {
        let is_commit = matches!(op, Op::TxCommit);
        current.push(op.clone());
        if is_commit {
            fragments.push(Program {
                ops: std::mem::take(&mut current),
            });
        }
    }
    if !current.is_empty() {
        match fragments.last_mut() {
            Some(last) => last.ops.extend(current),
            None => fragments.push(Program { ops: current }),
        }
    }
    fragments
}

/// SplitMix64-style mix of the run seed and the tenant id: every tenant
/// gets an independent RNG stream that depends on nothing else.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates tenant `tenant`'s open-loop traffic from its spec. The tenant
/// id doubles as the workload generator's core index, which gives each
/// tenant a disjoint address region (the same mechanism that separates
/// closed-loop cores), and as the IRB/trace thread identity during the run.
///
/// # Errors
///
/// [`GenError`] when the tenant's workload does not fit its data structure
/// in the tenant's region.
pub fn try_generate_tenant(
    spec: &TenantSpec,
    tenant: usize,
    seed: u64,
) -> Result<TenantTraffic, GenError> {
    let tseed = tenant_seed(seed, tenant);
    let cfg = WorkloadConfig {
        transactions: spec.transactions,
        seed: tseed,
        instrumentation: spec.instrumentation,
        tx_size_bytes: spec.tx_size_bytes,
        key_skew: spec.key_skew,
        ..WorkloadConfig::default()
    };
    let out = try_generate(spec.workload, tenant, &cfg)?;
    let txs = split_transactions(&out.program);
    // The arrival stream is forked from the same tenant seed but never
    // shares state with generation, so changing the arrival process cannot
    // perturb the transactions themselves (and vice versa).
    let mut rng = SimRng::new(tseed ^ 0xA55A_5AA5_55AA_AA55);
    let arrivals = spec.arrival.sample(txs.len(), &mut rng);
    Ok(TenantTraffic {
        stream: TenantStream { arrivals, txs },
        expected: out.expected,
        resident: out.resident,
    })
}

/// Generates a whole tenant set: `specs[i]` becomes tenant `i`.
///
/// # Errors
///
/// The first failing tenant's [`GenError`] (see [`try_generate_tenant`]).
pub fn try_generate_tenants(
    specs: &[TenantSpec],
    seed: u64,
) -> Result<Vec<TenantTraffic>, GenError> {
    specs
        .iter()
        .enumerate()
        .map(|(tenant, spec)| try_generate_tenant(spec, tenant, seed))
        .collect()
}

/// Generates a whole tenant set.
///
/// # Panics
///
/// Panics where [`try_generate_tenants`] returns an error.
pub fn generate_tenants(specs: &[TenantSpec], seed: u64) -> Vec<TenantTraffic> {
    try_generate_tenants(specs, seed).unwrap_or_else(|e| panic!("tenant traffic: {e}"))
}

/// FNV-1a fingerprint of a stream set (arrival times and operation
/// streams). Generation is independent of core count and job fan-out, so
/// CI diffs this digest across `--cores` values to prove tenant placement
/// cannot change the traffic.
pub fn digest(streams: &[TenantStream]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for s in streams {
        for a in &s.arrivals {
            eat(&a.0.to_le_bytes());
        }
        for p in &s.txs {
            // Op has a stable Debug form; hashing it captures opcode,
            // addresses, and payloads without a bespoke serializer.
            for op in &p.ops {
                eat(format!("{op:?}").as_bytes());
            }
            eat(b"|");
        }
        eat(b"#");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn arrival_parse_round_trips() {
        let p = Arrival::parse("poisson:8000").unwrap();
        assert_eq!(p, Arrival::Poisson { mean: Cycles(8000) });
        assert_eq!(p.to_string(), "poisson:8000");
        let b = Arrival::parse("bursty:4000:8").unwrap();
        assert_eq!(
            b,
            Arrival::Bursty {
                mean: Cycles(4000),
                burst: 8,
                intra: Cycles(200)
            }
        );
        assert_eq!(Arrival::parse(b.to_string().as_str()).unwrap(), b);
        for bad in [
            "",
            "poisson",
            "poisson:0",
            "poisson:x",
            "bursty:100:0",
            "burst:1:2",
        ] {
            assert!(Arrival::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn arrivals_are_sorted_and_sized() {
        let mut rng = SimRng::new(1);
        for arrival in [
            Arrival::Poisson { mean: Cycles(500) },
            Arrival::Bursty {
                mean: Cycles(500),
                burst: 4,
                intra: Cycles(50),
            },
        ] {
            let a = arrival.sample(300, &mut rng);
            assert_eq!(a.len(), 300);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{arrival}");
        }
    }

    #[test]
    fn split_reassembles_to_the_original() {
        let cfg = WorkloadConfig {
            transactions: 6,
            ..WorkloadConfig::default()
        };
        for w in Workload::all() {
            let out = generate(w, 0, &cfg);
            let frags = split_transactions(&out.program);
            assert_eq!(frags.len(), 6, "{w}: one fragment per transaction");
            let rejoined: Vec<Op> = frags.iter().flat_map(|p| p.ops.iter().cloned()).collect();
            assert_eq!(
                rejoined, out.program.ops,
                "{w}: split loses or reorders ops"
            );
        }
    }

    #[test]
    fn tenants_are_deterministic_and_independent() {
        let spec = TenantSpec::new(
            Workload::HashTable,
            10,
            Arrival::Poisson { mean: Cycles(2000) },
        );
        let a = try_generate_tenant(&spec, 3, 42).unwrap();
        let b = try_generate_tenant(&spec, 3, 42).unwrap();
        assert_eq!(a.stream.arrivals, b.stream.arrivals);
        assert_eq!(a.stream.txs, b.stream.txs);
        // Different tenants get different streams and disjoint addresses.
        let c = try_generate_tenant(&spec, 4, 42).unwrap();
        assert_ne!(a.stream.arrivals, c.stream.arrivals);
        for (line, _) in a.expected.iter() {
            assert_eq!(
                c.expected.read(line),
                janus_nvm::line::Line::zero(),
                "tenants 3 and 4 share line {line:?}"
            );
        }
    }

    #[test]
    fn a_tenant_that_does_not_fit_is_an_error() {
        let fits = TenantSpec::new(Workload::Queue, 2, Arrival::Poisson { mean: Cycles(1000) });
        let mut too_big = TenantSpec::new(Workload::ArraySwap, 1, fits.arrival);
        too_big.tx_size_bytes = 65536;
        assert!(try_generate_tenants(std::slice::from_ref(&fits), 7).is_ok());
        assert!(matches!(
            try_generate_tenants(&[fits, too_big], 7),
            Err(GenError::RegionExhausted { .. })
        ));
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let specs = vec![
            TenantSpec::new(Workload::Tatp, 5, Arrival::Poisson { mean: Cycles(1000) }),
            TenantSpec::new(Workload::Queue, 5, Arrival::Poisson { mean: Cycles(1000) }),
        ];
        let a: Vec<_> = generate_tenants(&specs, 7)
            .into_iter()
            .map(|t| t.stream)
            .collect();
        let b: Vec<_> = generate_tenants(&specs, 7)
            .into_iter()
            .map(|t| t.stream)
            .collect();
        assert_eq!(digest(&a), digest(&b));
        let c: Vec<_> = generate_tenants(&specs, 8)
            .into_iter()
            .map(|t| t.stream)
            .collect();
        assert_ne!(digest(&a), digest(&c));
    }
}
