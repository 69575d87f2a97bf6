//! Property-based tests over the full stack (janus-check harness).

use janus::bmo::pipeline::BmoPipeline;
use janus::bmo::BmoStack;
use janus::core::config::{JanusConfig, SystemMode};
use janus::core::controller::MemoryController;
use janus::core::ir::ProgramBuilder;
use janus::core::system::{ConfigError, System};
use janus::crypto::FingerprintAlgo;
use janus::nvm::{addr::LineAddr, line::Line, store::LineStore};
use janus::sim::time::Cycles;
use janus_check::{forall_cfg, gen, Config, Gen};

const KEY: [u8; 16] = *b"janus-memory-key";

fn cfg() -> Config {
    Config::with_cases(48)
}

fn arb_line() -> Gen<Line> {
    // Small value space so duplicates occur often.
    gen::pair(&gen::range_u64(0..6), &gen::range_u64(0..4))
        .map(|(a, b)| Line::from_words(&[*a, *b]))
}

fn arb_writes() -> Gen<Vec<(u64, Line)>> {
    gen::vec_of(&gen::pair(&gen::range_u64(0..24), &arb_line()), 1..60)
}

/// Any write sequence through the functional pipeline reads back the
/// last value written per line, with full verification.
#[test]
fn pipeline_reads_last_write() {
    forall_cfg(&cfg(), &arb_writes(), |writes| {
        let mut p = BmoPipeline::new();
        let mut last = std::collections::HashMap::new();
        for (addr, value) in writes {
            p.write(LineAddr(*addr), *value);
            last.insert(*addr, *value);
        }
        for (addr, value) in last {
            assert_eq!(p.read_verified(LineAddr(addr)).unwrap(), value);
        }
    });
}

/// Replaying only the persisted effects reconstructs an equivalent
/// pipeline (crash anywhere between writes).
#[test]
fn pipeline_recovery_at_any_prefix() {
    let g = gen::pair(&arb_writes(), &gen::range_usize(0..60));
    forall_cfg(&cfg(), &g, |(writes, cut)| {
        let mut p = BmoPipeline::new();
        let mut store = LineStore::new();
        let mut root = p.root();
        let cut = (*cut).min(writes.len());
        for (addr, value) in &writes[..cut] {
            let fx = p.write(LineAddr(*addr), *value);
            for (a, l) in &fx.line_writes {
                store.write(*a, *l);
            }
            root = p.root();
        }
        let rec = BmoPipeline::recover(&store, KEY, root).expect("prefix recovery");
        for addr in 0u64..24 {
            assert_eq!(
                rec.read_verified(LineAddr(addr)).unwrap(),
                p.read(LineAddr(addr)),
                "line {addr}"
            );
        }
    });
}

/// CRC-32 fingerprints may collide, but dedup compares values, so a
/// pipeline configured for CRC-32 persists exactly what the default one
/// does and reads back the last write.
#[test]
fn crc_dedup_is_safe() {
    forall_cfg(&cfg(), &arb_writes(), |writes| {
        let mut p = BmoPipeline::for_stack(&BmoStack::paper(), FingerprintAlgo::Crc32);
        let mut q = BmoPipeline::new();
        let mut last = std::collections::HashMap::new();
        for (addr, value) in writes {
            let (a, b) = (
                p.write(LineAddr(*addr), *value),
                q.write(LineAddr(*addr), *value),
            );
            assert_eq!(
                (a.dup, a.slot, a.line_writes),
                (b.dup, b.slot, b.line_writes)
            );
            last.insert(*addr, *value);
        }
        for (addr, value) in last {
            assert_eq!(p.read_verified(LineAddr(addr)).unwrap(), value);
        }
    });
}

/// The Janus timing machinery (pre-execution, IRB, invalidations) never
/// changes functional results, even with deliberately stale
/// pre-execution hints.
#[test]
fn stale_hints_never_corrupt() {
    let hints = gen::vec_of(&gen::pair(&gen::range_u64(0..24), &arb_line()), 0..20);
    let g = gen::pair(&arb_writes(), &hints);
    forall_cfg(&cfg(), &g, |(writes, hints)| {
        let mut b = ProgramBuilder::new();
        // Issue hints for data that may never be written / may mismatch.
        for (addr, value) in hints {
            let obj = b.pre_init();
            b.pre_both(obj, LineAddr(*addr), vec![*value]);
        }
        b.compute(2000);
        for (addr, value) in writes {
            b.store(LineAddr(*addr), *value);
            b.clwb(LineAddr(*addr));
            b.fence();
        }
        let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
        sys.run(vec![b.build()]);

        let mut last = std::collections::HashMap::new();
        for (addr, value) in writes {
            last.insert(*addr, *value);
        }
        for (addr, value) in last {
            assert_eq!(sys.read_value(LineAddr(addr)), value);
        }
    });
}

/// Any small resource tuple runs or is refused with a typed error, never a
/// panic: refused exactly when the cores, the BMO units or the write
/// queue, which no run can do without, are sized zero. Each core's
/// transaction issues every request form, so zero IRB and queue sizes drop
/// them instead.
#[test]
fn zero_resource_sizes_are_config_errors() {
    let size = || gen::range_usize(0..4);
    let sizes = gen::tuple5(&size(), &size(), &size(), &size(), &size());
    let g = gen::pair(&sizes, &gen::range_usize(0..3));
    forall_cfg(&cfg(), &g, |&((units, wq, irb, req, op), cores)| {
        let mut config = JanusConfig::paper(SystemMode::Janus, cores);
        config.bmo_units_per_core = units;
        config.wq_capacity = wq;
        config.irb_entries_per_core = irb;
        config.req_queue_per_core = req;
        config.op_queue_per_core = op;
        let programs = (0..cores as u64)
            .map(|core| {
                let (a, b) = (LineAddr(10 * core), LineAddr(10 * core + 1));
                let mut p = ProgramBuilder::new();
                p.tx_begin();
                let both = p.pre_init();
                p.pre_both(both, a, vec![Line::splat(1)]);
                let split = p.pre_init();
                p.pre_data(split, vec![Line::splat(2)]);
                p.pre_addr(split, b, 1);
                let buffered = p.pre_init();
                p.pre_both_buf(buffered, LineAddr(10 * core + 2), vec![Line::splat(3)]);
                p.pre_start_buf(buffered);
                p.compute(500);
                p.persist_store(a, Line::splat(1));
                p.persist_store(b, Line::splat(2));
                p.persist_store(LineAddr(10 * core + 2), Line::splat(3));
                p.tx_commit();
                p.build()
            })
            .collect();
        match System::new(config).try_run(programs) {
            Ok(report) => {
                assert!(cores > 0 && units > 0 && wq > 0, "ran with a zero size");
                assert_eq!(report.writes, 3 * cores as u64);
            }
            Err(err) => {
                let field = if cores == 0 {
                    "cores"
                } else if units == 0 {
                    "bmo_units_per_core"
                } else {
                    "wq_capacity"
                };
                assert_eq!(err, ConfigError::ZeroSize { field });
            }
        }
    });
}

/// Full-system crash at an arbitrary cycle always leaves a recoverable,
/// integrity-clean persistent state.
#[test]
fn system_crash_is_always_recoverable() {
    let writes = gen::vec_of(&gen::pair(&gen::range_u64(0..12), &arb_line()), 1..20);
    let g = gen::pair(&writes, &gen::range_u64(1_000..400_000));
    forall_cfg(&cfg(), &g, |(writes, crash_at)| {
        let mut b = ProgramBuilder::new();
        for (addr, value) in writes {
            b.tx_begin();
            b.store(LineAddr(*addr), *value);
            b.clwb(LineAddr(*addr));
            b.fence();
            b.tx_commit();
        }
        let cfg = JanusConfig::paper(SystemMode::Serialized, 1);
        let mut sys = System::new(cfg.clone());
        let (snapshot, root) = sys
            .run_until_crash(vec![b.build()], Cycles(*crash_at))
            .expect("one program per core");
        let rec = MemoryController::recover(&snapshot, cfg, root);
        assert!(
            rec.is_ok(),
            "crash at {crash_at} unrecoverable: {:?}",
            rec.err()
        );
    });
}

/// Crashing one run at many points gives, at each point, exactly the
/// durable image and secure root that a fresh run crashed at that point
/// alone gives. Random stacks over every registered BMO run on one or two
/// cores. Points repeat, come unsorted, and may fall before the first write
/// (cycle 0) or after the run ends.
#[test]
fn crashing_one_run_at_many_points_matches_separate_runs() {
    use janus::bmo::BmoId;
    use janus::core::Program;

    let per_core = gen::vec_of(&gen::pair(&gen::range_u64(0..12), &arb_line()), 1..12);
    let g = gen::tuple4(
        &gen::vec_of(&per_core, 1..3),
        &gen::range_usize(0..3),
        &gen::vec_of(&gen::range_usize(0..BmoId::ALL.len()), 0..10),
        &gen::vec_of(&gen::range_u64(0..27), 1..7),
    );
    forall_cfg(&cfg(), &g, |(cores, mode, picks, twentieths)| {
        let mode = [
            SystemMode::Serialized,
            SystemMode::Parallelized,
            SystemMode::Janus,
        ][*mode];
        let mut config = JanusConfig::paper(mode, cores.len());
        config.bmo_stack.clear();
        for &i in picks {
            if !config.bmo_stack.contains(&BmoId::ALL[i]) {
                config.bmo_stack.push(BmoId::ALL[i]);
            }
        }
        let programs: Vec<Program> = cores
            .iter()
            .enumerate()
            .map(|(core, writes)| {
                let mut b = ProgramBuilder::new();
                for (addr, value) in writes {
                    let line = LineAddr(core as u64 * 64 + addr);
                    b.tx_begin();
                    if mode == SystemMode::Janus {
                        let obj = b.pre_init();
                        b.pre_both(obj, line, vec![*value]);
                        b.compute(2000);
                    }
                    b.store(line, *value);
                    b.clwb(line);
                    b.fence();
                    b.tx_commit();
                }
                b.build()
            })
            .collect();
        let full = System::new(config.clone()).run(programs.clone()).cycles;
        // Twentieths of the full run: 21 and up lie after it ends.
        let points: Vec<Cycles> = twentieths.iter().map(|k| Cycles(full.0 * k / 20)).collect();
        let crashes = System::new(config.clone())
            .run_until_crashes(programs.clone(), &points)
            .expect("one program per core");
        assert_eq!(crashes.len(), points.len());
        for (at, (image, root)) in points.iter().zip(&crashes) {
            let (alone, alone_root) = System::new(config.clone())
                .run_until_crash(programs.clone(), *at)
                .expect("one program per core");
            assert!(
                image.iter().eq(alone.iter()),
                "crash at {at} of {points:?} on [{}]: durable images differ",
                config.stack()
            );
            assert_eq!(
                *root,
                alone_root,
                "crash at {at} of {points:?} on [{}]: secure roots differ",
                config.stack()
            );
        }
    });
}

/// Poisson traffic really has the requested rate: over many arrivals the
/// empirical mean inter-arrival gap lands within 10% of the configured
/// mean, whatever the seed (law of large numbers: at n = 4000 exponential
/// gaps the sample mean's standard error is ~1.6% of the mean).
#[test]
fn poisson_interarrival_mean_matches_the_configured_rate() {
    use janus::sim::rng::SimRng;
    use janus::workloads::traffic::Arrival;

    let g = gen::pair(&gen::range_u64(500..50_000), &gen::any_u64());
    forall_cfg(&cfg(), &g, |(mean, seed)| {
        let n = 4000;
        let arrivals = Arrival::Poisson {
            mean: Cycles(*mean),
        }
        .sample(n, &mut SimRng::new(*seed));
        assert_eq!(arrivals.len(), n);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Arrival times are cumulative, so the mean gap is last/(n-1).
        let empirical = arrivals.last().unwrap().0 as f64 / (n - 1) as f64;
        let ratio = empirical / *mean as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "mean {mean} seed {seed}: empirical gap {empirical:.0} off by {ratio:.3}x"
        );
    });
}

/// The Zipfian sampler's rank-frequency curve has the requested slope:
/// a log-log least-squares fit over the top ranks recovers θ within
/// ±0.12 for any θ in [0.4, 0.99) and any seed.
#[test]
fn zipfian_rank_frequency_slope_recovers_theta() {
    use janus::sim::rng::{SimRng, Zipf};

    let g = gen::pair(&gen::range_u64(40..99), &gen::any_u64());
    forall_cfg(&cfg(), &g, |(theta_pct, seed)| {
        let theta = *theta_pct as f64 / 100.0;
        let zipf = Zipf::new(10_000, theta);
        let mut rng = SimRng::new(*seed);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..60_000 {
            *counts.entry(zipf.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let mut freq: Vec<u64> = counts.into_values().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Least-squares slope of ln(freq) on ln(rank) over the top 30
        // ranks (the head is where the power law is cleanest at this
        // sample size); for p(k) ∝ k^-θ the slope is -θ.
        let pts: Vec<(f64, f64)> = freq
            .iter()
            .take(30)
            .enumerate()
            .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
        let (sxx, sxy) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope + theta).abs() < 0.12,
            "theta {theta} seed {seed}: fitted slope {slope:.3} (expected {:.3})",
            -theta
        );
    });
}

/// A full multi-tenant open-loop run is a pure function of its seed:
/// replaying any seed gives a byte-identical execution report.
#[test]
fn multi_tenant_runs_replay_deterministically_from_any_seed() {
    use janus::core::irb::IrbPolicy;
    use janus::workloads::traffic::{generate_tenants, Arrival, TenantSpec};
    use janus::workloads::Workload;

    forall_cfg(&Config::with_cases(8), &gen::any_u64(), |seed| {
        let run = || {
            let mut config = JanusConfig::paper(SystemMode::Janus, 2);
            config.irb_policy = IrbPolicy::Banked { per_tenant: 64 };
            let mut sys = System::new(config);
            let specs: Vec<TenantSpec> = (0..3)
                .map(|t| {
                    TenantSpec::new(
                        [Workload::HashTable, Workload::Queue, Workload::Tatp][t],
                        3,
                        Arrival::Poisson {
                            mean: Cycles(8_000),
                        },
                    )
                })
                .collect();
            let streams = generate_tenants(&specs, *seed)
                .into_iter()
                .map(|t| t.stream)
                .collect();
            let report = sys.try_run_tenants(streams).expect("valid streams");
            let mut bytes = Vec::new();
            report.dump(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(run(), run(), "seed {seed} replay diverged");
    });
}
