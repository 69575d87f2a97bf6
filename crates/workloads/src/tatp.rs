//! TATP: update random records (the UpdateLocation transaction).
//!
//! The Telecom Application Transaction Processing benchmark's dominant
//! write transaction updates a random subscriber's VLR location. The
//! subscriber id indexes the record array *directly* — no probe or
//! traversal — so both the address and the data of every write are known at
//! transaction start, giving pre-execution its largest window; TATP is one
//! of the highest-speedup workloads in Figure 9.

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Subscriber population.
const SUBSCRIBERS: u64 = 8192;
/// Lines per subscriber record: [header, location, data].
const RECORD_LINES: u64 = 3;
/// Parameter validation / marshalling cost.
const VALIDATE_COMPUTE: u32 = 120;

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0x7A79 ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0x7A80 ^ core as u64, cfg.dedup_ratio);
    let base = ctx.heap.alloc(SUBSCRIBERS * RECORD_LINES)?;
    let record = |s: u64| LineAddr(base.0 + s * RECORD_LINES);
    let zipf = cfg
        .key_skew
        .map(|theta| janus_sim::rng::Zipf::new(SUBSCRIBERS, theta));

    for _ in 0..cfg.transactions {
        let s_id = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(SUBSCRIBERS),
        };
        let rec = record(s_id);

        // Extension: a read-only GetSubscriberData transaction — loads the
        // whole record, writes nothing (TATP's dominant read transaction).
        if cfg.aux_tx_fraction > 0.0 && rng.chance(cfg.aux_tx_fraction) {
            ctx.b.push(Op::FuncBegin("tatp_get_subscriber_data"));
            ctx.begin_tx();
            ctx.compute(VALIDATE_COMPUTE / 2);
            for k in 0..RECORD_LINES {
                ctx.load(rec.offset(k));
            }
            ctx.b.tx_commit();
            ctx.b.push(Op::FuncEnd);
            continue;
        }
        let loc_line = rec.offset(1);
        let new_location = gen.next_value();
        // 30% of transactions also flip the subscriber's bit fields.
        let bits_update = rng.chance(0.3).then(|| {
            let mut header = ctx.current(rec);
            header.write_u64(0, s_id);
            header.write_u64(8, rng.next_u64() & 0xFF);
            header
        });

        ctx.b.push(Op::FuncBegin("tatp_update_location"));
        ctx.begin_tx();
        // s_id → address directly; the new location is a transaction input.
        ctx.declare_both(0, loc_line, &[new_location]);
        if let Some(h) = &bits_update {
            ctx.declare_both(1, rec, &[*h]);
        }
        ctx.compute(VALIDATE_COMPUTE);
        ctx.load(rec);
        ctx.load(loc_line);

        let mut old = vec![(loc_line, ctx.current(loc_line))];
        if bits_update.is_some() {
            old.push((rec, ctx.current(rec)));
        }
        ctx.backup(&old);

        let mut updates = vec![(loc_line, new_location)];
        if let Some(h) = bits_update {
            updates.push((rec, h));
        }
        ctx.update(&updates);
        ctx.commit();
        ctx.b.push(Op::FuncEnd);
    }

    // Steady state: the subscriber table is LLC-resident.
    let resident = vec![(base, SUBSCRIBERS * RECORD_LINES)];
    let expected = ctx.expected.clone();
    Ok(WorkloadOutput {
        program: ctx.build(),
        expected,
        resident,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instrumentation;
    use janus_core::ir::PreFunc;

    #[test]
    fn updates_location_lines() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 20,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Between 3 (header+loc+commit? no: log hdr + 1 log + 1 update + 1
        // commit = 4) and 6 writes per tx.
        let w = out.program.write_count();
        assert!((20 * 4..=20 * 7).contains(&w), "writes = {w}");
    }

    #[test]
    fn no_loop_markers_everything_function_local() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 5,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        assert!(!out.program.ops.iter().any(|o| matches!(o, Op::LoopBegin)));
    }

    #[test]
    fn aux_fraction_adds_read_only_transactions() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 60,
                aux_tx_fraction: 0.5,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let stats = out.program.stats();
        assert_eq!(stats.transactions, 60);
        // Read-only transactions have no fences; update transactions have 3.
        assert!(stats.fences < 60 * 3, "some transactions were read-only");
        assert!(stats.fences > 0, "some transactions still update");
        // Default (0.0) emits only update transactions.
        let plain = generate(
            0,
            &WorkloadConfig {
                transactions: 20,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        assert_eq!(plain.program.stats().fences, 60);
    }

    #[test]
    fn manual_declares_at_tx_start() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 1,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // The first PRE_BOTH appears before the first Load.
        let pre = out
            .program
            .ops
            .iter()
            .position(|o| {
                matches!(
                    o,
                    Op::Pre {
                        func: PreFunc::Both { .. },
                        buffered: false,
                        ..
                    }
                )
            })
            .unwrap();
        let load = out
            .program
            .ops
            .iter()
            .position(|o| matches!(o, Op::Load(_)))
            .unwrap();
        assert!(pre < load);
    }
}
