//! Array Swap: swap random items in a persistent array.
//!
//! The friendliest workload for pre-execution: both targets' addresses are
//! computable from the chosen indices at transaction start, and the data is
//! available as soon as the two items are loaded — a maximal window
//! (Figure 4's `arrayUpdate` is exactly this shape).

use janus_nvm::addr::LineAddr;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Items in the array.
const ARRAY_ITEMS: u64 = 1024;
/// Index-arithmetic cost.
const INDEX_COMPUTE: u32 = 40;
/// Item copy/marshalling cost.
const COPY_COMPUTE: u32 = 180;

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0xA55A ^ core as u64, cfg.dedup_ratio);
    let item_lines = cfg.payload_lines() as u64;
    let base = ctx.heap.alloc(ARRAY_ITEMS * item_lines)?;
    let item_addr = |i: u64| LineAddr(base.0 + i * item_lines);

    let zipf = cfg
        .key_skew
        .map(|theta| janus_sim::rng::Zipf::new(ARRAY_ITEMS, theta));
    for _ in 0..cfg.transactions {
        let i = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(ARRAY_ITEMS),
        };
        let j = (i + 1 + rng.gen_range(ARRAY_ITEMS - 1)) % ARRAY_ITEMS;
        let (a, b) = (item_addr(i), item_addr(j));
        let new_a = gen.next_values(item_lines as usize);
        let new_b = gen.next_values(item_lines as usize);

        ctx.b.push(janus_core::ir::Op::FuncBegin("array_swap"));
        ctx.begin_tx();
        ctx.compute(INDEX_COMPUTE);
        // Read both items (their old values feed the undo log).
        let mut old = Vec::new();
        for k in 0..item_lines {
            for (addr, _) in [(a.offset(k), ()), (b.offset(k), ())] {
                ctx.load(addr);
                old.push((addr, ctx.current(addr)));
            }
        }
        // Both address and data are known right here — pre-execute the
        // in-place updates before the backup step even starts (Figure 3c).
        ctx.compute(COPY_COMPUTE);
        ctx.declare_both(0, a, &new_a);
        ctx.declare_both(1, b, &new_b);

        ctx.backup(&old);
        let mut updates = Vec::new();
        for k in 0..item_lines {
            updates.push((a.offset(k), new_a[k as usize]));
            updates.push((b.offset(k), new_b[k as usize]));
        }
        ctx.update(&updates);
        ctx.commit();
        ctx.b.push(janus_core::ir::Op::FuncEnd);
    }

    let resident = vec![(base, ARRAY_ITEMS * item_lines)];
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

    #[test]
    fn swap_touches_two_items_per_tx() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 3,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Per tx: header + 2 log lines + 2 updates + 1 commit = 6 writes.
        assert_eq!(out.program.write_count(), 18);
    }

    #[test]
    fn manual_has_two_pre_both_per_tx() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 4,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let pre_both = out
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, janus_core::ir::Op::PreBoth { .. }))
            .count();
        // 2 item updates + 1 commit record per tx.
        assert_eq!(pre_both, 4 * 3);
    }

    #[test]
    fn larger_items_write_more_lines() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 2,
                tx_size_bytes: 512, // 8 lines per item
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Per tx: header + 16 log + 16 updates + commit = 34.
        assert_eq!(out.program.write_count(), 68);
    }
}
