//! Queue: randomly enqueue/dequeue items in a persistent circular buffer.
//!
//! The queue's head/tail pointers are loop-carried through the operation
//! loop, which is exactly the §4.5.2 limitation: "when a loop writes back an
//! array of data, our pass cannot inject pre-execution for writebacks in the
//! loop due to the lack of runtime information". The trace therefore wraps
//! each operation in a loop region, so the automated pass skips it while
//! manual instrumentation (which understands the structure) still works —
//! reproducing Queue's poor automated result in Figure 11.

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Capacity of the circular buffer (items).
const QUEUE_CAP: u64 = 512;
/// Pointer-arithmetic cost.
const PTR_COMPUTE: u32 = 60;
/// Item marshalling cost per operation.
const ITEM_COMPUTE: u32 = 260;

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0x0B1 ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0xBEE ^ core as u64, cfg.dedup_ratio);
    let item_lines = cfg.payload_lines() as u64;
    let meta = ctx.heap.alloc(1)?; // [head, tail, count]
    let slots = ctx.heap.alloc(QUEUE_CAP * item_lines)?;
    let slot_addr = |i: u64| LineAddr(slots.0 + (i % QUEUE_CAP) * item_lines);

    let (mut head, mut tail, mut count) = (0u64, 0u64, 0u64);

    for _ in 0..cfg.transactions {
        let enqueue = count == 0 || (count < QUEUE_CAP && rng.chance(0.5));

        ctx.b.push(Op::FuncBegin("queue_op"));
        ctx.b.push(Op::LoopBegin); // operation loop: pointers loop-carried
        ctx.begin_tx();
        ctx.load(meta);
        ctx.compute(PTR_COMPUTE);
        ctx.compute(ITEM_COMPUTE);

        if enqueue {
            let slot = slot_addr(tail);
            let values = gen.next_values(item_lines as usize);
            let new_meta = Line::from_words(&[head, tail + 1, count + 1]);
            // Manual instrumentation: slot address follows from the loaded
            // tail; payload is ready.
            ctx.declare_both(0, slot, &values);
            ctx.declare_both(1, meta, &[new_meta]);

            let old_meta = ctx.current(meta);
            let mut old = vec![(meta, old_meta)];
            for k in 0..item_lines {
                old.push((slot.offset(k), ctx.current(slot.offset(k))));
            }
            ctx.backup(&old);
            let mut updates: Vec<(LineAddr, Line)> = values
                .iter()
                .enumerate()
                .map(|(k, v)| (slot.offset(k as u64), *v))
                .collect();
            updates.push((meta, new_meta));
            ctx.update(&updates);
            ctx.commit();
            tail += 1;
            count += 1;
        } else {
            let slot = slot_addr(head);
            // Dequeue reads the item and advances head.
            for k in 0..item_lines {
                ctx.load(slot.offset(k));
            }
            let new_meta = Line::from_words(&[head + 1, tail, count - 1]);
            ctx.declare_both(0, meta, &[new_meta]);
            ctx.backup(&[(meta, ctx.current(meta))]);
            ctx.update(&[(meta, new_meta)]);
            ctx.commit();
            head += 1;
            count -= 1;
        }
        ctx.b.push(Op::LoopEnd);
        ctx.b.push(Op::FuncEnd);
    }

    let resident = vec![(meta, 1), (slots, QUEUE_CAP * item_lines)];
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

    #[test]
    fn queue_ops_are_loop_wrapped() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 6,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let loops = out
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, Op::LoopBegin))
            .count();
        assert_eq!(loops, 6);
    }

    #[test]
    fn first_op_is_enqueue_and_meta_tracks_counts() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 1,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // The meta line must exist in the expected state with count = 1.
        let meta_line = out
            .expected
            .iter()
            .find(|(_, l)| l.read_u64(16) == 1 && l.read_u64(8) == 1)
            .map(|(a, _)| a);
        assert!(meta_line.is_some(), "enqueue should set tail=1,count=1");
    }

    #[test]
    fn mixed_ops_never_underflow() {
        // 200 random ops with the invariant count ∈ [0, CAP] — generation
        // panics on underflow (count - 1) if the invariant breaks.
        let out = generate(
            3,
            &WorkloadConfig {
                transactions: 200,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        assert!(out.program.write_count() > 200);
    }
}
