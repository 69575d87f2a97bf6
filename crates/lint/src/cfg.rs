//! Region context over the program IR, and why dominance needs no graph.
//!
//! The IR is a concrete trace whose region markers keep the control
//! structure of the source: `FuncBegin`/`FuncEnd` bracket an (inlined) call
//! and `LoopBegin`/`LoopEnd` bracket one executed loop instance. Control
//! flows from each op to the next, plus a back edge `LoopEnd → LoopBegin`;
//! function markers add no edge. Loops are *do-while*: a loop region
//! present in the trace executed its body at least once.
//!
//! On this graph dominance is program order. Fall-through edges step one op
//! forward and back edges only go backward, so every path from the entry to
//! op *i* passes every op before it: op *j* dominates op *i* iff `j ≤ i`.
//! A loop body therefore dominates everything after the loop, which is what
//! lets the placement pass use in-loop provenance markers the paper's
//! conservative source-level pass must refuse.
//!
//! The IR has no conditional markers: a trace records the path that
//! executed, and no generator marks a conditional. A generator that did
//! would add a skip edge past the conditional's body; the marker pair, an
//! insertion clamp keeping requests under the conditional (§4.5.1) and a
//! dominance oracle would then come back together.
//!
//! What the analyses need per op is its [`Region`]: the function instance
//! it runs in (markers count only within the writeback's instance, §4.5.2)
//! and its loop depth.

use janus_core::ir::Op;

/// Per-op region context: function instance and loop nesting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Region {
    /// Innermost function instance id (0 = top level).
    pub func: u32,
    /// Loop nesting depth.
    pub loop_depth: u32,
}

/// One linear scan computing each op's region context (the instrumentation
/// pass calls this too, so both layers agree about scopes).
pub fn regions(ops: &[Op]) -> Vec<Region> {
    let mut out = Vec::with_capacity(ops.len());
    let mut func_stack = vec![0u32];
    let mut next_func = 1u32;
    let mut loop_depth = 0u32;
    for op in ops {
        match op {
            Op::FuncBegin(_) => {
                func_stack.push(next_func);
                next_func += 1;
            }
            Op::LoopBegin => loop_depth += 1,
            _ => {}
        }
        out.push(Region {
            func: *func_stack.last().expect("top level"),
            loop_depth,
        });
        match op {
            // An unpaired `FuncEnd` keeps the top level, as an unpaired
            // `LoopEnd` keeps depth 0.
            Op::FuncEnd if func_stack.len() > 1 => {
                func_stack.pop();
            }
            Op::LoopEnd => loop_depth = loop_depth.saturating_sub(1),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::{Program, ProgramBuilder};
    use janus_nvm::addr::LineAddr;
    use janus_nvm::line::Line;

    #[test]
    fn straight_line_dominance_is_program_order() {
        // Markers before the writeback in its function instance count;
        // markers after it do not, even where no earlier one exists.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(4), 1); // 1
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
            b.addr_gen(LineAddr(4), 1);
            b.data_gen(LineAddr(4), vec![Line::splat(2)]);
        });
        let wks = crate::analyze_writes(&b.build()).1;
        assert_eq!((wks[0].addr_known, wks[0].data_known), (Some(1), None));
    }

    #[test]
    fn do_while_loop_body_dominates_exit() {
        // A loop instance in the trace ran its body at least once, so
        // markers in nested loop bodies reach a writeback after the loops.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.loop_region(|b| {
                b.loop_region(|b| {
                    b.addr_gen(LineAddr(4), 1); // 3
                });
                b.data_gen(LineAddr(4), vec![Line::splat(3)]); // 5
            });
            b.store(LineAddr(4), Line::splat(3));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = crate::analyze_writes(&b.build()).1;
        assert_eq!((wks[0].addr_known, wks[0].data_known), (Some(3), Some(5)));
    }

    #[test]
    fn regions_track_funcs_and_loops() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.loop_region(|b| {
                b.store(LineAddr(1), Line::splat(1));
            });
            b.clwb(LineAddr(1));
        });
        b.func("g", |b| {
            b.fence();
        });
        let p = b.build();
        let regs = regions(&p.ops);
        let at = |f: fn(&Op) -> bool| regs[p.ops.iter().position(f).unwrap()];
        let store = at(|o| matches!(o, Op::Store { .. }));
        let clwb = at(|o| matches!(o, Op::Clwb(_)));
        assert_eq!(store.loop_depth, 1);
        assert_eq!(clwb.loop_depth, 0);
        assert_eq!(store.func, clwb.func);
        assert_eq!(store.func, 1, "first function instance");
        assert_eq!(at(|o| *o == Op::Fence).func, 2, "second function instance");
    }

    #[test]
    fn unpaired_func_end_keeps_the_top_level() {
        let mut b = ProgramBuilder::new();
        b.push(Op::FuncEnd).compute(1);
        b.func("f", |b| {
            b.compute(2);
        });
        b.push(Op::FuncEnd).compute(3);
        let p = b.build();
        let funcs: Vec<u32> = regions(&p.ops).iter().map(|r| r.func).collect();
        assert_eq!(funcs, [0, 0, 1, 1, 1, 0, 0]);
        // The placement pass reads the same regions.
        crate::auto_place(&p);
    }

    #[test]
    fn empty_program_is_fine() {
        assert!(regions(&[]).is_empty());
        assert_eq!(crate::analyze_writes(&Program::default()).1, []);
    }
}
