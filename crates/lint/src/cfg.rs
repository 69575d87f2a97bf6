//! Dominance over the program IR, read off its region markers.
//!
//! The IR is a concrete trace, but its region markers preserve the control
//! structure of the source: `LoopBegin`/`LoopEnd` bracket one executed loop
//! instance, `CondBegin`/`CondEnd` bracket a conditionally executed region,
//! and `FuncBegin`/`FuncEnd` bracket an (inlined) call. Control flows from
//! each op to the next, plus:
//!
//! * a back edge `LoopEnd → LoopBegin` (loops are *do-while*: a loop region
//!   present in the trace executed its body at least once, so the body
//!   dominates everything after the loop — this is exact for trace
//!   programs and is what lets the placement pass use in-loop provenance
//!   markers the paper's conservative source-level pass must refuse);
//! * a skip edge `CondBegin → CondEnd+1` (the conditional may not execute
//!   in other instances, so its body dominates nothing after it).
//!
//! Markers pair up by nesting, each kind on its own stack; an unpaired
//! marker adds no edge.
//!
//! On this graph dominance has a closed form, so building a [`Cfg`] needs
//! no graph and no iteration. Op *j* dominates op *i* iff `j ≤ i` and *i*
//! lies inside the innermost conditional that strictly encloses *j* (a
//! `CondBegin` is outside its own region, its `CondEnd` inside), with one
//! exception: a loop that begins inside that conditional after *j* and
//! ends past its `CondEnd` re-enters the region behind *j*, so *j*'s reach
//! stops just before that `LoopBegin`. The argument: fall-through and skip
//! edges only go forward and back edges only go to a `LoopBegin`, so every
//! op before *j* is reached without *j*, and a path can pass *j* only by
//! one of the skip edges over it, of which the innermost conditional's
//! lands first. From there it reaches everything after that `CondEnd`,
//! and every loop begun after *j* and closed past the `CondEnd` leads
//! back into the region; the earliest such `LoopBegin` bounds the reach
//! (pairs of one kind nest, so no further back edge gets behind it). The
//! tests hold the rule to the general iterative algorithm (Cooper, Harvey,
//! Kennedy) over the explicit graph. [`Cfg::dominates`] is the soundness
//! core of every placement decision: an insertion point is legal for a
//! writeback only if it executes on every path that reaches the writeback.

use janus_core::ir::{Op, Program};

/// Per-op region context (function instance, loop nesting, conditional).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Region {
    /// Innermost function instance id (0 = top level).
    pub func: u32,
    /// Loop nesting depth.
    pub loop_depth: u32,
    /// Innermost loop instance id (0 = not in a loop).
    pub loop_id: u32,
    /// Index of the innermost enclosing `CondBegin`, if any.
    pub cond_begin: Option<usize>,
}

/// The dominance limits and region context of one program.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The last op index each op dominates.
    reach: Vec<u32>,
    /// Region context per op.
    pub regions: Vec<Region>,
}

/// A paired conditional open in the backward pass of [`Cfg`]'s build.
struct Open {
    /// Its `CondEnd`.
    end: u32,
    /// The earliest `LoopBegin` seen so far whose loop ends past `end`.
    reentry: Option<u32>,
}

impl Cfg {
    /// Computes each op's dominance limit in two passes over the ops: one
    /// forward to pair the markers, one backward to bound each op's reach.
    pub(crate) fn build(program: &Program) -> Cfg {
        let ops = &program.ops;
        // A paired `LoopBegin` holds its `LoopEnd`, a paired `CondBegin` or
        // `CondEnd` its partner; every other op holds `NONE`.
        const NONE: u32 = u32::MAX;
        let mut pair = vec![NONE; ops.len()];
        let (mut loops, mut conds) = (Vec::new(), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::LoopBegin => loops.push(i),
                Op::LoopEnd => {
                    if let Some(begin) = loops.pop() {
                        pair[begin] = i as u32;
                    }
                }
                Op::CondBegin => conds.push(i),
                Op::CondEnd => {
                    if let Some(begin) = conds.pop() {
                        pair[begin] = i as u32;
                        pair[i] = begin as u32;
                    }
                }
                _ => {}
            }
        }

        // Walking backward, `open` holds the paired conditionals enclosing
        // the current op, innermost last.
        let last = ops.len().saturating_sub(1) as u32;
        let mut reach = vec![last; ops.len()];
        let mut open: Vec<Open> = Vec::new();
        for (i, op) in ops.iter().enumerate().rev() {
            let paired = pair[i] != NONE;
            match op {
                Op::CondEnd if paired => open.push(Open {
                    end: i as u32,
                    reentry: None,
                }),
                Op::CondBegin if paired => {
                    // The earliest loop re-entering the closed region ends
                    // the latest, so only it can re-enter the parent too.
                    let closed = open.pop().expect("paired conditionals nest");
                    if let (Some(parent), Some(lb)) = (open.last_mut(), closed.reentry) {
                        if pair[lb as usize] > parent.end {
                            parent.reentry = Some(lb);
                        }
                    }
                }
                _ => {}
            }
            if let Some(c) = open.last_mut() {
                reach[i] = c.reentry.map_or(c.end, |lb| lb - 1);
                if matches!(op, Op::LoopBegin) && paired && pair[i] > c.end {
                    c.reentry = Some(i as u32);
                }
            }
        }

        Cfg {
            reach,
            regions: regions(ops),
        }
    }

    /// Whether op `a` dominates op `b`: every path from entry to `b`
    /// executes `a`. Reflexive (`dominates(a, a)` is true).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        a <= b && b < self.reach.len() && b <= self.reach[a] as usize
    }
}

/// One linear scan computing each op's region context (the instrumentation
/// pass calls this too, so both layers agree about scopes).
pub fn regions(ops: &[Op]) -> Vec<Region> {
    let mut out = Vec::with_capacity(ops.len());
    let mut func_stack = vec![0u32];
    let mut next_func = 1u32;
    let mut loop_stack: Vec<u32> = Vec::new();
    let mut next_loop = 1u32;
    let mut cond_stack: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::FuncBegin(_) => {
                func_stack.push(next_func);
                next_func += 1;
            }
            Op::LoopBegin => {
                loop_stack.push(next_loop);
                next_loop += 1;
            }
            Op::CondBegin => cond_stack.push(i),
            _ => {}
        }
        out.push(Region {
            func: *func_stack.last().expect("top level"),
            loop_depth: loop_stack.len() as u32,
            loop_id: loop_stack.last().copied().unwrap_or(0),
            cond_begin: cond_stack.last().copied(),
        });
        match op {
            // An unpaired `FuncEnd` keeps the top level, as unpaired loop
            // and conditional ends keep their (empty) stacks.
            Op::FuncEnd if func_stack.len() > 1 => {
                func_stack.pop();
            }
            Op::LoopEnd => {
                loop_stack.pop();
            }
            Op::CondEnd => {
                cond_stack.pop();
            }
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
        let mut b = ProgramBuilder::new();
        b.compute(1).compute(2).compute(3);
        let cfg = Cfg::build(&b.build());
        assert!(cfg.dominates(0, 2));
        assert!(cfg.dominates(1, 2));
        assert!(!cfg.dominates(2, 1));
        assert!(cfg.dominates(1, 1), "dominance is reflexive");
    }

    #[test]
    fn cond_body_does_not_dominate_after() {
        let mut b = ProgramBuilder::new();
        b.compute(1); // 0
        b.cond_region(|b| {
            b.compute(2); // 2 (1 = CondBegin)
        });
        // 3 = CondEnd
        b.compute(3); // 4
        let cfg = Cfg::build(&b.build());
        assert!(!cfg.dominates(2, 4), "conditional body may be skipped");
        assert!(cfg.dominates(1, 4), "the CondBegin itself always executes");
        assert!(cfg.dominates(0, 4));
    }

    #[test]
    fn do_while_loop_body_dominates_exit() {
        let mut b = ProgramBuilder::new();
        b.compute(1); // 0
        b.loop_region(|b| {
            b.compute(2); // 2 (1 = LoopBegin)
        });
        // 3 = LoopEnd
        b.compute(3); // 4
        let cfg = Cfg::build(&b.build());
        assert!(
            cfg.dominates(2, 4),
            "a loop instance in the trace executed at least once"
        );
        assert!(cfg.dominates(1, 4), "the LoopBegin dominates too");
    }

    #[test]
    fn back_edge_is_present() {
        // A loop begun inside a conditional and closed past its end: the
        // skip edge lands inside the loop, whose back edge re-enters the
        // conditional behind its first op.
        let mut b = ProgramBuilder::new();
        b.push(Op::CondBegin); // 0
        b.compute(1); // 1
        b.push(Op::LoopBegin); // 2
        b.compute(2); // 3
        b.push(Op::CondEnd); // 4
        b.compute(3); // 5
        b.push(Op::LoopEnd); // 6
        let cfg = Cfg::build(&b.build());
        assert!(!cfg.dominates(1, 2), "the back edge reaches the LoopBegin");
        assert!(!cfg.dominates(1, 3));
        assert!(
            cfg.dominates(2, 4),
            "the LoopBegin still dominates its body"
        );
        assert!(!cfg.dominates(2, 5), "the skip edge bypasses the LoopBegin");
        assert!(cfg.dominates(0, 6));
    }

    #[test]
    fn regions_track_funcs_loops_conds() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.loop_region(|b| {
                b.store(LineAddr(1), Line::splat(1));
            });
            b.cond_region(|b| {
                b.clwb(LineAddr(1));
            });
        });
        let p = b.build();
        let regs = regions(&p.ops);
        let store = p
            .ops
            .iter()
            .position(|o| matches!(o, Op::Store { .. }))
            .unwrap();
        let clwb = p.ops.iter().position(|o| matches!(o, Op::Clwb(_))).unwrap();
        assert_eq!(regs[store].loop_depth, 1);
        assert_ne!(regs[store].loop_id, 0);
        assert_eq!(regs[clwb].loop_depth, 0);
        assert!(regs[clwb].cond_begin.is_some());
        assert_eq!(regs[store].func, regs[clwb].func);
        assert_eq!(regs[store].func, 1, "first function instance");
    }

    #[test]
    fn nested_regions_nest_dominance() {
        let mut b = ProgramBuilder::new();
        b.loop_region(|b| {
            b.cond_region(|b| {
                b.compute(1);
            });
            b.compute(2);
        });
        b.compute(3);
        let p = b.build();
        let cfg = Cfg::build(&p);
        let inner = p.ops.iter().position(|o| *o == Op::Compute(1)).unwrap();
        let tail = p.ops.iter().position(|o| *o == Op::Compute(2)).unwrap();
        let after = p.ops.iter().position(|o| *o == Op::Compute(3)).unwrap();
        assert!(!cfg.dominates(inner, tail), "cond body skippable in loop");
        assert!(cfg.dominates(tail, after), "loop tail ran at least once");
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
        let cfg = Cfg::build(&p);
        assert!(cfg.dominates(0, 6), "function markers add no edges");
        // The placement pass reads the same regions.
        crate::auto_place(&p);
    }

    #[test]
    fn empty_program_is_fine() {
        let cfg = Cfg::build(&Program::default());
        assert!(!cfg.dominates(0, 0));
    }
}
