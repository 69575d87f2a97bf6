//! Control-flow graph and dominators over the program IR.
//!
//! The IR is a concrete trace, but its region markers preserve the control
//! structure of the source: `LoopBegin`/`LoopEnd` bracket one executed loop
//! instance, `CondBegin`/`CondEnd` bracket a conditionally executed region,
//! and `FuncBegin`/`FuncEnd` bracket an (inlined) call. The CFG models each
//! op as one node with:
//!
//! * a fall-through edge `i → i+1`;
//! * a back edge `LoopEnd → LoopBegin` (loops are *do-while*: a loop region
//!   present in the trace executed its body at least once, so the body
//!   dominates everything after the loop — this is exact for trace
//!   programs and is what lets the placement pass use in-loop provenance
//!   markers the paper's conservative source-level pass must refuse);
//! * a skip edge `CondBegin → CondEnd+1` (the conditional may not execute
//!   in other instances, so its body dominates nothing after it).
//!
//! Dominators are computed with the standard iterative algorithm (Cooper,
//! Harvey, Kennedy) over the reverse-postorder that program order already
//! is for this reducible graph. [`Cfg::dominates`] is the soundness core of
//! every placement decision: an insertion point is legal for a writeback
//! only if it executes on every path that reaches the writeback.

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

/// The control-flow graph of one program, with dominator information.
#[derive(Clone, Debug)]
pub struct Cfg {
    n: usize,
    preds: Vec<Vec<u32>>,
    /// Immediate dominator per op (entry points at itself).
    idom: Vec<u32>,
    /// Dominator-tree depth per op.
    depth: Vec<u32>,
    /// Region context per op.
    pub regions: Vec<Region>,
}

impl Cfg {
    /// Builds the CFG with trace-exact do-while loop semantics.
    pub fn build(program: &Program) -> Cfg {
        let ops = &program.ops;
        let n = ops.len();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let add = |preds: &mut Vec<Vec<u32>>, from: usize, to: usize| {
            if to < n && !preds[to].contains(&(from as u32)) {
                preds[to].push(from as u32);
            }
        };

        // Fall-through edges plus region-derived control edges.
        let mut loop_stack: Vec<usize> = Vec::new();
        let mut cond_stack: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i + 1 < n {
                add(&mut preds, i, i + 1);
            }
            match op {
                Op::LoopBegin => loop_stack.push(i),
                Op::LoopEnd => {
                    if let Some(begin) = loop_stack.pop() {
                        // Back edge: the body repeats.
                        add(&mut preds, i, begin);
                    }
                }
                Op::CondBegin => cond_stack.push(i),
                Op::CondEnd => {
                    if let Some(begin) = cond_stack.pop() {
                        // Skip edge: the conditional may not execute.
                        add(&mut preds, begin, i + 1);
                    }
                }
                _ => {}
            }
        }

        // Iterative dominators over program order (a valid RPO here: every
        // forward edge goes to a larger index, only loop back edges go
        // backwards).
        const UNDEF: u32 = u32::MAX;
        let mut idom = vec![UNDEF; n.max(1)];
        if n > 0 {
            idom[0] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for i in 1..n {
                    let mut new: Option<u32> = None;
                    for &p in &preds[i] {
                        if idom[p as usize] == UNDEF {
                            continue; // not yet reached
                        }
                        new = Some(match new {
                            None => p,
                            Some(cur) => intersect(&idom, cur, p),
                        });
                    }
                    if let Some(new) = new {
                        if idom[i] != new {
                            idom[i] = new;
                            changed = true;
                        }
                    }
                }
            }
        }
        let mut depth = vec![0u32; n];
        for i in 1..n {
            if idom[i] != UNDEF {
                depth[i] = depth[idom[i] as usize] + 1;
            }
        }

        Cfg {
            n,
            preds,
            idom,
            depth,
            regions: regions(ops),
        }
    }

    /// Number of ops (CFG nodes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the program was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direct CFG predecessors of op `i`.
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.preds[i]
    }

    /// Whether op `a` dominates op `b`: every path from entry to `b`
    /// executes `a`. Reflexive (`dominates(a, a)` is true).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n {
            return false;
        }
        if self.idom[b] == u32::MAX {
            return false; // b unreachable
        }
        let (da, mut b) = (self.depth[a], b as u32);
        if da > self.depth[b as usize] {
            return false;
        }
        while self.depth[b as usize] > da {
            b = self.idom[b as usize];
        }
        b as usize == a
    }

    /// The immediate dominator of `i` (`None` for the entry op).
    pub fn idom(&self, i: usize) -> Option<usize> {
        if i == 0 || i >= self.n || self.idom[i] == u32::MAX {
            None
        } else {
            Some(self.idom[i] as usize)
        }
    }
}

/// Finger intersection for the iterative dominator algorithm; relies on
/// `idom[x] ≤ x` in program order.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
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
            Op::FuncEnd => {
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
        assert_eq!(cfg.idom(2), Some(1));
        assert_eq!(cfg.idom(0), None);
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
        let mut b = ProgramBuilder::new();
        b.loop_region(|b| {
            b.compute(2);
        });
        let cfg = Cfg::build(&b.build());
        // LoopBegin (0) has the LoopEnd (2) as a predecessor.
        assert!(cfg.preds(0).contains(&2));
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
    fn empty_program_is_fine() {
        let cfg = Cfg::build(&Program::default());
        assert!(cfg.is_empty());
        assert!(!cfg.dominates(0, 0));
    }
}
