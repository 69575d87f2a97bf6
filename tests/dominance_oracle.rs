//! Differential checks of janus-lint's dominance against the general
//! iterative dominator algorithm.
//!
//! janus-lint reads dominance off the region markers: op *j* dominates op
//! *i* iff `j ≤ i`, *i* lies inside the innermost conditional strictly
//! enclosing *j*, and no loop that begins inside that conditional after *j*
//! and no later than *i* ends past its `CondEnd`. The oracle here is the
//! general algorithm over the explicit graph: predecessor lists
//! (fall-through, loop back edges, conditional skip edges),
//! Cooper–Harvey–Kennedy iterative dominators and an idom-chain walk. The
//! two must agree on every op pair of random programs with nested,
//! unbalanced and crossing markers (function markers, which add no edge,
//! included), and on every marker→writeback pair of the workloads'
//! programs.

use janus::core::ir::{Op, Program, ProgramBuilder};
use janus::instrument::instrument;
use janus::lint::{analyze_writes, auto_place};
use janus::workloads::{generate, Instrumentation, Workload, WorkloadConfig};
use janus_check::{forall_cfg, gen, Config, Gen};

/// The iterative dominators of one program's control-flow graph.
struct Oracle {
    n: usize,
    /// Immediate dominator per op (entry points at itself).
    idom: Vec<u32>,
    /// Dominator-tree depth per op.
    depth: Vec<u32>,
}

impl Oracle {
    /// Builds the CFG with trace-exact do-while loop semantics.
    fn build(program: &Program) -> Oracle {
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

        Oracle { n, idom, depth }
    }

    /// Whether op `a` dominates op `b`: every path from entry to `b`
    /// executes `a`. Reflexive (`dominates(a, a)` is true).
    fn dominates(&self, a: usize, b: usize) -> bool {
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

/// One generated step: `(kind, width)`. Kinds 0–1 are a plain op, 2–5 a
/// raw `LoopBegin`, `LoopEnd`, `CondBegin` or `CondEnd` (which may stay
/// unpaired or cross another region), 6 a loop and 7 a conditional closed
/// after `width` more steps (so they nest or cross as their widths fall),
/// 8 a conditional whose body opens a loop that closes one step after
/// the conditional does, and 9–10 a raw `FuncBegin` or `FuncEnd` (which
/// may stay unpaired too).
fn arb_steps() -> Gen<Vec<(u8, u8)>> {
    gen::vec_of(
        &gen::pair(&gen::range_u8(0..11), &gen::range_u8(0..4)),
        1..24,
    )
}

/// Builds the program `steps` describe; closes still due at the end are
/// emitted there, earliest due first.
fn build(steps: &[(u8, u8)]) -> Program {
    let mut b = ProgramBuilder::new();
    // Scheduled closes: (steps left, op), newest last.
    let mut due: Vec<(u8, Op)> = Vec::new();
    for &(kind, width) in steps {
        match kind {
            0 | 1 => {
                b.compute(1);
            }
            2 => {
                b.push(Op::LoopBegin);
            }
            3 => {
                b.push(Op::LoopEnd);
            }
            4 => {
                b.push(Op::CondBegin);
            }
            5 => {
                b.push(Op::CondEnd);
            }
            6 => {
                b.push(Op::LoopBegin);
                due.push((width + 1, Op::LoopEnd));
            }
            7 => {
                b.push(Op::CondBegin);
                due.push((width + 1, Op::CondEnd));
            }
            8 => {
                b.push(Op::CondBegin).push(Op::LoopBegin);
                due.push((width + 2, Op::LoopEnd));
                due.push((width + 1, Op::CondEnd));
            }
            9 => {
                b.push(Op::FuncBegin("f"));
            }
            _ => {
                b.push(Op::FuncEnd);
            }
        }
        for close in due.iter_mut() {
            close.0 -= 1;
        }
        // Newest first, so regions opened in one step nest.
        for k in (0..due.len()).rev() {
            if due[k].0 == 0 {
                b.push(due.remove(k).1);
            }
        }
    }
    due.sort_by_key(|close| close.0);
    for (_, op) in due {
        b.push(op);
    }
    b.build()
}

/// `Cfg::dominates` agrees with the oracle on every op pair.
#[test]
fn dominance_matches_iterative_dominators() {
    forall_cfg(&Config::with_cases(256), &arb_steps(), |steps| {
        let p = build(steps);
        let (cfg, _) = analyze_writes(&p);
        let oracle = Oracle::build(&p);
        for j in 0..=p.ops.len() {
            for i in 0..=p.ops.len() {
                assert_eq!(
                    cfg.dominates(j, i),
                    oracle.dominates(j, i),
                    "dominates({j}, {i}) in {:?}",
                    p.ops
                );
            }
        }
    });
}

/// A `FuncEnd` without its `FuncBegin` leaves the top level in place for
/// both compiler passes, which read the same region table.
#[test]
fn unpaired_func_end_is_not_fatal() {
    let mut b = ProgramBuilder::new();
    b.push(Op::FuncEnd).compute(1);
    let p = b.build();
    assert_eq!(instrument(&p).0.ops, p.ops, "nothing to instrument");
    assert_eq!(auto_place(&p).0.ops, p.ops, "nothing to place");
}

/// On every workload's generated, `instrument`ed and `auto_place`d
/// programs, with and without the hand placement, `Cfg::dominates` agrees
/// with the oracle on every provenance-marker→writeback pair.
#[test]
fn workload_marker_dominance_matches_iterative_dominators() {
    let mut pairs = 0usize;
    for w in Workload::all() {
        for instrumentation in [Instrumentation::Manual, Instrumentation::None] {
            let wc = WorkloadConfig {
                transactions: 8,
                instrumentation,
                ..WorkloadConfig::default()
            };
            let p = generate(w, 0, &wc).program;
            for program in [instrument(&p).0, auto_place(&p).0, p] {
                let (cfg, _) = analyze_writes(&program);
                let oracle = Oracle::build(&program);
                let at = |f: fn(&Op) -> bool| -> Vec<usize> {
                    (0..program.ops.len())
                        .filter(|&i| f(&program.ops[i]))
                        .collect()
                };
                let markers = at(|op| matches!(op, Op::AddrGen { .. } | Op::DataGen { .. }));
                let clwbs = at(|op| matches!(op, Op::Clwb(_)));
                for &j in &markers {
                    for &i in &clwbs {
                        assert_eq!(
                            cfg.dominates(j, i),
                            oracle.dominates(j, i),
                            "{w} ({instrumentation:?}): dominates({j}, {i})"
                        );
                    }
                }
                pairs += markers.len() * clwbs.len();
            }
        }
    }
    assert!(pairs > 0);
}
