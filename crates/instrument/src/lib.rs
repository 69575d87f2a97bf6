#![warn(missing_docs)]

//! # janus-instrument — the automated compiler pass (§4.5)
//!
//! The Janus software interface is easy to use but still requires program
//! understanding; the paper provides an LLVM pass that instruments programs
//! automatically. This crate implements the same pass over our explicit
//! program IR ([`janus_core::ir`]), following §4.5.1's three steps:
//!
//! 1. **Locate blocking writebacks** — `clwb` operations whose values a
//!    subsequent `sfence` waits on.
//! 2. **Dependency analysis** — for each writeback, find where its address
//!    was generated ([`janus_core::ir::Op::AddrGen`]) and where its data was
//!    last defined ([`janus_core::ir::Op::DataGen`]).
//! 3. **Injection** — insert `PRE_ADDR` right after address generation and
//!    `PRE_DATA` right after the last data definition, "as far away from the
//!    actual writeback as possible".
//!
//! The pass reproduces the paper's stated limitations (§4.5.2): it only
//! instruments within the same function as the writeback, it skips
//! writebacks inside loops (no runtime trip information), and it refuses
//! markers that live inside loops the writeback is not in. The paper's
//! third rule, keeping insertions under the writeback's conditional
//! statement, has nothing to act on: the IR marks no conditionals (see
//! [`janus_lint::cfg`]), so every marker the pass uses already executes on
//! every path to the writeback.
//!
//! The [`misuse`] module keeps the §6 trace-walking misuse checker as an
//! independent oracle for `janus-lint` (it reports the same
//! [`janus_lint::Diagnostic`]s from its own walk) and holds
//! [`misuse::verify_fix`], the one verification a `janus-lint --fix`
//! rewrite must pass before it is emitted.
//!
//! # Example
//!
//! ```
//! use janus_core::ir::{Op, PreFunc, ProgramBuilder};
//! use janus_instrument::instrument;
//! use janus_nvm::{addr::LineAddr, line::Line};
//!
//! let mut b = ProgramBuilder::new();
//! b.func("update", |b| {
//!     b.data_gen(LineAddr(4), vec![Line::splat(1)]);
//!     b.compute(100);
//!     b.addr_gen(LineAddr(4), 1);
//!     b.compute(500);
//!     b.store(LineAddr(4), Line::splat(1));
//!     b.clwb(LineAddr(4));
//!     b.fence();
//! });
//! let (instrumented, report) = instrument(&b.build());
//! assert_eq!(report.instrumented_writes, 1);
//! assert!(instrumented.ops.iter().any(|o| matches!(o, Op::Pre { func: PreFunc::Addr { .. }, buffered: false, .. })));
//! assert!(instrumented.ops.iter().any(|o| matches!(o, Op::Pre { func: PreFunc::Data { .. }, buffered: false, .. })));
//! ```

pub mod misuse;

use std::collections::BTreeSet;

use janus_core::ir::{Op, PreFunc, PreObjId, Program};
use janus_lint::cfg::{regions, Region};
use janus_lint::dataflow::is_blocking;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

/// Statistics of one instrumentation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrumentReport {
    /// Blocking writebacks found.
    pub writes_found: u64,
    /// Writebacks that received at least one pre-execution call.
    pub instrumented_writes: u64,
    /// `PRE_ADDR` calls inserted.
    pub pre_addr_inserted: u64,
    /// `PRE_DATA` calls inserted.
    pub pre_data_inserted: u64,
    /// Writebacks skipped because they sit inside a loop (§4.5.2).
    pub skipped_in_loop: u64,
    /// Writebacks skipped for lack of same-function provenance markers.
    pub skipped_no_marker: u64,
}

impl InstrumentReport {
    /// Fraction of found writes that were instrumented.
    pub fn coverage(&self) -> f64 {
        if self.writes_found == 0 {
            0.0
        } else {
            self.instrumented_writes as f64 / self.writes_found as f64
        }
    }
}

/// Runs the pass: returns the instrumented program and a report.
///
/// Any pre-execution ops already present are preserved (the pass is
/// idempotent in practice because instrumented writebacks carry fresh
/// `pre_obj`s, but mixing manual and automated instrumentation is not
/// recommended).
pub fn instrument(program: &Program) -> (Program, InstrumentReport) {
    // A marker must share the writeback's function instance, and none of
    // its ops precede that instance's `FuncBegin`: scanning from there is
    // exact, and bounds each search by its function's size rather than the
    // program's.
    run_pass(program, |func_start, func| func_start[func as usize])
}

/// The pass, with each writeback's marker searches starting at
/// `scan_from(func_start, func)`.
fn run_pass(
    program: &Program,
    scan_from: impl Fn(&[usize], u32) -> usize,
) -> (Program, InstrumentReport) {
    let ops = &program.ops;
    let regs = regions(ops);
    // Each function instance's `FuncBegin` index, by `Region::func` (ids
    // count `FuncBegin`s in program order; 0 is the top level).
    let func_start: Vec<usize> = std::iter::once(0)
        .chain(
            ops.iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, Op::FuncBegin(_)))
                .map(|(i, _)| i),
        )
        .collect();
    let mut report = InstrumentReport::default();
    // Ops to splice in before each index.
    let mut insertions: Vec<(usize, Vec<Op>)> = Vec::new();
    let mut next_obj = program.next_pre_obj();

    for (i, op) in ops.iter().enumerate() {
        let Op::Clwb(line) = op else { continue };
        let line = *line;
        if !is_blocking(ops, i) {
            continue;
        }
        report.writes_found += 1;

        // Limitation: writebacks inside loops are not instrumented.
        if regs[i].loop_depth > 0 {
            report.skipped_in_loop += 1;
            continue;
        }

        let from = scan_from(&func_start, regs[i].func);
        let addr_marker = find_addr_marker(ops, &regs, from, i, line);
        let data_marker = find_data_marker(ops, &regs, from, i, line);
        if addr_marker.is_none() && data_marker.is_none() {
            report.skipped_no_marker += 1;
            continue;
        }

        let obj = PreObjId(next_obj);
        next_obj += 1;
        let mut first_insert_at = usize::MAX;

        // Each writeback gets a request narrowed to its own cache line —
        // the pass analyzed this specific `clwb`, not the whole object the
        // marker covers (a naive whole-object request per writeback would
        // flood the bounded request/operation queues).
        let mut planned: Vec<(usize, Op)> = Vec::new();
        if let Some((at, _nlines)) = addr_marker {
            planned.push((
                at,
                Op::Pre {
                    obj,
                    func: PreFunc::Addr { line, nlines: 1 },
                    buffered: false,
                },
            ));
            report.pre_addr_inserted += 1;
            first_insert_at = first_insert_at.min(at);
        }
        if let Some((at, values)) = data_marker {
            planned.push((
                at,
                Op::Pre {
                    obj,
                    func: PreFunc::Data { values },
                    buffered: false,
                },
            ));
            report.pre_data_inserted += 1;
            first_insert_at = first_insert_at.min(at);
        }
        // PRE_INIT goes just before the earliest injected call.
        insertions.push((first_insert_at, vec![Op::PreInit(obj)]));
        for (at, op) in planned {
            insertions.push((at, vec![op]));
        }
        report.instrumented_writes += 1;
    }

    (program.splice(insertions, &BTreeSet::new()), report)
}

/// Finds the usable `AddrGen` marker for the writeback at `clwb_idx`:
/// the earliest same-function marker at or after `from` covering `line`, not
/// inside a loop the writeback is not in. Returns the insertion index (right
/// after the marker) and the covered line count.
fn find_addr_marker(
    ops: &[Op],
    regs: &[Region],
    from: usize,
    clwb_idx: usize,
    line: LineAddr,
) -> Option<(usize, u32)> {
    for j in from..clwb_idx {
        let Op::AddrGen {
            line: first,
            nlines,
        } = &ops[j]
        else {
            continue;
        };
        if !(first.0..first.0 + *nlines as u64).contains(&line.0) {
            continue;
        }
        if regs[j].func != regs[clwb_idx].func {
            continue; // cross-function: out of scope for the static pass
        }
        if regs[j].loop_depth > regs[clwb_idx].loop_depth {
            continue; // marker is loop-carried
        }
        return Some((j + 1, *nlines));
    }
    None
}

/// Finds the usable `DataGen` marker: the *last* same-function definition of
/// `line`'s data before the writeback (the pass "places a PRE_DATA function
/// between the last two updates on the object"), searching back to `from`.
/// Returns the one line value destined for `line`.
fn find_data_marker(
    ops: &[Op],
    regs: &[Region],
    from: usize,
    clwb_idx: usize,
    line: LineAddr,
) -> Option<(usize, Vec<Line>)> {
    for j in (from..clwb_idx).rev() {
        let Op::DataGen {
            line: first,
            values,
        } = &ops[j]
        else {
            continue;
        };
        let nlines = values.len() as u64;
        if !(first.0..first.0 + nlines).contains(&line.0) {
            continue;
        }
        if regs[j].func != regs[clwb_idx].func {
            continue;
        }
        if regs[j].loop_depth > regs[clwb_idx].loop_depth {
            continue;
        }
        let value = values[(line.0 - first.0) as usize];
        return Some((j + 1, vec![value]));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_check::{forall_cfg, gen, Config, Gen};
    use janus_core::ir::ProgramBuilder;
    use std::cell::Cell;

    /// What `o` carries, when it is an unbuffered request.
    fn unbuffered(o: &Op) -> Option<&PreFunc> {
        match o {
            Op::Pre {
                func,
                buffered: false,
                ..
            } => Some(func),
            _ => None,
        }
    }

    /// The whole-program scan: every marker search starts at op 0. Kept as
    /// the executable specification for the per-function scan start.
    fn instrument_oracle(program: &Program) -> (Program, InstrumentReport) {
        run_pass(program, |_, _| 0)
    }

    /// One token of a random program: `(kind, line, n)`.
    type Token = (u8, u64, u32);

    fn arb_tokens() -> Gen<Vec<Token>> {
        let token = gen::tuple3(
            &gen::range_u8(0..11),
            &gen::range_u64(0..4),
            &gen::range_u32(1..3),
        );
        gen::vec_of(&token, 0..48)
    }

    /// Builds a well-formed program from tokens: regions (function, loop)
    /// open and close anywhere, so functions nest, writes sit at top level,
    /// and a few lines shared by every function put markers for the same
    /// line in sibling functions.
    fn build_tokens(tokens: &[Token]) -> Program {
        let mut b = ProgramBuilder::new();
        let mut open: Vec<Op> = Vec::new();
        for &(kind, line, n) in tokens {
            let line = LineAddr(line);
            match kind {
                0 => {
                    b.push(Op::FuncBegin("f"));
                    open.push(Op::FuncEnd);
                }
                1 => {
                    b.push(Op::LoopBegin);
                    open.push(Op::LoopEnd);
                }
                2 => {
                    if let Some(end) = open.pop() {
                        b.push(end);
                    }
                }
                3 => {
                    b.addr_gen(line, n);
                }
                4 => {
                    let values = (0..n)
                        .map(|k| Line::splat(line.0 as u8 + k as u8))
                        .collect();
                    b.data_gen(line, values);
                }
                5 | 6 => {
                    b.store(line, Line::splat(n as u8));
                    b.clwb(line);
                    b.fence();
                }
                7 => {
                    b.clwb(line);
                }
                8 => {
                    b.fence();
                }
                9 => {
                    b.compute(n * 100);
                }
                _ => {
                    b.push(Op::PreInit(PreObjId(n)));
                }
            }
        }
        while let Some(end) = open.pop() {
            b.push(end);
        }
        b.build()
    }

    /// Which of the shapes the per-function scan start must get right a
    /// program holds: `[top-level write, function nested between a marker
    /// and its write, marker for the write's line in another function]`.
    fn shapes(p: &Program) -> [bool; 3] {
        let regs = regions(&p.ops);
        let covers = |op: &Op, line: LineAddr| match op {
            Op::AddrGen {
                line: first,
                nlines,
            } => (first.0..first.0 + u64::from(*nlines)).contains(&line.0),
            Op::DataGen {
                line: first,
                values,
            } => (first.0..first.0 + values.len() as u64).contains(&line.0),
            _ => false,
        };
        let mut out = [false; 3];
        for (i, op) in p.ops.iter().enumerate() {
            let Op::Clwb(line) = op else { continue };
            out[0] |= regs[i].func == 0;
            for (j, m) in p.ops[..i].iter().enumerate() {
                if !covers(m, *line) {
                    continue;
                }
                if regs[j].func == regs[i].func {
                    out[1] |= p.ops[j..i].iter().any(|o| matches!(o, Op::FuncBegin(_)));
                } else {
                    out[2] = true;
                }
            }
        }
        out
    }

    #[test]
    fn scan_from_func_begin_matches_whole_program_scan() {
        let seen = [Cell::new(0u32), Cell::new(0u32), Cell::new(0u32)];
        forall_cfg(&Config::with_cases(512), &arb_tokens(), |tokens| {
            let p = build_tokens(tokens);
            for (count, hit) in seen.iter().zip(shapes(&p)) {
                count.set(count.get() + u32::from(hit));
            }
            assert_eq!(instrument(&p), instrument_oracle(&p));
        });
        // The generator must actually reach every shape.
        for (shape, count) in seen.iter().enumerate() {
            assert!(
                count.get() >= 16,
                "shape {shape} covered {} times",
                count.get()
            );
        }
    }

    fn simple_update(in_loop: bool) -> Program {
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.compute(100);
            b.addr_gen(LineAddr(4), 1);
            b.compute(500);
            let body = |b: &mut ProgramBuilder| {
                b.store(LineAddr(4), Line::splat(1));
                b.clwb(LineAddr(4));
                b.fence();
            };
            if in_loop {
                b.loop_region(body);
            } else {
                body(b);
            }
        });
        b.build()
    }

    #[test]
    fn instruments_simple_update() {
        let (p, r) = instrument(&simple_update(false));
        assert_eq!(r.writes_found, 1);
        assert_eq!(r.instrumented_writes, 1);
        assert_eq!(r.pre_addr_inserted, 1);
        assert_eq!(r.pre_data_inserted, 1);
        assert_eq!(r.coverage(), 1.0);
        // PRE_DATA sits right after the DataGen marker, before the AddrGen.
        let data_pos = p
            .ops
            .iter()
            .position(|o| matches!(unbuffered(o), Some(PreFunc::Data { .. })))
            .unwrap();
        let addr_pos = p
            .ops
            .iter()
            .position(|o| matches!(unbuffered(o), Some(PreFunc::Addr { .. })))
            .unwrap();
        let gen_pos = p
            .ops
            .iter()
            .position(|o| matches!(o, Op::AddrGen { .. }))
            .unwrap();
        assert!(data_pos < gen_pos);
        assert_eq!(addr_pos, gen_pos + 1);
        // PRE_INIT precedes both.
        let init_pos = p
            .ops
            .iter()
            .position(|o| matches!(o, Op::PreInit(_)))
            .unwrap();
        assert!(init_pos < data_pos);
    }

    #[test]
    fn skips_writebacks_in_loops() {
        let (p, r) = instrument(&simple_update(true));
        assert_eq!(r.writes_found, 1);
        assert_eq!(r.instrumented_writes, 0);
        assert_eq!(r.skipped_in_loop, 1);
        assert_eq!(p.pre_op_count(), 0);
    }

    #[test]
    fn skips_without_markers() {
        let mut b = ProgramBuilder::new();
        b.func("noinfo", |b| {
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (_, r) = instrument(&b.build());
        assert_eq!(r.skipped_no_marker, 1);
        assert_eq!(r.instrumented_writes, 0);
    }

    #[test]
    fn ignores_cross_function_markers() {
        let mut b = ProgramBuilder::new();
        b.func("caller", |b| {
            b.addr_gen(LineAddr(1), 1);
            b.data_gen(LineAddr(1), vec![Line::splat(1)]);
        });
        b.func("callee", |b| {
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (_, r) = instrument(&b.build());
        assert_eq!(r.skipped_no_marker, 1);
    }

    #[test]
    fn non_blocking_writebacks_ignored() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(1), 1);
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1)); // never fenced inside the function
        });
        let (_, r) = instrument(&b.build());
        assert_eq!(r.writes_found, 0);
    }

    #[test]
    fn marker_inside_loop_is_not_hoisted() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.loop_region(|b| {
                b.addr_gen(LineAddr(1), 1);
                b.data_gen(LineAddr(1), vec![Line::splat(1)]);
            });
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (_, r) = instrument(&b.build());
        assert_eq!(r.skipped_no_marker, 1);
    }

    #[test]
    fn uses_last_data_definition() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(1), vec![Line::splat(1)]);
            b.compute(10);
            b.data_gen(LineAddr(1), vec![Line::splat(2)]); // last definition
            b.addr_gen(LineAddr(1), 1);
            b.store(LineAddr(1), Line::splat(2));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (p, _) = instrument(&b.build());
        let data = p
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Pre {
                    func: PreFunc::Data { values },
                    ..
                } => Some(values.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(data, vec![Line::splat(2)]);
    }

    #[test]
    fn multi_line_addr_markers_cover_ranges() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(10), 4);
            b.data_gen(LineAddr(12), vec![Line::splat(9)]);
            b.store(LineAddr(12), Line::splat(9));
            b.clwb(LineAddr(12)); // covered by the 4-line AddrGen
            b.fence();
        });
        let (_, r) = instrument(&b.build());
        assert_eq!(r.instrumented_writes, 1);
        assert_eq!(r.pre_addr_inserted, 1);
    }

    #[test]
    fn fresh_objs_do_not_collide_with_existing() {
        let mut b = ProgramBuilder::new();
        let manual = b.pre_init(); // PreObjId(0)
        b.func("f", |b| {
            b.addr_gen(LineAddr(1), 1);
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (p, _) = instrument(&b.build());
        let objs: Vec<PreObjId> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::PreInit(obj) => Some(*obj),
                _ => None,
            })
            .collect();
        assert_eq!(objs.len(), 2);
        assert_ne!(objs[0], objs[1]);
        assert!(objs.contains(&manual));
    }
}
