//! Reaching-definitions / last-write dataflow over the provenance markers.
//!
//! The IR carries explicit provenance: [`Op::AddrGen`] marks where a future
//! write's address became architecturally known, [`Op::DataGen`] where its
//! data was last defined. [`analyze_writes`], the module's one entry,
//! collects those definitions per NVM line and, for every blocking
//! writeback, computes the two program points the placement pass and
//! `--fix`'s hoist need:
//!
//! * **address-known point** — the *earliest* `AddrGen` covering the line
//!   before the writeback in its function instance (addresses never change
//!   once generated, so earlier is strictly better: it widens the
//!   pre-execution window);
//! * **data-known point** — the *latest* such `DataGen` (later definitions
//!   shadow earlier ones; using anything earlier risks hinting stale data).
//!
//! Dominance is program order (see [`crate::cfg`]), so every such marker
//! executes on every path to the writeback, one inside a loop instance
//! the writeback follows included (do-while semantics). The region table
//! that names each op's function instance is returned too, so the
//! placement pass reads loop depth from the same table.

use std::collections::BTreeMap;

use janus_core::ir::{Op, Program};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

use crate::cfg::{regions, Region};

/// The provenance markers covering one NVM line, in program order.
#[derive(Default)]
struct LineDefs {
    /// `AddrGen` op indices.
    addr_gens: Vec<usize>,
    /// `DataGen` op indices.
    data_gens: Vec<usize>,
}

/// Collects every line's provenance markers in one scan.
fn line_defs(ops: &[Op]) -> BTreeMap<u64, LineDefs> {
    let mut map: BTreeMap<u64, LineDefs> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::AddrGen { line, nlines } => {
                for k in 0..*nlines as u64 {
                    map.entry(line.0 + k).or_default().addr_gens.push(i);
                }
            }
            Op::DataGen { line, values } => {
                for k in 0..values.len() as u64 {
                    map.entry(line.0 + k).or_default().data_gens.push(i);
                }
            }
            _ => {}
        }
    }
    map
}

/// What the dataflow knows about one blocking writeback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteKnowledge {
    /// Index of the `Clwb` op.
    pub clwb: usize,
    /// The flushed line.
    pub line: LineAddr,
    /// Earliest same-function `AddrGen` before the writeback (op index),
    /// if any.
    pub addr_known: Option<usize>,
    /// Latest same-function `DataGen` before the writeback (op index), if
    /// any.
    pub data_known: Option<usize>,
    /// The line value defined at `data_known`.
    pub data_value: Option<Line>,
}

/// Whether the writeback at `clwb_idx` is *blocking*: a fence follows it
/// before its function returns (the instrumentation pass uses this rule
/// too).
pub fn is_blocking(ops: &[Op], clwb_idx: usize) -> bool {
    for op in &ops[clwb_idx + 1..] {
        match op {
            Op::Fence => return true,
            Op::FuncEnd => return false,
            _ => {}
        }
    }
    false
}

/// Computes the program's region table and [`WriteKnowledge`] for every
/// blocking writeback, in program order.
pub fn analyze_writes(program: &Program) -> (Vec<Region>, Vec<WriteKnowledge>) {
    let ops = &program.ops;
    let regs = regions(ops);
    let defs = line_defs(ops);
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let Op::Clwb(line) = op else { continue };
        if !is_blocking(ops, i) {
            continue;
        }
        let line = *line;
        let mut wk = WriteKnowledge {
            clwb: i,
            line,
            addr_known: None,
            data_known: None,
            data_value: None,
        };
        if let Some(ld) = defs.get(&line.0) {
            let usable = |&j: &usize| j < i && regs[j].func == regs[i].func;
            wk.addr_known = ld.addr_gens.iter().copied().find(usable);
            wk.data_known = ld.data_gens.iter().rev().copied().find(usable);
            if let Some(j) = wk.data_known {
                if let Op::DataGen {
                    line: first,
                    values,
                } = &ops[j]
                {
                    wk.data_value = Some(values[(line.0 - first.0) as usize]);
                }
            }
        }
        out.push(wk);
    }
    (regs, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;

    fn knowledge(p: &Program) -> Vec<WriteKnowledge> {
        analyze_writes(p).1
    }

    #[test]
    fn straight_line_write_is_fully_known() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(9)]); // 1
            b.addr_gen(LineAddr(4), 1); // 2
            b.compute(100);
            b.store(LineAddr(4), Line::splat(9));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert_eq!(wks.len(), 1);
        assert_eq!(wks[0].addr_known, Some(2));
        assert_eq!(wks[0].data_known, Some(1));
        assert_eq!(wks[0].data_value, Some(Line::splat(9)));
    }

    #[test]
    fn latest_data_definition_wins() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]); // 1
            b.data_gen(LineAddr(4), vec![Line::splat(2)]); // 2 — shadows
            b.addr_gen(LineAddr(4), 1);
            b.store(LineAddr(4), Line::splat(2));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert_eq!(wks[0].data_known, Some(2));
        assert_eq!(wks[0].data_value, Some(Line::splat(2)));
    }

    #[test]
    fn earliest_addr_marker_wins() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(4), 1); // 1 — earliest
            b.compute(10);
            b.addr_gen(LineAddr(4), 1); // 3
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert_eq!(wks[0].addr_known, Some(1));
    }

    #[test]
    fn loop_marker_reaches_post_loop_write() {
        // The RB-Tree shape: markers generated inside the (executed) loop
        // instance, writebacks after it. Do-while dominance accepts them.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.loop_region(|b| {
                b.addr_gen(LineAddr(4), 1);
                b.data_gen(LineAddr(4), vec![Line::splat(3)]);
            });
            b.store(LineAddr(4), Line::splat(3));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert!(wks[0].addr_known.is_some());
        assert!(wks[0].data_known.is_some());
    }

    #[test]
    fn cross_function_marker_is_refused() {
        let mut b = ProgramBuilder::new();
        b.func("caller", |b| {
            b.addr_gen(LineAddr(4), 1);
        });
        b.func("callee", |b| {
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert_eq!(wks[0].addr_known, None);
    }

    #[test]
    fn non_blocking_writes_are_skipped() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(4), 1);
            b.clwb(LineAddr(4)); // no fence before FuncEnd
        });
        assert!(knowledge(&b.build()).is_empty());
    }

    #[test]
    fn multi_line_markers_cover_ranges() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.addr_gen(LineAddr(10), 4); // covers 10..14
            b.data_gen(LineAddr(10), vec![Line::splat(1), Line::splat(2)]);
            b.store(LineAddr(11), Line::splat(2));
            b.clwb(LineAddr(11));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert!(wks[0].addr_known.is_some());
        assert_eq!(wks[0].data_value, Some(Line::splat(2)));
    }
}
