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
//!   that dominates the writeback (addresses never change once generated,
//!   so earlier is strictly better: it widens the pre-execution window);
//! * **data-known point** — the *latest* `DataGen` covering the line that
//!   dominates the writeback (later definitions shadow earlier ones; using
//!   anything earlier risks hinting stale data).
//!
//! Dominance (not mere program order) is what makes the result sound: a
//! marker inside a conditional the writeback is outside of does not count,
//! while a marker inside a loop instance the writeback postdominates does
//! (do-while semantics, see [`crate::cfg`]). The [`Cfg`] it builds for
//! that is returned too, so callers clamp insertions with the same region
//! table.

use std::collections::BTreeMap;

use janus_core::ir::{Op, Program};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

use crate::cfg::Cfg;

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
    /// Earliest dominating same-function `AddrGen` (op index), if any.
    pub addr_known: Option<usize>,
    /// Latest dominating same-function `DataGen` (op index), if any.
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

/// Computes the program's dominance limits and [`WriteKnowledge`] for
/// every blocking writeback, in program order.
pub fn analyze_writes(program: &Program) -> (Cfg, Vec<WriteKnowledge>) {
    let ops = &program.ops;
    let cfg = Cfg::build(program);
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
            // Earliest dominating AddrGen in the writeback's function.
            wk.addr_known = ld
                .addr_gens
                .iter()
                .copied()
                .find(|&j| j < i && usable(&cfg, j, i));
            // Latest dominating DataGen in the writeback's function.
            wk.data_known = ld
                .data_gens
                .iter()
                .rev()
                .copied()
                .find(|&j| j < i && usable(&cfg, j, i));
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
    (cfg, out)
}

/// A marker at `j` is usable for the writeback at `i` when it lives in the
/// same function instance and executes on every path to the writeback.
fn usable(cfg: &Cfg, j: usize, i: usize) -> bool {
    cfg.regions[j].func == cfg.regions[i].func && cfg.dominates(j, i)
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
    fn conditional_marker_does_not_reach() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.cond_region(|b| {
                b.addr_gen(LineAddr(4), 1);
            });
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let wks = knowledge(&b.build());
        assert_eq!(wks[0].addr_known, None, "marker inside skippable cond");
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
