//! Automated `PRE_*` placement from the dominance/dataflow analysis.
//!
//! [`auto_place`] is the dominance-based successor of the instrumentation
//! pass in `janus-instrument` (§4.5): instead of refusing loops and
//! loop-carried markers outright, it places a request wherever the
//! dataflow proves the write's address (and, when available, data) is
//! known on *every* path to the writeback — which covers writebacks
//! inside loops and markers in preceding do-while loop bodies, the two
//! cases the paper's static pass leaves to future work (§6).
//!
//! Placement rules:
//!
//! * A write is placed only when a dominating same-function `AddrGen`
//!   exists — a request whose address never arrives cannot be consumed
//!   and would only waste an IRB entry.
//! * The request goes to the *earliest* legal point: right after the
//!   address marker (and the data part right after the *latest*
//!   dominating `DataGen`).
//! * When only zero-cost provenance markers separate the two points, the
//!   request collapses into a single `PRE_BOTH` (no window is lost);
//!   writebacks whose collapsed requests land on the same point merge
//!   into one buffered group (`PRE_BOTH_BUF`… `PRE_START_BUF`) under a
//!   single `pre_obj`.
//! * A request that would be issued while an earlier request for the same
//!   line is still outstanding is deferred to just after that request's
//!   writeback (the IRB keys results by line; the overlap would shadow
//!   the earlier hint and waste both). It is dropped only when no room is
//!   left: the deferred point does not precede its own writeback.

use std::collections::{BTreeMap, BTreeSet};

use janus_core::ir::{Op, PreFunc, PreObjId, Program};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

use crate::dataflow::analyze_writes;

/// Statistics of one placement run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaceReport {
    /// Blocking writebacks found.
    pub writes_found: u64,
    /// Writebacks that received a request.
    pub placed_writes: u64,
    /// Writebacks placed inside loop regions (beyond the §4.5 static pass).
    pub placed_in_loops: u64,
    /// Writebacks skipped because no dominating address marker exists.
    pub skipped_no_addr: u64,
    /// Writebacks skipped because their request would overlap a live
    /// request for the same line.
    pub skipped_overlap: u64,
    /// `PRE_BOTH` requests inserted (unbuffered).
    pub pre_both_inserted: u64,
    /// `PRE_ADDR` requests inserted.
    pub pre_addr_inserted: u64,
    /// `PRE_DATA` requests inserted.
    pub pre_data_inserted: u64,
    /// Buffered groups emitted (`PRE_*_BUF` + `PRE_START_BUF`).
    pub buffered_groups: u64,
}

impl PlaceReport {
    /// Fraction of found writes that received a request.
    pub fn coverage(&self) -> f64 {
        if self.writes_found == 0 {
            0.0
        } else {
            self.placed_writes as f64 / self.writes_found as f64
        }
    }
}

/// How one write's request is emitted.
#[derive(Clone, Copy, Debug)]
enum PlanKind {
    /// One `PRE_BOTH` at `at` (address and data known there).
    Both { at: usize, value: Line },
    /// `PRE_DATA` at `data_at` + `PRE_ADDR` at `addr_at`, one `pre_obj`.
    Split {
        addr_at: usize,
        data_at: usize,
        value: Line,
    },
    /// Address-only `PRE_ADDR` at `addr_at` (no dominating data marker).
    AddrOnly { addr_at: usize },
}

/// One planned request before emission.
#[derive(Clone, Copy, Debug)]
struct Plan {
    clwb: usize,
    line: LineAddr,
    kind: PlanKind,
    in_loop: bool,
}

impl Plan {
    /// The op index at which this plan's request registers its line in the
    /// IRB (the address-carrying insertion).
    fn reg_point(&self) -> usize {
        match self.kind {
            PlanKind::Both { at, .. } => at,
            PlanKind::Split { addr_at, .. } | PlanKind::AddrOnly { addr_at } => addr_at,
        }
    }

    /// The collapsed `PRE_BOTH` point, when this plan has one.
    fn both_at(&self) -> Option<usize> {
        match self.kind {
            PlanKind::Both { at, .. } => Some(at),
            _ => None,
        }
    }
}

/// Runs the placement pass: returns the instrumented program and a report.
pub fn auto_place(program: &Program) -> (Program, PlaceReport) {
    let ops = &program.ops;
    let (regions, writes) = analyze_writes(program);

    let mut report = PlaceReport {
        writes_found: writes.len() as u64,
        ..PlaceReport::default()
    };

    // Phase 1: one plan per placeable write.
    let mut plans: Vec<Plan> = Vec::new();
    for wk in &writes {
        let Some(addr_marker) = wk.addr_known else {
            report.skipped_no_addr += 1;
            continue;
        };
        let addr_at = addr_marker + 1;
        let kind = match (wk.data_known, wk.data_value) {
            (Some(j), Some(value)) => {
                let data_at = j + 1;
                let (lo, hi) = (addr_at.min(data_at), addr_at.max(data_at));
                if ops[lo..hi].iter().all(is_marker) {
                    PlanKind::Both { at: hi, value }
                } else {
                    PlanKind::Split {
                        addr_at,
                        data_at,
                        value,
                    }
                }
            }
            _ => PlanKind::AddrOnly { addr_at },
        };
        plans.push(Plan {
            clwb: wk.clwb,
            line: wk.line,
            kind,
            in_loop: regions[wk.clwb].loop_depth > 0,
        });
    }

    // Phase 2: a request registered while an earlier request for the same
    // line is still outstanding would shadow it. Defer such plans to just
    // after the previous consume point; drop them only when no room is
    // left before their own writeback (sweep in registration order).
    plans.sort_by_key(|p| (p.reg_point(), p.clwb));
    let mut kept: Vec<Plan> = Vec::with_capacity(plans.len());
    let mut last_consume: BTreeMap<u64, usize> = BTreeMap::new();
    for mut p in plans {
        if let Some(&c) = last_consume.get(&p.line.0) {
            if p.reg_point() < c {
                let deferred = c + 1;
                if deferred >= p.clwb {
                    report.skipped_overlap += 1;
                    continue;
                }
                match &mut p.kind {
                    PlanKind::Both { at, .. } => *at = deferred,
                    PlanKind::Split { addr_at, .. } | PlanKind::AddrOnly { addr_at } => {
                        *addr_at = deferred
                    }
                }
            }
        }
        last_consume.insert(p.line.0, p.clwb);
        kept.push(p);
    }
    let plans = kept;

    // Phase 3: collapse `PRE_BOTH` plans sharing one insertion point into
    // buffered groups; emit everything else individually.
    let mut next_obj = program.next_pre_obj();
    let mut groups: BTreeMap<usize, Vec<Plan>> = BTreeMap::new();
    for p in &plans {
        if let Some(at) = p.both_at() {
            groups.entry(at).or_default().push(*p);
        }
    }
    // Ops to splice in before each index.
    let mut insertions: Vec<(usize, Vec<Op>)> = Vec::new();
    for (&at, members) in &groups {
        if members.len() < 2 {
            continue; // singletons are emitted as plain PRE_BOTH below
        }
        let obj = PreObjId(next_obj);
        next_obj += 1;
        let mut group_ops = vec![Op::PreInit(obj)];
        for p in members {
            let PlanKind::Both { value, .. } = p.kind else {
                unreachable!("grouped plans are Both");
            };
            group_ops.push(Op::Pre {
                obj,
                func: PreFunc::Both {
                    line: p.line,
                    values: vec![value],
                },
                buffered: true,
            });
        }
        group_ops.push(Op::PreStartBuf(obj));
        insertions.push((at, group_ops));
        report.buffered_groups += 1;
        for p in members {
            report.placed_writes += 1;
            report.placed_in_loops += p.in_loop as u64;
        }
    }
    for p in &plans {
        if p.both_at().is_some_and(|at| groups[&at].len() >= 2) {
            continue; // emitted in a buffered group
        }
        let obj = PreObjId(next_obj);
        next_obj += 1;
        match p.kind {
            PlanKind::Both { at, value } => {
                insertions.push((
                    at,
                    vec![
                        Op::PreInit(obj),
                        Op::Pre {
                            obj,
                            func: PreFunc::Both {
                                line: p.line,
                                values: vec![value],
                            },
                            buffered: false,
                        },
                    ],
                ));
                report.pre_both_inserted += 1;
            }
            PlanKind::Split {
                addr_at,
                data_at,
                value,
            } => {
                insertions.push((addr_at.min(data_at), vec![Op::PreInit(obj)]));
                insertions.push((
                    data_at,
                    vec![Op::Pre {
                        obj,
                        func: PreFunc::Data {
                            values: vec![value],
                        },
                        buffered: false,
                    }],
                ));
                insertions.push((
                    addr_at,
                    vec![Op::Pre {
                        obj,
                        func: PreFunc::Addr {
                            line: p.line,
                            nlines: 1,
                        },
                        buffered: false,
                    }],
                ));
                report.pre_addr_inserted += 1;
                report.pre_data_inserted += 1;
            }
            PlanKind::AddrOnly { addr_at } => {
                insertions.push((
                    addr_at,
                    vec![
                        Op::PreInit(obj),
                        Op::Pre {
                            obj,
                            func: PreFunc::Addr {
                                line: p.line,
                                nlines: 1,
                            },
                            buffered: false,
                        },
                    ],
                ));
                report.pre_addr_inserted += 1;
            }
        }
        report.placed_writes += 1;
        report.placed_in_loops += p.in_loop as u64;
    }

    (program.splice(insertions, &BTreeSet::new()), report)
}

/// Zero-cost provenance markers: collapsing a request across them loses no
/// pre-execution window.
fn is_marker(op: &Op) -> bool {
    matches!(op, Op::AddrGen { .. } | Op::DataGen { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;

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

    #[test]
    fn straight_line_write_gets_pre_both() {
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(500);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 1);
        assert_eq!(r.pre_both_inserted, 1, "{r:?}");
        let both = p
            .ops
            .iter()
            .position(|o| matches!(unbuffered(o), Some(PreFunc::Both { .. })))
            .unwrap();
        let gen = p
            .ops
            .iter()
            .position(|o| matches!(o, Op::AddrGen { .. }))
            .unwrap();
        // PRE_INIT directly after the address marker, PRE_BOTH next.
        assert!(matches!(p.ops[gen + 1], Op::PreInit(_)));
        assert_eq!(both, gen + 2);
    }

    #[test]
    fn split_markers_get_addr_and_data_requests() {
        let mut b = ProgramBuilder::new();
        b.func("update", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.compute(100);
            b.addr_gen(LineAddr(4), 1);
            b.compute(500);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.pre_addr_inserted, 1);
        assert_eq!(r.pre_data_inserted, 1);
        assert_eq!(r.pre_both_inserted, 0);
        let data = p
            .ops
            .iter()
            .position(|o| matches!(unbuffered(o), Some(PreFunc::Data { .. })))
            .unwrap();
        let addr = p
            .ops
            .iter()
            .position(|o| matches!(unbuffered(o), Some(PreFunc::Addr { .. })))
            .unwrap();
        assert!(data < addr, "data is known first here");
        assert_eq!(
            p.ops[data].pre_obj(),
            p.ops[addr].pre_obj(),
            "one pre_obj ties the pair together"
        );
    }

    #[test]
    fn in_loop_writebacks_are_placed() {
        let mut b = ProgramBuilder::new();
        b.func("pump", |b| {
            b.loop_region(|b| {
                b.data_gen(LineAddr(7), vec![Line::splat(2)]);
                b.addr_gen(LineAddr(7), 1);
                b.compute(300);
                b.store(LineAddr(7), Line::splat(2));
                b.clwb(LineAddr(7));
                b.fence();
            });
        });
        let (_, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 1);
        assert_eq!(r.placed_in_loops, 1);
        assert_eq!(r.skipped_no_addr, 0);
    }

    #[test]
    fn no_address_marker_means_no_request() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(1), vec![Line::splat(1)]); // data only
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 0);
        assert_eq!(r.skipped_no_addr, 1);
        assert_eq!(p.pre_op_count(), 0);
    }

    #[test]
    fn shared_point_writes_merge_into_a_buffered_group() {
        let mut b = ProgramBuilder::new();
        b.func("flush2", |b| {
            b.data_gen(LineAddr(1), vec![Line::splat(1)]);
            b.data_gen(LineAddr(2), vec![Line::splat(2)]);
            b.addr_gen(LineAddr(1), 2); // both addresses known here
            b.compute(3000);
            b.store(LineAddr(1), Line::splat(1));
            b.store(LineAddr(2), Line::splat(2));
            b.clwb(LineAddr(1));
            b.clwb(LineAddr(2));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 2);
        assert_eq!(r.buffered_groups, 1, "{r:?}");
        assert_eq!(
            p.ops
                .iter()
                .filter(|o| matches!(
                    o,
                    Op::Pre {
                        func: PreFunc::Both { .. },
                        buffered: true,
                        ..
                    }
                ))
                .count(),
            2
        );
        assert_eq!(
            p.ops
                .iter()
                .filter(|o| matches!(o, Op::PreStartBuf(_)))
                .count(),
            1
        );
        // All under one obj.
        let objs: Vec<_> = p.ops.iter().filter_map(|o| o.pre_obj()).collect();
        assert!(objs.windows(2).all(|w| w[0] == w[1]), "{objs:?}");
    }

    #[test]
    fn overlapping_request_is_deferred_past_the_prior_consume() {
        // Both writebacks see the same markers; issuing both requests at
        // the marker would shadow the first hint, so the second request is
        // deferred to just after the first writeback.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(100);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 2);
        assert_eq!(r.skipped_overlap, 0);
        let reqs: Vec<usize> = p
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(unbuffered(o), Some(PreFunc::Both { .. })))
            .map(|(i, _)| i)
            .collect();
        let first_clwb = p.ops.iter().position(|o| matches!(o, Op::Clwb(_))).unwrap();
        assert_eq!(reqs.len(), 2);
        assert!(reqs[0] < first_clwb && reqs[1] > first_clwb, "{reqs:?}");
    }

    #[test]
    fn back_to_back_flushes_drop_the_unservable_request() {
        // No op separates the two writebacks: there is no room to defer the
        // second request past the first consume, so it is dropped.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(100);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let (p, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 1);
        assert_eq!(r.skipped_overlap, 1);
        assert_eq!(
            p.ops
                .iter()
                .filter(|o| matches!(unbuffered(o), Some(PreFunc::Both { .. })))
                .count(),
            1
        );
    }

    #[test]
    fn sequential_same_line_requests_are_kept() {
        // The second request registers after the first write consumed its
        // hint: no overlap, both are placed.
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            b.data_gen(LineAddr(4), vec![Line::splat(1)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(100);
            b.store(LineAddr(4), Line::splat(1));
            b.clwb(LineAddr(4));
            b.fence();
            b.data_gen(LineAddr(4), vec![Line::splat(2)]);
            b.addr_gen(LineAddr(4), 1);
            b.compute(100);
            b.store(LineAddr(4), Line::splat(2));
            b.clwb(LineAddr(4));
            b.fence();
        });
        let (_, r) = auto_place(&b.build());
        assert_eq!(r.placed_writes, 2);
        assert_eq!(r.skipped_overlap, 0);
    }

    #[test]
    fn fresh_objs_do_not_collide_with_existing() {
        let mut b = ProgramBuilder::new();
        let manual = b.pre_init();
        b.func("f", |b| {
            b.addr_gen(LineAddr(1), 1);
            b.store(LineAddr(1), Line::splat(1));
            b.clwb(LineAddr(1));
            b.fence();
        });
        let (p, _) = auto_place(&b.build());
        let objs: Vec<PreObjId> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::PreInit(obj) => Some(*obj),
                _ => None,
            })
            .collect();
        assert_eq!(objs.len(), 2);
        assert!(objs.contains(&manual));
        assert!(objs.iter().any(|o| *o != manual));
    }

    #[test]
    fn placement_is_deterministic() {
        let mut b = ProgramBuilder::new();
        b.func("f", |b| {
            for k in 0..6u64 {
                b.data_gen(LineAddr(k), vec![Line::splat(k as u8)]);
            }
            b.addr_gen(LineAddr(0), 6);
            b.compute(2000);
            for k in 0..6u64 {
                b.store(LineAddr(k), Line::splat(k as u8));
                b.clwb(LineAddr(k));
            }
            b.fence();
        });
        let p = b.build();
        let (a, ra) = auto_place(&p);
        let (b2, rb) = auto_place(&p);
        assert_eq!(a.ops, b2.ops);
        assert_eq!(ra, rb);
        assert_eq!(ra.buffered_groups, 1);
        assert_eq!(ra.placed_writes, 6);
    }
}
