//! Property-based tests for the automated compiler pass: on arbitrary
//! generated programs, the pass output must be well-formed and preserve the
//! program's observable behaviour (ported from proptest to janus-check).

use janus_check::{forall_cfg, gen, Config, Gen};
use janus_core::ir::{Op, PreFunc, PreObjId, Program, ProgramBuilder};
use janus_instrument::instrument;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

/// A little grammar of persistence routines: each routine optionally emits
/// provenance markers, maybe inside loop/cond regions, then a persist
/// sequence.
#[derive(Clone, Debug)]
struct Routine {
    line: u64,
    value: u8,
    addr_marker: bool,
    data_marker: bool,
    in_loop: bool,
    in_cond: bool,
    compute: u32,
}

fn arb_routine() -> Gen<Routine> {
    gen::tuple7(
        &gen::range_u64(0..32),
        &gen::any_u8(),
        &gen::any_bool(),
        &gen::any_bool(),
        &gen::any_bool(),
        &gen::any_bool(),
        &gen::range_u32(0..5_000),
    )
    .map(
        |(line, value, addr_marker, data_marker, in_loop, in_cond, compute)| Routine {
            line: *line,
            value: *value,
            addr_marker: *addr_marker,
            data_marker: *data_marker,
            in_loop: *in_loop,
            in_cond: *in_cond,
            compute: *compute,
        },
    )
}

fn arb_routines() -> Gen<Vec<Routine>> {
    gen::vec_of(&arb_routine(), 1..12)
}

fn build(routines: &[Routine]) -> Program {
    let mut b = ProgramBuilder::new();
    for r in routines {
        b.func("routine", |b| {
            let value = Line::splat(r.value);
            let body = |b: &mut ProgramBuilder| {
                if r.addr_marker {
                    b.addr_gen(LineAddr(r.line), 1);
                }
                if r.data_marker {
                    b.data_gen(LineAddr(r.line), vec![value]);
                }
                b.compute(r.compute);
                let write = |b: &mut ProgramBuilder| {
                    b.store(LineAddr(r.line), value);
                    b.clwb(LineAddr(r.line));
                    b.fence();
                };
                if r.in_cond {
                    b.cond_region(write);
                } else {
                    write(b);
                }
            };
            if r.in_loop {
                b.loop_region(body);
            } else {
                body(b);
            }
        });
    }
    b.build()
}

/// Pass output is well-formed: balanced regions, unique pre_objs, every
/// inserted PRE op preceded by its PRE_INIT, and non-pre ops unchanged
/// in order.
#[test]
fn pass_output_is_well_formed() {
    forall_cfg(&Config::with_cases(64), &arb_routines(), |routines| {
        let input = build(routines);
        let (output, report) = instrument(&input);

        // Non-pre ops preserved in order.
        let orig: Vec<&Op> = input.ops.iter().filter(|o| !o.is_pre()).collect();
        let kept: Vec<&Op> = output.ops.iter().filter(|o| !o.is_pre()).collect();
        assert_eq!(orig, kept);

        // Regions stay balanced.
        let mut loops = 0i32;
        let mut conds = 0i32;
        let mut funcs = 0i32;
        for op in &output.ops {
            match op {
                Op::LoopBegin => loops += 1,
                Op::LoopEnd => loops -= 1,
                Op::CondBegin => conds += 1,
                Op::CondEnd => conds -= 1,
                Op::FuncBegin(_) => funcs += 1,
                Op::FuncEnd => funcs -= 1,
                _ => {}
            }
            assert!(loops >= 0 && conds >= 0 && funcs >= 0);
        }
        assert_eq!((loops, conds, funcs), (0, 0, 0));

        // Every PRE op's obj was PRE_INITed earlier; objs unique.
        let mut seen = std::collections::HashSet::new();
        let mut inited = std::collections::HashSet::new();
        for op in &output.ops {
            match op {
                Op::PreInit(obj) => {
                    assert!(seen.insert(*obj), "duplicate obj {obj:?}");
                    inited.insert(*obj);
                }
                Op::Pre { obj, .. } => {
                    assert!(inited.contains(obj), "uninitialized obj {obj:?}");
                }
                _ => {}
            }
        }

        // Report accounting is consistent.
        assert_eq!(
            report.writes_found,
            report.instrumented_writes + report.skipped_in_loop + report.skipped_no_marker
        );
        // Loop-wrapped writebacks are never instrumented.
        if routines.iter().all(|r| r.in_loop) {
            assert_eq!(report.instrumented_writes, 0);
        }
    });
}

/// Inserted PRE ops never sit inside a loop region (the §4.5.2 rule)
/// and never carry an obj used by two different writebacks.
#[test]
fn insertions_respect_loop_regions() {
    forall_cfg(&Config::with_cases(64), &arb_routines(), |routines| {
        let input = build(routines);
        let (output, _) = instrument(&input);
        let mut depth = 0;
        let mut objs_at: std::collections::HashMap<PreObjId, usize> =
            std::collections::HashMap::new();
        for op in &output.ops {
            match op {
                Op::LoopBegin => depth += 1,
                Op::LoopEnd => depth -= 1,
                o if o.is_pre() => {
                    assert_eq!(depth, 0, "pass inserted {o:?} inside a loop");
                    if let Op::Pre {
                        obj,
                        func: PreFunc::Addr { .. } | PreFunc::Data { .. },
                        buffered: false,
                    } = o
                    {
                        *objs_at.entry(*obj).or_insert(0) += 1;
                        assert!(objs_at[obj] <= 2, "obj reused too often");
                    }
                }
                _ => {}
            }
        }
    });
}
