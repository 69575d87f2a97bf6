// The adversarially mis-instrumented program generator shared by the
// lint-differential and fix-property suites (each includes it with
// `#[path]`).

use janus_check::{gen, Gen};
use janus_core::ir::{Program, ProgramBuilder};
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;

/// How a routine places (or misplaces) its pre-execution request.
#[derive(Clone, Copy, Debug)]
pub enum PreKind {
    /// No request at all.
    None,
    /// A well-formed `PRE_BOTH`.
    Both,
    /// Split `PRE_ADDR` + `PRE_DATA`.
    Split,
    /// `PRE_BOTH` hinting a value the store then changes (stale).
    Stale,
    /// `PRE_DATA` with no address ever bound (unbound — useless).
    DataOnly,
    /// Two `PRE_BOTH`s on the same line (the first is shadowed).
    Shadowed,
}

/// One routine: an optional (mis)placed request, some compute, and an
/// optional persisted store to the requested line.
#[derive(Clone, Debug)]
pub struct MisRoutine {
    pub line: u64,
    pub value: u8,
    pub kind: PreKind,
    pub compute: u32,
    pub consume: bool,
}

fn arb_misroutine() -> Gen<MisRoutine> {
    gen::tuple5(
        &gen::range_u64(0..8),
        &gen::any_u8(),
        &gen::range_u32(0..6),
        &gen::range_u32(0..6_000),
        &gen::any_bool(),
    )
    .map(|(line, value, kind, compute, consume)| MisRoutine {
        line: *line,
        value: *value,
        kind: match kind {
            0 => PreKind::None,
            1 => PreKind::Both,
            2 => PreKind::Split,
            3 => PreKind::Stale,
            4 => PreKind::DataOnly,
            _ => PreKind::Shadowed,
        },
        compute: *compute,
        consume: *consume,
    })
}

pub fn arb_misroutines() -> Gen<Vec<MisRoutine>> {
    gen::vec_of(&arb_misroutine(), 1..10)
}

/// Builds a hand-instrumented (possibly mis-instrumented) program.
pub fn build(routines: &[MisRoutine]) -> Program {
    let mut b = ProgramBuilder::new();
    for r in routines {
        b.func("routine", |b| {
            let hinted = Line::splat(r.value);
            let stored = match r.kind {
                PreKind::Stale => Line::splat(r.value.wrapping_add(1)),
                _ => hinted,
            };
            match r.kind {
                PreKind::None => {}
                PreKind::Both | PreKind::Stale => {
                    let obj = b.pre_init();
                    b.pre_both(obj, LineAddr(r.line), vec![hinted]);
                }
                PreKind::Split => {
                    let obj = b.pre_init();
                    b.pre_addr(obj, LineAddr(r.line), 1);
                    b.pre_data(obj, vec![hinted]);
                }
                PreKind::DataOnly => {
                    let obj = b.pre_init();
                    b.pre_data(obj, vec![hinted]);
                }
                PreKind::Shadowed => {
                    let obj = b.pre_init();
                    b.pre_both(obj, LineAddr(r.line), vec![hinted]);
                    let obj2 = b.pre_init();
                    b.pre_both(obj2, LineAddr(r.line), vec![hinted]);
                }
            }
            b.compute(r.compute);
            if r.consume {
                b.store(LineAddr(r.line), stored);
                b.clwb(LineAddr(r.line));
                b.fence();
            }
        });
    }
    b.build()
}
