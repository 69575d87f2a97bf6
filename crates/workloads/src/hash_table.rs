//! Hash Table: insert random values into a persistent open-addressing
//! table.
//!
//! "Hash Table and RB-Tree first look up the update location and then
//! perform the update at that location. As a result, the address-dependent
//! pre-execution request has a smaller window and many times cannot
//! complete before the actual write arrives." (§5.2.1) — the payload is
//! declared at transaction start (`PRE_DATA`), but the slot address only
//! after the probe sequence finishes (`PRE_ADDR`), exactly the Figure 8a
//! pattern.

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Number of slots (power of two).
const SLOTS: u64 = 16384;
/// Hash computation cost.
const HASH_COMPUTE: u32 = 150;
/// Per-probe comparison cost.
const PROBE_COMPUTE: u32 = 45;
/// Entry construction + lock handoff after the probe.
const ENTRY_COMPUTE: u32 = 1100;

fn hash_of(key: u64) -> u64 {
    // Fibonacci hashing; the table itself stores real keys.
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50
}

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0x4A5 ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0x7AB ^ core as u64, cfg.dedup_ratio);
    let item_lines = cfg.payload_lines() as u64;
    // Slot layout: header line [occupied, key] + payload lines. Large
    // payloads (Figure 13) shrink the slot count to fit the core region.
    let slot_lines = 1 + item_lines;
    let slots = SLOTS.min((1 << 19) / slot_lines).max(256);
    let base = ctx.heap.alloc(slots * slot_lines)?;
    let slot_addr = |i: u64| LineAddr(base.0 + (i % slots) * slot_lines);

    // Host-side mirror of slot occupancy.
    let mut keys: Vec<Option<u64>> = vec![None; slots as usize];
    let zipf = cfg
        .key_skew
        .map(|theta| janus_sim::rng::Zipf::new(1 << 20, theta));

    for _ in 0..cfg.transactions {
        let key = match &zipf {
            Some(z) => z.sample(&mut rng) + 1,
            None => rng.gen_range(1 << 20) + 1,
        };
        let payload = gen.next_values(item_lines as usize);

        // Resolve the probe host-side first so the trace can carry the
        // eventual slot address in its provenance markers.
        let mut idx = hash_of(key);
        let mut probes = 0u64;
        loop {
            probes += 1;
            match keys[(idx % slots) as usize] {
                None => break,
                Some(k) if k == key => break,
                _ => idx += 1,
            }
            if probes > slots {
                return Err(GenError::HashTableFull { slots });
            }
        }
        let slot = slot_addr(idx);
        keys[(idx % slots) as usize] = Some(key);

        ctx.b.push(Op::FuncBegin("hash_insert"));
        ctx.begin_tx();
        // The payload is ready before the lookup — manual instrumentation
        // pre-executes the data-dependent sub-operations (MD5 dominates)
        // with the probe as its window (the Figure 8a PRE_DATA placement).
        ctx.declare_data(0, slot.offset(1), &payload);
        ctx.compute(HASH_COMPUTE);

        // Linear probe, loading each header inspected.
        ctx.b.push(Op::LoopBegin);
        for p in 0..probes {
            ctx.load(slot_addr(hash_of(key) + p));
            ctx.compute(PROBE_COMPUTE);
        }
        ctx.b.push(Op::LoopEnd);

        // Entry construction/validation after the probe.
        ctx.compute(ENTRY_COMPUTE);
        let header = Line::from_words(&[1, key]);
        // Address known only now; the static pass also gets its last-def
        // data marker here (it cannot prove the early placement safe).
        ctx.b.data_gen(slot.offset(1), payload.clone());
        ctx.declare_addr(0, slot.offset(1), item_lines as u32);
        ctx.declare_both(1, slot, &[header]);

        // Undo-log the whole slot.
        let mut old = vec![(slot, ctx.current(slot))];
        for k in 0..item_lines {
            old.push((slot.offset(1 + k), ctx.current(slot.offset(1 + k))));
        }
        ctx.backup(&old);
        let mut updates = vec![(slot, header)];
        for (k, v) in payload.iter().enumerate() {
            updates.push((slot.offset(1 + k as u64), *v));
        }
        ctx.update(&updates);
        ctx.commit();
        ctx.b.push(Op::FuncEnd);
    }

    // The sparse table is NOT assumed resident: probing a fresh bucket
    // genuinely misses the cache hierarchy, part of why the paper finds
    // smaller gains for Hash Table.
    let resident = Vec::new();
    let expected = ctx.expected.clone();
    Ok(WorkloadOutput {
        program: ctx.build(),
        expected,
        resident,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instrumentation;
    use janus_core::ir::PreFunc;

    #[test]
    fn inserts_set_headers_and_payload() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 10,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Every written header line has occupied=1 and a key.
        let headers = out
            .expected
            .iter()
            .filter(|(_, l)| l.read_u64(0) == 1 && l.read_u64(8) != 0)
            .count();
        assert!(headers >= 1);
    }

    #[test]
    fn probe_loads_emitted() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 5,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let loads = out
            .program
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Load(_)))
            .count();
        assert!(loads >= 5, "each insert probes at least one slot");
    }

    #[test]
    fn manual_uses_pre_data_then_pre_addr() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 3,
                instrumentation: Instrumentation::Manual,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let has_data = out.program.ops.iter().any(|o| {
            matches!(
                o,
                Op::Pre {
                    func: PreFunc::Data { .. },
                    buffered: false,
                    ..
                }
            )
        });
        let has_addr = out.program.ops.iter().any(|o| {
            matches!(
                o,
                Op::Pre {
                    func: PreFunc::Addr { .. },
                    buffered: false,
                    ..
                }
            )
        });
        assert!(has_data && has_addr);
    }
}
