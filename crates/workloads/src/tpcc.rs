//! TPC-C: add new orders (the NewOrder transaction).
//!
//! Each transaction allocates the next order id from the district record,
//! writes an order header (2 lines) and 5–12 order lines, and updates the
//! district — the largest transactions in the suite. Order ids are
//! sequential, so every address is computable at transaction start; order
//! contents are transaction inputs. Like TATP, a high-speedup workload.

use janus_core::ir::Op;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::rng::SimRng;

use crate::undo::WorkloadCtx;
use crate::values::ValueGen;
use crate::{GenError, WorkloadConfig, WorkloadOutput};

/// Maximum orders storable per core region.
const MAX_ORDERS: u64 = 4096;
/// Lines per order header.
const ORDER_LINES: u64 = 2;
/// Maximum order lines per order.
const MAX_OL: u64 = 12;
/// Price/tax computation cost.
const PRICING_COMPUTE: u32 = 800;
/// Customer records for the Payment extension.
const CUSTOMERS: u64 = 3000;

/// Generates the workload.
pub fn generate(core: usize, cfg: &WorkloadConfig) -> Result<WorkloadOutput, GenError> {
    let mut ctx = WorkloadCtx::new(core, cfg.instrumentation);
    let mut rng = SimRng::new(cfg.seed ^ 0x79CC ^ (core as u64) << 32);
    let mut gen = ValueGen::new(cfg.seed ^ 0x79CD ^ core as u64, cfg.dedup_ratio);

    let district = ctx.heap.alloc(1)?; // [next_o_id, ytd]
    let orders = ctx.heap.alloc(MAX_ORDERS * ORDER_LINES)?;
    let order_lines = ctx.heap.alloc(MAX_ORDERS * MAX_OL)?;
    let customers = ctx.heap.alloc(CUSTOMERS)?; // [c_id, balance, payments]
    let mut next_o_id = 0u64;
    let mut ol_cursor = 0u64;

    for _ in 0..cfg.transactions {
        // Extension: a Payment transaction — update one customer's balance
        // and the district YTD (TPC-C's second-most-frequent transaction).
        if cfg.aux_tx_fraction > 0.0 && rng.chance(cfg.aux_tx_fraction) {
            let c_id = rng.gen_range(CUSTOMERS);
            let cust = LineAddr(customers.0 + c_id);
            let amount = 1 + rng.gen_range(5_000);
            let old = ctx.current(cust);
            let new_cust = Line::from_words(&[
                c_id,
                old.read_u64(8).wrapping_add(amount),
                old.read_u64(16) + 1,
            ]);
            let old_d = ctx.current(district);
            let new_district = Line::from_words(&[old_d.read_u64(0), old_d.read_u64(8) + amount]);

            ctx.b.push(Op::FuncBegin("tpcc_payment"));
            ctx.begin_tx();
            ctx.declare_both(0, cust, &[new_cust]);
            ctx.declare_both(1, district, &[new_district]);
            ctx.load(cust);
            ctx.load(district);
            ctx.compute(PRICING_COMPUTE / 2);
            ctx.backup(&[(cust, old), (district, old_d)]);
            ctx.update(&[(cust, new_cust), (district, new_district)]);
            ctx.commit();
            ctx.b.push(Op::FuncEnd);
            continue;
        }
        let o_id = next_o_id;
        next_o_id += 1;
        let ol_cnt = 5 + rng.gen_range(MAX_OL - 5 + 1);
        let customer = rng.gen_range(3000);

        let order_addr = LineAddr(orders.0 + (o_id % MAX_ORDERS) * ORDER_LINES);
        let ol_base = LineAddr(order_lines.0 + ol_cursor % (MAX_ORDERS * MAX_OL));
        ol_cursor += ol_cnt;

        let header0 = Line::from_words(&[o_id, customer, ol_cnt, 1]);
        let header1 = Line::from_words(&[rng.next_u64(), rng.next_u64()]);
        let ol_values = gen.next_values(ol_cnt as usize);
        let new_district = Line::from_words(&[next_o_id, o_id * 100]);

        ctx.b.push(Op::FuncBegin("tpcc_new_order"));
        ctx.begin_tx();
        // All addresses derive from o_id / the order-line cursor; the order
        // contents are the transaction's inputs.
        ctx.declare_both(0, order_addr, &[header0, header1]);
        ctx.declare_both(1, ol_base, &ol_values);
        ctx.declare_both(2, district, &[new_district]);

        ctx.load(district);
        ctx.compute(PRICING_COMPUTE);

        // Only the district record mutates existing state; the order and
        // its lines are fresh inserts.
        ctx.backup(&[(district, ctx.current(district))]);

        let mut updates = vec![
            (order_addr, header0),
            (order_addr.offset(1), header1),
            (district, new_district),
        ];
        for (k, v) in ol_values.iter().enumerate() {
            updates.push((ol_base.offset(k as u64), *v));
        }
        ctx.update(&updates);
        ctx.commit();
        ctx.b.push(Op::FuncEnd);
    }

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

    #[test]
    fn new_order_writes_are_large() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 10,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // ≥ 5 order lines + 2 header + district + log(2) + commit ≈ 11+.
        assert!(out.program.write_count() >= 10 * 10);
    }

    #[test]
    fn district_tracks_order_ids() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 7,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // The district line's final next_o_id is 7.
        let district_value = out
            .expected
            .iter()
            .find(|(_, l)| l.read_u64(0) == 7)
            .map(|(_, l)| *l);
        assert!(district_value.is_some());
    }

    #[test]
    fn payment_mix_updates_customers_and_district_ytd() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 80,
                aux_tx_fraction: 0.5,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        // Customer records exist: [c_id, balance, payments] with payments ≥ 1.
        let paid = out
            .expected
            .iter()
            .filter(|(_, l)| l.read_u64(16) >= 1 && l.read_u64(8) > 0)
            .count();
        assert!(paid > 5, "payments recorded ({paid})");
        // District YTD accumulates both order and payment amounts.
        let district = out
            .expected
            .iter()
            .map(|(_, l)| l)
            .find(|l| l.read_u64(0) > 0 && l.read_u64(0) < 80)
            .expect("district line");
        assert!(district.read_u64(8) > 0);
    }

    #[test]
    fn order_headers_encode_counts() {
        let out = generate(
            0,
            &WorkloadConfig {
                transactions: 3,
                ..WorkloadConfig::default()
            },
        )
        .expect("fits");
        let headers = out
            .expected
            .iter()
            .filter(|(_, l)| {
                let cnt = l.read_u64(16);
                l.read_u64(24) == 1 && (5..=12).contains(&cnt)
            })
            .count();
        assert_eq!(headers, 3);
    }
}
