//! Cross-tenant IRB-pressure analysis: a static no-drop bound.
//!
//! [`peak_irb_demand`] runs a conservative occupancy dataflow over one
//! tenant's program (or concatenated transaction stream) and computes the
//! peak number of IRB entries the tenant can hold *simultaneously*.
//! [`irb_bound`] composes the per-tenant peaks under an
//! [`IrbPolicy`] into a verdict: when it says [`IrbVerdict::Safe`], the
//! simulator must never record an IRB drop for that tenant mix — the
//! open-loop multi-tenant simulator (`System::try_run_tenants`) is the
//! differential oracle this bound is checked against in CI.
//!
//! # Soundness of the occupancy model
//!
//! The dataflow must never *under*-count the dynamic occupancy the
//! simulated controller can observe at an insert, so every approximation
//! leans high:
//!
//! * Every request op allocates its entries at the op itself — for the
//!   buffered `*_BUF` variants this is *earlier* than the dynamic insert
//!   (which happens at `PRE_START_BUF`), so buffered demand is counted
//!   from the op on.
//! * An entry is freed only at an `sfence` *after* a `clwb` to its line
//!   has marked it pending. Dynamically, a consumed entry leaves the IRB
//!   when its write reaches the controller, which is no later than the
//!   completion of the fence that orders the `clwb` — so the static model
//!   holds every entry at least as long as the hardware would.
//! * Data-only entries (`PRE_DATA`) have no statically known line, and
//!   entries whose line is never flushed (useless requests) are never
//!   freed at all — matching the dynamic behaviour where unconsumed
//!   entries linger (expiry can only *reduce* dynamic occupancy below
//!   this model, never raise it).
//!
//! Per-tenant serialization (the front end keeps exactly one transaction
//! in flight per tenant, in order) makes the per-tenant peak over the
//! concatenated stream an upper bound on that tenant's live entries at
//! any instant; policies compose the peaks as sums (shared structures)
//! or per-quota checks (banked/partitioned).

use janus_core::ir::{Op, Program};
use janus_core::irb::IrbPolicy;
use janus_nvm::addr::LineAddr;

/// One tenant's statically computed IRB demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrbDemand {
    /// Peak simultaneous IRB entries over the analyzed stream.
    pub peak: usize,
    /// Op index (within the concatenated stream) where the peak is first
    /// reached.
    pub peak_at: usize,
    /// Total entries ever allocated (line granularity).
    pub requests: usize,
}

/// The verdict of the static bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrbVerdict {
    /// No policy limit can be exceeded: the simulator must record zero
    /// IRB drops for this tenant mix.
    Safe,
    /// Some limit can be exceeded (the bound is conservative: the
    /// simulator may still happen not to drop).
    Unsafe {
        /// The offending tenant, or `None` when the *aggregate* demand
        /// exceeds a shared capacity.
        tenant: Option<usize>,
        /// The static demand that exceeds the limit.
        demand: usize,
        /// The violated limit (quota, bank size, or shared capacity).
        limit: usize,
    },
}

impl IrbVerdict {
    /// Whether the bound proves the mix drop-free.
    pub fn is_safe(&self) -> bool {
        matches!(self, IrbVerdict::Safe)
    }
}

impl std::fmt::Display for IrbVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrbVerdict::Safe => f.write_str("safe (no IRB drop possible)"),
            IrbVerdict::Unsafe {
                tenant: Some(t),
                demand,
                limit,
            } => write!(
                f,
                "unsafe (tenant {t}: peak demand {demand} > limit {limit})"
            ),
            IrbVerdict::Unsafe {
                tenant: None,
                demand,
                limit,
            } => write!(
                f,
                "unsafe (aggregate peak demand {demand} > capacity {limit})"
            ),
        }
    }
}

/// The composed static bound for one tenant mix under one policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrbBound {
    /// The policy the peaks were composed under.
    pub policy: IrbPolicy,
    /// The shared structure's total capacity (`JanusConfig::total_irb_entries`).
    pub capacity: usize,
    /// Per-tenant demands, in tenant order.
    pub demands: Vec<IrbDemand>,
    /// The verdict.
    pub verdict: IrbVerdict,
}

impl IrbBound {
    /// Sum of per-tenant peaks (the shared-structure aggregate bound).
    pub fn total_peak(&self) -> usize {
        self.demands.iter().map(|d| d.peak).sum()
    }
}

/// One live IRB entry in the abstract occupancy state.
struct Slot {
    /// The line a flush must target to consume this entry (`None` for
    /// data-only entries, which stay live until end of stream).
    line: Option<LineAddr>,
    /// Set once a `clwb` to `line` has been issued; the next `sfence`
    /// frees pending entries.
    pending: bool,
}

/// Computes the peak IRB occupancy of one op stream (see the module docs
/// for the model and its soundness argument).
pub fn peak_irb_demand_over<'a>(ops: impl Iterator<Item = &'a Op>) -> IrbDemand {
    let mut slots: Vec<Slot> = Vec::new();
    let mut demand = IrbDemand::default();
    for (i, op) in ops.enumerate() {
        match op {
            Op::Pre { func, .. } => {
                // One entry per line the request covers.
                slots.extend(func.lines().map(|(line, _)| Slot {
                    line,
                    pending: false,
                }));
                demand.requests += func.nlines() as usize;
            }
            Op::Clwb(l) => {
                if let Some(s) = slots.iter_mut().find(|s| !s.pending && s.line == Some(*l)) {
                    s.pending = true;
                }
            }
            Op::Fence => slots.retain(|s| !s.pending),
            _ => {}
        }
        if slots.len() > demand.peak {
            demand.peak = slots.len();
            demand.peak_at = i;
        }
    }
    demand
}

/// Peak IRB demand of a single program.
pub fn peak_irb_demand(program: &Program) -> IrbDemand {
    peak_irb_demand_over(program.ops.iter())
}

/// Peak IRB demand of one tenant's transaction stream. The transactions
/// run back-to-back on one logical thread, so occupancy (including
/// never-consumed leftovers) carries across transaction boundaries.
pub fn tenant_irb_demand(txs: &[Program]) -> IrbDemand {
    peak_irb_demand_over(txs.iter().flat_map(|p| p.ops.iter()))
}

/// Composes per-tenant demands under a policy into the static no-drop
/// bound:
///
/// * **shared** — concurrent tenants share one buffer, so the worst case
///   is every tenant at its peak simultaneously: `Σ peakᵢ ≤ capacity`.
/// * **banked** — each tenant owns a private bank: `peakᵢ ≤ per_tenant`
///   for every tenant (one tenant can never evict another).
/// * **partitioned** — a shared buffer with per-thread quotas: both
///   `peakᵢ ≤ quota` for every tenant *and* `Σ peakᵢ ≤ capacity`.
pub fn irb_bound(demands: Vec<IrbDemand>, policy: IrbPolicy, capacity: usize) -> IrbBound {
    let total: usize = demands.iter().map(|d| d.peak).sum();
    let per_tenant_limit = match policy {
        IrbPolicy::Shared => None,
        IrbPolicy::Banked { per_tenant } => Some(per_tenant),
        IrbPolicy::Partitioned { quota } => Some(quota),
    };
    let mut verdict = IrbVerdict::Safe;
    if let Some(limit) = per_tenant_limit {
        for (t, d) in demands.iter().enumerate() {
            if d.peak > limit {
                verdict = IrbVerdict::Unsafe {
                    tenant: Some(t),
                    demand: d.peak,
                    limit,
                };
                break;
            }
        }
    }
    // Banked tenants never contend for the shared structure; both shared
    // modes must also respect the aggregate capacity.
    if verdict.is_safe() && !matches!(policy, IrbPolicy::Banked { .. }) && total > capacity {
        verdict = IrbVerdict::Unsafe {
            tenant: None,
            demand: total,
            limit: capacity,
        };
    }
    IrbBound {
        policy,
        capacity,
        demands,
        verdict,
    }
}

/// Convenience: demands from per-tenant transaction streams, composed
/// under `policy`.
pub fn irb_bound_for_tenants(
    tenants: &[Vec<Program>],
    policy: IrbPolicy,
    capacity: usize,
) -> IrbBound {
    irb_bound(
        tenants.iter().map(|txs| tenant_irb_demand(txs)).collect(),
        policy,
        capacity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::ir::ProgramBuilder;
    use janus_nvm::line::Line;

    fn consumed_pair() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(5000);
        b.persist_store(LineAddr(1), Line::splat(1));
        b.build()
    }

    #[test]
    fn consumed_entry_is_freed_at_the_fence() {
        let d = peak_irb_demand(&consumed_pair());
        assert_eq!(d.peak, 1);
        assert_eq!(d.requests, 1);
        // Two back-to-back transactions do not stack: the fence drains.
        let d2 = tenant_irb_demand(&[consumed_pair(), consumed_pair()]);
        assert_eq!(d2.peak, 1);
        assert_eq!(d2.requests, 2);
    }

    #[test]
    fn useless_entries_accumulate_across_transactions() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(99), vec![Line::splat(1)]); // never written
        b.persist_store(LineAddr(1), Line::splat(1));
        let leaky = b.build();
        let d = tenant_irb_demand(&[leaky.clone(), leaky.clone(), leaky]);
        assert_eq!(d.peak, 3, "leftovers carry across transactions");
    }

    #[test]
    fn multi_line_requests_count_per_line() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_addr(obj, LineAddr(8), 4);
        b.pre_data(obj, vec![Line::splat(1), Line::splat(2)]);
        let d = peak_irb_demand(&b.build());
        assert_eq!(d.peak, 6);
        assert_eq!(d.requests, 6);
    }

    #[test]
    fn clwb_without_fence_does_not_free() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both(obj, LineAddr(1), vec![Line::splat(1)]);
        b.store(LineAddr(1), Line::splat(1));
        b.clwb(LineAddr(1));
        // no fence
        let obj2 = b.pre_init();
        b.pre_both(obj2, LineAddr(2), vec![Line::splat(2)]);
        let d = peak_irb_demand(&b.build());
        assert_eq!(d.peak, 2, "pending entries still occupy until the fence");
    }

    #[test]
    fn buffered_requests_are_counted_from_the_op() {
        let mut b = ProgramBuilder::new();
        let obj = b.pre_init();
        b.pre_both_buf(obj, LineAddr(1), vec![Line::splat(1)]);
        b.compute(10);
        b.pre_start_buf(obj);
        let d = peak_irb_demand(&b.build());
        assert_eq!(d.peak, 1);
    }

    #[test]
    fn shared_bound_sums_peaks() {
        let demands = vec![
            IrbDemand {
                peak: 30,
                ..Default::default()
            },
            IrbDemand {
                peak: 40,
                ..Default::default()
            },
        ];
        let b = irb_bound(demands.clone(), IrbPolicy::Shared, 64);
        assert_eq!(
            b.verdict,
            IrbVerdict::Unsafe {
                tenant: None,
                demand: 70,
                limit: 64
            }
        );
        let b2 = irb_bound(demands, IrbPolicy::Shared, 128);
        assert!(b2.verdict.is_safe());
        assert_eq!(b2.total_peak(), 70);
    }

    #[test]
    fn banked_bound_is_per_tenant_only() {
        let demands = vec![
            IrbDemand {
                peak: 60,
                ..Default::default()
            },
            IrbDemand {
                peak: 60,
                ..Default::default()
            },
        ];
        // Aggregate 120 > 64, but banks are private: safe at 64/bank.
        let b = irb_bound(demands.clone(), IrbPolicy::Banked { per_tenant: 64 }, 64);
        assert!(b.verdict.is_safe());
        let b2 = irb_bound(demands, IrbPolicy::Banked { per_tenant: 32 }, 64);
        assert_eq!(
            b2.verdict,
            IrbVerdict::Unsafe {
                tenant: Some(0),
                demand: 60,
                limit: 32
            }
        );
    }

    #[test]
    fn partitioned_bound_checks_quota_and_capacity() {
        let demands = vec![
            IrbDemand {
                peak: 3,
                ..Default::default()
            },
            IrbDemand {
                peak: 9,
                ..Default::default()
            },
        ];
        let b = irb_bound(demands.clone(), IrbPolicy::Partitioned { quota: 8 }, 64);
        assert_eq!(
            b.verdict,
            IrbVerdict::Unsafe {
                tenant: Some(1),
                demand: 9,
                limit: 8
            }
        );
        let b2 = irb_bound(demands, IrbPolicy::Partitioned { quota: 16 }, 64);
        assert!(b2.verdict.is_safe());
    }

    #[test]
    fn verdict_display_is_stable() {
        assert_eq!(IrbVerdict::Safe.to_string(), "safe (no IRB drop possible)");
        assert_eq!(
            IrbVerdict::Unsafe {
                tenant: Some(2),
                demand: 9,
                limit: 8
            }
            .to_string(),
            "unsafe (tenant 2: peak demand 9 > limit 8)"
        );
    }
}
