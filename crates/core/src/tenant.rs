//! The multi-tenant open-loop front end.
//!
//! Instead of one fixed [`Program`] per core, a run can be driven by a set
//! of *tenant streams*: per-tenant sequences of transaction fragments with
//! pre-computed arrival times (the open-loop traffic model — arrivals do
//! not wait for completions). Cores act as workers: an idle core pulls the
//! earliest-arrived ready transaction across all tenants (ties broken by
//! tenant id, so scheduling is deterministic), executes it to persistence,
//! records the tenant's arrival→completion latency, and pulls again.
//!
//! Each tenant is a logical thread: at most one of its transactions is in
//! flight at a time (its stream is a serial FIFO), so a tenant's
//! transactions never race each other no matter which cores execute them —
//! this is what keeps the per-tenant functional oracle and the IRB's
//! thread-keyed entries sound under work stealing. Tenant streams are fully
//! pre-generated from per-tenant deterministic RNG streams, so the traffic
//! is a pure function of the tenant spec: identical at any core count, any
//! `--jobs` fan-out, and across reruns.

use janus_sim::stats::Histogram;
use janus_sim::time::Cycles;

use crate::ir::Program;

/// One tenant's pre-generated open-loop transaction stream.
///
/// `arrivals[i]` is when transaction `txs[i]` enters the tenant's queue;
/// arrivals must be sorted ascending ([`crate::system::System::try_run_tenants`]
/// validates this). The tenant id is the stream's index in the run's
/// stream vector.
#[derive(Clone, Debug, Default)]
pub struct TenantStream {
    /// Arrival time of each transaction, ascending.
    pub arrivals: Vec<Cycles>,
    /// The transaction fragments, index-parallel with `arrivals`.
    pub txs: Vec<Program>,
}

impl TenantStream {
    /// Number of transactions in the stream.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

/// Scheduler state of the open-loop front end (one per running system).
#[derive(Debug)]
pub(crate) struct FrontEnd {
    streams: Vec<TenantStream>,
    /// Per tenant: index of the next undispatched transaction, which is
    /// also the count of dispatched ones.
    next: Vec<usize>,
    /// Per tenant: whether a transaction is currently in flight (serial
    /// FIFO per tenant).
    busy: Vec<bool>,
    completed: Vec<u64>,
    /// Per-tenant arrival→completion latency.
    latency: Vec<Histogram>,
}

impl FrontEnd {
    pub(crate) fn new(streams: Vec<TenantStream>) -> Self {
        let n = streams.len();
        FrontEnd {
            next: vec![0; n],
            busy: vec![false; n],
            completed: vec![0; n],
            latency: (0..n).map(|_| Histogram::new()).collect(),
            streams,
        }
    }

    /// Pulls the ready transaction with the earliest arrival (ties: lowest
    /// tenant id); marks its tenant busy. `None` when nothing has arrived
    /// from a non-busy tenant yet.
    pub(crate) fn pull(&mut self, now: Cycles) -> Option<(usize, Cycles, Program)> {
        let mut best: Option<(Cycles, usize)> = None;
        for (t, s) in self.streams.iter().enumerate() {
            if self.busy[t] {
                continue;
            }
            let Some(&arrival) = s.arrivals.get(self.next[t]) else {
                continue;
            };
            if arrival > now {
                continue;
            }
            if best.is_none_or(|(ba, _)| arrival < ba) {
                best = Some((arrival, t));
            }
        }
        let (arrival, t) = best?;
        let i = self.next[t];
        self.next[t] += 1;
        self.busy[t] = true;
        Some((t, arrival, std::mem::take(&mut self.streams[t].txs[i])))
    }

    /// Retires tenant `tenant`'s in-flight transaction (which arrived at
    /// `arrival`) at time `now`.
    pub(crate) fn complete(&mut self, tenant: usize, arrival: Cycles, now: Cycles) {
        debug_assert!(self.busy[tenant], "completion without dispatch");
        self.busy[tenant] = false;
        self.completed[tenant] += 1;
        self.latency[tenant].record(now.saturating_sub(arrival));
    }

    /// Whether some non-busy tenant has an undispatched transaction that
    /// has already arrived (i.e. an idle core woken now would find work).
    pub(crate) fn ready(&self, now: Cycles) -> bool {
        self.streams
            .iter()
            .enumerate()
            .any(|(t, s)| !self.busy[t] && s.arrivals.get(self.next[t]).is_some_and(|&a| a <= now))
    }

    /// Earliest future arrival among non-busy tenants (what a core with
    /// nothing to do should sleep until). `None` when every pending
    /// transaction belongs to a busy tenant or all streams are exhausted.
    pub(crate) fn next_arrival(&self) -> Option<Cycles> {
        self.streams
            .iter()
            .enumerate()
            .filter(|(t, _)| !self.busy[*t])
            .filter_map(|(t, s)| s.arrivals.get(self.next[t]).copied())
            .min()
    }

    /// Whether every stream has been fully dispatched.
    pub(crate) fn all_dispatched(&self) -> bool {
        self.next
            .iter()
            .zip(&self.streams)
            .all(|(&n, s)| n >= s.len())
    }

    /// Per-tenant (dispatched, completed, latency histogram) for reporting.
    pub(crate) fn tenant_stats(&self) -> impl Iterator<Item = (u64, u64, &Histogram)> {
        self.next
            .iter()
            .zip(&self.completed)
            .zip(&self.latency)
            .map(|((&d, &c), h)| (d as u64, c, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(arrivals: &[u64]) -> TenantStream {
        TenantStream {
            arrivals: arrivals.iter().map(|&a| Cycles(a)).collect(),
            txs: arrivals.iter().map(|_| Program::default()).collect(),
        }
    }

    #[test]
    fn pull_prefers_earliest_arrival_then_lowest_tenant() {
        let mut fe = FrontEnd::new(vec![stream(&[5, 6]), stream(&[3]), stream(&[3])]);
        let (t, a, _) = fe.pull(Cycles(10)).unwrap();
        assert_eq!((t, a), (1, Cycles(3)), "earliest arrival, lowest tenant");
        let (t, _, _) = fe.pull(Cycles(10)).unwrap();
        assert_eq!(t, 2);
        let (t, _, _) = fe.pull(Cycles(10)).unwrap();
        assert_eq!(t, 0);
        // Tenant 0 is busy now; its second transaction must wait.
        assert!(fe.pull(Cycles(10)).is_none());
        fe.complete(0, Cycles(5), Cycles(12));
        let (t, a, _) = fe.pull(Cycles(10)).unwrap();
        assert_eq!((t, a), (0, Cycles(6)));
    }

    #[test]
    fn busy_tenant_is_serial() {
        let mut fe = FrontEnd::new(vec![stream(&[0, 0, 0])]);
        assert!(fe.pull(Cycles(0)).is_some());
        assert!(fe.pull(Cycles(0)).is_none(), "one in flight per tenant");
        assert!(!fe.ready(Cycles(0)));
        assert_eq!(fe.next_arrival(), None, "pending work is all busy");
        fe.complete(0, Cycles(0), Cycles(4));
        assert!(fe.ready(Cycles(0)));
        assert!(!fe.all_dispatched());
    }

    #[test]
    fn next_arrival_sees_future_work() {
        let mut fe = FrontEnd::new(vec![stream(&[100])]);
        assert!(fe.pull(Cycles(0)).is_none());
        assert_eq!(fe.next_arrival(), Some(Cycles(100)));
        assert!(!fe.all_dispatched());
        assert!(fe.pull(Cycles(100)).is_some());
        assert!(fe.all_dispatched());
    }

    #[test]
    fn latency_recorded_per_tenant() {
        let mut fe = FrontEnd::new(vec![stream(&[0]), stream(&[2])]);
        let (t0, a0, _) = fe.pull(Cycles(2)).unwrap();
        fe.complete(t0, a0, Cycles(10));
        let (t1, a1, _) = fe.pull(Cycles(2)).unwrap();
        fe.complete(t1, a1, Cycles(10));
        let stats: Vec<_> = fe.tenant_stats().collect();
        assert_eq!(stats[0].1, 1);
        assert_eq!(stats[0].2.max(), Cycles(10));
        assert_eq!(stats[1].2.max(), Cycles(8));
    }
}
