//! Differential property for the IRB's banks.
//!
//! [`Irb`] keeps one bank per thread under the banked policy and one
//! shared bank otherwise, in a `Vec`, and counts nothing. Its executable
//! specification, kept here as the test oracle, is the two-layer buffer it
//! replaced: a policy wrapper routing each call through a `BTreeMap` of
//! per-bank buffers, each counting its own inserts, consumes, drops,
//! expiries and stale marks. The property drives both through random call
//! sequences and asserts identical answers at every step.

use std::collections::BTreeMap;

use janus_bmo::engine::JobId;
use janus_bmo::{BmoEngine, BmoLatencies, BmoMode, BmoStack};
use janus_check::{forall_cfg, gen, Config};
use janus_core::irb::{Irb, IrbEntry, IrbKey, IrbPolicy};
use janus_core::PreObjId;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::resource::UnitPool;
use janus_sim::time::Cycles;

/// One bank of the oracle: entries in insertion order, removed by
/// `swap_remove` on consume and by an order-preserving retain otherwise.
struct OracleBank {
    entries: Vec<IrbEntry>,
    capacity: usize,
    drops: u64,
    inserted: u64,
    consumed: u64,
    expired: u64,
    stale_invalidations: u64,
}

impl OracleBank {
    fn new(capacity: usize) -> Self {
        OracleBank {
            entries: Vec::new(),
            capacity,
            drops: 0,
            inserted: 0,
            consumed: 0,
            expired: 0,
            stale_invalidations: 0,
        }
    }

    fn insert(&mut self, entry: IrbEntry) -> bool {
        if self.entries.len() >= self.capacity {
            self.drops += 1;
            return false;
        }
        self.inserted += 1;
        self.entries.push(entry);
        true
    }

    fn consume(&mut self, core: usize, line: LineAddr) -> Option<IrbEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.key.core == core && e.line == Some(line))?;
        self.consumed += 1;
        Some(self.entries.swap_remove(pos))
    }

    /// Binds consecutive lines to the data-only entries of `key`, earliest
    /// job first.
    fn bind_addr(&mut self, key: IrbKey, first: LineAddr, nlines: u32) -> usize {
        let mut unbound: Vec<&mut IrbEntry> = self
            .entries
            .iter_mut()
            .filter(|e| e.key == key && e.line.is_none())
            .collect();
        unbound.sort_by_key(|e| e.job.raw());
        let mut bound = 0;
        for (e, k) in unbound.into_iter().zip(0..nlines as u64) {
            e.line = Some(first.offset(k));
            bound += 1;
        }
        bound
    }

    fn invalidate_slot_refs(&mut self, slot: u64) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            if e.predicted_dup_slot == Some(slot) && !e.stale {
                e.stale = true;
                n += 1;
            }
        }
        self.stale_invalidations += n as u64;
        n
    }

    fn retain(&mut self, keep: impl FnMut(&IrbEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(keep);
        before - self.entries.len()
    }

    fn occupancy(&self, core: usize) -> usize {
        self.entries.iter().filter(|e| e.key.core == core).count()
    }
}

/// The oracle: banks keyed by thread under `Banked` (created on first
/// use), the single key 0 otherwise.
struct OracleSet {
    policy: IrbPolicy,
    shared_capacity: usize,
    banks: BTreeMap<usize, OracleBank>,
}

impl OracleSet {
    fn new(policy: IrbPolicy, shared_capacity: usize) -> Self {
        let mut banks = BTreeMap::new();
        if !matches!(policy, IrbPolicy::Banked { .. }) {
            banks.insert(0, OracleBank::new(shared_capacity));
        }
        OracleSet {
            policy,
            shared_capacity,
            banks,
        }
    }

    fn bank_key(&self, thread: usize) -> usize {
        match self.policy {
            IrbPolicy::Banked { .. } => thread,
            _ => 0,
        }
    }

    fn bank_mut(&mut self, thread: usize) -> &mut OracleBank {
        let key = self.bank_key(thread);
        let cap = match self.policy {
            IrbPolicy::Banked { per_tenant } => per_tenant,
            _ => self.shared_capacity,
        };
        self.banks
            .entry(key)
            .or_insert_with(|| OracleBank::new(cap))
    }

    fn insert(&mut self, entry: IrbEntry) -> bool {
        let thread = entry.key.core;
        if let IrbPolicy::Partitioned { quota } = self.policy {
            let bank = self.bank_mut(thread);
            if bank.occupancy(thread) >= quota {
                bank.drops += 1;
                return false;
            }
        }
        self.bank_mut(thread).insert(entry)
    }

    fn consume(&mut self, thread: usize, line: LineAddr) -> Option<IrbEntry> {
        self.banks
            .get_mut(&self.bank_key(thread))?
            .consume(thread, line)
    }

    fn bind_addr(&mut self, key: IrbKey, first: LineAddr, nlines: u32) -> usize {
        let bank_key = self.bank_key(key.core);
        self.banks
            .get_mut(&bank_key)
            .map_or(0, |bank| bank.bind_addr(key, first, nlines))
    }

    fn entries_for(&self, key: IrbKey) -> impl Iterator<Item = &IrbEntry> {
        self.banks
            .get(&self.bank_key(key.core))
            .into_iter()
            .flat_map(move |b| b.entries.iter().filter(move |e| e.key == key))
    }

    fn invalidate_slot_refs(&mut self, slot: u64) -> usize {
        self.banks
            .values_mut()
            .map(|b| b.invalidate_slot_refs(slot))
            .sum()
    }

    fn expire(&mut self, now: Cycles, max_age: Cycles) -> usize {
        self.banks
            .values_mut()
            .map(|b| {
                let n = b.retain(|e| now.saturating_sub(e.created) <= max_age);
                b.expired += n as u64;
                n
            })
            .sum()
    }

    fn clear_thread(&mut self, thread: usize) -> usize {
        self.banks
            .values_mut()
            .map(|b| b.retain(|e| e.key.core != thread))
            .sum()
    }

    fn clear_range(&mut self, first: LineAddr, nlines: u64) -> usize {
        let range = first.0..first.0 + nlines;
        self.banks
            .values_mut()
            .map(|b| b.retain(|e| e.line.is_none_or(|l| !range.contains(&l.0))))
            .sum()
    }

    fn len(&self) -> usize {
        self.banks.values().map(|b| b.entries.len()).sum()
    }

    /// (inserted, consumed, drops, expired, stale invalidations), summed in
    /// thread order.
    fn stats(&self) -> (u64, u64, u64, u64, u64) {
        self.banks
            .values()
            .fold((0, 0, 0, 0, 0), |(i, c, d, x, s), b| {
                (
                    i + b.inserted,
                    c + b.consumed,
                    d + b.drops,
                    x + b.expired,
                    s + b.stale_invalidations,
                )
            })
    }
}

/// Every field of an entry, for equality.
type Fields = (
    IrbKey,
    Option<LineAddr>,
    Option<Line>,
    JobId,
    Cycles,
    Option<u64>,
    Option<bool>,
    bool,
);

fn fields(e: &IrbEntry) -> Fields {
    (
        e.key,
        e.line,
        e.data,
        e.job,
        e.created,
        e.predicted_dup_slot,
        e.predicted_dup,
        e.stale,
    )
}

fn key(thread: usize, obj: u64) -> IrbKey {
    IrbKey {
        core: thread,
        obj: PreObjId(obj as u32),
    }
}

const OBJS: u64 = 3;
const LINES: u64 = 12;

/// Random call sequences under `shared`, `banked:N` and `partitioned:N`
/// with N in 1..=4 (so banks and quotas fill) and 1–4 threads. Inserts are
/// weighted up; time only moves forward. After every call both buffers
/// hold the same entries in the same order for every key, and the counts
/// the controller derives from return values equal the oracle's counters.
#[test]
fn irb_matches_the_two_layer_oracle() {
    let call = gen::tuple4(
        &gen::range_u8(0..12),
        &gen::range_u64(0..400),
        &gen::any_u64(),
        &gen::any_u64(),
    );
    let setup = gen::tuple3(
        &gen::range_u8(0..3),
        &gen::range_usize(1..5),
        &gen::range_usize(1..5),
    );
    let g = gen::pair(&setup, &gen::vec_of(&call, 1..120));
    forall_cfg(
        &Config::with_cases(256),
        &g,
        |&((policy, n, threads), ref calls)| {
            let policy = match policy {
                0 => IrbPolicy::Shared,
                1 => IrbPolicy::Banked { per_tenant: n },
                _ => IrbPolicy::Partitioned { quota: n },
            };
            // The shared capacity exceeds the quota, so partitioned drops
            // come from both limits.
            let shared_capacity = n + 2;
            let mut irb = Irb::new(policy, shared_capacity);
            let mut oracle = OracleSet::new(policy, shared_capacity);
            let mut engine = BmoEngine::new(
                BmoStack::paper().graph(&BmoLatencies::paper()),
                BmoMode::Parallelized,
                UnitPool::UNLIMITED,
            );
            // (inserted, consumed, drops, expired, stale) from return values.
            let mut counted = (0u64, 0u64, 0u64, 0u64, 0u64);
            let mut now = 0u64;
            for (i, &(kind, step, a, b)) in calls.iter().enumerate() {
                now += step;
                let clock = Cycles(now);
                let thread = (a % threads as u64) as usize;
                let obj = (a >> 8) % OBJS;
                let line = LineAddr(b % LINES);
                let what = format!("call {i}: kind {kind}, thread {thread}, obj {obj}, {line}");
                match kind {
                    0..=4 => {
                        let entry = IrbEntry {
                            key: key(thread, obj),
                            line: ((b >> 8) % 3 != 0).then_some(line),
                            data: ((b >> 16) % 4 != 0).then(|| Line::splat(b as u8)),
                            job: engine.submit(clock, Some(clock), Some(clock), false),
                            created: clock,
                            predicted_dup_slot: ((b >> 24) % 2 == 0).then_some((b >> 24) % 5),
                            predicted_dup: Some((b >> 40) % 2 == 0),
                            stale: false,
                        };
                        let got = irb.insert(entry.clone());
                        assert_eq!(got, oracle.insert(entry), "{what}");
                        if got {
                            counted.0 += 1;
                        } else {
                            counted.2 += 1;
                        }
                    }
                    5 | 6 => {
                        let got = irb.consume(thread, line);
                        let want = oracle.consume(thread, line);
                        assert_eq!(
                            got.as_ref().map(fields),
                            want.as_ref().map(fields),
                            "{what}"
                        );
                        counted.1 += u64::from(got.is_some());
                    }
                    7 => {
                        let nlines = (b >> 8) as u32 % 4;
                        assert_eq!(
                            irb.bind_addr(key(thread, obj), line, nlines),
                            oracle.bind_addr(key(thread, obj), line, nlines),
                            "{what}, {nlines} lines"
                        );
                    }
                    8 => {
                        let slot = (b >> 24) % 5;
                        let got = irb.invalidate_slot_refs(slot);
                        assert_eq!(got, oracle.invalidate_slot_refs(slot), "{what}");
                        counted.4 += got as u64;
                    }
                    9 => {
                        let max_age = Cycles(b % 1_500);
                        let got = irb.expire(clock, max_age);
                        assert_eq!(got, oracle.expire(clock, max_age), "{what}");
                        counted.3 += got as u64;
                    }
                    10 => assert_eq!(
                        irb.clear_thread(thread),
                        oracle.clear_thread(thread),
                        "{what}"
                    ),
                    _ => {
                        let nlines = (b >> 8) % 6;
                        assert_eq!(
                            irb.clear_range(line, nlines),
                            oracle.clear_range(line, nlines),
                            "{what}, {nlines} lines"
                        );
                    }
                }
                assert_eq!(irb.len(), oracle.len(), "{what}");
                assert_eq!(irb.is_empty(), oracle.len() == 0, "{what}");
                for t in 0..threads {
                    for o in 0..OBJS {
                        let got: Vec<Fields> = irb.entries_for(key(t, o)).map(fields).collect();
                        let want: Vec<Fields> = oracle.entries_for(key(t, o)).map(fields).collect();
                        assert_eq!(got, want, "{what}: entries_for(thread {t}, obj {o})");
                    }
                }
                assert_eq!(counted, oracle.stats(), "{what}");
            }
        },
    );
}
