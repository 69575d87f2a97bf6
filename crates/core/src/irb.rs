//! The Intermediate Result Buffer (§4.3.1, Figure 7c).
//!
//! Pre-executed sub-operation results must not change processor or memory
//! state, so Janus holds them in the IRB until the actual write consumes
//! them. Each entry is identified by (ThreadID, PRE_ID) plus the
//! processor-visible line address, holds a copy of the pre-executed data
//! (for stale-data detection), tracks the BMO engine job that owns the
//! intermediate results, and carries a completion flag. The paper's entry
//! also holds a TransactionID, which the hardware budget in
//! [`crate::overhead`] counts; the model needs none, since every
//! transaction's `pre_obj`s are fresh.
//!
//! Invalidation (§4.3.1):
//! 1. *Stale data* — the entry keeps the data value used for pre-execution;
//!    the write's data is compared on consumption and data-dependent
//!    sub-operations re-run on mismatch (handled by the controller via the
//!    engine's `invalidate_data`).
//! 2. *Stale metadata* — BMO metadata changes (here: a dedup slot freed or
//!    the duplicate outcome changing) mark dependent entries stale via
//!    [`Irb::invalidate_slot_refs`]; consuming a stale entry re-runs
//!    everything.
//!
//! Real-world exceptions (§4.6): entries age out
//! ([`Irb::expire`]), a terminating thread's entries are cleared
//! ([`Irb::clear_thread`]), and swapped-out address ranges are cleared
//! ([`Irb::clear_range`]).
//!
//! The controller has one [`Irb`], whose [`IrbPolicy`] splits it into
//! banks: one shared bank (the paper's configuration, optionally with a
//! per-thread quota) or one private bank per thread. The buffer counts
//! nothing itself; every call returns what it did, and the controller's
//! `ControllerStats` counts it.

use janus_bmo::engine::JobId;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;

use crate::ir::PreObjId;

/// How the controller's IRB capacity is apportioned across threads
/// (tenants). The paper's configuration is [`IrbPolicy::Shared`] — one
/// buffer, first-come-first-served; the other two policies isolate tenants
/// from each other's pre-execution pressure (the multi-tenant sweeps
/// compare all three under contention).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IrbPolicy {
    /// One buffer shared by every thread (the paper's Table 3 default).
    #[default]
    Shared,
    /// A private bank of `per_tenant` entries per thread; one tenant's
    /// inserts can never evict or starve another's.
    Banked {
        /// Entries in each per-thread bank.
        per_tenant: usize,
    },
    /// One shared buffer, but each thread may hold at most `quota` entries
    /// at a time (static partitioning of a shared structure).
    Partitioned {
        /// Maximum simultaneous entries per thread.
        quota: usize,
    },
}

impl std::fmt::Display for IrbPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrbPolicy::Shared => f.write_str("shared"),
            IrbPolicy::Banked { per_tenant } => write!(f, "banked:{per_tenant}"),
            IrbPolicy::Partitioned { quota } => write!(f, "partitioned:{quota}"),
        }
    }
}

impl IrbPolicy {
    /// Parses `shared`, `banked[:N]`, or `partitioned[:N]` (N defaults to
    /// the paper's 64 entries).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed policy string.
    pub fn parse(s: &str) -> Result<IrbPolicy, String> {
        let (name, n) = match s.split_once(':') {
            Some((name, n)) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad IRB policy size in {s:?}"))?;
                if n == 0 {
                    return Err(format!("IRB policy size must be positive in {s:?}"));
                }
                (name, n)
            }
            None => (s, 64),
        };
        match name {
            "shared" => Ok(IrbPolicy::Shared),
            "banked" => Ok(IrbPolicy::Banked { per_tenant: n }),
            "partitioned" => Ok(IrbPolicy::Partitioned { quota: n }),
            _ => Err(format!(
                "unknown IRB policy {s:?} (expected shared, banked[:N], partitioned[:N])"
            )),
        }
    }
}

/// Identity of a pre-execution request stream: thread (core) + `pre_obj`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IrbKey {
    /// Issuing core ("ThreadID").
    pub core: usize,
    /// The `pre_obj` ("PRE_ID").
    pub obj: PreObjId,
}

/// One cache-line-granularity IRB entry.
#[derive(Clone, Debug)]
pub struct IrbEntry {
    /// Request identity.
    pub key: IrbKey,
    /// ProcAddr — known once a `PRE_ADDR`/`PRE_BOTH` supplied it.
    pub line: Option<LineAddr>,
    /// Data used during pre-execution (None for address-only requests).
    pub data: Option<Line>,
    /// The BMO engine job holding the intermediate results.
    pub job: JobId,
    /// Insertion time (age register).
    pub created: Cycles,
    /// Predicted dedup outcome at pre-execution time: `Some(slot)` if the
    /// data was predicted to be a duplicate of `slot`.
    pub predicted_dup_slot: Option<u64>,
    /// Whether any data-dependent prediction was made (data was available).
    pub predicted_dup: Option<bool>,
    /// Set when BMO metadata changed under this entry (stale).
    pub stale: bool,
}

/// The consume-scan key of one entry, packed for the hot lookup.
///
/// [`Irb::consume`] runs once per Janus-mode write and scans linearly (the
/// hardware analogue is a CAM match). Scanning full [`IrbEntry`] records
/// walks ~150 bytes per entry — mostly the copied `data` line — so each
/// bank is stored structure-of-arrays style: this 16-byte tag carries
/// exactly the fields the scan compares, and the payload vector is only
/// touched at the matching index.
#[derive(Clone, Copy, Debug)]
struct ScanTag {
    core: u32,
    /// Bound ProcAddr, or `u64::MAX` when unbound. A real address equal to
    /// the sentinel is disambiguated by re-checking the payload entry.
    line: u64,
}

const UNBOUND: u64 = u64::MAX;

impl ScanTag {
    fn of(entry: &IrbEntry) -> Self {
        ScanTag {
            core: entry.key.core as u32,
            line: entry.line.map_or(UNBOUND, |l| l.0),
        }
    }
}

/// One bank: its entries, in insertion order except that a consume moves
/// the last entry into the consumed one's slot, and their scan tags,
/// index-parallel.
#[derive(Debug, Default)]
struct Bank {
    entries: Vec<IrbEntry>,
    tags: Vec<ScanTag>,
}

impl Bank {
    fn push(&mut self, entry: IrbEntry) {
        self.tags.push(ScanTag::of(&entry));
        self.entries.push(entry);
    }

    fn consume(&mut self, core: usize, line: LineAddr) -> Option<IrbEntry> {
        let core32 = core as u32;
        let pos = (0..self.tags.len()).find(|&i| {
            let t = self.tags[i];
            t.core == core32
                && t.line == line.0
                // Tag sentinel collision guard (an address of u64::MAX):
                // confirm against the payload record.
                && self.entries[i].line == Some(line)
        })?;
        self.tags.swap_remove(pos);
        Some(self.entries.swap_remove(pos))
    }

    fn bind_addr(&mut self, key: IrbKey, first: LineAddr, nlines: u32) -> usize {
        let mut bound = 0;
        while bound < nlines {
            // The engine numbers jobs in submit order, and each entry's job
            // is submitted just before the entry is inserted.
            let Some(i) = (0..self.entries.len())
                .filter(|&i| self.entries[i].key == key && self.entries[i].line.is_none())
                .min_by_key(|&i| self.entries[i].job.raw())
            else {
                break;
            };
            let line = first.offset(bound as u64);
            self.entries[i].line = Some(line);
            self.tags[i].line = line.0;
            bound += 1;
        }
        bound as usize
    }

    fn invalidate_slot_refs(&mut self, slot: u64) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            if e.predicted_dup_slot == Some(slot) && !e.stale {
                e.stale = true;
                n += 1;
            }
        }
        n
    }

    /// Order-preserving retain over both parallel vectors; returns how many
    /// entries were removed.
    fn retain(&mut self, mut keep: impl FnMut(&IrbEntry) -> bool) -> usize {
        let before = self.entries.len();
        let mut kept = 0;
        for i in 0..before {
            if keep(&self.entries[i]) {
                self.entries.swap(kept, i);
                self.tags.swap(kept, i);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.tags.truncate(kept);
        before - kept
    }

    /// Entries held by `core` (scans the packed tags only).
    fn occupancy(&self, core: usize) -> usize {
        let core32 = core as u32;
        self.tags.iter().filter(|t| t.core == core32).count()
    }
}

/// The controller's IRB under a configured [`IrbPolicy`].
///
/// Entries live in banks: one per thread under [`IrbPolicy::Banked`]
/// (indexed by thread id, created on the thread's first insert), one
/// shared bank otherwise. A bank holds `per_tenant` entries under the
/// banked policy and the controller-wide count under the other two; the
/// partitioned policy also caps each thread's share of its one bank. A
/// thread's inserts, consumes and binds touch only its own bank.
///
/// The buffer keeps no counters: the controller counts what each call
/// returns in its `ControllerStats`.
#[derive(Debug)]
pub struct Irb {
    policy: IrbPolicy,
    /// Entries one bank holds at most.
    bank_capacity: usize,
    banks: Vec<Bank>,
}

impl Irb {
    /// Creates the buffer for a policy. `shared_capacity` is the
    /// controller-wide entry count used by the shared and partitioned
    /// policies.
    pub fn new(policy: IrbPolicy, shared_capacity: usize) -> Self {
        let (bank_capacity, banks) = match policy {
            IrbPolicy::Banked { per_tenant } => (per_tenant, Vec::new()),
            _ => (shared_capacity, vec![Bank::default()]),
        };
        Irb {
            policy,
            bank_capacity,
            banks,
        }
    }

    /// The bank `thread`'s entries live in.
    fn bank_of(&self, thread: usize) -> usize {
        match self.policy {
            IrbPolicy::Banked { .. } => thread,
            _ => 0,
        }
    }

    /// Inserts an entry, dropping it (returning `false`) when its bank is
    /// full or its thread's partitioned quota is used up ("If the
    /// buffer/queue is full, it drops newer requests").
    pub fn insert(&mut self, entry: IrbEntry) -> bool {
        let thread = entry.key.core;
        let b = self.bank_of(thread);
        if b >= self.banks.len() {
            self.banks.resize_with(b + 1, Bank::default);
        }
        let bank = &mut self.banks[b];
        let quota_full = match self.policy {
            IrbPolicy::Partitioned { quota } => bank.occupancy(thread) >= quota,
            _ => false,
        };
        if quota_full || bank.entries.len() >= self.bank_capacity {
            return false;
        }
        bank.push(entry);
        true
    }

    /// Looks up and removes the entry matching a write to `line` from
    /// `thread`: the first exact (thread, ProcAddr) match in the thread's
    /// bank — the paper matches on ProcAddr within the issuing thread's
    /// entries.
    pub fn consume(&mut self, thread: usize, line: LineAddr) -> Option<IrbEntry> {
        let b = self.bank_of(thread);
        self.banks.get_mut(b)?.consume(thread, line)
    }

    /// Attaches a later-arriving address to data-only entries of `key` (a
    /// `PRE_DATA` followed by `PRE_ADDR` on the same `pre_obj`, as in
    /// Figure 8a). Entries are assigned consecutive lines in issue order,
    /// read from their engine jobs, not in bank order, which a consume
    /// reorders; `lint_program` binds the values the same way. Returns how
    /// many were bound.
    pub fn bind_addr(&mut self, key: IrbKey, first: LineAddr, nlines: u32) -> usize {
        let b = self.bank_of(key.core);
        self.banks
            .get_mut(b)
            .map_or(0, |bank| bank.bind_addr(key, first, nlines))
    }

    /// Attaches a later-arriving value to the lowest-line entry of `key`
    /// that has an address but no data (a `PRE_ADDR` followed by
    /// `PRE_DATA` on the same `pre_obj`), with the duplicate prediction made
    /// for it, as a `PRE_BOTH` entry records them. The lowest line, not the
    /// bank position, picks the entry, since a consume reorders the bank;
    /// `lint_program` binds a value the same way. Returns that entry's
    /// engine job, or `None` when no entry of `key` awaits data.
    pub fn bind_data(
        &mut self,
        key: IrbKey,
        value: Line,
        predicted_dup_slot: Option<u64>,
        predicted_dup: Option<bool>,
    ) -> Option<JobId> {
        let b = self.bank_of(key.core);
        let entry = self
            .banks
            .get_mut(b)?
            .entries
            .iter_mut()
            .filter(|e| e.key == key && e.line.is_some() && e.data.is_none())
            .min_by_key(|e| e.line)?;
        entry.data = Some(value);
        entry.predicted_dup_slot = predicted_dup_slot;
        entry.predicted_dup = predicted_dup;
        Some(entry.job)
    }

    /// Entries of `key`, in bank order (used by the controller to feed
    /// late-bound addresses to the engine).
    pub fn entries_for(&self, key: IrbKey) -> impl Iterator<Item = &IrbEntry> {
        self.banks
            .get(self.bank_of(key.core))
            .into_iter()
            .flat_map(|bank| &bank.entries)
            .filter(move |e| e.key == key)
    }

    /// Marks entries whose predicted duplicate slot is `slot` as stale, in
    /// every bank (the slot was freed/reused by an intervening write —
    /// §4.3.1's "write to location A changes the value of location A"
    /// case; dedup metadata is controller-global whatever the policy).
    /// Returns how many entries it marked.
    pub fn invalidate_slot_refs(&mut self, slot: u64) -> usize {
        self.banks
            .iter_mut()
            .map(|bank| bank.invalidate_slot_refs(slot))
            .sum()
    }

    /// Discards entries older than `max_age` (§4.6 age register); returns
    /// how many.
    pub fn expire(&mut self, now: Cycles, max_age: Cycles) -> usize {
        self.banks
            .iter_mut()
            .map(|bank| bank.retain(|e| now.saturating_sub(e.created) <= max_age))
            .sum()
    }

    /// Clears all entries belonging to a terminating thread (§4.6); returns
    /// how many.
    pub fn clear_thread(&mut self, thread: usize) -> usize {
        let b = self.bank_of(thread);
        self.banks
            .get_mut(b)
            .map_or(0, |bank| bank.retain(|e| e.key.core != thread))
    }

    /// Clears entries whose ProcAddr falls in `[first, first+nlines)` — the
    /// §4.6 memory-swap case; returns how many.
    pub fn clear_range(&mut self, first: LineAddr, nlines: u64) -> usize {
        let range = first.0..first.0 + nlines;
        self.banks
            .iter_mut()
            .map(|bank| bank.retain(|e| e.line.is_none_or(|l| !range.contains(&l.0))))
            .sum()
    }

    /// Live entries across banks.
    pub fn len(&self) -> usize {
        self.banks.iter().map(|bank| bank.entries.len()).sum()
    }

    /// Whether every bank is empty.
    pub fn is_empty(&self) -> bool {
        self.banks.iter().all(|bank| bank.entries.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(core: usize, obj: u32, line: Option<u64>) -> IrbEntry {
        IrbEntry {
            key: IrbKey {
                core,
                obj: PreObjId(obj),
            },
            line: line.map(LineAddr),
            data: Some(Line::splat(1)),
            job: fake_job(),
            created: Cycles(0),
            predicted_dup_slot: None,
            predicted_dup: Some(false),
            stale: false,
        }
    }

    fn fake_job() -> JobId {
        // JobIds are opaque; get a real one from a throwaway engine.
        use janus_bmo::{BmoEngine, BmoLatencies, BmoMode, BmoStack};
        let mut e = BmoEngine::new(
            BmoStack::paper().graph(&BmoLatencies::paper()),
            BmoMode::Parallelized,
            1,
        );
        e.submit(Cycles(0), Some(Cycles(0)), Some(Cycles(0)), false)
    }

    fn shared(capacity: usize) -> Irb {
        Irb::new(IrbPolicy::Shared, capacity)
    }

    #[test]
    fn insert_and_consume_by_addr() {
        let mut irb = shared(4);
        assert!(irb.insert(entry(0, 1, Some(10))));
        assert!(irb.consume(0, LineAddr(10)).is_some());
        assert!(irb.consume(0, LineAddr(10)).is_none(), "consumed once");
    }

    #[test]
    fn consume_respects_core() {
        let mut irb = shared(4);
        irb.insert(entry(0, 1, Some(10)));
        assert!(irb.consume(1, LineAddr(10)).is_none());
        assert!(irb.consume(0, LineAddr(10)).is_some());
    }

    #[test]
    fn full_buffer_drops_newest() {
        let mut irb = shared(2);
        assert!(irb.insert(entry(0, 1, Some(1))));
        assert!(irb.insert(entry(0, 2, Some(2))));
        assert!(!irb.insert(entry(0, 3, Some(3))), "full: the newest drops");
        assert_eq!(irb.len(), 2);
        assert!(irb.consume(0, LineAddr(3)).is_none());
        assert!(irb.consume(0, LineAddr(1)).is_some(), "older entries stay");
    }

    #[test]
    fn bind_addr_assigns_in_order() {
        let mut irb = shared(8);
        irb.insert(entry(0, 5, None));
        irb.insert(entry(0, 5, None));
        irb.insert(entry(0, 6, None)); // different obj
        let key = IrbKey {
            core: 0,
            obj: PreObjId(5),
        };
        assert_eq!(irb.bind_addr(key, LineAddr(100), 2), 2);
        assert!(irb.consume(0, LineAddr(100)).is_some());
        assert!(irb.consume(0, LineAddr(101)).is_some());
        assert!(irb.consume(0, LineAddr(102)).is_none());
    }

    #[test]
    fn bind_addr_limited_by_nlines() {
        let mut irb = shared(8);
        irb.insert(entry(0, 5, None));
        irb.insert(entry(0, 5, None));
        let key = IrbKey {
            core: 0,
            obj: PreObjId(5),
        };
        assert_eq!(irb.bind_addr(key, LineAddr(100), 1), 1);
    }

    #[test]
    fn stale_marking_by_slot() {
        let mut irb = shared(8);
        let mut e = entry(0, 1, Some(10));
        e.predicted_dup_slot = Some(42);
        irb.insert(e);
        irb.insert(entry(0, 2, Some(11)));
        assert_eq!(irb.invalidate_slot_refs(42), 1);
        assert_eq!(irb.invalidate_slot_refs(42), 0, "already stale");
        let consumed = irb.consume(0, LineAddr(10)).unwrap();
        assert!(consumed.stale);
        let other = irb.consume(0, LineAddr(11)).unwrap();
        assert!(!other.stale);
    }

    #[test]
    fn aging_expires_old_entries() {
        let mut irb = shared(8);
        irb.insert(entry(0, 1, Some(1)));
        let mut young = entry(0, 2, Some(2));
        young.created = Cycles(1_000);
        irb.insert(young);
        assert_eq!(irb.expire(Cycles(1_500), Cycles(800)), 1);
        assert!(irb.consume(0, LineAddr(1)).is_none(), "old entry expired");
        assert!(irb.consume(0, LineAddr(2)).is_some());
    }

    #[test]
    fn thread_clear() {
        let mut irb = shared(8);
        irb.insert(entry(0, 1, Some(1)));
        irb.insert(entry(1, 1, Some(2)));
        assert_eq!(irb.clear_thread(0), 1);
        assert_eq!(irb.len(), 1);
        assert!(irb.consume(1, LineAddr(2)).is_some());
    }

    #[test]
    fn tags_stay_in_sync_through_mixed_operations() {
        for policy in [
            IrbPolicy::Shared,
            IrbPolicy::Banked { per_tenant: 16 },
            IrbPolicy::Partitioned { quota: 16 },
        ] {
            let mut irb = Irb::new(policy, 16);
            for i in 0..10u64 {
                let mut e = entry((i % 3) as usize, i as u32, (i % 2 == 0).then_some(i));
                e.created = Cycles(i * 100);
                e.predicted_dup_slot = Some(i % 4);
                irb.insert(e);
            }
            irb.bind_addr(
                IrbKey {
                    core: 1,
                    obj: PreObjId(1),
                },
                LineAddr(500),
                4,
            );
            irb.consume(0, LineAddr(0));
            irb.invalidate_slot_refs(2);
            irb.expire(Cycles(650), Cycles(400));
            irb.clear_thread(2);
            irb.clear_range(LineAddr(4), 4);
            for bank in &irb.banks {
                assert_eq!(bank.entries.len(), bank.tags.len(), "{policy}");
                for (e, t) in bank.entries.iter().zip(&bank.tags) {
                    assert_eq!(t.core, e.key.core as u32, "{policy}");
                    assert_eq!(t.line, e.line.map_or(super::UNBOUND, |l| l.0), "{policy}");
                }
            }
        }
    }

    #[test]
    fn range_clear_for_swap() {
        let mut irb = shared(8);
        irb.insert(entry(0, 1, Some(100)));
        irb.insert(entry(0, 2, Some(200)));
        irb.insert(entry(0, 3, None)); // unbound survives
        assert_eq!(irb.clear_range(LineAddr(100), 50), 1);
        assert_eq!(irb.len(), 2);
    }

    #[test]
    fn policy_parse_and_display_round_trip() {
        assert_eq!(IrbPolicy::parse("shared"), Ok(IrbPolicy::Shared));
        assert_eq!(
            IrbPolicy::parse("banked"),
            Ok(IrbPolicy::Banked { per_tenant: 64 })
        );
        assert_eq!(
            IrbPolicy::parse("banked:8"),
            Ok(IrbPolicy::Banked { per_tenant: 8 })
        );
        assert_eq!(
            IrbPolicy::parse("partitioned:16"),
            Ok(IrbPolicy::Partitioned { quota: 16 })
        );
        assert!(IrbPolicy::parse("banked:0").is_err());
        assert!(IrbPolicy::parse("banked:x").is_err());
        assert!(IrbPolicy::parse("lru").is_err());
        for p in [
            IrbPolicy::Shared,
            IrbPolicy::Banked { per_tenant: 8 },
            IrbPolicy::Partitioned { quota: 16 },
        ] {
            assert_eq!(IrbPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    #[test]
    fn shared_set_matches_plain_irb() {
        // The Shared policy is one plain first-come-first-served buffer:
        // every thread draws on the same capacity, so the published
        // single-tenant goldens see the paper's IRB.
        let mut irb = shared(2);
        assert!(irb.insert(entry(0, 1, Some(10))));
        assert!(irb.insert(entry(1, 2, Some(11))));
        assert!(!irb.insert(entry(0, 3, Some(12))), "one buffer, now full");
        assert_eq!(irb.banks.len(), 1);
        assert_eq!(
            irb.consume(0, LineAddr(10)).map(|e| e.key.obj),
            Some(PreObjId(1))
        );
        assert!(
            irb.insert(entry(1, 4, Some(13))),
            "a consume frees a slot for any thread"
        );
        assert_eq!(irb.len(), 2);
    }

    #[test]
    fn banked_isolates_tenants() {
        let mut irb = Irb::new(IrbPolicy::Banked { per_tenant: 1 }, 1024);
        assert!(irb.insert(entry(0, 1, Some(1))));
        // Tenant 0's bank is full; tenant 1 still has its own bank.
        assert!(!irb.insert(entry(0, 2, Some(2))));
        assert!(irb.insert(entry(1, 3, Some(3))));
        assert_eq!(irb.len(), 2);
        assert!(irb.consume(1, LineAddr(3)).is_some());
        assert!(irb.consume(0, LineAddr(1)).is_some());
        assert!(irb.is_empty());
        // A thread that never inserted has no bank, and finds nothing.
        assert!(irb.consume(5, LineAddr(1)).is_none());
    }

    #[test]
    fn partitioned_quota_caps_one_tenant_without_starving_another() {
        let mut irb = Irb::new(IrbPolicy::Partitioned { quota: 2 }, 8);
        assert!(irb.insert(entry(0, 1, Some(1))));
        assert!(irb.insert(entry(0, 2, Some(2))));
        assert!(!irb.insert(entry(0, 3, Some(3))), "quota exhausted");
        assert!(irb.insert(entry(1, 4, Some(4))), "other tenant unaffected");
        assert_eq!(irb.len(), 3);
        // Consuming frees quota.
        assert!(irb.consume(0, LineAddr(1)).is_some());
        assert!(irb.insert(entry(0, 5, Some(5))));
    }

    #[test]
    fn set_maintenance_spans_banks() {
        let mut irb = Irb::new(IrbPolicy::Banked { per_tenant: 4 }, 16);
        let mut a = entry(0, 1, Some(1));
        a.predicted_dup_slot = Some(7);
        irb.insert(a);
        let mut b = entry(1, 2, Some(2));
        b.predicted_dup_slot = Some(7);
        b.created = Cycles(1_000);
        irb.insert(b);
        assert_eq!(irb.invalidate_slot_refs(7), 2, "both banks marked");
        assert_eq!(irb.expire(Cycles(1_500), Cycles(800)), 1);
        assert_eq!(irb.clear_thread(1), 1);
        assert!(irb.is_empty());
        // bind_addr routes to the right bank.
        irb.insert(entry(2, 9, None));
        let key = IrbKey {
            core: 2,
            obj: PreObjId(9),
        };
        assert_eq!(irb.bind_addr(key, LineAddr(100), 1), 1);
        assert_eq!(irb.entries_for(key).count(), 1);
        assert_eq!(irb.clear_range(LineAddr(100), 1), 1);
    }
}
