//! Property-based tests for the NVM substrate: cache model and write queue
//! (ported from proptest to the in-repo janus-check harness).

use janus_check::{forall, gen};
use janus_nvm::addr::LineAddr;
use janus_nvm::cache::{CacheConfig, SetAssocCache};
use janus_nvm::device::{NvmDevice, NvmTiming};
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;
use janus_nvm::wq::AdrWriteQueue;
use janus_sim::time::Cycles;
use std::collections::{BTreeMap, HashSet};

/// After any access sequence, the cache never holds more lines per set
/// than its associativity, and a line reported as a hit was accessed
/// before without an intervening eviction of it.
#[test]
fn cache_capacity_invariant() {
    let accesses = gen::vec_of(&gen::pair(&gen::range_u64(0..64), &gen::any_bool()), 1..300);
    forall(&accesses, |accesses| {
        let mut cache = SetAssocCache::new(CacheConfig {
            capacity_bytes: 2048, // 4 sets x 8 ways
            ways: 8,
            line_bytes: 64,
        });
        let mut resident: HashSet<u64> = HashSet::new();
        for (addr, write) in accesses {
            let a = LineAddr(*addr);
            let hit = cache.access(a, *write).is_hit();
            assert_eq!(hit, resident.contains(addr), "line {addr}");
            resident.insert(*addr);
            // Track evictions: drop whatever is no longer present.
            resident.retain(|&l| cache.probe(LineAddr(l)));
            assert!(resident.contains(addr), "just-accessed line resident");
        }
    });
}

/// Flush never evicts; dirty_lines() only shrinks via flush/invalidate.
#[test]
fn cache_flush_semantics() {
    let lines = gen::vec_of(&gen::range_u64(0..32), 1..100);
    forall(&lines, |lines| {
        let mut cache = SetAssocCache::new(CacheConfig::l1d());
        for &l in lines {
            cache.access(LineAddr(l), true);
        }
        for &l in lines {
            let was = cache.probe(LineAddr(l));
            cache.flush(LineAddr(l));
            assert_eq!(cache.probe(LineAddr(l)), was, "flush must not evict");
        }
        assert!(cache.dirty_lines().is_empty());
    });
}

/// The write queue always accepts (eventually) and acceptance times are
/// no earlier than requested.
#[test]
fn wq_acceptance_monotonic() {
    let writes = gen::vec_of(
        &gen::pair(&gen::range_u64(0..64), &gen::range_u64(0..10_000)),
        1..200,
    );
    forall(&writes, |writes| {
        let mut dev = NvmDevice::new(NvmTiming::pcm());
        let mut wq = AdrWriteQueue::new(8);
        let mut now = Cycles::ZERO;
        for (addr, delta) in writes {
            now += Cycles(*delta);
            let t = wq.accept(now, LineAddr(*addr), &mut dev);
            assert!(t >= now);
        }
    });
}

/// The grouped `LineStore` against its executable specification, a
/// `BTreeMap` holding exactly the non-zero lines. Addresses are dense (four
/// 64-line groups) or scattered over 2^28 lines, and scattered ones are
/// revisited, so groups fill, empty and vanish; zero lines and zero words
/// are frequent, so writes remove as often as they insert.
#[test]
fn store_matches_btreemap_model() {
    let op = gen::tuple4(
        &gen::range_u8(0..6),
        &gen::range_u8(0..3),
        &gen::any_u64(),
        &gen::range_u64(0..4),
    );
    forall(&gen::vec_of(&op, 1..300), |ops| {
        let mut store = LineStore::new();
        let mut model: BTreeMap<u64, Line> = BTreeMap::new();
        let mut seen: Vec<u64> = Vec::new();
        for &(kind, space, raw, small) in ops {
            let addr = match space {
                0 => raw % 256,
                1 => raw % (1 << 28),
                _ => seen
                    .get(raw as usize % seen.len().max(1))
                    .copied()
                    .unwrap_or(raw % 256),
            };
            seen.push(addr);
            let a = LineAddr(addr);
            let offset = (small as usize % 2) * 8;
            let word = if small < 2 { 0 } else { raw | 1 };
            let mut expect = model.get(&addr).copied().unwrap_or_default();
            match kind {
                0 => {
                    let line = if small == 0 {
                        Line::zero()
                    } else {
                        Line::from_words(&[raw, raw.rotate_left(17)])
                    };
                    store.write(a, line);
                    expect = line;
                }
                1 => {
                    store.write_u64(a, offset, word);
                    expect.write_u64(offset, word);
                }
                2 => {
                    expect.write_u64(offset, word);
                    assert_eq!(
                        store.update_u64(a, offset, word),
                        expect,
                        "update_u64 at {addr}"
                    );
                }
                _ => {}
            }
            if expect.is_zero() {
                model.remove(&addr);
            } else {
                model.insert(addr, expect);
            }
            assert_eq!(store.read(a), expect, "read at {addr}");
            assert_eq!(store.read_u64(a, offset), expect.read_u64(offset));
            assert_eq!(store.len(), model.len());
            assert_eq!(store.is_empty(), model.is_empty());
        }
        let listed: Vec<(u64, Line)> = store.iter().map(|(a, l)| (a.0, *l)).collect();
        let want: Vec<(u64, Line)> = model.iter().map(|(a, l)| (*a, *l)).collect();
        assert_eq!(listed, want, "iter is the model in ascending order");
        let rebuilt: LineStore = model.iter().map(|(a, l)| (LineAddr(*a), *l)).collect();
        assert!(store.same_contents(&rebuilt) && rebuilt.same_contents(&store));
        let copy = store.clone();
        assert!(copy.same_contents(&store));
        assert_eq!(copy.iter().count(), model.len());
        if let Some((&first, _)) = model.iter().next() {
            // Same length, one line moved to an address the model lacks.
            let free = (0..).find(|a| !model.contains_key(a)).expect("a free line");
            let mut moved = store.clone();
            moved.write(LineAddr(first), Line::zero());
            assert!(!moved.same_contents(&store) && !store.same_contents(&moved));
            moved.write(LineAddr(free), Line::splat(7));
            assert_eq!(moved.len(), store.len());
            assert!(!moved.same_contents(&store) && !store.same_contents(&moved));
        }
    });
}

/// LineStore reads return exactly the last write per line.
#[test]
fn store_last_write_wins() {
    let writes = gen::vec_of(&gen::pair(&gen::range_u64(0..16), &gen::any_u8()), 1..100);
    forall(&writes, |writes| {
        let mut s = LineStore::new();
        let mut model = std::collections::HashMap::new();
        for (addr, b) in writes {
            s.write(LineAddr(*addr), Line::splat(*b));
            model.insert(*addr, *b);
        }
        for (addr, b) in model {
            assert_eq!(s.read(LineAddr(addr)), Line::splat(b));
        }
    });
}
