//! Micro-benchmarks for the micro-architectural models: caches, Merkle
//! tree, SECDED codec, dedup store, sub-operation scheduling.

use janus_bench::timing::BenchHarness;
use janus_bmo::dedup::DedupStore;
use janus_bmo::ecc;
use janus_bmo::engine::{BmoEngine, BmoMode};
use janus_bmo::integrity::MerkleTree;
use janus_bmo::latency::BmoLatencies;
use janus_bmo::BmoStack;
use janus_nvm::addr::LineAddr;
use janus_nvm::cache::{CacheConfig, SetAssocCache};
use janus_nvm::line::Line;
use janus_sim::time::Cycles;
use std::hint::black_box;

fn main() {
    let h = BenchHarness::new();
    h.group("micro-architectural models");

    {
        let mut cache = SetAssocCache::new(CacheConfig::l1d());
        cache.access(LineAddr(1), false);
        h.bench("cache_access_hit", || {
            cache.access(black_box(LineAddr(1)), false)
        });
    }

    {
        let mut cache = SetAssocCache::new(CacheConfig::l1d());
        let mut i = 0u64;
        h.bench("cache_access_miss_evict", || {
            i += 128; // new set-conflicting line each time
            cache.access(LineAddr(i), true)
        });
    }

    {
        // Leaf updates are lazy (a pending-map insert); hashing happens on
        // the next root observation, so that is what a meaningful sample
        // must include.
        let mut t = MerkleTree::new(8);
        let mut i = 0u64;
        h.bench("merkle_update_leaf_and_root", || {
            i = (i + 1) % 1_000_000;
            t.update_leaf(black_box(i), &Line::from_words(&[i]));
            t.root()
        });
    }

    {
        let mut i = 0u64;
        h.bench("ecc_encode_line", || {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            ecc::encode_line(&Line::from_words(&[i, !i, i << 1, i >> 3]))
        });
    }

    {
        let line = Line::from_words(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let checks = ecc::encode_line(&line);
        let mut bad = line;
        bad.write_u64(24, line.read_u64(24) ^ (1 << 17));
        h.bench("ecc_decode_line", || {
            ecc::decode_line(black_box(&bad), black_box(&checks))
        });
    }

    {
        let mut d = DedupStore::new();
        d.lookup(&Line::splat(1));
        h.bench("dedup_lookup_hit", || {
            let out = d.lookup(black_box(&Line::splat(1)));
            d.release(out.slot());
            out
        });
    }

    {
        // The allocate/unlink path: each sample's value is new to the
        // table, takes the freed slot, and is unlinked again on release.
        // Values cycle through a fixed set of 1024, so every sample walks
        // the same chains; 1024 other values stay live around them.
        let mut d = DedupStore::new();
        for v in 0..1024u64 {
            d.lookup(&Line::from_words(&[v, 1]));
        }
        let mut i = 0u64;
        h.bench("dedup_fresh_then_release", || {
            i = (i + 1) % 1024;
            let out = d.lookup(black_box(&Line::from_words(&[i, 2])));
            d.release(out.slot());
            out
        });
    }

    {
        let mut e = BmoEngine::new(
            BmoStack::paper().graph(&BmoLatencies::paper()),
            BmoMode::Parallelized,
            4,
        );
        let mut t = 0u64;
        h.bench("bmo_engine_submit_retire", || {
            t += 10_000;
            let j = e.submit(Cycles(t), Some(Cycles(t)), Some(Cycles(t)), false);
            let done = e.completion(j);
            e.retire(j);
            black_box(done)
        });
    }
}
