#!/usr/bin/env sh
# Regenerates every figure/table result under results/, in both formats:
#
#   results/<name>.txt        — the binary's human-readable table (as before)
#   results/json/<name>.jsonl — one JSON object per simulation run, emitted
#                               by the janus-bench harness via the
#                               JANUS_RESULTS_JSON_DIR sink
#
# plus the quickstart observability artifacts:
#
#   results/quickstart.trace.json   — Chrome trace-event file (Perfetto)
#   results/quickstart.metrics.json — the run's metrics registry
#
# and the causal-profiling artifacts (janus-prof):
#
#   results/profile.txt             — cycle accounting, critical path, p99
#                                     blame, utilization, folded flamegraph
#   results/profile.json            — the same profile, janus-profile-v1
#
# and the autofix artifact (janus-lint --fix):
#
#   results/lint-fix.txt            — the seeded-misuse corpus repaired by
#                                     the autofix engine, plus the 4-tenant
#                                     shared-policy IRB-contention bound
#
# Extra arguments are forwarded to every figure binary (e.g.
# `scripts/regen_results.sh --tx 40` for a quick pass, or
# `scripts/regen_results.sh --jobs 8` to fan each binary's sweep across 8
# worker threads — results are byte-identical at any worker count; setting
# JANUS_JOBS=8 instead works too). With no arguments the pass reproduces the
# committed results/ byte for byte, which CI checks with
# `git diff --exit-code -- results/`. Hermetic: builds and runs with
# --locked --offline only.
set -eu

cd "$(dirname "$0")/.."

BINS="fig1 fig3 fig6 fig9 fig10 fig11 fig12 fig13 fig14 table1 table4 overhead ablation endurance extended misuse skew janus-lint multicore janus-sweep"

echo "==> building janus-bench (release, locked, offline)"
cargo build --release --locked --offline -p janus-bench

mkdir -p results/json
rm -f results/json/*.jsonl

for bin in $BINS; do
    echo "==> $bin"
    JANUS_RESULTS_JSON_DIR=results/json \
        cargo run --release --locked --offline -p janus-bench --bin "$bin" -- "$@" \
        > "results/$bin.txt"
done

echo "==> janus-lint --fix (seeded corpus + IRB bound)"
cargo run --release --locked --offline -p janus-bench --bin janus-lint -- \
    --all --seeded --fix --tenants 4 --irb-policy shared "$@" \
    > results/lint-fix.txt

echo "==> quickstart trace + metrics"
cargo run --release --locked --offline --example quickstart -- \
    --trace results/quickstart.trace.json \
    --metrics results/quickstart.metrics.json > /dev/null
cargo run --release --locked --offline -p janus-trace --example validate_trace -- \
    results/quickstart.trace.json

echo "==> causal profile (janus-prof)"
cargo run --release --locked --offline -p janus-bench --bin janus-prof -- "$@" \
    --out results/profile.txt --json results/profile.json > /dev/null
cargo run --release --locked --offline -p janus-trace --example validate_trace -- \
    results/profile.json

echo "==> results regenerated: results/*.txt, results/json/*.jsonl"
