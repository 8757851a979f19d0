#!/usr/bin/env bash
# Harness performance run: emits BENCH_PR4.json (cooperative-scheduler
# PEP overhead/accuracy per virtual-thread count, throughput worker
# scaling, and the sharded-vs-mutex-vs-ring aggregation comparison),
# BENCH_PR7.json (the SPSC ring sample transport under sustained
# load: requests/sec at >= 16 workers, drop rate vs ring capacity,
# window staleness, and memory flatness — see docs/RUNTIME.md),
# BENCH_PR8.json (k-BLPP: distinct k-paths vs acyclic paths, composite
# window fraction, hot concentration, and the window-bookkeeping
# overhead across k — see docs/KBLPP.md), and BENCH_PR10.json (the
# PEP_ENGINE x PEP_FUSE dispatch matrix: superinstruction pairs and
# straightened hot traces vs the plain threaded engine, ns/instruction,
# edges/sec, stream anatomy, and the observable byte-identity plus
# 1.20x speedup gates — see docs/ENGINE.md). Engine dispatch cost per
# instruction is perfbench's `vm.switch_ns_per_instr` /
# `vm.dispatch_ns_per_instr` (perfbench/README.md).
#
# Usage: scripts/bench.sh [concurrency.json] [transport.json]
#                         [kiter.json] [fusion.json]
# Environment: PEP_BENCH_SCALE, PEP_BENCH_ONLY, PEP_BENCH_THREADS.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_CONCURRENCY=${1:-BENCH_PR4.json}
OUT_TRANSPORT=${2:-BENCH_PR7.json}
OUT_KITER=${3:-BENCH_PR8.json}
OUT_FUSION=${4:-BENCH_PR10.json}

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target tab_concurrency \
    tab_transport tab_kiter tab_fusion

./build/bench/tab_concurrency "$OUT_CONCURRENCY"
./build/bench/tab_transport "$OUT_TRANSPORT"
./build/bench/tab_kiter "$OUT_KITER"
./build/bench/tab_fusion "$OUT_FUSION"
echo "bench.sh: results in $OUT_CONCURRENCY, $OUT_TRANSPORT, $OUT_KITER and $OUT_FUSION"
