#!/usr/bin/env bash
# Static-analysis sweep, mirrored by the CI `static-analysis` job:
#
#  1. configure with an exported compile_commands.json and run
#     clang-tidy (profile in .clang-tidy: bugprone-*, performance-*,
#     concurrency-*) over every source file under src/, failing on any
#     warning;
#  2. build the pep-verify tool and run the symbolic verification
#     passes (docs/ANALYSIS.md) over the examples and the fuzz corpus;
#  3. run the fuzzer's static-catch self-test: the impossible-profile
#     injection must be rejected.
#
# clang-tidy is optional locally: when the binary is absent, step 1 is
# skipped with a notice (the container image does not ship it; CI
# installs it). Usage: scripts/static_analysis.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-static}

cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static_analysis.sh: clang-tidy over src/ =="
    # xargs -P parallelizes across files; any finding fails the sweep
    # (WarningsAsErrors in .clang-tidy covers every enabled group).
    find src -name '*.cc' -print0 |
        xargs -0 -P "$(nproc)" -n 4 \
            clang-tidy -p "$BUILD_DIR" --quiet
else
    echo "== static_analysis.sh: clang-tidy not found, skipping lint =="
fi

echo "== static_analysis.sh: pep-verify over examples and corpus =="
cmake --build "$BUILD_DIR" -j "$(nproc)" --target pep_verify pep_fuzz
"$BUILD_DIR"/tools/pep_verify --quiet examples/programs/*.pepasm
"$BUILD_DIR"/tools/pep_verify --quiet tests/corpus/*.pepasm

echo "== static_analysis.sh: fault-injection self-test =="
"$BUILD_DIR"/tools/pep_fuzz --iters 6 --seed 11 \
    --configs headersplit-direct --inject impossible-profile \
    --expect-caught --no-shrink

echo "== static_analysis.sh: passed =="
