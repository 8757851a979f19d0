#!/usr/bin/env bash
# Full verification sweep: a regular build + test run, a build of the
# wall-clock benchmark (perfbench/, a CMake package of its own that
# compiles against src/ and that the regular build never compiles), a
# second build with AddressSanitizer + UBSanitizer (-DPEP_SANITIZE=ON)
# and the same test run under it, then a ThreadSanitizer build
# (-DPEP_SANITIZE=thread) running the `runtime`-labelled tests (the
# only ones with real OS-thread concurrency, and the engine state they
# share).
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
    local build_dir=$1
    shift
    cmake -B "$build_dir" -S . "$@" >/dev/null
    cmake --build "$build_dir" -j "$(nproc)"
    ctest --test-dir "$build_dir" --output-on-failure "${CTEST_ARGS[@]}"
}

CTEST_ARGS=("$@")

echo "== check.sh: regular build =="
run_suite build

echo "== check.sh: perfbench build =="
cmake -S perfbench -B build-perfbench \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-perfbench -j "$(nproc)" --target perfbench

echo "== check.sh: ASan+UBSan build =="
run_suite build-sanitize -DPEP_SANITIZE=ON

echo "== check.sh: TSan build (runtime suites) =="
cmake -B build-tsan -S . -DPEP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" --target runtime_test \
    parallel_runner_test fusion_test pep_fuzz tab_transport tab_concurrency
ctest --test-dir build-tsan --output-on-failure -L runtime \
    "${CTEST_ARGS[@]}"

echo "== check.sh: all suites passed =="
