#!/usr/bin/env bash
# Full verification: configure, build, run the test suite, and optionally
# the benchmark harness and/or a sanitizer pass.
# Usage: scripts/check.sh [--bench] [--asan]   (flags combine, any order)
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
run_asan=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --asan) run_asan=1 ;;
    *)
      echo "unknown argument: $arg" >&2
      echo "usage: scripts/check.sh [--bench] [--asan]" >&2
      exit 2
      ;;
  esac
done

# Pick a generator only for fresh build trees; an existing cache keeps its
# generator (passing -G against a differently-configured cache is an error).
generator_args() {
  local build_dir="$1"
  if [[ ! -f "$build_dir/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
    echo "-G Ninja"
  fi
}

# shellcheck disable=SC2046
cmake -B build $(generator_args build)
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

if [[ "$run_asan" == 1 ]]; then
  # shellcheck disable=SC2046
  cmake -B build-asan $(generator_args build-asan) -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure
fi

if [[ "$run_bench" == 1 ]]; then
  # One harness per bench/*.cc; a build tree can still hold binaries of
  # harnesses that were since deleted, so never glob build/bench/.
  for src in bench/*.cc; do
    b="build/bench/$(basename "$src" .cc)"
    echo "===== $b ====="
    "$b"
  done
fi
