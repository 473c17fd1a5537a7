#!/usr/bin/env bash
# Regenerates the benchmark reports at the repo root:
#   BENCH_PR2.json  bench_search_report — plan-space-search optimizations
#                   (closure dedup, DPccp vs all-masks DP, borrowed keys)
#   BENCH_PR3.json  bench_server — fro_serve under open-loop load, plan
#                   cache off vs on (QPS, p50/p99, hit rate)
#   BENCH_PR6.json  bench_parallel — morsel-driven parallel scaling at
#                   1/2/4/8 workers (records hardware_concurrency)
#   BENCH_PR7.json  bench_batch — columnar batch executor throughput on
#                   scan/filter/hash-join pipelines (streaming +
#                   materializing; median of >=5 reps with min/max)
#   BENCH_PR8.json  bench_wcoj — leapfrog multiway join vs the best
#                   binary plan on cyclic cores (triangle, 4-cycle,
#                   diamond; speedup_vs_binary per scale)
#   BENCH_PR9.json  bench_acyclic — cost-gated Yannakakis semijoin
#                   program vs the best binary plan on skewed acyclic
#                   chains (speedup_vs_binary per scale)
#   BENCH_PR10.json bench_feedback — static plan vs the cardinality-
#                   feedback re-plan on a mispriced skewed chain
#                   (speedup_vs_static and max_q_error per scale)
#
# BENCH_PR4.json stays frozen as the pre-columnar row-batch baseline
# the PR 7 speedup target is measured against; bench_batch now writes
# BENCH_PR7.json, and scripts/bench_compare.py gates regressions of
# PR7 against its committed copy.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   reduced sizes / request counts (CI sanity run)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-bench
SMOKE=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_search_report bench_server bench_batch bench_parallel bench_wcoj bench_acyclic bench_feedback -j"$(nproc)"
"$BUILD_DIR/bench/bench_search_report" $SMOKE > BENCH_PR2.json
echo "wrote BENCH_PR2.json:"
cat BENCH_PR2.json
"$BUILD_DIR/bench/bench_server" $SMOKE > BENCH_PR3.json
echo "wrote BENCH_PR3.json:"
cat BENCH_PR3.json
"$BUILD_DIR/bench/bench_batch" $SMOKE > BENCH_PR7.json
echo "wrote BENCH_PR7.json:"
cat BENCH_PR7.json
"$BUILD_DIR/bench/bench_parallel" $SMOKE > BENCH_PR6.json
echo "wrote BENCH_PR6.json:"
cat BENCH_PR6.json
"$BUILD_DIR/bench/bench_wcoj" $SMOKE > BENCH_PR8.json
echo "wrote BENCH_PR8.json:"
cat BENCH_PR8.json
"$BUILD_DIR/bench/bench_acyclic" $SMOKE > BENCH_PR9.json
echo "wrote BENCH_PR9.json:"
cat BENCH_PR9.json
"$BUILD_DIR/bench/bench_feedback" $SMOKE > BENCH_PR10.json
echo "wrote BENCH_PR10.json:"
cat BENCH_PR10.json
