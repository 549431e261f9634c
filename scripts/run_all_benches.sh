#!/usr/bin/env bash
# Runs every figure/table/ablation bench sequentially and tees the combined
# output. Usage: scripts/run_all_benches.sh [outfile] [extra bench args...]
# e.g. scripts/run_all_benches.sh bench_output.txt --quick --jobs=4
#
# Extra args are passed to every figure/table bench; --jobs=N runs each
# bench's simulations on N worker threads (tables are byte-identical for any
# N, so parallelism is purely a wall-clock lever). The google-benchmark
# micro-benchmarks take their own flags and are special-cased.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench_output.txt}"
shift || true

{
  for b in build/bench/bench_*; do
    name="$(basename "$b")"
    echo "### $name"
    if [ "$name" = bench_micro_components ]; then
      # google-benchmark >= 1.8 wants a unit suffix; older versions reject it.
      "$b" --benchmark_min_time=0.05s 2>/dev/null ||
        "$b" --benchmark_min_time=0.05
    else
      "$b" --quiet "$@"
    fi
    echo
  done
} 2>&1 | tee "$out"
