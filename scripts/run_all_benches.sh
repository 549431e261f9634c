#!/usr/bin/env bash
# Runs every figure/table/ablation bench sequentially and tees the combined
# output. Usage: scripts/run_all_benches.sh [outfile] [extra bench args...]
# e.g. scripts/run_all_benches.sh bench_output.txt --quick --jobs=4
#
# Extra args are passed to every figure/table bench; --jobs=N runs each
# bench's simulations on N worker threads (tables are byte-identical for any
# N, so parallelism is purely a wall-clock lever).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench_output.txt}"
shift || true

{
  for b in build/bench/bench_*; do
    name="$(basename "$b")"
    echo "### $name"
    "$b" --quiet "$@"
    echo
  done
} 2>&1 | tee "$out"
