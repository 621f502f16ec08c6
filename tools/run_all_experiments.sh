#!/usr/bin/env bash
# Regenerate every experiment recorded in EXPERIMENTS.md.
#
# Usage: tools/run_all_experiments.sh [build-dir] [results-dir] [--full]
#   build-dir    default: build
#   results-dir  default: results
#   --full       paper-size runs (Table II up to 4M, Table III 1000 x 4M —
#                slow on a laptop; omit for the quick shapes-only pass)

set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-results}"
FULL=""
for arg in "$@"; do
  [ "$arg" = "--full" ] && FULL="--full"
done

mkdir -p "$OUT"
BENCH="$BUILD/bench"

run() {
  local name="$1"; shift
  echo "== $name $*"
  "$BENCH/$name" "$@" | tee "$OUT/$name.txt"
}

run bench_table1_rounds --n 65536
run bench_table2 --type both $FULL
run bench_table3_random ${FULL:+--full}
run bench_fig3_pipeline
run bench_fig5_coloring
run bench_distribution --n 1M
run bench_ablation_l2 --max 2M
run bench_ablation_columnwise --max 1M
run bench_ablation_passes --n 1M
run bench_plan_build --max 1M
run bench_shared_permutation
run bench_ablation_omega
run bench_ablation_blockcap --max 8M
run bench_ablation_packed --n 1M
run bench_machine_sweep --n 1M

# Runtime serving layer: cold/warm plan acquisition + batched execution.
# The JSON-lines rows also land in $OUT/BENCH_runtime_cache.json for the
# cross-PR performance trajectory.
RUNTIME_MAX=1M
[ -n "$FULL" ] && RUNTIME_MAX=4M
run bench_runtime_cache --max "$RUNTIME_MAX"
"$BENCH/bench_runtime_cache" --max 1M --json | grep '^{' > "$OUT/BENCH_runtime_cache.json"

# Service replay: Zipf trace through the plan cache + async executor.
echo "== permd_replay"
"$BUILD/tools/permd_replay" --n 64K --perms 24 --requests 400 --verify --json \
  | tee "$OUT/permd_replay.txt"

# google-benchmark microbenches (machine-speed dependent; kept brief).
"$BENCH/bench_kernels" --benchmark_min_time=0.05 | tee "$OUT/bench_kernels.txt"
"$BENCH/bench_ablation_coloring" --benchmark_min_time=0.05 | tee "$OUT/bench_ablation_coloring.txt"
"$BENCH/bench_ablation_tile" --benchmark_min_time=0.05 | tee "$OUT/bench_ablation_tile.txt"

echo
echo "All outputs in $OUT/"
