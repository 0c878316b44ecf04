#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (see bench/e2e/README.md).
#
#   bash bench/e2e/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                         [--trace 0|1] [--trace-dir DIR] [--layers]
#                         [--smoke] [--results DIR]
#
# Configures bench/e2e into build-e2e/ (Release) on first use, builds it,
# then runs each workload (default: all four) in its own process and
# writes DIR/<workload>.json (default DIR: bench/e2e/results; traces go
# there too unless --trace-dir says otherwise). Build output goes to
# stderr, so with one --workload the last line on stdout is that
# workload's JSON result. Exits nonzero if the build or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
results="$here/results"
workloads=()
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --results) results="$2"; shift 2 ;;
    --layers | --smoke) args+=("$1"); shift ;;
    --seed | --seconds | --trace | --trace-dir)
      args+=("$1" "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(paper_dd app_fsync striped_qd8 ftl_gc)
fi

# Compiler scratch files stay inside the build tree.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mobiceal_e2e -j "$(nproc)" >&2

mkdir -p "$results"
status=0
for w in "${workloads[@]}"; do
  "$build/mobiceal_e2e" --workload "$w" --trace-dir "$results" \
    --out "$results/$w.json" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
