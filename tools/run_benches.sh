#!/usr/bin/env bash
# Run every bench the build declares, optionally writing BENCH_<name>.json.
#
# Usage: run_benches.sh BUILD_DIR [JSON_DIR] [FILTER_REGEX]
#   BUILD_DIR     cmake build directory containing the bench binaries
#   JSON_DIR      output directory for BENCH_*.json ("" = no JSON)
#   FILTER_REGEX  only run benches whose name matches (default: all)
#
# The run list is BUILD_DIR/benches.txt, which the top-level CMakeLists
# writes from its bench list: adding a bench is ONE CMakeLists edit, the
# CI workflow never hard-codes a run list, and a binary left in BUILD_DIR
# by a bench since removed never runs. Workload sizing comes from the
# usual env knobs (MOBICEAL_BENCH_MB, MOBICEAL_BENCH_REPS,
# MOBICEAL_QUEUE_DEPTH, MOBICEAL_STRIPES, ...).
#
# Exit status is nonzero if the list is missing, a listed bench is not
# built or fails its built-in gates (benches exit nonzero on state
# divergence / lost speedups), a bench writes a JSON that has no baseline
# in bench/baselines/, or nothing matched.
set -euo pipefail

build_dir=${1:?usage: run_benches.sh BUILD_DIR [JSON_DIR] [FILTER_REGEX]}
json_dir=${2:-}
filter=${3:-.}
baselines="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/bench/baselines"
list="$build_dir/benches.txt"

if [ ! -f "$list" ]; then
  echo "run_benches: $list missing; configure $build_dir with cmake" >&2
  exit 1
fi
if [ -n "$json_dir" ]; then
  mkdir -p "$json_dir"
fi

status=0
ran=0
failed=""
# The list is read on fd 3 so a bench that reads stdin cannot eat it.
while read -r name <&3; do
  [ -n "$name" ] || continue
  echo "$name" | grep -Eq -- "$filter" || continue
  ran=$((ran + 1))
  echo "== $name =="
  bench="$build_dir/$name"
  if [ -n "$json_dir" ]; then
    json="BENCH_${name#bench_}.json"
    "$bench" --json "$json_dir/$json" || {
      status=1
      failed="$failed $name"
    }
    if [ -f "$json_dir/$json" ] && [ ! -f "$baselines/$json" ]; then
      echo "run_benches: $name wrote $json, which has no baseline in" \
        "bench/baselines/" >&2
      status=1
      failed="$failed $name(no-baseline)"
    fi
  else
    "$bench" || {
      status=1
      failed="$failed $name"
    }
  fi
  echo
done 3< "$list"

if [ "$ran" -eq 0 ]; then
  echo "run_benches: no bench matched '$filter' in $list" >&2
  exit 1
fi
if [ "$status" -ne 0 ]; then
  echo "run_benches: FAILED:$failed" >&2
fi
echo "run_benches: ran $ran bench(es)"
exit $status
