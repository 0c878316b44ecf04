#!/usr/bin/env bash
# Run every built bench_* binary, optionally writing BENCH_<name>.json.
#
# Usage: run_benches.sh BUILD_DIR [JSON_DIR] [FILTER_REGEX]
#   BUILD_DIR     cmake build directory containing the bench binaries
#   JSON_DIR      output directory for BENCH_*.json ("" = no JSON)
#   FILTER_REGEX  only run benches whose basename matches (default: all)
#
# Adding a bench is ONE CMakeLists edit: anything built as bench_* is
# picked up automatically, so the CI workflow never hard-codes a run list.
# Workload sizing comes from the usual env knobs (MOBICEAL_BENCH_MB,
# MOBICEAL_BENCH_REPS, MOBICEAL_QUEUE_DEPTH, MOBICEAL_STRIPES, ...).
#
# Exit status is nonzero if any bench fails its built-in gates (benches
# exit nonzero on state divergence / lost speedups) or nothing matched.
set -euo pipefail

build_dir=${1:?usage: run_benches.sh BUILD_DIR [JSON_DIR] [FILTER_REGEX]}
json_dir=${2:-}
filter=${3:-.}

if [ -n "$json_dir" ]; then
  mkdir -p "$json_dir"
fi

status=0
ran=0
failed=""
for bench in "$build_dir"/bench_*; do
  [ -x "$bench" ] && [ -f "$bench" ] || continue
  name=$(basename "$bench")
  case "$name" in
    *.*) continue ;;  # stray artifacts (bench_foo.json etc.)
  esac
  echo "$name" | grep -Eq -- "$filter" || continue
  ran=$((ran + 1))
  echo "== $name =="
  if [ -n "$json_dir" ]; then
    "$bench" --json "$json_dir/BENCH_${name#bench_}.json" || {
      status=1
      failed="$failed $name"
    }
  else
    "$bench" || {
      status=1
      failed="$failed $name"
    }
  fi
  echo
done

if [ "$ran" -eq 0 ]; then
  echo "run_benches: no bench matched '$filter' in $build_dir" >&2
  exit 1
fi
if [ "$status" -ne 0 ]; then
  echo "run_benches: FAILED:$failed" >&2
fi
echo "run_benches: ran $ran bench(es)"
exit $status
