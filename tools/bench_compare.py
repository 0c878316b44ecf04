#!/usr/bin/env python3
"""Diff bench JSON files (or whole directories) and gate on regressions.

Usage: bench_compare.py BASELINE.json CURRENT.json [options]
       bench_compare.py BASELINE_DIR/ CURRENT_DIR/  [options]

Options: [--threshold PCT] [--adv-tolerance ADV]

Bench binaries emit BENCH_<name>.json via --json / MOBICEAL_BENCH_JSON (see
bench/harness.hpp). Metric-name suffixes carry the comparison direction:

  higher is better:  _kbps  _mbps
  lower is better:   _s  _ns
  security canary:   _adv   (distinguisher advantage, absolute gate)

`_adv` metrics are the security-game canaries: a distinguisher's advantage
growing by more than --adv-tolerance (absolute, default 0.05) over the
committed baseline fails the gate — a deniability regression, not a
performance one. Advantages shrinking is always fine. An advantage is at
most 0.5, so a canary whose baseline is at or above 0.5 - --adv-tolerance
can never fire; the summary lists those under their own heading (a note,
not a failure).

Metrics with any other suffix (percentages, counts, derived ratios like
_speedup — whose numerator and denominator are already gated individually)
are informational: printed, never gated.

Directory mode pairs the BENCH_*.json files by name: a bench present in
the candidate directory but missing from the baselines is reported as
"new, skipped (info)" — commit a baseline to start gating it — while a
baseline bench missing from the candidate fails the gate (a gated bench
silently disappearing is a regression). A one-line per-bench summary table
prints at the end in both modes.

The exit code is nonzero iff any tracked metric regresses by more than the
threshold (default 10%), any canary grows beyond tolerance, a compared pair
is from different benches or run configurations (workload_mb /
queue_depth / cache_blocks), a tracked baseline metric disappeared, or a
baseline bench has no candidate file. Virtual-clock benches are
deterministic, so any drift is a real code change, not noise.
"""

import argparse
import json
import os
import sys

HIGHER_BETTER = ("_kbps", "_mbps")
LOWER_BETTER = ("_s", "_ns")
CANARY = ("_adv",)
MAX_ADVANTAGE = 0.5

# Run-configuration metrics: a mismatch means the two files are not
# comparable at all (different workload, device queue model, cache,
# stripe geometry, clock sharding, or flusher policy). Only enforced when
# both files record the key, so baselines from before a knob existed keep
# comparing.
CONFIG_KEYS = ("workload_mb", "queue_depth", "cache_blocks", "stripes",
               "stripe_chunk_blocks", "crypto_lanes", "clock_shards",
               "flusher_dirty_pct", "flusher_deadline_ns", "alloc_shards",
               "fleet_tenants", "mirror_legs", "fault_read_ppm",
               "fault_drop_member", "rebuild_rate_blocks", "ftl_mode",
               "ftl_over_provision_pct", "ftl_pages_per_block")

STATUS_OK = "ok"
STATUS_REGRESSION = "REGRESSION"
STATUS_NEW = "new, skipped (info)"
STATUS_MISSING = "missing from candidate"


def direction(metric: str):
    """+1 higher-is-better, -1 lower-is-better, 2 canary, 0 untracked."""
    if metric.endswith(HIGHER_BETTER):
        return 1
    if metric.endswith(LOWER_BETTER):
        return -1
    if metric.endswith(CANARY):
        return 2
    return 0


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if "bench" not in doc or "metrics" not in doc:
        sys.exit(f"bench_compare: {path} is not a bench JSON file")
    return doc


class BenchReport:
    """Outcome of one baseline/candidate pair (or unpaired file)."""

    def __init__(self, bench, status, compared=0, regressions=None,
                 dead_canaries=None):
        self.bench = bench
        self.status = status
        self.compared = compared
        self.regressions = regressions or []
        self.dead_canaries = dead_canaries or []  # [(metric, baseline)]


def compare_pair(baseline_path, current_path, args) -> BenchReport:
    base = load(baseline_path)
    cur = load(current_path)
    if base["bench"] != cur["bench"]:
        sys.exit(f"bench_compare: comparing different benches: "
                 f"{base['bench']} vs {cur['bench']}")
    # Absolute virtual times scale with the workload and queue model; runs
    # are only comparable at the same configuration (benches record it).
    for key in CONFIG_KEYS:
        bw = base["metrics"].get(key)
        cw = cur["metrics"].get(key)
        if bw is not None and cw is not None and bw != cw:
            sys.exit(f"bench_compare: {key} mismatch: baseline ran "
                     f"{bw:g}, current ran {cw:g} — rerun with a matching "
                     f"configuration")

    regressions = []
    dead_canaries = []
    compared = 0
    print(f"== {base['bench']}: {baseline_path} -> {current_path} "
          f"(threshold {args.threshold:g}%) ==")
    for name, old in base["metrics"].items():
        if name not in cur["metrics"]:
            if direction(name):
                regressions.append(f"{name}: tracked metric disappeared")
            continue
        new = cur["metrics"][name]
        sign = direction(name)
        if sign:
            compared += 1
        if old == 0:
            change = 0.0 if new == 0 else float("inf")
        else:
            change = 100.0 * (new - old) / abs(old)
        if sign == 2:  # security canary: absolute growth gate
            regressed = (new - old) > args.adv_tolerance
            if old >= MAX_ADVANTAGE - args.adv_tolerance:
                dead_canaries.append((name, old))
            detail = f"{new - old:+.3f} abs"
        else:
            regressed = bool(sign) and sign * change < -args.threshold
            detail = f"{change:+.2f}%"
        flag = "REGRESSION" if regressed else (
            "untracked" if not sign else "ok")
        print(f"  {name:44s} {old:14.3f} -> {new:14.3f}  "
              f"{change:+8.2f}%  {flag}")
        if regressed:
            regressions.append(f"{name}: {detail}")

    for name in cur["metrics"]:
        if name not in base["metrics"]:
            print(f"  {name:44s} (new metric, not in baseline)")

    status = STATUS_REGRESSION if regressions else STATUS_OK
    return BenchReport(base["bench"], status, compared, regressions,
                       dead_canaries)


def compare_dirs(baseline_dir, current_dir, args):
    def bench_files(d):
        return sorted(f for f in os.listdir(d)
                      if f.startswith("BENCH_") and f.endswith(".json"))

    reports = []
    base_files = bench_files(baseline_dir)
    cur_files = bench_files(current_dir)
    for fname in base_files:
        cur_path = os.path.join(current_dir, fname)
        if not os.path.exists(cur_path):
            reports.append(BenchReport(fname[len("BENCH_"):-len(".json")],
                                       STATUS_MISSING))
            continue
        reports.append(compare_pair(os.path.join(baseline_dir, fname),
                                    cur_path, args))
        print()
    for fname in cur_files:
        if fname in base_files:
            continue
        # A bench with no committed baseline yet: report, don't gate.
        doc = load(os.path.join(current_dir, fname))
        reports.append(BenchReport(doc["bench"], STATUS_NEW,
                                   compared=len(doc["metrics"])))
    return reports


def print_summary(reports):
    print("== summary ==")
    width = max([len(r.bench) for r in reports] + [5])
    for r in reports:
        if r.status == STATUS_NEW:
            detail = f"{r.compared} metrics (no baseline committed)"
        elif r.status == STATUS_MISSING:
            detail = "baseline has no candidate file"
        else:
            detail = (f"{r.compared} tracked metrics, "
                      f"{len(r.regressions)} regression(s)")
        print(f"  {r.bench:{width}s}  {r.status:24s} {detail}")
    dead = [(r.bench, name, old) for r in reports
            for name, old in r.dead_canaries]
    if dead:
        print(f"== canaries that cannot fire (baseline >= "
              f"{MAX_ADVANTAGE:g} - adv-tolerance; note, not a failure) ==")
        for bench, name, old in dead:
            print(f"  {bench:{width}s}  {name} = {old:.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="baseline JSON file or directory")
    ap.add_argument("current", help="candidate JSON file or directory")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--adv-tolerance", type=float, default=0.05,
                    help="max absolute advantage growth for _adv canaries "
                         "(default 0.05)")
    args = ap.parse_args()

    if os.path.isdir(args.baseline) != os.path.isdir(args.current):
        sys.exit("bench_compare: baseline and current must both be files "
                 "or both be directories")
    if os.path.isdir(args.baseline):
        reports = compare_dirs(args.baseline, args.current, args)
    else:
        reports = [compare_pair(args.baseline, args.current, args)]
        print()

    print_summary(reports)
    failing = [r for r in reports
               if r.status in (STATUS_REGRESSION, STATUS_MISSING)]
    if failing:
        print(f"\n{len(failing)} bench(es) failing the gate:")
        for r in failing:
            for reg in r.regressions or [r.status]:
                print(f"  {r.bench}: {reg}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
