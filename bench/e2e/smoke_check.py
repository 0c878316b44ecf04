#!/usr/bin/env python3
"""Smoke checks for the end-to-end benchmark binary (run by ctest).

Workload mode runs one workload at smoke size with --seconds 0 (a warm-up
and two timed repetitions), untraced and traced, and checks that:
  * each run exits 0 and its last stdout line is the JSON result with
    exactly the keys correct/attempted/failed/metrics, correct and no
    failed request;
  * the untraced run prints every end_to_end metric of BENCHMARK.json and
    the traced run every per_layer one, each with its declared unit;
  * every metric name matches [A-Za-z0-9_.-]+;
  * the trace file loads as Chrome trace-event JSON;
  * the traced run's accounting identities hold (the binary prints
    "CHECK FAILED" and exits nonzero otherwise).

--refuse mode checks that a run with MOBICEAL_STRIPES=4 in the
environment exits nonzero without printing a result.

Stdlib only.
"""

import argparse
import json
import os
import re
import subprocess
import sys

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_result(doc, declared, label):
    errors = []
    if doc is None:
        return [f"{label}: last stdout line is not a JSON object"]
    if set(doc) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(doc)}")
    if doc.get("correct") is not True:
        errors.append(f"{label}: correct is {doc.get('correct')!r}")
    if doc.get("failed") != 0 or not doc.get("attempted"):
        errors.append(f"{label}: attempted {doc.get('attempted')!r}, "
                      f"failed {doc.get('failed')!r}")
    metrics = doc.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"{label}: metrics missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if not NAME_RE.fullmatch(name):
            errors.append(f"{label}: bad metric name {name!r}")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, "
                          f"declared {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} value {m.get('value')!r}")
    return errors


def check_workload(args):
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    os.makedirs(args.out, exist_ok=True)
    errors = []
    base = [args.binary, "--workload", args.workload, "--smoke",
            "--seconds", "0", "--trace-dir", args.out]
    for trace, declared in (("0", bench["end_to_end"]),
                            ("1", bench["per_layer"])):
        label = f"{args.workload} --trace {trace}"
        code, out, err = run(base + ["--trace", trace])
        if code != 0:
            errors.append(f"{label}: exit {code}\n{out}{err}")
            continue
        errors += check_result(result_line(out), declared, label)
        errors += [f"{label}: {line}" for line in out.splitlines()
                   if line.startswith("CHECK FAILED")]
    trace_path = os.path.join(args.out, f"{args.workload}.trace.json")
    try:
        with open(trace_path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("ph") == "X" for e in events):
            errors.append(f"{trace_path}: no span events")
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"{trace_path}: does not load: {e}")
    return errors


def check_refuse(args):
    env = dict(os.environ, MOBICEAL_STRIPES="4")
    code, out, _ = run([args.binary, "--workload", "paper_dd", "--smoke",
                        "--seconds", "0"], env)
    errors = []
    if code == 0:
        errors.append("run with MOBICEAL_STRIPES=4 exited 0")
    if result_line(out) is not None:
        errors.append("run with MOBICEAL_STRIPES=4 printed a result")
    return errors


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--binary", required=True)
    p.add_argument("--benchmark", help="BENCHMARK.json")
    p.add_argument("--workload")
    p.add_argument("--out", help="directory for trace files")
    p.add_argument("--refuse", action="store_true")
    args = p.parse_args()
    if args.refuse:
        errors = check_refuse(args)
    elif args.workload and args.benchmark and args.out:
        errors = check_workload(args)
    else:
        p.error("need --refuse, or --workload with --benchmark and --out")
    for e in errors:
        print(e)
    print("FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
