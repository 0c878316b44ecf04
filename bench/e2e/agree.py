#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results against BENCHMARK.json.

    python3 bench/e2e/agree.py BEFORE_DIR AFTER_DIR [--benchmark FILE]

Each directory holds result files written by `run.sh` (mobiceal_e2e
--out), one JSON file per run; several runs of one workload are pooled.
For every workload found on both sides and every end_to_end metric, it
prints each side's median and quartiles and a verdict:

  ok          AFTER's median is not worse than BEFORE's by more than the
              metric's bound
  regressed   it is worse by more than the bound
  unresolved  the spread between the quartiles, as a share of the median,
              exceeds the bound on either side: the runs cannot tell

With one run per workload a side's samples are that run's timed
repetitions; with several runs they are each run's reported value (the
median of its repetitions, or for host_s the fastest of them). Where
both sides ran the same seed, the virtual metrics and the final-image
digest must be bit-identical, and any difference is printed.

Exit status 0 when every verdict is ok and the virtual results agree, 1
otherwise. Stdlib only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "..", "..", "BENCHMARK.json")


def load_side(directory):
    """{workload: [result documents]} from every results file in a dir."""
    side = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            side.setdefault(doc["workload"], []).append(doc)
    return side


def samples(docs, metric):
    present = [d["metrics"][metric] for d in docs if metric in d["metrics"]]
    if len(present) == 1:
        return list(present[0].get("samples") or [present[0]["value"]])
    return [m["value"] for m in present]


def summary(values):
    """(median, q1, q3) with Python's default quartile method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def relative_spread(med, q1, q3):
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return abs(q3 - q1) / abs(med)


def verdict(before, after, bound, better):
    """(verdict, worse) for two sample lists; `worse` is the share by which
    AFTER's median is worse than BEFORE's (negative: better)."""
    b_med, b_q1, b_q3 = summary(before)
    a_med, a_q1, a_q3 = summary(after)
    if b_med == 0:
        worse = 0.0 if a_med == 0 else float("inf")
    elif better == "higher":
        worse = (b_med - a_med) / abs(b_med)
    else:
        worse = (a_med - b_med) / abs(b_med)
    spread = max(relative_spread(b_med, b_q1, b_q3),
                 relative_spread(a_med, a_q1, a_q3))
    if spread > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def virtual_differences(workload, before_docs, after_docs):
    """(differences, pairs compared) between same-seed runs' virtual
    results."""
    problems, pairs = [], 0
    after_by_seed = {d.get("seed"): d for d in after_docs}
    for b in before_docs:
        a = after_by_seed.get(b.get("seed"))
        if a is None:
            continue
        pairs += 1
        if b.get("digest") != a.get("digest"):
            problems.append(f"{workload} seed {b.get('seed')}: final image "
                            f"digest {b.get('digest')} -> {a.get('digest')}")
        bv, av = b.get("virtual", {}), a.get("virtual", {})
        for name in sorted(set(bv) | set(av)):
            if bv.get(name) != av.get(name):
                problems.append(f"{workload} seed {b.get('seed')}: {name} "
                                f"{bv.get(name)!r} -> {av.get(name)!r}")
    return problems, pairs


def compare(benchmark, before, after):
    """Rows (workload, metric, before, after, verdict, worse), the virtual
    differences and the number of same-seed pairs, for two loaded sides."""
    rows, problems, pairs = [], [], 0
    for workload in sorted(set(before) & set(after)):
        for m in benchmark["end_to_end"]:
            b = samples(before[workload], m["name"])
            a = samples(after[workload], m["name"])
            if not b or not a:
                continue
            v, worse = verdict(b, a, m["bound"], m["better"])
            rows.append((workload, m["name"], b, a, v, worse))
        diffs, n = virtual_differences(workload, before[workload],
                                       after[workload])
        problems += diffs
        pairs += n
    return rows, problems, pairs


def fmt(values):
    med, q1, q3 = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Compare two end-to-end benchmark result directories.")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = p.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    rows, problems, pairs = compare(benchmark, load_side(args.before),
                                    load_side(args.after))
    if not rows:
        print("no workload has results on both sides")
        return 1
    print(f"{'workload':12} {'metric':18} {'before median [q1, q3]':34} "
          f"{'after median [q1, q3]':34} {'worse':>8}  verdict")
    for workload, metric, b, a, v, worse in rows:
        print(f"{workload:12} {metric:18} {fmt(b):34} {fmt(a):34} "
              f"{worse:+8.2%}  {v}")
    if problems:
        print("virtual results differ:")
        for line in problems:
            print("  " + line)
    else:
        print(f"virtual results: bit-identical in all {pairs} same-seed "
              "pairs")
    bad = [r for r in rows if r[4] != "ok"]
    print(f"{len(rows) - len(bad)} of {len(rows)} ok")
    return 1 if bad or problems else 0


if __name__ == "__main__":
    sys.exit(main())
