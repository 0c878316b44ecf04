#!/usr/bin/env python3
"""Unit tests for agree.py (python3 -m unittest test_agree)."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import agree

BENCHMARK = {
    "end_to_end": [
        {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "write_kbps", "unit": "KiB/s", "better": "higher",
         "bound": 0.1},
    ]
}


def result(workload, seed, host, kbps, digest="00ff"):
    """A results document as mobiceal_e2e --out writes it."""
    return {
        "workload": workload, "seed": seed, "digest": digest,
        "virtual": {"write_kbps": kbps},
        "metrics": {
            "host_s": {"value": sorted(host)[len(host) // 2], "unit": "s",
                       "samples": host},
            "write_kbps": {"value": kbps, "unit": "KiB/s",
                           "samples": [kbps]},
        },
    }


class SideDir:
    """A temporary results directory."""

    def __init__(self, *docs):
        self.tmp = tempfile.TemporaryDirectory()
        for i, doc in enumerate(docs):
            path = os.path.join(self.tmp.name, f"{doc['workload']}.{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        with open(os.path.join(self.tmp.name, "w.trace.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"traceEvents": []}, f)

    def __enter__(self):
        return self.tmp.name

    def __exit__(self, *exc):
        self.tmp.cleanup()


def compare(before_docs, after_docs):
    with SideDir(*before_docs) as b, SideDir(*after_docs) as a:
        return agree.compare(BENCHMARK, agree.load_side(b),
                             agree.load_side(a))


def verdicts(rows):
    return {(w, m): v for w, m, _, _, v, _ in rows}


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(agree.verdict([1.0, 1.01, 0.99], [1.05, 1.04, 1.06],
                                       0.1, "lower")[0], "ok")

    def test_slower_beyond_bound_regresses(self):
        v, worse = agree.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], 0.1,
                                 "lower")
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(worse, 0.3)

    def test_higher_is_better_direction(self):
        self.assertEqual(agree.verdict([100.0], [80.0], 0.1, "higher")[0],
                         "regressed")
        self.assertEqual(agree.verdict([100.0], [130.0], 0.1, "higher")[0],
                         "ok")

    def test_faster_is_ok(self):
        v, worse = agree.verdict([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 0.1,
                                 "lower")
        self.assertEqual(v, "ok")
        self.assertLess(worse, 0)

    def test_wide_spread_is_unresolved(self):
        noisy = [0.5, 1.0, 1.5, 0.6, 1.4]
        self.assertEqual(agree.verdict([1.0, 1.0, 1.0], noisy, 0.1,
                                       "lower")[0], "unresolved")
        self.assertEqual(agree.verdict(noisy, [1.0, 1.0, 1.0], 0.1,
                                       "lower")[0], "unresolved")


class CompareTest(unittest.TestCase):
    def test_single_run_uses_repetition_samples(self):
        rows, problems, pairs = compare(
            [result("w", 1, [1.0, 1.02, 0.98], 500.0)],
            [result("w", 1, [1.5, 1.52, 1.48], 500.0)])
        self.assertEqual(verdicts(rows)[("w", "host_s")], "regressed")
        self.assertEqual(verdicts(rows)[("w", "write_kbps")], "ok")
        self.assertEqual((problems, pairs), ([], 1))

    def test_several_runs_pool_reported_values(self):
        before = [result("w", s, [1.0 + s / 100], 500.0) for s in range(5)]
        after = [result("w", s, [1.0 + s / 100], 500.0) for s in range(5)]
        rows, problems, pairs = compare(before, after)
        _, _, b, _, v, _ = rows[0]
        self.assertEqual(b, [1.0, 1.01, 1.02, 1.03, 1.04])
        self.assertEqual(v, "ok")
        self.assertEqual((problems, pairs), ([], 5))

    def test_virtual_difference_is_reported(self):
        _, problems, _ = compare([result("w", 1, [1.0], 500.0)],
                                 [result("w", 1, [1.0], 500.5, "0100")])
        self.assertEqual(len(problems), 2)
        self.assertIn("digest", problems[0])
        self.assertIn("write_kbps", problems[1])

    def test_different_seeds_are_not_paired(self):
        _, problems, pairs = compare([result("w", 1, [1.0], 500.0)],
                                     [result("w", 2, [1.0], 501.0, "aa")])
        self.assertEqual((problems, pairs), ([], 0))

    def test_workloads_on_one_side_only_are_skipped(self):
        rows, _, _ = compare([result("a", 1, [1.0], 1.0)],
                             [result("b", 1, [1.0], 1.0)])
        self.assertEqual(rows, [])


class MainTest(unittest.TestCase):
    def run_main(self, before_docs, after_docs):
        with SideDir(*before_docs) as b, SideDir(*after_docs) as a, \
                tempfile.NamedTemporaryFile("w", suffix=".json",
                                            delete=False) as bench:
            json.dump(BENCHMARK, bench)
            bench.close()
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = agree.main([b, a, "--benchmark", bench.name])
            finally:
                os.unlink(bench.name)
        return code, out.getvalue()

    def test_exit_zero_when_all_ok(self):
        code, out = self.run_main([result("w", 1, [1.0], 500.0)],
                                  [result("w", 1, [1.02], 500.0)])
        self.assertEqual(code, 0)
        self.assertIn("2 of 2 ok", out)
        self.assertIn("bit-identical", out)

    def test_exit_one_on_regression(self):
        code, out = self.run_main([result("w", 1, [1.0], 500.0)],
                                  [result("w", 1, [2.0], 500.0)])
        self.assertEqual(code, 1)
        self.assertIn("regressed", out)


if __name__ == "__main__":
    unittest.main()
