#!/usr/bin/env python3
"""Unit tests for bench_compare.py — the CI regression gate.

Stdlib-only (unittest + tempfile); run directly or via ctest:

    python3 tools/test_bench_compare.py -v

Covers the gate semantics the workflows rely on: the >10% virtual-time
threshold in both directions, the `_adv` security-canary absolute-growth
gate, untracked suffixes, disappearing metrics, directory pairing (new
bench = info, missing candidate = failure), and the run-configuration
mismatch guard.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(HERE, "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def write_bench(path, bench, metrics):
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"bench": bench, "metrics": metrics}, f)


class GateHarness(unittest.TestCase):
    """Runs bench_compare.main() against freshly written files."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def path(self, name):
        return os.path.join(self.dir, name)

    def run_gate(self, *argv):
        """Returns the gate's exit status (SystemExit counts as failure)."""
        old_argv = sys.argv
        sys.argv = ["bench_compare.py", *argv]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                return bench_compare.main(), out.getvalue()
        except SystemExit as e:  # hard config/usage errors
            return e.code if isinstance(e.code, int) else 1, out.getvalue()
        finally:
            sys.argv = old_argv

    def pair(self, base_metrics, cur_metrics, *extra, bench="demo"):
        write_bench(self.path("base.json"), bench, base_metrics)
        write_bench(self.path("cur.json"), bench, cur_metrics)
        return self.run_gate(self.path("base.json"), self.path("cur.json"),
                             *extra)


class ThresholdGate(GateHarness):
    def test_identical_files_pass(self):
        rc, _ = self.pair({"a.dd_write_kbps": 100.0},
                          {"a.dd_write_kbps": 100.0})
        self.assertEqual(rc, 0)

    def test_throughput_drop_beyond_threshold_fails(self):
        rc, out = self.pair({"a.dd_write_kbps": 100.0},
                            {"a.dd_write_kbps": 85.0})
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSION", out)

    def test_throughput_drop_within_threshold_passes(self):
        rc, _ = self.pair({"a.dd_write_kbps": 100.0},
                          {"a.dd_write_kbps": 95.0})
        self.assertEqual(rc, 0)

    def test_throughput_improvement_passes(self):
        rc, _ = self.pair({"a.dd_write_kbps": 100.0},
                          {"a.dd_write_kbps": 250.0})
        self.assertEqual(rc, 0)

    def test_lower_is_better_suffix_gates_increases(self):
        rc, _ = self.pair({"boot_s": 2.0}, {"boot_s": 2.5})
        self.assertEqual(rc, 1)
        rc, _ = self.pair({"boot_s": 2.0}, {"boot_s": 1.2})
        self.assertEqual(rc, 0)

    def test_threshold_flag_loosens_the_gate(self):
        rc, _ = self.pair({"a.dd_write_kbps": 100.0},
                          {"a.dd_write_kbps": 85.0}, "--threshold", "30")
        self.assertEqual(rc, 0)

    def test_untracked_suffix_never_gates(self):
        rc, _ = self.pair({"shape.change_pct": 5.0, "count": 10.0},
                          {"shape.change_pct": 95.0, "count": 1.0})
        self.assertEqual(rc, 0)

    def test_tracked_metric_disappearing_fails(self):
        rc, out = self.pair({"a.dd_write_kbps": 100.0}, {})
        self.assertEqual(rc, 1)
        self.assertIn("disappeared", out)


class CanaryGate(GateHarness):
    def test_advantage_growth_beyond_tolerance_fails(self):
        rc, _ = self.pair({"game.mobiceal_adv": 0.02},
                          {"game.mobiceal_adv": 0.22})
        self.assertEqual(rc, 1)

    def test_advantage_growth_within_tolerance_passes(self):
        rc, _ = self.pair({"game.mobiceal_adv": 0.02},
                          {"game.mobiceal_adv": 0.04})
        self.assertEqual(rc, 0)

    def test_advantage_shrinking_always_passes(self):
        rc, _ = self.pair({"game.mobiceal_adv": 0.50},
                          {"game.mobiceal_adv": 0.01})
        self.assertEqual(rc, 0)

    def test_parity_canary_flip_fails_absolutely(self):
        # 0 -> 1 is the stripe/cache parity canary firing: a relative
        # threshold would miss it (old == 0), the absolute gate must not.
        rc, _ = self.pair({"mc.s4.qd8.stripe_parity_adv": 0.0},
                          {"mc.s4.qd8.stripe_parity_adv": 1.0})
        self.assertEqual(rc, 1)

    def test_canary_that_cannot_fire_is_named_not_failed(self):
        # An advantage tops out at 0.5: a baseline within the tolerance of
        # it can never grow enough to fail, so the summary names it.
        rc, out = self.pair({"g.saturated_adv": 0.5, "g.live_adv": 0.1},
                            {"g.saturated_adv": 0.5, "g.live_adv": 0.1})
        self.assertEqual(rc, 0)
        self.assertIn("canaries that cannot fire", out)
        note = out.split("canaries that cannot fire", 1)[1]
        self.assertIn("g.saturated_adv", note)
        self.assertNotIn("g.live_adv", note)
        rc, out = self.pair({"g.live_adv": 0.1}, {"g.live_adv": 0.1})
        self.assertNotIn("canaries that cannot fire", out)

    def test_adv_tolerance_flag(self):
        rc, _ = self.pair({"x_adv": 0.0}, {"x_adv": 0.2},
                          "--adv-tolerance", "0.5")
        self.assertEqual(rc, 0)


class ConfigGuard(GateHarness):
    def test_workload_mismatch_is_a_hard_error(self):
        rc, _ = self.pair({"workload_mb": 4, "a.dd_write_kbps": 100.0},
                          {"workload_mb": 64, "a.dd_write_kbps": 500.0})
        self.assertNotEqual(rc, 0)

    def test_stripe_mismatch_is_a_hard_error(self):
        rc, _ = self.pair({"stripes": 1, "a.dd_write_kbps": 100.0},
                          {"stripes": 4, "a.dd_write_kbps": 300.0})
        self.assertNotEqual(rc, 0)

    def test_config_key_missing_on_one_side_still_compares(self):
        # Baselines predating a knob don't record it; the guard must only
        # enforce keys present in BOTH files.
        rc, _ = self.pair({"a.dd_write_kbps": 100.0},
                          {"stripes": 1, "a.dd_write_kbps": 100.0})
        self.assertEqual(rc, 0)

    def test_clock_shard_mismatch_is_a_hard_error(self):
        rc, _ = self.pair({"clock_shards": 1, "a.dd_write_kbps": 100.0},
                          {"clock_shards": 4, "a.dd_write_kbps": 280.0})
        self.assertNotEqual(rc, 0)

    def test_flusher_policy_mismatch_is_a_hard_error(self):
        # Benches record the flusher policy (bench_flusher); runs at a
        # different dirty-ratio or deadline are not comparable.
        rc, _ = self.pair({"flusher_dirty_pct": 50, "a.rewrite_kbps": 10.0},
                          {"flusher_dirty_pct": 10, "a.rewrite_kbps": 30.0})
        self.assertNotEqual(rc, 0)
        rc, _ = self.pair(
            {"flusher_deadline_ns": 2e6, "a.rewrite_kbps": 10.0},
            {"flusher_deadline_ns": 1e6, "a.rewrite_kbps": 10.0})
        self.assertNotEqual(rc, 0)

    def test_alloc_shard_mismatch_is_a_hard_error(self):
        # The sharded allocator keeps results identical across shard counts
        # only in the single-threaded benches; the fleet bench's contention
        # model makes alloc_shards part of the run configuration.
        rc, _ = self.pair({"alloc_shards": 1, "a.dd_write_kbps": 100.0},
                          {"alloc_shards": 4, "a.dd_write_kbps": 250.0})
        self.assertNotEqual(rc, 0)

    def test_mirror_leg_mismatch_is_a_hard_error(self):
        rc, _ = self.pair({"mirror_legs": 2, "healthy.dd_read_kbps": 400.0},
                          {"mirror_legs": 3, "healthy.dd_read_kbps": 600.0})
        self.assertNotEqual(rc, 0)

    def test_fault_knob_mismatch_is_a_hard_error(self):
        # Degraded-stack runs are comparable only at matching fault
        # schedules and rebuild rates.
        for key in ("fault_read_ppm", "fault_drop_member",
                    "rebuild_rate_blocks"):
            rc, _ = self.pair({key: 0, "degraded.dd_read_kbps": 300.0},
                              {key: 2, "degraded.dd_read_kbps": 280.0})
            self.assertNotEqual(rc, 0, key)

    def test_ftl_knob_mismatch_is_a_hard_error(self):
        # FTL runs are comparable only at matching flash geometry: mapping
        # mode, over-provisioning, and erase-block size all change GC
        # pressure and therefore every timing.
        for key in ("ftl_mode", "ftl_over_provision_pct",
                    "ftl_pages_per_block"):
            rc, _ = self.pair({key: 0, "gc.dd_write_kbps": 500.0},
                              {key: 1, "gc.dd_write_kbps": 480.0},
                              bench="ftl")
            self.assertNotEqual(rc, 0, key)

    def test_matching_ftl_knobs_compare(self):
        rc, _ = self.pair(
            {"ftl_mode": 1, "ftl_over_provision_pct": 7,
             "ftl_pages_per_block": 64, "gc.dd_write_kbps": 500.0},
            {"ftl_mode": 1, "ftl_over_provision_pct": 7,
             "ftl_pages_per_block": 64, "gc.dd_write_kbps": 495.0},
            bench="ftl")
        self.assertEqual(rc, 0)

    def test_fleet_tenant_mismatch_is_a_hard_error(self):
        rc, _ = self.pair(
            {"fleet_tenants": 4, "t4.s4.aggregate_write_kbps": 600.0},
            {"fleet_tenants": 8, "t8.s4.aggregate_write_kbps": 900.0})
        self.assertNotEqual(rc, 0)

    def test_different_bench_names_are_a_hard_error(self):
        write_bench(self.path("base.json"), "alpha", {"x_kbps": 1.0})
        write_bench(self.path("cur.json"), "beta", {"x_kbps": 1.0})
        rc, _ = self.run_gate(self.path("base.json"), self.path("cur.json"))
        self.assertNotEqual(rc, 0)

    def test_malformed_json_is_a_hard_error(self):
        with open(self.path("base.json"), "w", encoding="utf-8") as f:
            f.write("{not json")
        write_bench(self.path("cur.json"), "demo", {"x_kbps": 1.0})
        rc, _ = self.run_gate(self.path("base.json"), self.path("cur.json"))
        self.assertNotEqual(rc, 0)


class DirectoryMode(GateHarness):
    def setUp(self):
        super().setUp()
        self.base_dir = os.path.join(self.dir, "baselines")
        self.cur_dir = os.path.join(self.dir, "candidate")
        os.mkdir(self.base_dir)
        os.mkdir(self.cur_dir)

    def test_pairs_by_name_and_reports_new_benches_as_info(self):
        write_bench(os.path.join(self.base_dir, "BENCH_a.json"), "a",
                    {"x_kbps": 100.0})
        write_bench(os.path.join(self.cur_dir, "BENCH_a.json"), "a",
                    {"x_kbps": 101.0})
        # A brand-new bench without a committed baseline: info, not a gate.
        write_bench(os.path.join(self.cur_dir, "BENCH_b.json"), "b",
                    {"y_kbps": 5.0})
        rc, out = self.run_gate(self.base_dir, self.cur_dir)
        self.assertEqual(rc, 0)
        self.assertIn("new, skipped (info)", out)

    def test_missing_candidate_fails_the_gate(self):
        # A gated bench silently disappearing from CI is itself a
        # regression — e.g. the smoke loop's filter regex went stale.
        write_bench(os.path.join(self.base_dir, "BENCH_a.json"), "a",
                    {"x_kbps": 100.0})
        rc, out = self.run_gate(self.base_dir, self.cur_dir)
        self.assertEqual(rc, 1)
        self.assertIn("missing from candidate", out)

    def test_regression_in_any_pair_fails(self):
        write_bench(os.path.join(self.base_dir, "BENCH_a.json"), "a",
                    {"x_kbps": 100.0})
        write_bench(os.path.join(self.cur_dir, "BENCH_a.json"), "a",
                    {"x_kbps": 100.0})
        write_bench(os.path.join(self.base_dir, "BENCH_b.json"), "b",
                    {"y_s": 1.0})
        write_bench(os.path.join(self.cur_dir, "BENCH_b.json"), "b",
                    {"y_s": 2.0})
        rc, _ = self.run_gate(self.base_dir, self.cur_dir)
        self.assertEqual(rc, 1)

    def test_mixed_file_and_directory_is_a_hard_error(self):
        write_bench(self.path("base.json"), "a", {"x_kbps": 1.0})
        rc, _ = self.run_gate(self.path("base.json"), self.cur_dir)
        self.assertNotEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
