#!/usr/bin/env python3
"""Unit tests for tools/lint/check_invariants.py.

Each test builds a throwaway fixture tree containing exactly one violation
(or its allow-marked twin) and asserts the expected rule fires (or stays
quiet). Runs from ctest next to tools/test_bench_compare.py:

    python3 -m unittest tools.lint.test_check_invariants
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_invariants  # noqa: E402

BENCH_COMPARE_STUB = textwrap.dedent("""\
    CONFIG_KEYS = (
        "workload_mb",
        "queue_depth",
        "cache_blocks",
    )
""")


class FixtureTree:
    """Minimal repo skeleton the linter's directory walk expects."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        os.makedirs(os.path.join(self.root, "src"))
        os.makedirs(os.path.join(self.root, "tools"))
        self.write("tools/bench_compare.py", BENCH_COMPARE_STUB)

    def write(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def cleanup(self):
        self._tmp.cleanup()


class LintTestCase(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def rules_fired(self):
        return [(f.rule, f.path) for f in check_invariants.run(self.tree.root)]

    def assert_rule(self, rule):
        fired = [r for r, _ in self.rules_fired()]
        self.assertIn(rule, fired)

    def assert_clean(self):
        self.assertEqual(self.rules_fired(), [])


class WallClockRule(LintTestCase):
    def test_steady_clock_flagged(self):
        self.tree.write("src/a.cpp",
                        "auto t = std::chrono::steady_clock::now();\n")
        self.assert_rule("wall-clock")

    def test_time_nullptr_flagged(self):
        self.tree.write("src/a.cpp", "auto t = time(nullptr);\n")
        self.assert_rule("wall-clock")

    def test_allow_marker_suppresses(self):
        self.tree.write(
            "src/a.cpp",
            "auto t = std::chrono::steady_clock::now();"
            "  // lint:allow wall-clock progress log only, not timed path\n")
        self.assert_clean()

    def test_marker_without_reason_does_not_suppress(self):
        self.tree.write(
            "src/a.cpp",
            "auto t = std::chrono::steady_clock::now();"
            "  // lint:allow wall-clock\n")
        self.assert_rule("wall-clock")

    def test_mention_in_comment_ignored(self):
        self.tree.write("src/a.cpp",
                        "// never use std::chrono::steady_clock here\n")
        self.assert_clean()

    def test_mention_in_string_ignored(self):
        self.tree.write("src/a.cpp",
                        'log("std::chrono::steady_clock is banned");\n')
        self.assert_clean()


class RawRandRule(LintTestCase):
    def test_std_rand_flagged(self):
        self.tree.write("src/a.cpp", "int x = std::rand();\n")
        self.assert_rule("raw-rand")

    def test_random_device_flagged(self):
        self.tree.write("src/a.cpp", "std::random_device rd;\n")
        self.assert_rule("raw-rand")

    def test_mt19937_flagged(self):
        self.tree.write("src/a.cpp", "std::mt19937_64 gen(42);\n")
        self.assert_rule("raw-rand")

    def test_util_rng_ok(self):
        self.tree.write("src/a.cpp", "util::Rng rng(seed);\n")
        self.assert_clean()

    def test_identifier_containing_rand_ok(self):
        self.tree.write("src/a.cpp", "auto v = rerandomise(slot);\n")
        self.assert_clean()


class SyncTypesRule(LintTestCase):
    def test_std_mutex_flagged(self):
        self.tree.write("src/a.hpp", "std::mutex m_;\n")
        self.assert_rule("sync-types")

    def test_lock_guard_flagged(self):
        self.tree.write("src/a.cpp", "std::lock_guard<std::mutex> l(m_);\n")
        self.assert_rule("sync-types")

    def test_condition_variable_flagged(self):
        self.tree.write("src/a.hpp", "std::condition_variable cv_;\n")
        self.assert_rule("sync-types")

    def test_sync_hpp_itself_exempt(self):
        self.tree.write("src/util/sync.hpp",
                        "class Mutex { std::mutex m_; };\n")
        self.assert_clean()

    def test_annotated_types_ok(self):
        self.tree.write("src/a.hpp",
                        "util::Mutex mu_;\nutil::CondVar cv_;\n")
        self.assert_clean()


class UnorderedIterRule(LintTestCase):
    def test_range_for_over_member_flagged(self):
        self.tree.write("src/a.hpp", textwrap.dedent("""\
            std::unordered_map<uint64_t, Bytes> stash_;
            void drain() {
              for (const auto& [k, v] : stash_) emit(k, v);
            }
        """))
        self.assert_rule("unordered-iter")

    def test_begin_pop_flagged(self):
        self.tree.write("src/a.hpp", textwrap.dedent("""\
            std::unordered_map<uint64_t, Bytes> stash_;
            void pop() { auto it = stash_.begin(); }
        """))
        self.assert_rule("unordered-iter")

    def test_point_lookup_ok(self):
        self.tree.write("src/a.hpp", textwrap.dedent("""\
            std::unordered_map<uint64_t, Bytes> cache_;
            bool has(uint64_t k) { return cache_.find(k) != cache_.end(); }
        """))
        self.assert_clean()

    def test_ordered_map_iteration_ok(self):
        self.tree.write("src/a.hpp", textwrap.dedent("""\
            std::map<uint64_t, Bytes> stash_;
            void drain() {
              for (const auto& [k, v] : stash_) emit(k, v);
            }
        """))
        self.assert_clean()

    def test_allow_marker_suppresses(self):
        self.tree.write("src/a.hpp", textwrap.dedent("""\
            std::unordered_set<uint64_t> seen_;
            // the sum is order-independent
            uint64_t total() {
              uint64_t t = 0;
              for (auto v : seen_) t += v;  // lint:allow unordered-iter commutative fold
              return t;
            }
        """))
        self.assert_clean()


class AdapterRules(LintTestCase):
    GOOD_ADAPTER = textwrap.dedent("""\
        #include "api/scheme_registry.hpp"
        namespace {
        class FooScheme final : public api::PdeScheme {
          void init() { dev_ = api::stack_device_for(cfg_, backing_); }
        };
        const api::SchemeRegistrar kRegistrar{"foo", make_foo};
        }  // namespace
    """)

    def test_good_adapter_clean(self):
        self.tree.write("src/api/adapters/foo_scheme.cpp", self.GOOD_ADAPTER)
        self.assert_clean()

    def test_direct_block_io_flagged(self):
        self.tree.write("src/api/adapters/foo_scheme.cpp", textwrap.dedent("""\
            const api::SchemeRegistrar kRegistrar{"foo", make_foo};
            void f() {
              auto dev = api::stack_device_for(cfg_, backing_);
              backing_->read_blocks(0, 8, out);
            }
        """))
        self.assert_rule("adapter-route")

    def test_missing_stacking_flagged(self):
        self.tree.write("src/api/adapters/foo_scheme.cpp", textwrap.dedent("""\
            const api::SchemeRegistrar kRegistrar{"foo", make_foo};
            void f() { use(backing_); }
        """))
        self.assert_rule("adapter-route")

    def test_footer_translator_base_counts_as_routing(self):
        self.tree.write("src/api/adapters/foo_scheme.cpp", textwrap.dedent("""\
            class FooScheme final : public FooterTranslatorScheme {};
            const api::SchemeRegistrar kRegistrar{"foo", make_foo};
        """))
        self.assert_clean()

    def test_missing_registrar_flagged(self):
        self.tree.write("src/api/adapters/foo_scheme.cpp", textwrap.dedent("""\
            void f() { auto dev = api::stack_device_for(cfg_, backing_); }
        """))
        self.assert_rule("adapter-reg")

    def test_tu_with_header_is_infrastructure_not_adapter(self):
        self.tree.write("src/api/adapters/base.hpp", "class Base {};\n")
        self.tree.write("src/api/adapters/base.cpp", textwrap.dedent("""\
            void Base::f() { backing_->read_blocks(0, 8, out); }
        """))
        self.assert_clean()


class ShardEncapRule(LintTestCase):
    def test_direct_bitmap_member_flagged(self):
        self.tree.write("src/thin/thin_pool.cpp",
                        "bool t = (bitmap_[c / 64] >> (c % 64)) & 1;\n")
        self.assert_rule("shard-encap")

    def test_free_count_mutation_flagged(self):
        self.tree.write("src/thin/thin_pool.cpp", "--free_chunks_;\n")
        self.assert_rule("shard-encap")

    def test_txn_ledger_member_flagged(self):
        self.tree.write("src/thin/thin_pool.hpp",
                        "return txn_allocated_;\n")
        self.assert_rule("shard-encap")

    def test_owner_header_exempt(self):
        self.tree.write("src/thin/alloc_shard.hpp",
                        "std::vector<uint64_t> bitmap_ GUARDED_BY(mu_);\n")
        self.assert_clean()

    def test_public_accessor_name_ok(self):
        self.tree.write("src/thin/thin_pool.hpp",
                        "return alloc_.txn_allocated_count();\n")
        self.assert_clean()

    def test_longer_identifier_ok(self):
        self.tree.write("src/thin/thin_pool.cpp",
                        "for (uint64_t b = 0; b < geom_.bitmap_blocks; ++b)\n")
        self.assert_clean()

    def test_outside_thin_tree_ignored(self):
        self.tree.write("src/fs/ext_fs.cpp", "auto& w = bitmap_[i];\n")
        self.assert_clean()

    def test_allow_marker_suppresses(self):
        self.tree.write(
            "src/thin/recovery.cpp",
            "dump(bitmap_);"
            "  // lint:allow shard-encap read-only dump, pool quiesced\n")
        self.assert_clean()


class KnobRegistryRule(LintTestCase):
    def test_getenv_in_bench_flagged(self):
        self.tree.write(
            "bench/bench_foo.cpp",
            'if (const char* v = std::getenv("MOBICEAL_FOO")) use(v);\n')
        self.assert_rule("knob-registry")

    def test_getenv_in_src_flagged(self):
        self.tree.write("src/cache/cache_target.cpp",
                        'const char* v = getenv("MOBICEAL_CACHE_BLOCKS");\n')
        self.assert_rule("knob-registry")

    def test_bench_knob_helper_flagged(self):
        self.tree.write(
            "bench/harness.hpp",
            "o.queue_depth = bench_knob_u64(argc, argv, \"--qd\", 1);\n")
        self.assert_rule("knob-registry")

    def test_registry_itself_exempt(self):
        self.tree.write("src/api/stack_config.cpp",
                        "if (const char* e = std::getenv(k.env)) parse(e);\n")
        self.assert_clean()

    def test_bench_run_controls_in_harness_exempt(self):
        self.tree.write(
            "bench/harness.cpp",
            'if (const char* v = std::getenv("MOBICEAL_BENCH_MB")) mb(v);\n')
        self.assert_clean()

    def test_allow_marker_suppresses(self):
        self.tree.write(
            "tests/env_test.cpp",
            'setup(getenv("HOME"));'
            "  // lint:allow knob-registry test fixture path, not a knob\n")
        self.assert_clean()

    def test_mention_in_comment_ignored(self):
        self.tree.write("src/a.cpp",
                        "// knobs resolve CLI > getenv(env) > default\n")
        self.assert_clean()


STACK_CONFIG_STUB = textwrap.dedent("""\
    constexpr Knob kKnobs[] = {
        {"--queue-depth", "MOBICEAL_QUEUE_DEPTH", Knob::kU32MinOne,
         offsetof(StackConfig, queue_depth)},
        {"--ftl", "MOBICEAL_FTL", Knob::kU32,
         offsetof(StackConfig, ftl_mode)},
    };
""")


def knob_table(flags):
    # Rows carry argument placeholders (`--flag N`), like the real tables.
    rows = "".join(f"| `{f} N` | `MOBICEAL_X` | what it does |\n"
                   for f in flags)
    return ("# Knobs\n\n| Flag | Env | Meaning |\n|---|---|---|\n" + rows)


class KnobDocsRule(LintTestCase):
    """Doc-drift gate: registry knobs <-> README/ARCHITECTURE knob tables."""

    ALL = ("--queue-depth", "--ftl")

    def write_tree(self, readme_flags=ALL, arch_flags=ALL, arch=True):
        self.tree.write("src/api/stack_config.cpp", STACK_CONFIG_STUB)
        self.tree.write("README.md", knob_table(readme_flags))
        if arch:
            self.tree.write("docs/ARCHITECTURE.md", knob_table(arch_flags))

    def test_matching_tables_clean(self):
        self.write_tree()
        self.assert_clean()

    def test_registry_knob_missing_from_readme_flagged(self):
        self.write_tree(readme_flags=("--queue-depth",))
        self.assert_rule("knob-docs")

    def test_registry_knob_missing_from_architecture_flagged(self):
        self.write_tree(arch_flags=("--queue-depth",))
        self.assert_rule("knob-docs")

    def test_stale_documented_knob_flagged(self):
        # The reverse direction: a table row for a flag the registry no
        # longer (or never) had.
        self.write_tree(readme_flags=self.ALL + ("--removed-knob",))
        self.assert_rule("knob-docs")

    def test_missing_architecture_doc_flagged(self):
        self.write_tree(arch=False)
        self.assert_rule("knob-docs")

    def test_prose_mention_is_not_a_table_row(self):
        # Only `| `--flag`` table rows count as documentation; prose naming
        # a flag neither satisfies nor violates the rule.
        self.tree.write("src/api/stack_config.cpp", STACK_CONFIG_STUB)
        self.tree.write("README.md",
                        knob_table(self.ALL) +
                        "\nSee also the `--json` output flag.\n")
        self.tree.write("docs/ARCHITECTURE.md", knob_table(self.ALL))
        self.assert_clean()

    def test_no_registry_in_tree_skips_quietly(self):
        self.tree.write("README.md", "# no knob table\n")
        self.assert_clean()


class BaselineSchemaRule(LintTestCase):
    def good(self):
        return ('{"bench": "io", "metrics": {"workload_mb": 4, '
                '"seq_write_kbps": 100.5, "queue_depth": 8}}')

    def test_good_baseline_clean(self):
        self.tree.write("bench/baselines/BENCH_io.json", self.good())
        self.assert_clean()

    def test_invalid_json_flagged(self):
        self.tree.write("bench/baselines/BENCH_io.json", "{nope")
        self.assert_rule("baseline-schema")

    def test_name_mismatch_flagged(self):
        self.tree.write(
            "bench/baselines/BENCH_io.json",
            '{"bench": "other", "metrics": {"workload_mb": 4}}')
        self.assert_rule("baseline-schema")

    def test_bad_filename_prefix_flagged(self):
        self.tree.write("bench/baselines/io.json", self.good())
        self.assert_rule("baseline-schema")

    def test_throughput_without_workload_flagged(self):
        self.tree.write(
            "bench/baselines/BENCH_io.json",
            '{"bench": "io", "metrics": {"seq_write_kbps": 100.5}}')
        self.assert_rule("baseline-schema")

    def test_latency_only_without_workload_ok(self):
        self.tree.write(
            "bench/baselines/BENCH_timing.json",
            '{"bench": "timing", "metrics": {"boot_s": 1.5}}')
        self.assert_clean()

    def test_non_numeric_metric_flagged(self):
        self.tree.write(
            "bench/baselines/BENCH_io.json",
            '{"bench": "io", "metrics": {"workload_mb": "four"}}')
        self.assert_rule("baseline-schema")

    def test_config_keys_read_from_bench_compare(self):
        keys = check_invariants.read_config_keys(self.tree.root)
        self.assertEqual(keys, ("workload_mb", "queue_depth", "cache_blocks"))


class RealTreeSmoke(unittest.TestCase):
    def test_repo_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        # Only meaningful when run from a checkout that has src/.
        if not os.path.isdir(os.path.join(repo, "src")):
            self.skipTest("not running inside the repo")
        findings = check_invariants.run(repo)
        self.assertEqual([str(f) for f in findings], [])

    def test_registry_knobs_parse_from_real_tree(self):
        # Pins KNOB_ENTRY_RE against the actual kKnobs table: if the
        # registry syntax changes and the regex silently stops matching,
        # the knob-docs rule would stop firing — this catches that rot.
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        if not os.path.isfile(os.path.join(repo, "src", "api",
                                           "stack_config.cpp")):
            self.skipTest("not running inside the repo")
        knobs = dict(check_invariants.read_registry_knobs(repo))
        self.assertEqual(len(knobs), 14)
        self.assertEqual(knobs.get("--ftl"), "MOBICEAL_FTL")
        self.assertEqual(knobs.get("--queue-depth"), "MOBICEAL_QUEUE_DEPTH")


if __name__ == "__main__":
    unittest.main()
