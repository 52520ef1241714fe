#!/usr/bin/env python3
"""Self-tests for scripts/detlint.py: every rule must both fire on a seeded
violation and stay quiet on the compliant twin.

Each case builds a throwaway repo tree (compliant registry sources, option
header, README.md and scripts/check.sh, plus or minus the case's own files,
and a root file that includes every src/ file but those a reach case leaves
out) and runs the linter in-process. The fixtures are the executable
specification of the rules: a rule change that stops a seeded violation from
firing - or starts flagging the compliant twin - fails here before it ever
gates a real diff.

Run directly (python3 scripts/detlint_test.py) or via ctest (detlint_test).
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import detlint  # noqa: E402


CHECK_SH_ALL_LOOPS = (
    "#!/usr/bin/env bash\n"
    "./build/scenario_tool list\n"
    "./build/scenario_tool policies --names\n"
    "./build/scenario_tool selections --names\n"
    "./build/scenario_tool estimators --names\n"
    "./build/scenario_tool metrics --names\n")


def options_header(members, rows):
    """A src/backup/options.h with `members` (declarations) in the struct and
    `rows` (member names) in the option table."""
    return ("struct SystemOptions {\n"
            "  uint32_t num_peers = 25'000;  // the top-level 'peers' key\n" +
            "".join("  %s;\n" % m for m in members) +
            "  util::Status Validate() const;\n"
            "  bool HasK() const { return k > 0; }\n"
            "  double pool_factor{3.0};\n"
            "};\n"
            "inline constexpr OptionKey kOptionKeys[] = {\n" +
            "".join("    {\"options.%s\", &SystemOptions::%s},\n" % (r, r)
                    for r in rows) +
            "};\n")


COMPLIANT_OPTIONS = options_header(
    ["int k = 128", "std::string transfer_link = \"dsl-2009\""],
    ["k", "transfer_link", "pool_factor"])


def registry_tree(readme, check_sh=CHECK_SH_ALL_LOOPS):
    return {
        "src/scenario/registry.cc": (
            "constexpr Entry kRegistry[] = {\n"
            "    {\"paper\", Paper}, {\"ghost-world\", Ghost},\n"
            "};\n"),
        "src/core/strategy_registry.cc": (
            "d.name = \"oldest-first\";\n"),
        "src/metrics/registry.cc": (
            "Metric(\"repairs\", &ComputedProbes::repairs, \"ops\",\n"
            "       \"...\"),\n"),
        "src/backup/options.h": COMPLIANT_OPTIONS,
        "README.md": readme,
        "scripts/check.sh": check_sh,
    }


# Every tree the linter sees has compliant registries unless a case
# overrides (or, with None, omits) one of these files.
COMPLIANT_REGISTRIES = registry_tree("paper ghost-world oldest-first repairs\n")


# A reach-rule root that includes every other src/ file of the tree.
REACH_ROOT = "src/sweep/fixture_root.cc"


def run_on(files, unreached=()):
    """Materializes `files` ({relpath: text, or None to omit a compliant
    registry file}) over COMPLIANT_REGISTRIES, plus REACH_ROOT including
    every src/ file not listed in `unreached`, and lints the tree.

    Returns (exit_code, stdout_text).
    """
    tree = dict(COMPLIANT_REGISTRIES)
    tree.update(files)
    tree[REACH_ROOT] = "".join(
        "#include \"%s\"\n" % rel[len("src/"):]
        for rel, text in sorted(tree.items())
        if rel.startswith("src/") and text is not None and
        rel not in unreached)
    with tempfile.TemporaryDirectory() as root:
        for rel, text in tree.items():
            if text is None:
                continue
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = detlint.run(root)
        return code, out.getvalue() + err.getvalue()


CLEAN_CC = """
#include <vector>
int Sum(const std::vector<int>& v) {
  int total = 0;
  for (int x : v) total += x;
  return total;
}
"""


class NondetRule(unittest.TestCase):
    def test_random_device_fires(self):
        code, out = run_on({"src/sim/a.cc": "std::random_device rd;\n"})
        self.assertEqual(code, 1)
        self.assertIn("[nondet]", out)
        self.assertIn("std::random_device", out)

    def test_rand_and_time_and_clock_fire(self):
        code, out = run_on({"src/sim/a.cc": (
            "int x = rand();\n"
            "long t = time(nullptr);\n"
            "auto n = std::chrono::steady_clock::now();\n")})
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[nondet]"), 3)

    def test_trace_dir_is_exempt(self):
        code, _ = run_on({"src/trace/t.cc":
                          "auto n = std::chrono::steady_clock::now();\n"})
        self.assertEqual(code, 0)

    def test_tokens_in_comments_and_strings_stay_quiet(self):
        code, _ = run_on({"src/sim/a.cc": (
            "// calling rand() here would be a bug\n"
            "const char* kMsg = \"time() is banned\";\n")})
        self.assertEqual(code, 0)

    def test_identifier_suffix_does_not_fire(self):
        # lifetime( / partner_rand( are ordinary identifiers, not the libc
        # calls the rule bans.
        code, _ = run_on({"src/sim/a.cc": (
            "double lifetime(int x);\n"
            "double partner_rand(int x);\n"
            "double v = obj.time(3);\n")})
        self.assertEqual(code, 0)

    def test_digit_separator_does_not_hide_code(self):
        # 25'000 is a number, not the start of a char literal that would
        # blank every line up to the next quote.
        code, out = run_on({"src/sim/a.cc": (
            "int peers = 25'000;\n"
            "std::random_device rd;\n")})
        self.assertEqual(code, 1)
        self.assertIn("a.cc:2: [nondet]", out)


class UnorderedIterRule(unittest.TestCase):
    def test_range_for_fires(self):
        code, out = run_on({"src/metrics/r.cc": (
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> totals;\n"
            "void Report() {\n"
            "  for (const auto& kv : totals) Emit(kv);\n"
            "}\n")})
        self.assertEqual(code, 1)
        self.assertIn("[unordered-iter]", out)
        self.assertIn("totals", out)

    def test_begin_and_equal_range_fire(self):
        code, out = run_on({"src/metrics/r.cc": (
            "#include <unordered_set>\n"
            "std::unordered_set<int> seen;\n"
            "auto it = seen.begin();\n"
            "std::unordered_multimap<int, int> index;\n"
            "auto [lo, hi] = index.equal_range(3);\n")})
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[unordered-iter]"), 2)

    def test_point_lookups_stay_quiet(self):
        code, _ = run_on({"src/metrics/r.cc": (
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> totals;\n"
            "double Get(int k) { return totals.at(k); }\n"
            "bool Has(int k) { return totals.count(k) != 0; }\n")})
        self.assertEqual(code, 0)


class HotPathAllocRule(unittest.TestCase):
    def test_new_string_and_unreserved_push_back_fire(self):
        code, out = run_on({"src/backup/h.cc": (
            "// DETLINT: hot-path-begin\n"
            "void Hot(std::vector<int>* out) {\n"
            "  auto* p = new int(3);\n"
            "  std::string label = Name();\n"
            "  out->push_back(*p);\n"
            "}\n"
            "// DETLINT: hot-path-end\n")})
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[hot-path-alloc]"), 3)

    def test_reserved_push_back_stays_quiet(self):
        code, _ = run_on({"src/backup/h.cc": (
            "void Init(std::vector<int>* out) { out->reserve(64); }\n"
            "// DETLINT: hot-path-begin\n"
            "void Hot(std::vector<int>* out) { out->push_back(1); }\n"
            "// DETLINT: hot-path-end\n")})
        self.assertEqual(code, 0)

    def test_allocation_outside_region_stays_quiet(self):
        code, _ = run_on({"src/backup/h.cc": (
            "void Cold() { auto* p = new int(3); Use(p); }\n")})
        self.assertEqual(code, 0)

    def test_unbalanced_markers_fire(self):
        code, out = run_on({"src/backup/h.cc":
                            "// DETLINT: hot-path-begin\nint x;\n"})
        self.assertEqual(code, 1)
        self.assertIn("never closed", out)
        code, out = run_on({"src/backup/h.cc":
                            "int x;\n// DETLINT: hot-path-end\n"})
        self.assertEqual(code, 1)
        self.assertIn("without a matching begin", out)


class AllowAnnotation(unittest.TestCase):
    def test_allow_on_same_line_suppresses(self):
        code, _ = run_on({"src/sim/a.cc": (
            "std::random_device rd;  "
            "// DETLINT-ALLOW(nondet): fixture justification\n")})
        self.assertEqual(code, 0)

    def test_allow_on_line_above_suppresses(self):
        code, _ = run_on({"src/sim/a.cc": (
            "// DETLINT-ALLOW(nondet): fixture justification\n"
            "std::random_device rd;\n")})
        self.assertEqual(code, 0)

    def test_allow_for_wrong_rule_does_not_suppress(self):
        code, out = run_on({"src/sim/a.cc": (
            "// DETLINT-ALLOW(unordered-iter): wrong rule\n"
            "std::random_device rd;\n")})
        self.assertEqual(code, 1)
        self.assertIn("[nondet]", out)

    def test_allow_without_reason_is_a_violation(self):
        code, out = run_on({"src/sim/a.cc": (
            "std::random_device rd;  // DETLINT-ALLOW(nondet):\n")})
        self.assertEqual(code, 1)
        self.assertIn("[allow-syntax]", out)


class RegistryRule(unittest.TestCase):
    def test_name_missing_from_readme_fires(self):
        code, out = run_on(registry_tree(
            "paper oldest-first repairs\n"))  # ghost-world undocumented
        self.assertEqual(code, 1)
        self.assertIn("[registry]", out)
        self.assertIn("ghost-world", out)

    def test_documented_names_stay_quiet(self):
        code, _ = run_on(registry_tree(
            "paper ghost-world oldest-first repairs\n"))
        self.assertEqual(code, 0)

    def test_missing_smoke_loop_fires(self):
        code, out = run_on(registry_tree(
            "paper ghost-world oldest-first repairs\n",
            check_sh="#!/usr/bin/env bash\n./build/scenario_tool list\n"))
        self.assertEqual(code, 1)
        self.assertIn("smoke loop", out)
        self.assertIn("policies --names", out)

    def test_registry_yielding_no_names_fires(self):
        # A metric table in a shape the scraper does not know (here the
        # retired push_back(Make(...)) form) must not switch the README
        # check off silently.
        tree = registry_tree("paper ghost-world oldest-first repairs\n")
        tree["src/metrics/registry.cc"] = (
            "r->metrics.push_back(Make(\n"
            "    \"repairs\", \"ops\", \"...\"));\n")
        code, out = run_on(tree)
        self.assertEqual(code, 1)
        self.assertIn("src/metrics/registry.cc:1: [registry]", out)
        self.assertIn("yields no registered names", out)

    def test_missing_registry_source_fires(self):
        code, out = run_on({"src/core/strategy_registry.cc": None})
        self.assertEqual(code, 1)
        self.assertIn("src/core/strategy_registry.cc:1: [registry]", out)
        self.assertIn("yields no registered names", out)


class OptionsRule(unittest.TestCase):
    def test_member_without_a_row_fires(self):
        code, out = run_on({"src/backup/options.h": options_header(
            ["int k = 128", "bool quota_market = true",
             "std::string transfer_link = \"dsl-2009\""],
            ["k", "transfer_link", "pool_factor"])})
        self.assertEqual(code, 1)
        self.assertIn("src/backup/options.h:4: [options]", out)
        self.assertIn("SystemOptions::quota_market is named by 0", out)

    def test_member_after_a_function_body_without_a_row_fires(self):
        # The inline HasK() body ends without a ';'; pool_factor after it is
        # still a member, brace initializer and all.
        code, out = run_on({"src/backup/options.h": options_header(
            ["int k = 128", "std::string transfer_link = \"dsl-2009\""],
            ["k", "transfer_link"])})
        self.assertEqual(code, 1)
        self.assertIn("src/backup/options.h:7: [options]", out)
        self.assertIn("SystemOptions::pool_factor is named by 0", out)

    def test_member_with_two_rows_fires(self):
        code, out = run_on({"src/backup/options.h": options_header(
            ["int k = 128", "std::string transfer_link = \"dsl-2009\""],
            ["k", "transfer_link", "pool_factor", "k"])})
        self.assertEqual(code, 1)
        self.assertIn("SystemOptions::k is named by 2", out)

    def test_missing_options_header_fires(self):
        code, out = run_on({"src/backup/options.h": None})
        self.assertEqual(code, 1)
        self.assertIn("src/backup/options.h:1: [options]", out)


class ReachRule(unittest.TestCase):
    def test_unreached_header_and_its_cc_fire(self):
        code, out = run_on({
            "src/util/orphan.h": "int Orphan();\n",
            "src/util/orphan.cc": (
                "#include \"util/orphan.h\"\n"
                "int Orphan() { return 1; }\n"),
        }, unreached=("src/util/orphan.h", "src/util/orphan.cc"))
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[reach]"), 2)
        self.assertIn("src/util/orphan.cc:1: [reach]", out)
        self.assertIn("src/util/orphan.h:1: [reach]", out)

    def test_includes_and_sibling_cc_reach(self):
        # The root includes lib.h; lib.h reaches lib.cc as its sibling and
        # same-directory detail.h by a relative include, which reaches
        # util/base.h from the src/ include root.
        code, out = run_on({
            "src/net/lib.h": "#include \"detail.h\"\nint Lib();\n",
            "src/net/lib.cc": "#include \"net/lib.h\"\nint Lib();\n",
            "src/net/detail.h": "#include \"util/base.h\"\n",
            "src/util/base.h": "int Base();\n",
        }, unreached=("src/net/lib.cc", "src/net/detail.h",
                      "src/util/base.h"))
        self.assertEqual(code, 0, out)

    def test_allowed_header_stays_quiet(self):
        code, out = run_on({"src/backup/probe.h": (
            "// DETLINT-ALLOW(reach): fixture justification\n"
            "#include \"backup/options.h\"\n")},
            unreached=("src/backup/probe.h",))
        self.assertEqual(code, 0, out)

    def test_allow_below_line_one_does_not_suppress(self):
        code, out = run_on({"src/backup/probe.h": (
            "#pragma once\n"
            "\n"
            "// DETLINT-ALLOW(reach): fixture justification\n")},
            unreached=("src/backup/probe.h",))
        self.assertEqual(code, 1)
        self.assertIn("src/backup/probe.h:1: [reach]", out)


class CleanTree(unittest.TestCase):
    def test_clean_file_exits_zero(self):
        code, out = run_on({"src/util/sum.cc": CLEAN_CC})
        self.assertEqual(code, 0)
        self.assertIn("detlint: clean", out)

    def test_missing_src_is_usage_error(self):
        with tempfile.TemporaryDirectory() as root:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                self.assertEqual(detlint.run(root), 2)


if __name__ == "__main__":
    unittest.main()
