#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py on mixed document schemas.

The repair/pool funnel schema changes when the sampler does: PR 7 introduced
the section with rejection-sampler buckets (reject_dup, reject_not_live,
reject_offline), PR 9 retired those - structurally impossible under the
eligible-candidate index - and added partner_excluded / index_exhausted.
PR 6 predates the section entirely. The trajectory view must render the
union of keys in first-seen order and say "n/a" for anything a document
does not carry, never fail. The same holds for the "peak_rss_mb" total,
which older documents lack: both modes print it (or "n/a") and neither
ever flags it.

Run directly (python3 scripts/bench_compare_test.py) or via ctest
(bench_compare_test).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def doc(label, repair_pool=None, wall=1.0, throughput=1e6, peak_rss_mb=None):
    d = {
        "schema_version": 1,
        "bench": "trajectory",
        "quick": False,
        "grid": {"scenario": "paper", "peers": 500, "rounds": 1200,
                 "cells": 12, "threads": 1},
        "totals": {"wall_seconds": wall,
                   "peer_rounds_per_second": throughput},
        "phases": [{"name": "repair/pool", "category": "sim", "count": 1,
                    "total_ms": wall * 500.0, "mean_us": 1.0,
                    "share_percent": 50.0}],
    }
    if repair_pool is not None:
        d["repair_pool"] = repair_pool
    if peak_rss_mb is not None:
        d["totals"]["peak_rss_mb"] = peak_rss_mb
    d["_label"] = label
    return d


def write_docs(tmp, docs):
    paths = []
    for d in docs:
        path = os.path.join(tmp, d["_label"] + ".json")
        with open(path, "w") as f:
            json.dump({k: v for k, v in d.items() if k != "_label"}, f)
        paths.append(path)
    return paths


# The three schema generations the committed BENCH_*.json documents span.
PRE_FUNNEL = doc("BENCH_6")  # no repair_pool section at all
REJECTION = doc("BENCH_8", {
    "draws": 415469763,
    "reject_dup": 337634249,
    "reject_not_live": 0,
    "reject_offline": 31338948,
    "reject_quota_full": 36635564,
    "reject_acceptance": 543700,
    "accepted": 9317302,
    "accept_percent": 2.242594,
    "score_memo_hit_percent": 86.200748,
})
INDEX = doc("BENCH_9", {
    "draws": 10000000,
    "partner_excluded": 400000,
    "index_exhausted": 0,
    "reject_quota_full": 500000,
    "reject_acceptance": 100000,
    "accepted": 9000000,
    "accept_percent": 90.0,
    "score_memo_hit_percent": 86.0,
})


class TrajectoryMixedSchemaTest(unittest.TestCase):
    def render(self, docs, csv_path=None):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_docs(tmp, docs)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = bench_compare.trajectory(paths, csv_path)
        self.assertEqual(status, 0)
        return out.getvalue()

    def row(self, text, label):
        for line in text.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if cells and cells[0] == label:
                return cells[1:]
        self.fail(f"no row labeled {label!r} in:\n{text}")

    def test_union_of_keys_with_na_for_absent(self):
        # One document per schema generation: every funnel key any of them
        # carries gets a row, and absence renders as "n/a" - including the
        # whole-section absence of the pre-funnel document.
        text = self.render([PRE_FUNNEL, REJECTION, INDEX])
        self.assertEqual(self.row(text, "pool draws"),
                         ["n/a", "415469763", "10000000"])
        # Retired in the index schema: value only in the rejection column.
        self.assertEqual(self.row(text, "pool reject_dup"),
                         ["n/a", "337634249", "n/a"])
        self.assertEqual(self.row(text, "pool reject_not_live"),
                         ["n/a", "0", "n/a"])
        # Introduced by the index schema: value only in the index column.
        self.assertEqual(self.row(text, "pool partner_excluded"),
                         ["n/a", "n/a", "400000"])
        # Carried by both samplers: present in both.
        self.assertEqual(self.row(text, "pool reject_quota_full"),
                         ["n/a", "36635564", "500000"])

    def test_first_seen_key_order(self):
        # Keys appear in first-seen document order, so the rejection buckets
        # (seen first) precede the index buckets even though the index
        # document lacks them.
        text = self.render([REJECTION, INDEX])
        labels = [line.strip("|").split("|")[0].strip()
                  for line in text.splitlines() if line.startswith("|")]
        pool_rows = [l for l in labels if l.startswith("pool ")]
        self.assertLess(pool_rows.index("pool reject_dup"),
                        pool_rows.index("pool partner_excluded"))
        self.assertEqual(pool_rows[0], "pool draws")

    def test_float_counters_render_as_floats(self):
        text = self.render([INDEX])
        self.assertEqual(self.row(text, "pool accept_percent"), ["90.00"])
        self.assertEqual(self.row(text, "pool score_memo_hit_percent"),
                         ["86.00"])

    def test_no_funnel_section_anywhere_renders_no_pool_rows(self):
        text = self.render([PRE_FUNNEL])
        self.assertNotIn("| pool ", text)
        self.assertIn("wall_seconds", text)

    def test_csv_carries_the_same_na_cells(self):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "traj.csv")
            self.render([PRE_FUNNEL, REJECTION, INDEX], csv_path=csv_path)
            with open(csv_path) as f:
                lines = f.read().splitlines()
        by_label = {line.split(",")[0]: line.split(",")[1:]
                    for line in lines}
        self.assertEqual(by_label["pool reject_offline"],
                         ["n/a", "31338948", "n/a"])
        self.assertEqual(by_label["pool index_exhausted"],
                         ["n/a", "n/a", "0"])

    def test_peak_rss_row_is_na_for_older_documents(self):
        text = self.render([INDEX, doc("BENCH_14", peak_rss_mb=115.5)])
        self.assertEqual(self.row(text, "peak_rss_mb"), ["n/a", "115.5"])

    def test_observe_calls_row_is_na_without_a_monitor_section(self):
        monitored = doc("BENCH_15")
        monitored["monitor"] = {"observe_calls": 1298423.0}
        age_only = doc("BENCH_17")
        age_only["monitor"] = {"observe_calls": 0.0}
        text = self.render([PRE_FUNNEL, monitored, age_only])
        self.assertEqual(self.row(text, "monitor observe_calls"),
                         ["n/a", "1298423", "0"])

    def test_committed_documents_still_render(self):
        # The real BENCH_*.json sequence in the repo root spans the schema
        # boundary; the longitudinal view must stay renderable end to end.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        import glob
        paths = [p for p in glob.glob(os.path.join(root, "BENCH_*.json"))
                 if ".quick." not in os.path.basename(p)]
        self.assertGreaterEqual(len(paths), 3)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = bench_compare.trajectory(paths, None)
        self.assertEqual(status, 0)
        self.assertIn("pool draws", out.getvalue())


class PairwisePeakRssTest(unittest.TestCase):
    """Pairwise mode prints peak_rss_mb, "n/a" when a side lacks it, and
    never flags it."""

    def pairwise(self, base, cur):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["bench_compare.py"] + write_docs(tmp, [base, cur])
            out = io.StringIO()
            saved = sys.argv
            sys.argv = argv
            try:
                with contextlib.redirect_stdout(out):
                    status = bench_compare.main()
            finally:
                sys.argv = saved
        return status, out.getvalue()

    def rss_line(self, text):
        for line in text.splitlines():
            if "totals/peak_rss_mb" in line:
                return line
        self.fail(f"no peak_rss_mb line in:\n{text}")

    def test_pairwise_prints_na_against_an_older_baseline(self):
        status, text = self.pairwise(doc("BENCH_9"),
                                     doc("BENCH_14", peak_rss_mb=115.5))
        self.assertEqual(status, 0)
        line = self.rss_line(text)
        self.assertIn("n/a", line)
        self.assertIn("115.500", line)

    def test_pairwise_never_flags_peak_rss(self):
        status, text = self.pairwise(doc("BENCH_13", peak_rss_mb=100.0),
                                     doc("BENCH_14", peak_rss_mb=200.0))
        self.assertEqual(status, 0)
        line = self.rss_line(text)
        self.assertIn("+100.0%", line)
        self.assertFalse(line.startswith("!!"))
        self.assertIn("no regressions above threshold", text)


if __name__ == "__main__":
    unittest.main()
