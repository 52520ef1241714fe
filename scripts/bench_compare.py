#!/usr/bin/env python3
"""Diff two bench_trajectory JSON documents and flag perf regressions.

    scripts/bench_compare.py BENCH_6.json build/bench_now.json
    scripts/bench_compare.py --warn-only baseline.json current.json
    scripts/bench_compare.py --trajectory                 # all BENCH_*.json
    scripts/bench_compare.py --trajectory --csv traj.csv BENCH_*.json

Pairwise mode compares end-to-end wall time, throughput, and the per-phase
wall-time breakdown, and prints process peak RSS (never flagged); a phase
whose total grew by more than --threshold (default 10%) is flagged, as is
(with --share-points N) a phase whose share of the dominant phase rose by
more than N percentage points - the
share-based check is robust to uniformly slow runners, where every total
inflates but the shape of the profile should not. Phases that carry a
negligible share of the runtime are skipped (timer noise dominates them),
as are comparisons the two documents cannot support: with different thread
counts only phase totals (summed work) are compared, and with different
grid shapes nothing is flagged at all - the numbers are merely shown side
by side.

--trajectory mode walks the committed BENCH_<pr>.json documents in PR order
(globbed from the repo root when no files are given; quick variants are
skipped) and renders one per-phase share table across PRs as markdown, plus
CSV with --csv. It flags nothing - it is the longitudinal view of how each
PR moved the profile. A document without a "peak_rss_mb" total (the field
is newer than BENCH_9.json) shows "n/a" for it, here and in pairwise mode.
The "monitor observe_calls" row does the same for documents without a
"monitor" section. The repair/pool funnel rows are the union of every document's
"repair_pool" keys in first-seen order; a counter a document does not
carry renders as "n/a", never an error, because the funnel schema
is allowed to change when the sampler does (PR 9 retired reject_dup /
reject_not_live / reject_offline - structurally impossible under the
eligible-candidate index - and introduced partner_excluded /
index_exhausted).

Exit status: 0 when clean or --warn-only, 1 on a flagged regression, 2 on
unusable input. CI runs the quick compare blocking (gross-regression
thresholds) and the full-grid compare --warn-only, so the trajectory is
visible in logs without gating merges on a noisy runner's wall clock.
"""

import argparse
import glob
import json
import os
import re
import sys

# Phases below this share of the dominant phase are noise-dominated.
MIN_SHARE_PERCENT = 1.0


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if doc.get("bench") != "trajectory":
        sys.exit(f"bench_compare: {path} is not a bench_trajectory document")
    return doc


def pct(old, new):
    if old == 0:
        return 0.0
    return (new - old) / old * 100.0


def same_shape(a, b):
    """Same simulated workload (threads may differ: phase totals are summed
    CPU work, so they compare across thread counts; wall time does not)."""
    ga, gb = a.get("grid", {}), b.get("grid", {})
    return all(ga.get(k) == gb.get(k)
               for k in ("scenario", "peers", "rounds", "cells"))


def same_threads(a, b):
    return a.get("grid", {}).get("threads") == b.get("grid", {}).get("threads")


def bench_sort_key(path):
    """BENCH_7.json sorts after BENCH_6.json numerically, not lexically."""
    m = re.search(r"BENCH_(\d+)", os.path.basename(path))
    return (int(m.group(1)) if m else 1 << 30, path)


def doc_label(path):
    return os.path.splitext(os.path.basename(path))[0]


def peak_rss(doc):
    """Peak RSS in MiB, or None for documents that predate the field."""
    return doc.get("totals", {}).get("peak_rss_mb")


def fmt_or_na(value, spec):
    return "n/a" if value is None else format(value, spec)


def trajectory(paths, csv_path):
    """Per-phase share table across every committed trajectory document."""
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [p for p in glob.glob(os.path.join(root, "BENCH_*.json"))
                 if ".quick." not in os.path.basename(p)]
    if not paths:
        sys.exit("bench_compare: no BENCH_*.json documents found")
    paths = sorted(paths, key=bench_sort_key)
    docs = [load(p) for p in paths]
    labels = [doc_label(p) for p in paths]

    # Phase rows in first-seen order across the whole sequence, so a phase
    # introduced mid-trajectory still lands in a stable place.
    phase_names = []
    for doc in docs:
        for p in doc.get("phases", []):
            if p["name"] not in phase_names:
                phase_names.append(p["name"])

    def shares(doc):
        return {p["name"]: p.get("share_percent", 0.0)
                for p in doc.get("phases", [])}
    per_doc = [shares(d) for d in docs]

    rows = []
    rows.append(["wall_seconds"] +
                [f"{d.get('totals', {}).get('wall_seconds', 0.0):.3f}"
                 for d in docs])
    rows.append(["peer_rounds_per_second"] +
                [f"{d.get('totals', {}).get('peer_rounds_per_second', 0.0):.0f}"
                 for d in docs])
    rows.append(["peak_rss_mb"] +
                [fmt_or_na(peak_rss(d), ".1f") for d in docs])
    # Monitor queries behind the pool scores: 0 once the default age-only
    # estimator stopped asking the monitor.
    rows.append(["monitor observe_calls"] +
                [fmt_or_na(d.get("monitor", {}).get("observe_calls"), ".0f")
                 for d in docs])
    for name in phase_names:
        rows.append([f"phase {name} (share %)"] +
                    [f"{s[name]:.1f}" if name in s else "-" for s in per_doc])

    # repair/pool funnel counters: union of keys in first-seen order. The
    # funnel schema is coupled to the sampler, so counters come and go across
    # PRs (rejection sampling's reject_dup vs the index's partner_excluded);
    # a document that lacks a key - or the whole section - renders "n/a".
    funnel_keys = []
    for doc in docs:
        for k in doc.get("repair_pool", {}):
            if k not in funnel_keys:
                funnel_keys.append(k)

    def funnel_cell(doc, key):
        section = doc.get("repair_pool", {})
        if key not in section:
            return "n/a"
        v = section[key]
        return f"{v:.2f}" if isinstance(v, float) else f"{v}"

    for key in funnel_keys:
        rows.append([f"pool {key}"] +
                    [funnel_cell(d, key) for d in docs])

    widths = [max(len(r[i]) for r in rows + [["metric"] + labels])
              for i in range(len(labels) + 1)]

    def md_row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) \
            + " |"

    print(md_row(["metric"] + labels))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print(md_row(r))
    grids = {(d.get("grid", {}).get("peers"), d.get("grid", {}).get("rounds"),
              d.get("grid", {}).get("cells")) for d in docs}
    if len(grids) > 1:
        print("\nnote: grid shapes differ across documents; shares are "
              "within-document profile shape, totals are not comparable")

    if csv_path:
        with open(csv_path, "w") as f:
            f.write(",".join(["metric"] + labels) + "\n")
            for r in rows:
                f.write(",".join(r) + "\n")
        print(f"\nwrote {csv_path}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="pairwise: BASELINE CURRENT; --trajectory: any "
                         "number of BENCH_*.json (default: repo root glob)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--share-points", type=float, default=None,
                    help="also flag a phase whose share of the dominant "
                         "phase rose by more than this many percentage "
                         "points (default: off)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0")
    ap.add_argument("--trajectory", action="store_true",
                    help="render the per-phase share table across all "
                         "given (or committed) BENCH_*.json documents")
    ap.add_argument("--csv", default=None,
                    help="with --trajectory: also write the table as CSV")
    args = ap.parse_args()

    if args.trajectory:
        return trajectory(args.files, args.csv)
    if len(args.files) != 2:
        ap.error("pairwise mode takes exactly two files: BASELINE CURRENT")
    args.baseline, args.current = args.files

    base = load(args.baseline)
    cur = load(args.current)
    if base.get("schema_version") != cur.get("schema_version"):
        sys.exit(2)

    regressions = []
    comparable = same_shape(base, cur)
    totals_comparable = comparable and same_threads(base, cur)

    def report(label, old, new, delta, flagged):
        marker = "!!" if flagged else "  "
        print(f"{marker} {label:<34} {old:>14.3f} -> {new:>14.3f}"
              f"  ({delta:+.1f}%)")

    print(f"baseline: {args.baseline}  (quick={base.get('quick')})")
    print(f"current:  {args.current}  (quick={cur.get('quick')})")
    if not comparable:
        print("note: grid shapes differ; the workloads are not the same - "
              "showing numbers side by side, flagging nothing")
    elif not totals_comparable:
        print("note: thread counts differ; comparing phase totals (summed "
              "work) but not wall time / throughput")
    print()

    # --- totals ------------------------------------------------------------
    bt, ct = base.get("totals", {}), cur.get("totals", {})
    if "wall_seconds" in bt and "wall_seconds" in ct:
        d = pct(bt["wall_seconds"], ct["wall_seconds"])
        flagged = totals_comparable and d > args.threshold
        report("totals/wall_seconds", bt["wall_seconds"], ct["wall_seconds"],
               d, flagged)
        if flagged:
            regressions.append(f"wall_seconds +{d:.1f}%")
    if "peer_rounds_per_second" in bt and "peer_rounds_per_second" in ct:
        d = pct(bt["peer_rounds_per_second"], ct["peer_rounds_per_second"])
        flagged = totals_comparable and d < -args.threshold
        report("totals/peer_rounds_per_second",
               bt["peer_rounds_per_second"], ct["peer_rounds_per_second"],
               d, flagged)
        if flagged:
            regressions.append(f"throughput {d:.1f}%")
    # Peak RSS is shown, never flagged: it moves with the allocator and the
    # thread count, and older documents do not carry it.
    old_rss, new_rss = peak_rss(base), peak_rss(cur)
    if old_rss is not None and new_rss is not None:
        report("totals/peak_rss_mb", old_rss, new_rss,
               pct(old_rss, new_rss), False)
    else:
        print(f"   {'totals/peak_rss_mb':<34} {fmt_or_na(old_rss, '.3f'):>14}"
              f" -> {fmt_or_na(new_rss, '.3f'):>14}")

    # --- per-phase breakdown ----------------------------------------------
    base_phases = {p["name"]: p for p in base.get("phases", [])}
    print()
    for p in cur.get("phases", []):
        name = p["name"]
        bp = base_phases.get(name)
        if bp is None:
            print(f"   phase {name}: new (no baseline)")
            continue
        if (p.get("share_percent", 0.0) < MIN_SHARE_PERCENT
                and bp.get("share_percent", 0.0) < MIN_SHARE_PERCENT):
            continue  # noise-dominated either way
        d = pct(bp["total_ms"], p["total_ms"])
        flagged = comparable and d > args.threshold
        report(f"phase/{name} (total_ms)", bp["total_ms"], p["total_ms"],
               d, flagged)
        if flagged:
            regressions.append(f"phase {name} +{d:.1f}%")
        if args.share_points is not None and comparable:
            share_delta = (p.get("share_percent", 0.0)
                           - bp.get("share_percent", 0.0))
            if share_delta > args.share_points:
                report(f"phase/{name} (share %)",
                       bp.get("share_percent", 0.0),
                       p.get("share_percent", 0.0), share_delta, True)
                regressions.append(
                    f"phase {name} share +{share_delta:.1f} points")
    for name in base_phases:
        if name not in {p["name"] for p in cur.get("phases", [])}:
            print(f"   phase {name}: dropped (baseline only)")

    # --- tracing overhead --------------------------------------------------
    bo = base.get("trace_overhead", {})
    co = cur.get("trace_overhead", {})
    if "disabled_scope_ns" in bo and "disabled_scope_ns" in co:
        print()
        report("trace/disabled_scope_ns", bo["disabled_scope_ns"],
               co["disabled_scope_ns"],
               pct(bo["disabled_scope_ns"], co["disabled_scope_ns"]), False)

    print()
    if regressions:
        print("regressions (> %.0f%%):" % args.threshold)
        for r in regressions:
            print(f"  - {r}")
        return 0 if args.warn_only else 1
    print("no regressions above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
