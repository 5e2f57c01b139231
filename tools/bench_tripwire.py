#!/usr/bin/env python3
"""Bench-trajectory tripwire.

Every bench binary asserts its own acceptance floors in-process, but a
floor only catches a collapse — a slow drift from 81% improvement down
to 72% sails under a 70% gate one PR at a time. This script diffs the
headline metrics of freshly generated ``BENCH_*.json`` documents
against the baselines committed at the repo root and fails when a
metric moves past its tolerance band in the regressing direction.
Improvements beyond the band are reported (so the baseline gets
refreshed) but do not fail.

Usage:
    bench_tripwire.py FRESH.json [FRESH2.json ...]   # explicit files
    bench_tripwire.py --check [--fresh-dir DIR]      # scan a directory

A fresh file is matched to its committed baseline by name, with any
``_N`` run suffix stripped (``BENCH_hotpath_2.json`` compares against
``BENCH_hotpath.json``). Benches without a spec below, and spec'd
benches whose fresh or baseline document is absent, are skipped with a
note — each CI job can point the tripwire at only the bench it just
ran. Exits nonzero if any compared metric regressed, or if --check
found nothing to compare.

Host-timing-dependent values (wall-clock nanoseconds, drill landing
cycles) are deliberately not spec'd; everything below is virtual-time
or a ratio of virtual-time quantities, so the bands can be tight
without flaking on a noisy runner.
"""

import argparse
import json
import os
import re
import sys

# (json-path, absolute tolerance, higher_is_better)
# The path walks nested objects; arrays are not traversed.
SPECS = {
    "BENCH_hotpath.json": [
        ("improvement_pct_4_workers", 8.0, True),
    ],
    "BENCH_switchless.json": [
        ("improvement_pct_skewed", 8.0, True),
        ("uniform_delta_pct", 8.0, False),
    ],
    "BENCH_faults.json": [
        # Single-worker run with 5% of calls timing out inside
        # residencies: guards what the timeout tail costs.
        ("parity/total_cycles", 0.0, False),
        ("degraded_mode/overhead_pct", 5.0, False),
        ("chaos_summary/mean_recovery_cycles", 2500.0, False),
        ("chaos_summary/lost_verdicts", 0.0, False),
        ("chaos_summary/duplicated_verdicts", 0.0, False),
    ],
    "BENCH_gateway.json": [
        ("pipelined_vs_blocking/pipelined_vs_blocking_x", 0.4, True),
        ("pipelined_vs_blocking/lost_verdicts", 0.0, False),
        ("pipelined_vs_blocking/duplicated_verdicts", 0.0, False),
    ],
    "BENCH_scale.json": [
        # Ratio of host-ns percentiles: noisier than virtual time, so
        # the band is wide; the binary's own 1.5x assert is the floor.
        ("summary/p99_flatness_ratio", 0.35, False),
        ("summary/resident_bound_ok", 0.0, True),
    ],
    "BENCH_authz.json": [
        ("adversary_summary/policy_bypasses", 0.0, False),
        ("adversary_summary/lost_verdicts", 0.0, False),
        ("revocation/completions_after_witness", 8.0, False),
        ("revocation/within_one_batch", 0.0, True),
    ],
    "BENCH_slo.json": [
        ("fault_burst/detect_epochs", 2.0, False),
        ("degrade_shift/detect_epochs", 2.0, False),
    ],
}


def lookup(doc, path):
    node = doc
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool):
        return float(node)
    if isinstance(node, (int, float)):
        return float(node)
    return None


def canonical(path):
    """BENCH_hotpath_2.json -> BENCH_hotpath.json"""
    return re.sub(r"_\d+\.json$", ".json", os.path.basename(path))


def compare(fresh_path, baseline_dir):
    """Returns (compared, regressions) counts for one fresh document."""
    name = canonical(fresh_path)
    spec = SPECS.get(name)
    if spec is None:
        print(f"  skip {fresh_path}: no tripwire spec for {name}")
        return 0, 0
    baseline_path = os.path.join(baseline_dir, name)
    if not os.path.exists(baseline_path):
        print(f"  skip {fresh_path}: no committed baseline {baseline_path}")
        return 0, 0
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    compared = regressions = 0
    for path, tol, higher_is_better in spec:
        base_v = lookup(baseline, path)
        fresh_v = lookup(fresh, path)
        if base_v is None:
            print(f"  skip {name}:{path}: key missing from baseline")
            continue
        if fresh_v is None:
            print(f"  FAIL {name}:{path}: key missing from fresh run")
            regressions += 1
            continue
        compared += 1
        delta = fresh_v - base_v
        regressed = delta < -tol if higher_is_better else delta > tol
        improved = delta > tol if higher_is_better else delta < -tol
        arrow = "REGRESSED" if regressed else "improved" if improved else "ok"
        print(
            f"  {'FAIL' if regressed else '  ok'} {name}:{path}: "
            f"{base_v:g} -> {fresh_v:g} (tol ±{tol:g}, {arrow})"
        )
        if regressed:
            regressions += 1
    return compared, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="*", help="fresh BENCH_*.json documents")
    ap.add_argument(
        "--check",
        action="store_true",
        help="scan --fresh-dir for BENCH_*.json instead of naming files",
    )
    ap.add_argument("--fresh-dir", default="/tmp", help="directory --check scans")
    ap.add_argument(
        "--baseline-dir",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="directory holding the committed baselines (default: repo root)",
    )
    args = ap.parse_args()

    fresh = list(args.fresh)
    if args.check:
        fresh += sorted(
            os.path.join(args.fresh_dir, f)
            for f in os.listdir(args.fresh_dir)
            if re.fullmatch(r"BENCH_\w+\.json", f)
        )
    if not fresh:
        ap.error("name fresh documents or pass --check")

    total = failures = 0
    print(f"bench tripwire (baselines: {args.baseline_dir})")
    for path in fresh:
        compared, regressions = compare(path, args.baseline_dir)
        total += compared
        failures += regressions
    if failures:
        print(f"tripwire: {failures} metric(s) regressed past tolerance")
        return 1
    if total == 0:
        print("tripwire: nothing compared — no spec'd bench documents found")
        return 1
    print(f"tripwire: {total} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
