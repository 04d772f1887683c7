#!/usr/bin/env python
"""Fail CI when a BENCH_*.json stage regresses below its floor.

Reads the ``speedup_vs_baseline_normalized`` section that
``repro.benchgate.merge_bench`` derives (each side's seconds scaled by
its own ``calibration_ops_per_second`` before the ratio, so the
runner's raw speed cancels out) and exits non-zero when the requested
stage falls under ``--min-normalized``.  The perf-smoke job uses it to
pin the analyzer line of ``BENCH_substrate.json`` at a fixed floor
(2.29x): no change may move that number below it.

Stdlib only; run from the repo root::

    python scripts/perf_check.py --bench BENCH_substrate.json \
        --stage analyzer --min-normalized 2.29
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="BENCH_*.json to check")
    parser.add_argument(
        "--stage", required=True,
        help="stage name, e.g. 'analyzer' for analyzer_seconds",
    )
    parser.add_argument(
        "--min-normalized", type=float, required=True,
        help="minimum acceptable calibration-normalized speedup vs baseline",
    )
    args = parser.parse_args(argv)

    with open(args.bench, "r", encoding="utf-8") as handle:
        data = json.load(handle)

    normalized = data.get("speedup_vs_baseline_normalized") or {}
    value = normalized.get(args.stage)
    if value is None:
        print(
            f"perf-check: {args.bench} has no normalized speedup for stage "
            f"{args.stage!r} (has: {sorted(normalized)}); was the baseline "
            "recorded with a calibration figure?",
            file=sys.stderr,
        )
        return 2
    raw = (data.get("speedup_vs_baseline") or {}).get(args.stage)
    print(
        f"perf-check: {args.stage} normalized speedup {value}x "
        f"(raw {raw}x, floor {args.min_normalized}x)"
    )
    if value < args.min_normalized:
        print(
            f"perf-check: FAIL — {args.stage} regressed below "
            f"{args.min_normalized}x",
            file=sys.stderr,
        )
        return 1
    print("perf-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
