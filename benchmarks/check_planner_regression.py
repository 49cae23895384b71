"""Regression gates against the committed planner baseline.

CI runners are slower (and noisier) than the machine that produced
``benchmarks/results/BENCH_planner.json``, so absolute seconds cannot
be gated.  What *is* stable across machines is how planning time
scales with workload size: losing an optimization (incremental cost
propagation, memoized candidate evaluation, the SoA kernels) bends the
scaling curve long before it shows up in any single row.

The gate therefore compares a scaling ratio: from a fresh bench run at
two sizes (the CI perf-smoke job uses 80 and 400 nodes) it computes
``elapsed(high) / elapsed(low)`` and fails when that exceeds
``--factor`` (default 1.5) times the same ratio predicted by the
committed baseline.  Baseline rows rarely include the exact CI sizes,
so the expected seconds at each size are read off the baseline's
log-log curve (planning time is polynomial in N, which is a straight
line in log space).

``--fingerprints`` switches to the behaviour gate: every fresh row's
plan fingerprint must equal the committed row of the same size, so a
change that alters the default plan fails even when it is fast.  The
fresh sizes must be committed baseline sizes (CI uses 50 and 100).

Usage (what ``.github/workflows/ci.yml`` runs)::

    python benchmarks/bench_planner_scaling.py --sizes 80 400   # fresh run
    python benchmarks/check_planner_regression.py \
        --fresh benchmarks/results/BENCH_planner.json \
        --baseline <committed BENCH_planner.json> --low 80 --high 400
    python benchmarks/check_planner_regression.py --fingerprints \
        --fresh <fresh BENCH_planner.json> --baseline <committed one>
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict


def load_rows(path: str, field: str = "elapsed_seconds") -> Dict[int, Any]:
    """``{nodes: row[field]}`` from a BENCH_planner.json payload."""
    with open(path) as fh:
        payload = json.load(fh)
    rows = {int(r["nodes"]): r[field] for r in payload["results"]}
    if not rows:
        raise SystemExit(f"{path}: no bench rows")
    return rows


def check_fingerprints(fresh_path: str, baseline_path: str) -> int:
    """Exit status of the fingerprint gate: 0 when every fresh row's
    plan matches the committed row of the same size, 1 otherwise."""
    fresh = load_rows(fresh_path, "fingerprint")
    base = load_rows(baseline_path, "fingerprint")
    failures = 0
    for size in sorted(fresh):
        expected = base.get(size)
        if expected is None:
            verdict = "NO BASELINE ROW"
        elif fresh[size] == expected:
            verdict = "OK"
        else:
            verdict = f"CHANGED (committed {expected[:12]})"
        failures += verdict != "OK"
        print(f"plan fingerprint at {size} nodes: {fresh[size][:12]}: {verdict}")
    if failures:
        print(
            "the default plan changed; a pure refactor or speed-up must keep "
            "every committed fingerprint.",
            file=sys.stderr,
        )
        return 1
    return 0


def interp_elapsed(rows: Dict[int, float], n: int) -> float:
    """Expected elapsed seconds at size ``n`` from the baseline curve.

    Exact rows are returned verbatim; other sizes are interpolated (or
    extrapolated from the nearest segment) linearly in log-log space.
    Rows timed below 1 ms are floored to keep the logs finite.
    """
    if n in rows:
        return rows[n]
    sizes = sorted(rows)
    if len(sizes) < 2:
        raise SystemExit("baseline needs >= 2 rows to interpolate a scaling curve")
    # Pick the segment bracketing n, else the nearest edge segment.
    lo = max((s for s in sizes if s <= n), default=sizes[0])
    hi = min((s for s in sizes if s > lo), default=sizes[-1])
    if lo == hi:
        lo = sizes[-2]
    x0, x1 = math.log(lo), math.log(hi)
    y0 = math.log(max(rows[lo], 1e-3))
    y1 = math.log(max(rows[hi], 1e-3))
    slope = (y1 - y0) / (x1 - x0)
    return math.exp(y0 + slope * (math.log(n) - x0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="BENCH_planner.json from this run")
    parser.add_argument(
        "--baseline",
        default="benchmarks/results/BENCH_planner.json",
        help="committed baseline payload",
    )
    parser.add_argument("--low", type=int, default=80, help="small workload size")
    parser.add_argument("--high", type=int, default=400, help="large workload size")
    parser.add_argument(
        "--factor",
        type=float,
        default=1.5,
        help="fail when the fresh scaling ratio exceeds factor x baseline ratio",
    )
    parser.add_argument(
        "--fingerprints",
        action="store_true",
        help="gate plan fingerprints against the committed rows of the "
        "same sizes instead of the scaling ratio",
    )
    args = parser.parse_args()
    if args.fingerprints:
        return check_fingerprints(args.fresh, args.baseline)

    fresh = load_rows(args.fresh)
    for size in (args.low, args.high):
        if size not in fresh:
            raise SystemExit(f"fresh run {args.fresh} has no {size}-node row")
    base = load_rows(args.baseline)

    # Floor the denominators: sub-100ms rows are scheduler noise and
    # would make the ratio arbitrarily jittery.
    fresh_ratio = fresh[args.high] / max(fresh[args.low], 0.1)
    base_ratio = interp_elapsed(base, args.high) / max(
        interp_elapsed(base, args.low), 0.1
    )
    limit = args.factor * base_ratio
    verdict = "OK" if fresh_ratio <= limit else "REGRESSION"
    print(
        f"planner scaling {args.low}->{args.high} nodes: fresh ratio "
        f"{fresh_ratio:.2f}x vs baseline {base_ratio:.2f}x "
        f"(limit {limit:.2f}x): {verdict}"
    )
    if verdict != "OK":
        print(
            "planning time scales worse than the committed baseline allows; "
            "re-run benchmarks/bench_planner_scaling.py locally and look for "
            "a lost optimization before refreshing the baseline.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
