"""Telemetry overhead guard: tracing must cost <5% of planning time.

The :mod:`repro.obs` layer promises that instrumentation is cheap
enough to leave enabled in CI.  This bench holds it to that promise:
the 80-node CI workload is planned repeatedly with tracing disabled
and with a live tracer plus ambient registry installed, and the
relative slowdown of the traced arm must not be credibly above
``LIMIT`` (5%).

A third arm holds structured logging (:mod:`repro.obs.log`) to the
same budget: it plans with the tracer live and additionally emits as
many flight-recorder events as the tracer recorded spans -- a log
volume matching the tracing volume -- and its overhead over the plain
arm must also stay under ``LIMIT``.

Arms are timed back-to-back within each round (order rotated per
round), giving one paired ratio ``arm / plain - 1`` per round.  The
reported overhead is the *median* of those ratios with a seeded
percentile-bootstrap confidence interval, and an arm fails only when
the interval's lower bound exceeds ``LIMIT`` -- see
:func:`overhead_estimate`.  (The minimum ratio, used before, is biased
low: it reported tracing as 10-14% *faster* than no tracing.)

Exit status 1 when the gate fails -- the CI perf-smoke job runs this
directly.  Results are persisted as ``BENCH_telemetry.json`` under
``benchmarks/results/`` (override with ``REPRO_BENCH_RESULTS``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from _common import emit, results_dir
from bench_planner_scaling import COST, _workload
from repro.analysis.report import format_table
from repro.analysis.stats import percentile
from repro.core.planner import RemoPlanner
from repro.obs import log, names, trace
from repro.obs.metrics import MetricsRegistry, use_registry

#: Maximum tolerated relative slowdown of the traced arm.
LIMIT = 0.05

DEFAULT_NODES = 80
#: Enough paired rounds that the bootstrap interval's lower bound is
#: not simply the smallest ratio.
DEFAULT_ROUNDS = 11

#: Two-sided confidence level, resample count and seed of the
#: bootstrap interval (seeded so one set of timings gets one verdict).
CI_LEVEL = 0.95
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def overhead_estimate(
    plain: Sequence[float], arm: Sequence[float]
) -> Tuple[float, float, float]:
    """Median paired overhead ``arm / plain - 1`` and its bootstrap CI.

    Returns ``(median, ci_low, ci_high)``.  Rounds are paired (both arms
    timed back-to-back), so each ratio cancels round-to-round drift; the
    interval comes from the medians of ``BOOTSTRAP_RESAMPLES`` seeded
    resamples of the ratios.
    """
    if len(plain) != len(arm) or not plain:
        raise ValueError("overhead needs equally many (>0) paired timings")
    ratios = [a / p - 1.0 for p, a in zip(plain, arm)]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    tail = 50.0 * (1.0 - CI_LEVEL)
    return (
        statistics.median(ratios),
        percentile(medians, tail),
        percentile(medians, 100.0 - tail),
    )


def gate_fails(ci_low: float) -> bool:
    """An arm fails when even the low end of its interval is over budget."""
    return ci_low > LIMIT


def _time_plan(cluster, tasks) -> float:
    planner = RemoPlanner(COST)
    # Collect before timing so garbage from the previous arm cannot
    # trigger a GC cycle inside this arm's timed region.
    gc.collect()
    started = time.perf_counter()
    planner.plan(tasks, cluster)
    return time.perf_counter() - started


def _time_plan_logged(cluster, tasks, emits: int) -> float:
    """One planning pass plus ``emits`` structured events, timed together."""
    planner = RemoPlanner(COST)
    gc.collect()
    started = time.perf_counter()
    planner.plan(tasks, cluster)
    for i in range(emits):
        log.emit(names.LOG_DEPLOY_WORKER_START, lane=names.LANE_DEPLOY, i=i)
    elapsed = time.perf_counter() - started
    log.clear()
    return elapsed


def measure(n_nodes: int, rounds: int) -> Dict[str, float]:
    """Paired per-round timings, arm order rotated every round.

    Each round times all three arms back-to-back; the overheads are
    estimated from the per-round pairs by :func:`overhead_estimate`.
    Rotating the arm order removes systematic position bias from drift
    within a round.
    """
    cluster, tasks = _workload(n_nodes, n_nodes)
    # Warm-up: first plan pays one-time import and allocation costs.
    _time_plan(cluster, tasks)
    timings: Dict[str, List[float]] = {"plain": [], "traced": [], "logged": []}
    spans = 0

    def _arm_plain():
        return _time_plan(cluster, tasks)

    def _arm_traced():
        nonlocal spans
        with use_registry(MetricsRegistry()):
            with trace.installed() as tracer:
                elapsed = _time_plan(cluster, tasks)
                spans = len(tracer)
        return elapsed

    def _arm_logged():
        with use_registry(MetricsRegistry()):
            with trace.installed():
                return _time_plan_logged(cluster, tasks, spans)

    arms = [("plain", _arm_plain), ("traced", _arm_traced), ("logged", _arm_logged)]
    for i in range(rounds):
        for name, fn in arms[i % 3 :] + arms[: i % 3]:
            timings[name].append(fn())
    overhead, overhead_low, overhead_high = overhead_estimate(
        timings["plain"], timings["traced"]
    )
    log_overhead, log_low, log_high = overhead_estimate(
        timings["plain"], timings["logged"]
    )
    return {
        "nodes": float(n_nodes),
        "rounds": float(rounds),
        "plain_seconds": statistics.median(timings["plain"]),
        "traced_seconds": statistics.median(timings["traced"]),
        "logged_seconds": statistics.median(timings["logged"]),
        "overhead_fraction": overhead,
        "overhead_ci_low": overhead_low,
        "overhead_ci_high": overhead_high,
        "log_overhead_fraction": log_overhead,
        "log_overhead_ci_low": log_low,
        "log_overhead_ci_high": log_high,
        "spans_recorded": float(spans),
        "events_emitted": float(spans),
    }


def persist(row: Dict[str, float]) -> str:
    payload = {
        "bench": "telemetry_overhead",
        "limit": LIMIT,
        "ci_level": CI_LEVEL,
        "result": row,
    }
    target = results_dir()
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "BENCH_telemetry.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _ci_text(row: Dict[str, float], prefix: str) -> str:
    return f"[{row[prefix + '_ci_low']:+.2%}, {row[prefix + '_ci_high']:+.2%}]"


def report(row: Dict[str, float]) -> None:
    emit(
        "telemetry_overhead",
        format_table(
            f"Telemetry overhead (limit {LIMIT:.0%})",
            ["metric", "value"],
            [
                ["nodes", int(row["nodes"])],
                ["rounds", int(row["rounds"])],
                ["plain seconds (median)", round(row["plain_seconds"], 4)],
                ["traced seconds (median)", round(row["traced_seconds"], 4)],
                ["logged seconds (median)", round(row["logged_seconds"], 4)],
                ["tracing overhead (median)", f"{row['overhead_fraction']:+.2%}"],
                ["tracing overhead CI", _ci_text(row, "overhead")],
                ["logging overhead (median)", f"{row['log_overhead_fraction']:+.2%}"],
                ["logging overhead CI", _ci_text(row, "log_overhead")],
                ["spans recorded", int(row["spans_recorded"])],
                ["events emitted", int(row["events_emitted"])],
            ],
        ),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes", type=int, default=DEFAULT_NODES, help="workload size"
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS, help="paired rounds per arm"
    )
    args = parser.parse_args()
    row = measure(args.nodes, args.rounds)
    report(row)
    path = persist(row)
    print(f"wrote {path}")
    failed = False
    for arm, prefix in (("tracing", "overhead"), ("logging", "log_overhead")):
        low = row[prefix + "_ci_low"]
        verdict = "FAIL" if gate_fails(low) else "OK"
        failed = failed or verdict == "FAIL"
        print(
            f"{verdict}: {arm} overhead median {row[prefix + '_fraction']:+.2%}, "
            f"{CI_LEVEL:.0%} CI {_ci_text(row, prefix)}; "
            f"fails when the CI low end exceeds {LIMIT:.0%}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
