"""Planner wall-clock scaling under incremental cost propagation.

The delta-based tree model (see DESIGN.md) exists to make planning
cheap at paper scale; this bench measures it directly.  For each
workload size N the planner runs the CLI-default regime (N nodes, N
tasks, capacity 400, C=20/a=1) and reports wall-clock time alongside
the search-effort counters from :class:`PlanningStats`.

Each row splits ``elapsed_seconds`` into non-overlapping phases:
``partition`` (neighbourhood enumeration and gain ranking),
``tree_construction`` (tree builds, *excluding* adjustment) and
``adjustment`` (the tree adjuster's relief attempts).  The
``planner_phase_seconds`` registry series nests -- adjustment is
observed inside construction -- so the bench subtracts it to report
construction as self time, and checks that the phases sum to at most
``elapsed_seconds``.

Besides the human-readable table, results are persisted as
``BENCH_planner.json`` under ``benchmarks/results/`` (override with
``REPRO_BENCH_RESULTS``) using the same field names the CLI's
``repro plan --json`` emits in its ``planning`` block, so the two
sources can be joined.

Run standalone for custom sizes (the CI perf-smoke job does this)::

    PYTHONPATH=src python benchmarks/bench_planner_scaling.py --sizes 80
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Sequence

from _common import emit, results_dir
from repro.analysis.report import format_table
from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.obs import names
from repro.obs.metrics import default_registry
from repro.workloads.tasks import TaskSampler

COST = CostModel(per_message=20.0, per_value=1.0)
DEFAULT_SIZES = (50, 100, 200, 500, 1000)

#: Planner phases whose wall time the obs registry histograms record.
#: ``adjustment`` runs inside ``tree_construction``, so its registry
#: seconds are a subset of (not additive with) the construction phase.
_PHASES = ("partition", "tree_construction", "adjustment")

#: Slack for clock reads when checking that the phases fit in
#: ``elapsed_seconds``.
_PHASE_SUM_TOLERANCE_S = 1e-3


def _workload(n_nodes: int, n_tasks: int, seed: int = 1):
    """The CLI-default regime at size ``n_nodes`` x ``n_tasks``."""
    cluster = make_uniform_cluster(
        n_nodes=n_nodes,
        capacity=400.0,
        attrs_per_node=16,
        attribute_pool=default_attribute_pool(32),
        central_capacity=1200.0,
        seed=seed,
    )
    tasks = TaskSampler(cluster, seed=seed + 1).sample_many(
        n_tasks, (2, 5), (max(5, n_nodes // 6), max(6, n_nodes // 2))
    )
    return cluster, tasks


def _phase_seconds_snapshot() -> Dict[str, float]:
    registry = default_registry()
    return {
        phase: registry.histogram(names.PLANNER_PHASE_SECONDS, phase=phase).sum
        for phase in _PHASES
    }


def self_phase_seconds(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Non-overlapping phase seconds between two registry snapshots.

    ``tree_construction`` becomes self time: the adjustment observed
    during construction is subtracted, so the three phases add up.
    """
    spent = {phase: after[phase] - before[phase] for phase in _PHASES}
    spent["tree_construction"] -= spent["adjustment"]
    return spent


def check_phase_sum(row: Dict) -> None:
    """Fail when a row's phases claim more time than the plan took."""
    total = sum(row["phase_seconds"].values())
    limit = row["elapsed_seconds"] + _PHASE_SUM_TOLERANCE_S
    if total > limit:
        raise AssertionError(
            f"{row['nodes']}-node row: phases sum to {total:.4f} s, "
            f"more than elapsed {row['elapsed_seconds']:.4f} s"
        )


def measure(n_nodes: int, n_tasks: int) -> Dict:
    cluster, tasks = _workload(n_nodes, n_tasks)
    planner = RemoPlanner(COST)
    before = _phase_seconds_snapshot()
    plan, stats = planner.plan_with_stats(tasks, cluster)
    after = _phase_seconds_snapshot()
    memo_total = stats.memo_hits + stats.memo_misses
    row = {
        "nodes": n_nodes,
        "tasks": n_tasks,
        "elapsed_seconds": stats.elapsed_seconds,
        "iterations": stats.iterations,
        "candidates_ranked": stats.candidates_ranked,
        "candidates_evaluated": stats.candidates_evaluated,
        "accepted_ops": list(stats.accepted_ops),
        "coverage": plan.coverage(),
        # Committed alongside the timings so a perf change that silently
        # alters the default plan shows up as a fingerprint diff.
        "fingerprint": plan.fingerprint(),
        "collected_pairs": plan.collected_pair_count(),
        "trees": plan.tree_count(),
        "traffic_per_period": plan.total_message_cost(),
        "phase_seconds": self_phase_seconds(before, after),
        "memo": {
            "hits": stats.memo_hits,
            "misses": stats.memo_misses,
            "hit_rate": stats.memo_hits / memo_total if memo_total else 0.0,
        },
    }
    check_phase_sum(row)
    return row


def run_scaling(sizes: Sequence[int]) -> List[Dict]:
    return [measure(n, n) for n in sizes]


def persist(rows: List[Dict]) -> str:
    payload = {"bench": "planner_scaling", "results": rows}
    target = results_dir()
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "BENCH_planner.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def report(rows: List[Dict]) -> None:
    emit(
        "planner_scaling",
        format_table(
            "Planner scaling (CLI-default regime, tasks = nodes)",
            ["nodes", "seconds", "tree_s", "adjust_s", "memo_rate", "evaluated", "accepted", "coverage"],
            [
                [
                    row["nodes"],
                    round(row["elapsed_seconds"], 2),
                    round(row["phase_seconds"]["tree_construction"], 2),
                    round(row["phase_seconds"]["adjustment"], 2),
                    round(row["memo"]["hit_rate"], 3),
                    row["candidates_evaluated"],
                    len(row["accepted_ops"]),
                    round(row["coverage"], 4),
                ]
                for row in rows
            ],
        ),
    )


def _env_sizes() -> Sequence[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def test_planner_scaling(benchmark):
    sizes = _env_sizes()
    rows = benchmark.pedantic(run_scaling, args=(sizes,), rounds=1, iterations=1)
    report(rows)
    persist(rows)
    for row in rows:
        assert row["coverage"] > 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="workload sizes (nodes; tasks = nodes)",
    )
    args = parser.parse_args()
    rows = run_scaling(args.sizes)
    report(rows)
    path = persist(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
