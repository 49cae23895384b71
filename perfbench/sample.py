"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (``run.py`` does this; ``PYTHONPATH`` must name the repo's
``src``)::

    python3 perfbench/sample.py '{"kind": "plan", "seed": 3, ...}'

Prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading at the end of set-up; the parent subtracts
its own spawn reading (CLOCK_MONOTONIC is system-wide) to get set-up
time including interpreter start and imports.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import time
from typing import Any, Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probes import (  # noqa: E402
    GcTimer,
    SelfTimer,
    install_planner_layers,
    install_runtime_layers,
    probed_transport,
    timed_metric_registry,
    timed_runtime_metrics,
)

from repro.checks import check_plan_for_cluster  # noqa: E402
from repro.cluster.metrics import MetricRegistry  # noqa: E402
from repro.core.planner import RemoPlanner  # noqa: E402
from repro.obs import names  # noqa: E402
from repro.runtime import MonitoringRuntime, RuntimeConfig  # noqa: E402
from repro.runtime.metrics import RuntimeMetrics  # noqa: E402
from repro.runtime.transport import InProcessTransport  # noqa: E402
from repro.workloads.presets import sampled_workload  # noqa: E402

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layers(timer: SelfTimer) -> Dict[str, Any]:
    return {
        "self_s": {layer: ns / 1e9 for layer, ns in timer.self_ns.items()},
        "calls": dict(timer.calls),
        "samples_s": {
            layer: [ns / 1e9 for ns in values] for layer, values in timer.samples.items()
        },
    }


def plan_sample(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Plan one sampled task set from scratch and run it through the gate."""
    nodes = spec["nodes"]
    cluster, cost, tasks = sampled_workload(
        nodes=nodes, tasks=nodes, central=spec["central"], seed=spec["seed"]
    )
    timer = SelfTimer()
    if spec["trace"]:
        install_planner_layers(timer)
    ready = time.monotonic()
    with GcTimer() as gc_timer:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        plan, stats = RemoPlanner(cost).plan_with_stats(tasks, cluster)
        gate0 = time.perf_counter()
        report = check_plan_for_cluster(plan, cluster)
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
    gate_s = []
    for _ in range(spec["gate_reps"]):
        started = time.perf_counter()
        check_plan_for_cluster(plan, cluster)
        gate_s.append(time.perf_counter() - started)
    return {
        "ready": ready,
        "plan_s": wall1 - wall0,
        "gate_once_s": wall1 - gate0,
        "cpu_s": cpu1 - cpu0,
        "gate_s": gate_s,
        "gate_errors": len(report.errors),
        "coverage": plan.coverage(),
        "cost": plan.total_message_cost(),
        "collector_usage": plan.central_usage(),
        "fingerprint": plan.fingerprint(),
        "candidates_evaluated": stats.candidates_evaluated,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "gc_s": gc_timer.ns / 1e9,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": _layers(timer),
    }


def run_sample(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Plan the fixed 100-node workload, then run it live for N periods."""
    wire = spec["wire"]
    periods = spec["periods"]
    trace = spec["trace"]
    cluster, cost, tasks = sampled_workload(nodes=100, tasks=100)
    wall0 = time.perf_counter()
    plan = RemoPlanner(cost).plan(tasks, cluster)
    report = check_plan_for_cluster(plan, cluster)
    plan_s = time.perf_counter() - wall0

    timer = SelfTimer()
    tasks_created = [0]
    loop = asyncio.new_event_loop()
    if trace:
        install_runtime_layers(timer, wire)

        def count_tasks(loop: asyncio.AbstractEventLoop, coro: Any, **kwargs: Any) -> asyncio.Task:
            tasks_created[0] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(count_tasks)
    metrics_cls = timed_runtime_metrics(timer) if trace else RuntimeMetrics
    registry_cls = timed_metric_registry(timer) if trace else MetricRegistry

    async def main() -> Dict[str, Any]:
        if wire:
            from repro.net.directory import PeerDirectory
            from repro.net.tcp import TcpTransport

            transport = probed_transport(TcpTransport)(PeerDirectory(), force_wire=True)
            transport.directory.default = await transport.start()
        else:
            transport = probed_transport(InProcessTransport)()
        config = RuntimeConfig(
            period_seconds=spec["period_s"], child_wait_fraction=1.0, seed=spec["seed"]
        )
        runtime = MonitoringRuntime(
            plan,
            cluster,
            registry=registry_cls(plan.pairs, seed=spec["seed"]),
            config=config,
            transport=transport,
            metrics=metrics_cls(),
        )
        ready = time.monotonic()
        tasks_before = tasks_created[0]
        with GcTimer() as gc_timer:
            cpu0 = time.process_time()
            result = await runtime.run_async(periods)
            cpu1 = time.process_time()
        registry = result.metrics.registry
        ticks = [transport.tick_at[p] for p in sorted(transport.tick_at)]
        tick_cpu = [transport.tick_cpu[p] for p in sorted(transport.tick_cpu)]
        return {
            "ready": ready,
            "cpu_s": cpu1 - cpu0,
            "tick_at": ticks,
            "tick_cpu": tick_cpu,
            "fresh": [s.fresh_fraction for s in result.samples],
            "messages_sent": result.messages_sent,
            "probe_update_sends": transport.update_sends,
            "probe_sends": transport.sends,
            "probe_values": transport.update_values,
            "collect_s": transport.collect_s,
            "net_bytes": registry.counter_total(names.NET_BYTES_SENT),
            "net_frames": registry.counter_total(names.NET_FRAMES_SENT),
            "tasks": tasks_created[0] - tasks_before,
            "gc_s": gc_timer.ns / 1e9,
        }

    try:
        out = loop.run_until_complete(main())
    finally:
        loop.close()
    out.update(
        plan_s=plan_s,
        gate_errors=len(report.errors),
        coverage=plan.coverage(),
        cost=plan.total_message_cost(),
        fingerprint=plan.fingerprint(),
        peak_rss_mb=_peak_rss_mb(),
        layers=_layers(timer),
    )
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    kind = spec["kind"]
    if kind == "plan":
        result = plan_sample(spec)
    elif kind == "run":
        result = run_sample(spec)
    else:
        raise SystemExit(f"unknown sample kind {kind!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
