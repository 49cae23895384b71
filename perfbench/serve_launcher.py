"""Start the real ``repro serve`` entry point for the ``churn_serve`` workload.

Usage (``run.py`` does this; ``PYTHONPATH`` must name the repo's
``src``)::

    python3 perfbench/serve_launcher.py '{"trace": false, "nodes": 100, ...}'

Runs ``repro.cli.main(["serve", ...])`` in this process.  With
``"trace": true`` the layer wrappers are installed first, so the
server's planner, adaptation and control-plane calls are timed from
the benchmark's side.  Stop it with SIGINT (``repro serve``'s own
shutdown path); it then gates the final plan with
``check_plan_for_cluster`` and prints one JSON object on its last
stdout line: final plan, CPU and peak RSS while serving, and the layer
self times.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probes import GcTimer, SelfTimer, install_planner_layers, install_serve_layers  # noqa: E402

from repro.checks import check_plan_for_cluster  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402
from repro.serve.controlplane import ControlPlane  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec: Dict[str, Any] = json.loads(sys.argv[1])
    # Keep a handle on the control plane the CLI constructs, to gate
    # its final plan after shutdown (construction-time only).
    planes: List[ControlPlane] = []
    original_init = ControlPlane.__init__

    def capture(self: ControlPlane, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        planes.append(self)

    ControlPlane.__init__ = capture  # type: ignore[method-assign]
    timer = SelfTimer()
    if spec["trace"]:
        install_planner_layers(timer)
        install_serve_layers(timer)
    argv = [
        "serve",
        "--nodes", str(spec["nodes"]),
        "--collectors", str(spec["collectors"]),
        "--announce", spec["announce"],
        "--max-seconds", str(spec["max_seconds"]),
    ]
    cpu0 = _cpu_s()
    with GcTimer() as gc_timer:
        code = repro_main(argv)
    cpu_s = _cpu_s() - cpu0
    if code != 0 or len(planes) != 1:
        print(json.dumps({"error": f"repro serve exited {code}"}))
        return 1
    plane = planes[0]
    plan = plane.service.plan
    if plan is None:
        print(json.dumps({"error": "no plan after the session"}))
        return 1
    report = check_plan_for_cluster(plan, plane.cluster)
    result = {
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gate_errors": len(report.errors),
        "coverage": plan.coverage(),
        "cost": plan.total_message_cost(),
        "fingerprint": plan.fingerprint(),
        "adaptations": len(plane.adaptations),
        "gc_s": gc_timer.ns / 1e9,
        "layers": {
            "self_s": {layer: ns / 1e9 for layer, ns in timer.self_ns.items()},
            "calls": dict(timer.calls),
            "samples_s": {
                layer: [ns / 1e9 for ns in values]
                for layer, values in timer.samples.items()
            },
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
