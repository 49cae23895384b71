"""The same task-update stream must give the same plans under any hash seed.

Sets of string-keyed pairs iterate in an order salted per interpreter
(``PYTHONHASHSEED``).  Wherever such an order leaks into plan
construction -- e.g. grafting added pairs in ``delta.added`` order,
when grafts compete for the same capacity -- two runs of one seeded
workload drift apart.  Each scenario here runs in fresh interpreters
under two hash seeds and must report identical per-batch plan
fingerprints and adaptation message counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

HASH_SEEDS = ("0", "7")
BATCHES = 5

#: Drives ``AdaptiveMonitoringService`` directly (the ``repro adapt`` path).
SERVICE_SCRIPT = """
import json, sys
from repro.core.adaptation import AdaptiveMonitoringService
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

batches = int(sys.argv[1])
cluster, cost, tasks = sampled_workload(nodes=40, tasks=40, seed=1)
svc = AdaptiveMonitoringService(cluster, cost)
svc.initialize(tasks, now=0.0)
stream = TaskUpdateStream(cluster, tasks, seed=3)
rows = []
for step in range(batches):
    report = svc.apply_changes(stream.next_batch(), now=float(step + 1))
    rows.append([svc.plan.fingerprint(), report.adaptation_messages])
print(json.dumps(rows))
"""

#: Drives ``ControlPlane`` (the ``repro serve`` path): two tenants, a
#: sharded collector layout, and each batch staged as tenant updates.
CONTROLPLANE_SCRIPT = """
import json, sys
from repro.serve.controlplane import ControlPlane
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

batches = int(sys.argv[1])
cluster, cost, tasks = sampled_workload(nodes=40, tasks=40, seed=1)
cp = ControlPlane(cluster, cost, collectors=2)
owner = {}
for index, task in enumerate(tasks):
    tenant = "acme" if index % 2 else "globex"
    owner[task.task_id] = tenant
    cp.submit_task(tenant, task)
cp.adapt()
stream = TaskUpdateStream(cluster, tasks, seed=3)
rows = []
for _ in range(batches):
    for _op, task in stream.next_batch():
        cp.update_task(owner[task.task_id], task)
    record = cp.adapt()
    rows.append(
        [cp.service.plan.fingerprint(), record["adaptation_messages"], record["shards"]]
    )
print(json.dumps(rows))
"""


def _run(script: str, hash_seed: str) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script, str(BATCHES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "script", [SERVICE_SCRIPT, CONTROLPLANE_SCRIPT], ids=["service", "controlplane"]
)
def test_batches_identical_across_hash_seeds(script):
    first, second = (_run(script, seed) for seed in HASH_SEEDS)
    assert len(first) == BATCHES
    for batch, (a, b) in enumerate(zip(first, second), start=1):
        assert a == b, f"batch {batch} differs between hash seeds {HASH_SEEDS}"
