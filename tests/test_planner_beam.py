"""Bounded-beam search knob: default-off bit-identity and envelope.

``beam_width`` truncates the ranked candidate list each improvement
iteration.  It defaults to off, and the default must reproduce the
unbounded planner's plans bit for bit (the seed-identity contract).
Bounded runs may legitimately search less, but their plans must still
satisfy every capacity invariant and land inside the documented
objective envelope (see DESIGN.md): coverage >= 95% of the default
plan's, total message cost <= 110% of it.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.workloads.tasks import TaskSampler

COST = CostModel(per_message=20.0, per_value=1.0)


def _bench_workload(n: int, seed: int = 1):
    """The CLI-default regime the scaling bench uses (tasks = nodes)."""
    cluster = make_uniform_cluster(
        n_nodes=n,
        capacity=400.0,
        attrs_per_node=16,
        attribute_pool=default_attribute_pool(32),
        central_capacity=1200.0,
        seed=seed,
    )
    tasks = TaskSampler(cluster, seed=seed + 1).sample_many(
        n, (2, 5), (max(5, n // 6), max(6, n // 2))
    )
    return cluster, tasks


class TestKnobValidation:
    def test_beam_width_must_be_positive(self):
        with pytest.raises(ValueError):
            RemoPlanner(COST, beam_width=0)
        with pytest.raises(ValueError):
            RemoPlanner(COST, beam_width=-2)


class TestDefaultBitIdentity:
    def test_none_equals_wide_beam(self):
        """A beam wider than any candidate list truncates nothing, so
        it must reproduce the default (beam_width=None) plan exactly."""
        cluster, tasks = _bench_workload(40)
        unbounded, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        wide, _ = RemoPlanner(COST, beam_width=10_000).plan_with_stats(tasks, cluster)
        assert unbounded.fingerprint() == wide.fingerprint()

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_defaults_are_seed_stable(self, seed):
        """Planning the same seed workload twice with two separately
        constructed default planners must agree bit for bit."""
        cluster, tasks = _bench_workload(30, seed=seed)
        a, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        b, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        assert a.fingerprint() == b.fingerprint()


class TestBoundedBeamEnvelope:
    def test_bounded_beam_invariants_and_envelope_at_200(self):
        """At the bench's 200-node regime a narrow beam must still emit
        a capacity-feasible plan inside the documented envelope."""
        cluster, tasks = _bench_workload(200)
        caps = {n.node_id: n.capacity for n in cluster}
        default_plan, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        beam_plan, _ = RemoPlanner(COST, beam_width=2).plan_with_stats(tasks, cluster)
        beam_plan.validate(caps, cluster.central_capacity)
        assert beam_plan.coverage() >= 0.95 * default_plan.coverage()
        assert beam_plan.total_message_cost() <= 1.10 * default_plan.total_message_cost()


class TestCliSurface:
    def test_beam_width_flag_reaches_planning_payload(self, capsys):
        rc = main(
            [
                "plan",
                "--nodes",
                "12",
                "--tasks",
                "3",
                "--pool",
                "8",
                "--seed",
                "5",
                "--beam-width",
                "3",
                "--json",
            ]
        )
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        planning = payload["planning"]
        assert planning["beam_width"] == 3
        assert planning["exhaustive"] is False
        assert "memo_hits" in planning and "memo_misses" in planning

    def test_default_plan_identical_with_and_without_flags(self, capsys):
        """`repro plan` without knobs equals an explicit wide beam."""
        args = ["plan", "--nodes", "14", "--tasks", "4", "--pool", "8", "--seed", "3", "--json"]
        assert main(args) == 0
        import json

        base = json.loads(capsys.readouterr().out)
        assert main(args + ["--beam-width", "9999"]) == 0
        wide = json.loads(capsys.readouterr().out)
        drop = "planning_seconds"  # wall time, not part of the plan
        assert {k: v for k, v in base["summary"].items() if k != drop} == {
            k: v for k, v in wide["summary"].items() if k != drop
        }
        assert base["trees"] == wide["trees"]
