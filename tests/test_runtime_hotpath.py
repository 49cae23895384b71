"""The live runtime's hot path: pre-bound metric handles, one task per
agent per tick, child-wait semantics, trace shape, pacing, determinism.

Each test pins a behaviour the per-period CPU work must not change:
handles write the very series ``incr``/``observe`` write, the wave
keeps its timeout accounting and span tree, and task churn per period
stays bounded by the number of agents rather than messages.
"""

import asyncio
import time

import pytest

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair, pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.planner import RemoPlanner
from repro.obs import names, trace
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    AgentOutage,
    COLLECTOR_ADDRESS,
    InProcessTransport,
    MonitoringRuntime,
    RuntimeConfig,
    RuntimeMetrics,
    TickEnvelope,
)
from repro.runtime.agent import NodeAgent, TreeRole
from repro.runtime.collector import CollectorAgent
from repro.runtime.messages import StopEnvelope, UpdateEnvelope
from repro.workloads.presets import quickstart_workload


@pytest.fixture(scope="module")
def quickstart():
    cluster, cost, tasks = quickstart_workload()
    return RemoPlanner(cost).plan(tasks, cluster), cluster


# ----------------------------------------------------------------------
# Pre-bound handles
# ----------------------------------------------------------------------
COUNTS = [
    (names.MESSAGES_SENT, 1, {"node": 3, "tree": "t0"}),
    (names.MESSAGES_SENT, 1, {"tree": "t1", "node": 3}),
    (names.COST_UNITS_SPENT, 22.5, {"node": 3}),
    (names.MESSAGES_SENT, 1, {"node": 3, "tree": "t0"}),
    (names.MESSAGES_DELIVERED, 1, {}),
    (names.COST_UNITS_SPENT, 4, {"node": 7}),
]
OBSERVATIONS = [
    (names.PAYLOAD_VALUES, 7.0, {}),
    (names.STALENESS_PERIODS, 0.0, {}),
    (names.PAYLOAD_VALUES, 3.0, {}),
    (names.COLLECTION_LATENCY_S, 0.25, {"shard": 1}),
]


def _record_by_name(registry):
    for name, amount, labels in COUNTS:
        registry.incr(name, amount, **labels)
    for name, value, labels in OBSERVATIONS:
        registry.observe(name, value, **labels)


def _record_by_handle(registry):
    counters = {}
    histograms = {}
    for name, amount, labels in COUNTS:
        key = (name, tuple(sorted(labels.items())))
        if key not in counters:
            counters[key] = registry.bind_counter(name, **labels)
        counters[key].incr(amount)
    for name, value, labels in OBSERVATIONS:
        key = (name, tuple(sorted(labels.items())))
        if key not in histograms:
            histograms[key] = registry.bind_histogram(name, **labels)
        histograms[key].observe(value)
    # Bound but never written: not a series in any view.
    registry.bind_counter(names.VALUES_TRIMMED, node=3)
    registry.bind_histogram(names.PERIOD_COVERAGE)


class TestBoundHandles:
    def _views(self, registry):
        return (
            registry.counters(),
            registry.counter_totals(),
            {n: h.summary() for n, h in registry.histograms().items()},
            registry.dump(),
            prometheus_text(registry),
        )

    def test_handles_and_named_calls_write_identical_series(self):
        by_name, by_handle = MetricsRegistry(), MetricsRegistry()
        _record_by_name(by_name)
        _record_by_handle(by_handle)
        assert self._views(by_handle) == self._views(by_name)

    def test_runtime_metrics_views_match(self):
        by_name, by_handle = RuntimeMetrics(), RuntimeMetrics()
        _record_by_name(by_name)
        _record_by_handle(by_handle)
        assert by_handle.as_dict() == by_name.as_dict()
        assert by_handle.render() == by_name.render()

    def test_mixed_routes_share_one_series(self):
        registry = MetricsRegistry()
        handle = registry.bind_counter(names.MESSAGES_SENT, tree="t0", node=1)
        handle.incr()
        registry.incr(names.MESSAGES_SENT, node=1, tree="t0")
        handle.incr(2)
        assert registry.counters() == {'messages_sent{node="1",tree="t0"}': 4.0}
        hist = registry.bind_histogram(names.PAYLOAD_VALUES)
        registry.observe(names.PAYLOAD_VALUES, 1.0)
        hist.observe(2.0)
        assert registry.histogram(names.PAYLOAD_VALUES) is hist
        assert hist.count == 2

    def test_dump_absorb_round_trip_matches(self):
        source = MetricsRegistry()
        _record_by_handle(source)
        merged = MetricsRegistry()
        merged.absorb(source.dump())
        reference = MetricsRegistry()
        _record_by_name(reference)
        assert merged.dump() == reference.dump()
        assert prometheus_text(merged) == prometheus_text(reference)


# ----------------------------------------------------------------------
# Task budget
# ----------------------------------------------------------------------
def test_tasks_per_period_scale_with_agents_not_messages(quickstart):
    plan, cluster = quickstart
    periods = 4
    runtime = MonitoringRuntime(
        plan, cluster, config=RuntimeConfig(period_seconds=0.05, seed=3)
    )
    created = [0]

    def counting_factory(loop, coro, **kwargs):
        created[0] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop = asyncio.new_event_loop()
    loop.set_task_factory(counting_factory)
    try:
        report = loop.run_until_complete(runtime.run_async(periods))
    finally:
        loop.close()
    actors = len(runtime.agents) + len(runtime.collectors)
    per_period = (created[0] - actors) / periods  # minus the inbox loops
    messages_per_period = report.messages_sent / periods
    assert messages_per_period > actors  # the guard below means something
    assert per_period <= actors + 4, (per_period, actors)


# ----------------------------------------------------------------------
# Child-wait semantics, on a hand-built forest
# ----------------------------------------------------------------------
class _StampingTransport(InProcessTransport):
    """Records (monotonic time, sender, tree id) of every update sent."""

    def __init__(self, tree_ids):
        super().__init__()
        self.tree_ids = tree_ids
        self.updates = []

    async def send(self, to, envelope):
        if isinstance(envelope, UpdateEnvelope):
            self.updates.append(
                (time.monotonic(), envelope.period, envelope.sender,
                 self.tree_ids[envelope.tree])
            )
        return await super().send(to, envelope)


def _role(tree, node, parent, children, tree_id):
    return TreeRole(
        attr_set=tree,
        parent=parent,
        children=tuple(children),
        local_pairs=(NodeAttributePair(node, next(iter(tree))),),
        depth=0 if parent is None else 1,
        height=1,
        tree_id=tree_id,
    )


def _run_forest(roles, config, periods):
    """Drive agents and one collector the way the engine does: tick,
    period window, settle, score.  Returns (metrics, transport,
    tick times)."""
    tree_ids = {r.attr_set: r.tree_id for rs in roles.values() for r in rs}
    pairs = sorted({p for rs in roles.values() for r in rs for p in r.local_pairs})
    transport = _StampingTransport(tree_ids)
    metrics = RuntimeMetrics()
    transport.bind_metrics(metrics)
    registry = MetricRegistry(pairs, seed=1)
    cost = CostModel(2.0, 1.0)
    agents = [
        NodeAgent(node, 100.0, node_roles, cost, registry, transport, metrics, config)
        for node, node_roles in sorted(roles.items())
    ]
    collector = CollectorAgent(
        pairs, sorted(roles), 500.0, cost, registry, transport, metrics, config
    )
    ticks = []

    async def scenario():
        transport.register(COLLECTOR_ADDRESS)
        for agent in agents:
            transport.register(agent.node_id)
        tasks = [asyncio.ensure_future(a.run()) for a in agents]
        tasks.append(asyncio.ensure_future(collector.run()))
        for period in range(periods):
            registry.advance_all()
            tick = TickEnvelope(period=period)
            ticks.append(tick.sent_monotonic)
            for address in [a.node_id for a in agents] + [COLLECTOR_ADDRESS]:
                await transport.send(address, tick)
            await asyncio.sleep(config.period_seconds)
            while any(a.busy() for a in agents) or not transport.idle():
                await asyncio.sleep(0)
            collector.close_period(period)
        for address in [a.node_id for a in agents] + [COLLECTOR_ADDRESS]:
            await transport.send(address, StopEnvelope())
        await asyncio.wait(tasks, timeout=5.0)

    asyncio.run(scenario())
    return metrics, transport, ticks


class TestChildWait:
    A, B, C = frozenset({"a"}), frozenset({"b"}), frozenset({"c"})

    def _forest(self):
        # Node 1 roots trees a and c over child 2, and is a leaf of
        # tree b under node 4.  Node 2 is scripted down all run.
        return {
            1: [
                _role(self.A, 1, None, [2], "t0"),
                _role(self.B, 1, 4, [], "t1"),
                _role(self.C, 1, None, [2], "t2"),
            ],
            2: [_role(self.A, 2, 1, [], "t0"), _role(self.C, 2, 1, [], "t2")],
            4: [_role(self.B, 4, None, [1], "t1")],
        }

    def test_dead_child_times_out_each_waiting_role_once(self):
        periods = 3
        config = RuntimeConfig(
            period_seconds=0.1,
            child_wait_fraction=0.5,
            outages=[AgentOutage(node=2, start=0, end=100)],
            seed=1,
        )
        metrics, transport, ticks = _run_forest(self._forest(), config, periods)
        registry = metrics.registry
        # Two waiting roles on node 1 (trees a and c), once per period.
        assert registry.counter(names.CHILD_WAIT_TIMEOUTS, node=1) == 2 * periods
        # Node 4 waited on node 1's leaf batch, which came in time.
        assert registry.counter(names.CHILD_WAIT_TIMEOUTS, node=4) == 0
        assert metrics.counter(names.CHILD_WAIT_TIMEOUTS) == 2 * periods
        for tree_id in ("t0", "t1", "t2"):
            assert registry.counter(names.MESSAGES_SENT, node=1, tree=tree_id) == periods
        sent = {(p, s, t): at for at, p, s, t in transport.updates}
        wait = config.child_wait_seconds
        for period, tick_at in enumerate(ticks):
            # The parent still sends, after the deadline...
            assert sent[(period, 1, "t0")] - tick_at >= wait
            assert sent[(period, 1, "t2")] - tick_at >= wait
            # ...while its leaf role went out well before it, and its
            # receiver forwarded it without waiting for the deadline.
            assert sent[(period, 1, "t1")] - tick_at < wait / 2
            assert sent[(period, 4, "t1")] - tick_at < wait / 2
            assert sent[(period, 1, "t1")] < sent[(period, 1, "t0")]

    def test_live_children_never_time_out(self):
        config = RuntimeConfig(period_seconds=0.05, seed=1)
        metrics, _transport, _ticks = _run_forest(self._forest(), config, 3)
        assert metrics.counter(names.CHILD_WAIT_TIMEOUTS) == 0
        assert metrics.counter(names.MESSAGES_SENT) == 3 * 6


# ----------------------------------------------------------------------
# Trace shape
# ----------------------------------------------------------------------
def test_traced_run_has_one_wave_span_per_role_and_period(quickstart):
    plan, cluster = quickstart
    periods = 2
    runtime = MonitoringRuntime(
        plan, cluster, config=RuntimeConfig(period_seconds=0.05, seed=3)
    )
    with trace.installed() as tracer:
        runtime.run(periods)
    spans = tracer.spans()
    period_spans = {
        s.attrs["period"]: s for s in spans if s.name == names.SPAN_RUNTIME_PERIOD
    }
    assert sorted(period_spans) == list(range(periods))
    roles = {
        (names.node_lane(node), role.tree_id): role
        for node, agent in runtime.agents.items()
        for role in agent.roles
    }
    waves = {}
    for s in spans:
        if s.name == names.SPAN_AGENT_WAVE:
            key = (s.lane, s.attrs["tree"], s.attrs["period"])
            assert key not in waves, f"two wave spans for {key}"
            waves[key] = s
    assert set(waves) == {
        (lane, tree, p) for lane, tree in roles for p in range(periods)
    }
    for (lane, tree, period), wave in waves.items():
        root = period_spans[period]
        assert wave.trace_id == root.trace_id
        assert wave.parent_id == root.span_id
        assert wave.attrs["outcome"] == "sent"
    waits = [s for s in spans if s.name == names.SPAN_AGENT_CHILD_WAIT]
    interior = {key for key, role in roles.items() if role.children}
    assert {(s.lane, s.attrs["tree"]) for s in waits} == interior
    assert len(waits) == len(interior) * periods
    for s in waits:
        wave = waves[(s.lane, s.attrs["tree"], s.attrs["period"])]
        assert s.parent_id == wave.span_id
        assert s.trace_id == wave.trace_id
        assert wave.start <= s.start
        assert s.start + s.duration <= wave.start + wave.duration


# ----------------------------------------------------------------------
# Pacing and determinism
# ----------------------------------------------------------------------
def _small_plan(cluster, partition):
    attrs = sorted(a for group in partition for a in group)
    return ForestBuilder(CostModel(2.0, 1.0)).build(
        partition, pairs_for(range(6), attrs), cluster
    )


class TestPacing:
    def test_every_period_records_its_overrun(self, small_cluster):
        plan = _small_plan(small_cluster, Partition.singletons({"a", "b"}))
        report = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(period_seconds=0.03, seed=1)
        ).run(4)
        overrun = report.metrics.histogram(names.RUNTIME_PERIOD_OVERRUN_SECONDS)
        assert overrun.count == 4
        assert overrun.min >= 0.0
        pacing = report.as_dict()["pacing"]
        assert pacing["missed"] == 0
        assert pacing["overrun_max_s"] == overrun.max
        assert "periods missed" in report.render()

    def test_outstanding_wave_counts_a_missed_period(self, small_cluster):
        # A dead leaf's parent waits the whole window for it, so every
        # period closes with that wave still outstanding.
        plan = _small_plan(small_cluster, Partition.one_set(["a"]))
        tree = plan.trees[frozenset({"a"})].tree
        leaf = next(
            n for n in tree.nodes if tree.parent(n) is not None and not tree.children(n)
        )
        periods = 3
        config = RuntimeConfig(
            period_seconds=0.03,
            child_wait_fraction=1.0,
            outages=[AgentOutage(node=leaf, start=0, end=100)],
            seed=1,
        )
        report = MonitoringRuntime(plan, small_cluster, config=config).run(periods)
        assert report.as_dict()["pacing"]["missed"] == periods
        assert report.metrics.counter(names.CHILD_WAIT_TIMEOUTS) >= periods


def _without_wall_clock(payload):
    payload = dict(payload)
    del payload["wall_seconds"]
    payload["pacing"] = {"missed": payload["pacing"]["missed"]}
    histograms = dict(payload["metrics"]["histograms"])
    for name in (names.COLLECTION_LATENCY_S, names.RUNTIME_PERIOD_OVERRUN_SECONDS):
        del histograms[name]
    payload["metrics"] = dict(payload["metrics"], histograms=histograms)
    return payload


def test_same_seed_gives_the_same_report(quickstart):
    plan, cluster = quickstart
    # A child wait as long as the period, so no wave can be cut short
    # by a slow machine: what remains must be a function of the seed.
    config = RuntimeConfig(period_seconds=0.1, child_wait_fraction=1.0, seed=11)
    reports = [
        MonitoringRuntime(plan, cluster, config=config).run(3).as_dict()
        for _ in range(2)
    ]
    first, second = (_without_wall_clock(r) for r in reports)
    assert first == second
