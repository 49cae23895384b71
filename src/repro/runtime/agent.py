"""The per-node monitoring agent.

One :class:`NodeAgent` runs per cluster node that participates in any
collection tree.  Each agent owns one inbox on the transport and plays
one :class:`TreeRole` per tree it belongs to: sample the local
node-attribute pairs, merge whatever child updates have arrived, and
forward one batched message per tree per period -- phased bottom-up
(deeper nodes send earlier) so the wave converges toward the root the
same way the simulator schedules it.

Each tick starts exactly one task per agent: it sends the heartbeat,
then each role's batch as soon as that role's children have reported,
and sends every role still waiting when the child-wait deadline
passes.  Metric series are bound once per agent (per node, and per
tree for ``messages_sent``), so the per-message path bumps a handle
instead of rebuilding a label key.

Resource-awareness is enforced live: every send and receive is charged
``C + a*x`` against the node's per-period budget, and an agent that
cannot afford its payload applies the configured
:class:`~repro.runtime.config.DropPolicy` -- trim values, drop the
message, or defer the overflow to the next period (backpressure).
"""

# The bottom-up wave is event-driven rather than timer-phased: an
# interior role sends the moment every child has reported this period,
# falling back to the ``child_wait`` deadline when one is dead or
# dropped.  Timer phasing (the simulator's approach) is fragile under a
# real event loop -- an overdue timer can fire before the inbox
# coroutine that would have delivered a child's already-queued batch.
# All of an agent's roles wait in its one per-tick task, on the single
# ``_update_event`` the inbox loop sets: a task per role, or a
# ``wait_for`` helper task per wakeup, costs more CPU than the relaying
# it schedules.

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet
from repro.obs import names, trace
from repro.runtime.config import DropPolicy, RuntimeConfig
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Envelope,
    HeartbeatEnvelope,
    StopEnvelope,
    TickEnvelope,
    UpdateEnvelope,
)
from repro.runtime.metrics import BoundCounter, Histogram, RuntimeMetrics
from repro.runtime.transport import Transport
from repro.simulation.messages import Reading

_EPS = 1e-9

#: An interior role waiting for its children: (role, wave span,
#: child-wait span).
_Waiting = Tuple["TreeRole", trace.OpenSpan, trace.OpenSpan]


@dataclass(frozen=True)
class TreeRole:
    """This node's position in one collection tree."""

    attr_set: AttributeSet
    parent: Optional[NodeId]
    children: Tuple[NodeId, ...]
    local_pairs: Tuple[NodeAttributePair, ...]
    depth: int
    height: int
    #: Stable short id (``t0``, ``t1``, ...) labeling this tree's
    #: metric series and trace spans; assigned by the engine.
    tree_id: str = ""
    #: Address of the collector shard this tree reports to.
    collector: NodeId = COLLECTOR_ADDRESS

    @property
    def receiver(self) -> NodeId:
        """Where this node's batch goes: parent, or the tree's collector."""
        return self.parent if self.parent is not None else self.collector


class NodeAgent:
    """A concurrent monitoring agent for one node."""

    def __init__(
        self,
        node_id: NodeId,
        capacity: float,
        roles: List[TreeRole],
        cost: CostModel,
        registry: MetricRegistry,
        transport: Transport,
        metrics: RuntimeMetrics,
        config: RuntimeConfig,
    ) -> None:
        self.node_id = node_id
        self.capacity = capacity
        self.roles = list(roles)
        self.cost = cost
        self.registry = registry
        self.transport = transport
        self.metrics = metrics
        self.config = config
        self._budget = capacity
        self._current_period = -1
        #: Child readings (and deferred overflow) pending relay, per tree.
        self._buffers: Dict[AttributeSet, Dict[NodeAttributePair, Reading]] = {}
        #: Latest period each child has reported, per tree.
        self._children_seen: Dict[AttributeSet, Dict[NodeId, int]] = {}
        #: Last period each pair made it into a sent batch, per tree
        #: (DEFER fairness: least-recently-sent pairs go first).
        self._last_sent: Dict[AttributeSet, Dict[NodeAttributePair, int]] = {}
        #: Signalled whenever a child update lands.
        self._update_event: Optional["asyncio.Event"] = None
        self._period_tasks: Set["asyncio.Task[None]"] = set()
        #: Trace-viewer row for this agent's spans.
        self._lane = names.node_lane(node_id)
        #: Collector shards this node beacons every heartbeat period.
        self._heartbeat_to = sorted({role.collector for role in self.roles}) or [
            COLLECTOR_ADDRESS
        ]
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Bind this node's series once; the hot path bumps handles."""
        def bind(name: str) -> BoundCounter:
            return self.metrics.bind_counter(name, node=self.node_id)

        self._sent: Dict[AttributeSet, BoundCounter] = {
            role.attr_set: self.metrics.bind_counter(
                names.MESSAGES_SENT, node=self.node_id, tree=role.tree_id
            )
            for role in self.roles
        }
        self._delivered = bind(names.MESSAGES_DELIVERED)
        self._cost_spent = bind(names.COST_UNITS_SPENT)
        self._heartbeats = bind(names.HEARTBEATS_SENT)
        self._child_wait_timeouts = bind(names.CHILD_WAIT_TIMEOUTS)
        self._dropped_capacity = bind(names.MESSAGES_DROPPED_CAPACITY)
        self._dropped_failure = bind(names.MESSAGES_DROPPED_FAILURE)
        self._down_periods = bind(names.AGENT_DOWN_PERIODS)
        self._values_trimmed = bind(names.VALUES_TRIMMED)
        self._values_deferred = bind(names.VALUES_DEFERRED)
        self._payload_values: Histogram = self.metrics.bind_histogram(
            names.PAYLOAD_VALUES
        )

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether any per-tick wave task is still outstanding."""
        return any(not task.done() for task in self._period_tasks)

    def down(self, period: int) -> bool:
        """Whether this node is scripted dead during ``period``."""
        return self.config.node_down(self.node_id, period)

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop: react to ticks, updates, and stop."""
        self._update_event = asyncio.Event()
        try:
            while True:
                envelope = await self.transport.recv(
                    self.node_id, timeout=self.config.recv_timeout_seconds
                )
                if envelope is None:
                    continue  # recv timed out; re-check the inbox
                if isinstance(envelope, StopEnvelope):
                    break
                if isinstance(envelope, TickEnvelope):
                    self._on_tick(envelope)
                elif isinstance(envelope, UpdateEnvelope):
                    self._on_update(envelope)
        finally:
            await self._retire_period_tasks()

    async def _retire_period_tasks(self) -> None:
        # Snapshot and clear BEFORE awaiting: nothing spawns once the
        # run loop has exited, and clearing first means a task that
        # finishes during the gather cannot be lost from the set's
        # read-modify-write (REMO421).
        pending = [task for task in self._period_tasks if not task.done()]
        self._period_tasks.clear()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # Inbox reactions
    # ------------------------------------------------------------------
    def _on_tick(self, tick: TickEnvelope) -> None:
        self._current_period = tick.period
        self._budget = self.capacity
        self._period_tasks = {task for task in self._period_tasks if not task.done()}
        if self.down(tick.period):
            self._down_periods.incr()
            return
        # Adopt the tick's trace context while spawning: asyncio tasks
        # snapshot contextvars at creation, so the wave task records
        # spans inside the period's trace with the (possibly remote)
        # period root span as parent.
        with trace.attach(tick.trace_ctx):
            task = asyncio.ensure_future(self._wave(tick.period))
        self._period_tasks.add(task)

    def _on_update(self, envelope: UpdateEnvelope) -> None:
        if envelope.trace_ctx is not None and trace.active_tracer() is not None:
            # Linked to the sender's wave span: the reverse-direction
            # cross-process edge in a merged trace.
            with trace.attach(envelope.trace_ctx):
                trace.event(
                    names.EVENT_AGENT_RECV,
                    lane=self._lane,
                    sender=envelope.sender,
                    period=envelope.period,
                )
        if self.down(self._current_period):
            self._dropped_failure.incr()
            return
        # The child reported, whether or not its batch is affordable --
        # record that first so a capacity drop cannot stall the wave.
        seen = self._children_seen.setdefault(envelope.tree, {})
        seen[envelope.sender] = max(seen.get(envelope.sender, -1), envelope.period)
        if self._update_event is not None:
            self._update_event.set()
        charge = envelope.cost(self.cost)
        if self.config.enforce_capacity:
            if self._budget < charge - _EPS:
                self._dropped_capacity.incr()
                return
            self._budget -= charge
        envelope.merge_into(self._buffers.setdefault(envelope.tree, {}))
        self._delivered.incr()
        self._cost_spent.incr(charge)

    # ------------------------------------------------------------------
    # Per-period work
    # ------------------------------------------------------------------
    async def _wave(self, period: int) -> None:
        """The agent's whole period: heartbeat, then one batch per role.

        Leaf roles send at once; interior roles send the moment their
        children have all reported, waiting on the one update event
        against a single child-wait deadline.  When the deadline passes
        every role still waiting is sent without the missing children,
        counting one ``child_wait_timeouts`` per such role.
        """
        deadline = time.monotonic() + self.config.child_wait_seconds
        if period % self.config.heartbeat_every == 0:
            await self._send_heartbeat(period)
        waiting: List[_Waiting] = []
        for role in self.roles:
            wave = trace.begin(
                names.SPAN_AGENT_WAVE, lane=self._lane, tree=role.tree_id, period=period
            )
            if not role.children:
                await self._send_update(role, period, wave)
                continue
            child_wait = trace.begin(
                names.SPAN_AGENT_CHILD_WAIT,
                lane=self._lane,
                parent=wave.context(),
                tree=role.tree_id,
                period=period,
            )
            waiting.extend(await self._send_ready([(role, wave, child_wait)], period))
        event = self._update_event
        while waiting and event is not None:
            # Clear before re-checking, so an update landing after the
            # check still wakes the wait below.
            event.clear()
            waiting = await self._send_ready(waiting, period)
            remaining = deadline - time.monotonic()
            if not waiting or remaining <= 0:
                break
            try:
                async with asyncio.timeout(remaining):
                    await event.wait()
            except TimeoutError:
                break
        for role, wave, child_wait in waiting:
            self._child_wait_timeouts.incr()
            child_wait.end()
            await self._send_update(role, period, wave)

    async def _send_ready(self, waiting: List[_Waiting], period: int) -> List[_Waiting]:
        """Send every waiting role whose children have all reported;
        returns the roles still waiting, in order."""
        still: List[_Waiting] = []
        for entry in waiting:
            role, wave, child_wait = entry
            if self._children_ready(role, period):
                child_wait.end()
                await self._send_update(role, period, wave)
            else:
                still.append(entry)
        return still

    async def _send_heartbeat(self, period: int) -> None:
        # With sharded collectors, each shard runs its own failure
        # detector over the nodes in its trees -- beacon every shard
        # this node reports to (the single-collector case sends one).
        for collector in self._heartbeat_to:
            await self.transport.send(
                collector, HeartbeatEnvelope(sender=self.node_id, period=period)
            )
            self._heartbeats.incr()

    async def _send_update(self, role: TreeRole, period: int, wave: trace.OpenSpan) -> None:
        """Build, shape and send ``role``'s batch, closing its wave span."""
        try:
            payload: Dict[NodeAttributePair, Reading] = {}
            buffered = self._buffers.pop(role.attr_set, None)
            if buffered:
                payload.update(buffered)
            for pair in role.local_pairs:
                payload[pair] = Reading(
                    self.registry.value(pair), sampled_at=float(period)
                )
            if not payload:
                wave.set(outcome="empty")
                return
            shaped = self._apply_budget(role, payload, period)
            if shaped is None:
                wave.set(outcome="shaped_out", offered=len(payload))
                return
            charge = self.cost.message_cost(len(shaped))
            if self.config.enforce_capacity:
                self._budget -= charge
            self._sent[role.attr_set].incr()
            self._cost_spent.incr(charge)
            self._payload_values.observe(len(shaped))
            wave.set(outcome="sent", values=len(shaped))
            await self.transport.send(
                role.receiver,
                UpdateEnvelope(
                    sender=self.node_id,
                    tree=role.attr_set,
                    period=period,
                    payload=shaped,
                    trace_ctx=wave.context(),
                ),
            )
        finally:
            wave.end()

    def _children_ready(self, role: TreeRole, period: int) -> bool:
        seen = self._children_seen.get(role.attr_set, {})
        return all(seen.get(child, -1) >= period for child in role.children)

    def _apply_budget(
        self, role: TreeRole, payload: Dict[NodeAttributePair, Reading], period: int
    ) -> Optional[Dict[NodeAttributePair, Reading]]:
        """Shape ``payload`` to the remaining budget per the drop policy.

        Returns the payload to send, or ``None`` when nothing goes out
        this period.
        """
        if not self.config.enforce_capacity:
            return payload
        policy = self.config.drop_policy
        if policy is DropPolicy.DROP:
            if self._budget < self.cost.message_cost(len(payload)) - _EPS:
                self._dropped_capacity.incr()
                return None
            return payload
        affordable = int(self.cost.values_within_budget(self._budget) + _EPS)
        if affordable <= 0:
            # Cannot even cover the per-message overhead.
            if policy is DropPolicy.DEFER:
                self._defer(role, payload)
            else:
                self._dropped_capacity.incr()
            return None
        if affordable >= len(payload):
            return payload
        if policy is DropPolicy.DEFER:
            # Fairness under sustained overload: least-recently-sent
            # pairs first, then oldest readings.  Pure recency (or a
            # fixed pair order) permanently starves the same pairs,
            # because every pair is refreshed each period.
            last_sent = self._last_sent.setdefault(role.attr_set, {})
            ordered = sorted(
                payload,
                key=lambda pair: (last_sent.get(pair, -1), payload[pair].sampled_at, pair),
            )
        else:
            ordered = sorted(payload)
        keep = ordered[:affordable]
        overflow = {pair: payload[pair] for pair in ordered[affordable:]}
        if policy is DropPolicy.DEFER:
            last_sent = self._last_sent.setdefault(role.attr_set, {})
            for pair in keep:
                last_sent[pair] = period
            self._defer(role, overflow)
        else:
            self._values_trimmed.incr(len(overflow))
        return {pair: payload[pair] for pair in keep}

    def _defer(self, role: TreeRole, overflow: Dict[NodeAttributePair, Reading]) -> None:
        """Backpressure: carry unaffordable readings to the next period."""
        buffer = self._buffers.setdefault(role.attr_set, {})
        for pair, reading in overflow.items():
            existing = buffer.get(pair)
            if existing is None or reading.sampled_at >= existing.sampled_at:
                buffer[pair] = reading
        self._values_deferred.incr(len(overflow))
