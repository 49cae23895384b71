"""Measurement probes installed from the benchmark's side of each seam.

Nothing here edits the program: layers are timed by replacing public
entry points (class attributes, or module attributes as the caller
binds them) with wrappers, and runtime events are counted through
subclasses the program already accepts (``Transport``,
``RuntimeMetrics``, ``MetricRegistry``) or through interpreter hooks
(the event-loop task factory, ``gc.callbacks``).

Self time: every wrapped call pushes a frame; on exit its elapsed time
is charged to its own layer minus the time of wrapped calls nested in
it, and added to the caller's nested time.  The self times of all
layers therefore partition the wrapped time instead of double-counting
it, so their sum can never exceed the enclosing wall or CPU total --
``run.py`` exits non-zero when it does.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional


class SelfTimer:
    """Per-layer self time and call counts of wrapped callables."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: One ``[nested_ns]`` cell per active wrapped call.
        self._stack: List[List[int]] = []
        self.self_ns: DefaultDict[str, int] = defaultdict(int)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        #: Durations of individual calls, for layers that asked for them.
        self.samples: Dict[str, List[int]] = {}

    def wrap(self, layer: str, fn: Callable[..., Any], keep_samples: bool = False) -> Callable[..., Any]:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = self._clock
        samples = self.samples.setdefault(layer, []) if keep_samples else None

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return timed

    def patch(self, owner: Any, attr: str, layer: str, keep_samples: bool = False) -> None:
        """Replace ``owner.attr`` (a plain function) with a timed wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        setattr(owner, attr, self.wrap(layer, original, keep_samples))

    def self_seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


class GcTimer:
    """Wall time spent in the cyclic garbage collector."""

    def __init__(self) -> None:
        self.ns = 0
        self._start: Optional[int] = None

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        elif self._start is not None:
            self.ns += time.perf_counter_ns() - self._start
            self._start = None

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# Layer installers.  Imports are local so that importing this module
# costs nothing in a process that measures with the wrappers off.
# ----------------------------------------------------------------------
def install_planner_layers(timer: SelfTimer) -> None:
    """``core`` / ``trees`` entry points; nesting order outer -> inner:
    planner -> forest -> tree build -> tree adjust."""
    from repro.core.adaptation import AdaptiveMonitoringService
    from repro.core.forest import ForestBuilder
    from repro.core.planner import RemoPlanner
    from repro.trees.adjust import TreeAdjuster
    from repro.trees.base import GreedyTreeBuilder

    timer.patch(RemoPlanner, "plan_with_stats", "core.planner")
    timer.patch(ForestBuilder, "build", "core.forest")
    timer.patch(GreedyTreeBuilder, "build", "trees.build")
    timer.patch(TreeAdjuster, "relieve", "trees.adjust")
    timer.patch(AdaptiveMonitoringService, "apply_changes", "core.adaptation")


def install_serve_layers(timer: SelfTimer) -> None:
    """``serve`` control-plane entry points (server process only)."""
    from repro.serve.controlplane import ControlPlane

    timer.patch(ControlPlane, "adapt", "serve.controlplane")
    for method in ("submit_task", "update_task", "delete_task"):
        timer.patch(ControlPlane, method, "serve.controlplane.task", keep_samples=True)


def install_runtime_layers(timer: SelfTimer, wire: bool) -> None:
    """Collector scoring, plus the codec as ``repro.net.tcp`` binds it."""
    from repro.runtime.collector import CollectorAgent

    timer.patch(CollectorAgent, "close_period", "runtime.collector")
    if wire:
        import repro.net.tcp as tcp
        from repro.net.codec import FrameDecoder

        timer.patch(tcp, "encode_frame", "net.codec.encode")
        timer.patch(FrameDecoder, "feed", "net.codec.decode")


def timed_runtime_metrics(timer: SelfTimer) -> type:
    """A ``RuntimeMetrics`` subclass whose recording calls are timed."""
    from repro.runtime.metrics import RuntimeMetrics

    return type(
        "TimedRuntimeMetrics",
        (RuntimeMetrics,),
        {
            "incr": timer.wrap("obs.metrics", RuntimeMetrics.incr),
            "observe": timer.wrap("obs.metrics", RuntimeMetrics.observe),
        },
    )


def timed_metric_registry(timer: SelfTimer) -> type:
    """A ``MetricRegistry`` subclass whose signal reads/advances are timed."""
    from repro.cluster.metrics import MetricRegistry

    return type(
        "TimedMetricRegistry",
        (MetricRegistry,),
        {
            "value": timer.wrap("cluster.metrics", MetricRegistry.value),
            "advance_all": timer.wrap("cluster.metrics", MetricRegistry.advance_all),
        },
    )


def probed_transport(base: type) -> type:
    """``base`` (a ``Transport`` class) with send/recv timestamped.

    Cheap enough to stay on in untimed and timed runs alike: it records
    the first tick send of every period, the arrival of every update
    batch at a collector address, and counts envelopes and values.
    """
    from repro.runtime.messages import TickEnvelope, UpdateEnvelope

    class ProbedTransport(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.tick_at: Dict[int, float] = {}
            self.tick_cpu: Dict[int, float] = {}
            self.collect_s: List[float] = []
            self.sends = 0
            self.update_sends = 0
            self.update_values = 0

        async def send(self, to: Any, envelope: Any) -> bool:
            self.sends += 1
            kind = type(envelope)
            if kind is UpdateEnvelope:
                self.update_sends += 1
                self.update_values += len(envelope.payload)
            elif kind is TickEnvelope and envelope.period not in self.tick_at:
                self.tick_at[envelope.period] = time.perf_counter()
                self.tick_cpu[envelope.period] = time.process_time()
            return await super().send(to, envelope)

        async def recv(self, address: Any, timeout: Optional[float] = None) -> Any:
            envelope = await super().recv(address, timeout)
            if address < 0 and type(envelope) is UpdateEnvelope:
                tick = self.tick_at.get(envelope.period)
                if tick is not None:
                    self.collect_s.append(time.perf_counter() - tick)
            return envelope

    return ProbedTransport
