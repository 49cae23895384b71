"""The repository benchmark: plan -> live periods -> churn, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload

Workloads (see ``perfbench/NOTES.md`` for why each exists):

- ``plan_cold``   -- from-scratch plans of sampled 200-node task sets,
  each run through the launch gate;
- ``run_inproc``  -- the fixed 100-node plan run live in-process;
- ``run_wire``    -- the same plan and periods over loopback TCP;
- ``churn_serve`` -- the real ``repro serve`` process driven over HTTP
  through the paper's task-update protocol.

Every sample runs in a fresh interpreter.  ``--trace 0`` measures with
the layer wrappers off and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced samples of the same inputs, prints the
per-layer metrics and the paired tracing overhead, and exits non-zero
if the layer self times sum to more than their end-to-end total.  Any
failed output check also exits non-zero.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import stats  # noqa: E402

#: One collection period for both ``run_*`` workloads.  Long enough
#: that every wave of the 100-node plan completes on the parent commit
#: over TCP too (measured waves: <= 0.26 s); shorter periods make the
#: delivered state depend on CPU speed.
PERIOD_S = 0.5
#: ``plan_cold`` cluster size (tasks = nodes).
PLAN_NODES = 200
#: ``plan_cold`` task sets: ``sampled_workload`` seeds.  Fixed, because
#: plan time varies 2.2-4.6 s between sampled task sets, and with fresh
#: sets per ``--seed`` the 10-seed spread of ``plan_s`` was 0.29 -- more
#: than any bound can allow.  ``--seed`` drives the hash seed instead.
PLAN_TASK_SETS = (1, 2, 3, 4, 5)
#: ``plan_cold`` collector budget per node, so relay capacity (not the
#: collector) bounds coverage as N grows.
CENTRAL_PER_NODE = 20.0
#: Timed launch-gate repetitions per ``plan_cold`` plan (printed only:
#: gate latency swings x1.7 with the host's speed, and its 10-seed
#: spread reached 0.44, above any bound).
GATE_REPS = 16
#: ``churn_serve`` shape.
SERVE_NODES = 100
SERVE_TASKS = 100
SERVE_TENANTS = 4
SERVE_COLLECTORS = 2
#: Update rounds per session (half that in traced runs, which pair
#: each traced session with an untraced one).
SERVE_ROUNDS = 16
#: Hard per-sample timeout (seconds); a sample that hangs fails the run.
SAMPLE_TIMEOUT = 120.0
_EPS = 1e-9

Metrics = Dict[str, Tuple[float, str]]


class SampleError(RuntimeError):
    """A sample process failed or produced no result."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Descriptions of failed output checks.
    problems: List[str] = field(default_factory=list)
    metrics: Metrics = field(default_factory=dict)
    #: Workload-specific names (``period_cpu_ms``, ``collect_ms_p50``,
    #: ``update_ms_p50``, ...), printed for humans above the JSON line.
    table: List[Tuple[str, float, str]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(message)


# ----------------------------------------------------------------------
# Sample processes
# ----------------------------------------------------------------------
def _child_env(hash_seed: Optional[int] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is None:
        env.pop("PYTHONHASHSEED", None)
    else:
        env["PYTHONHASHSEED"] = str(hash_seed % 4294967296)
    return env


def run_sample(spec: Dict[str, Any], hash_seed: Optional[int] = None) -> Tuple[float, Dict[str, Any]]:
    """Run ``sample.py`` in a fresh interpreter: (spawn time, result).

    ``hash_seed`` pins ``PYTHONHASHSEED``.  It sets the iteration order
    of every set and dict of strings the program builds, so it is part of
    a sample's input and comes from ``--seed`` like the rest.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT,
        env=_child_env(hash_seed),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SampleError(f"sample {spec} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1000.0 for v in values]


def _pooled_tail(name: str, values_ms: Sequence[float]) -> Tuple[str, float, str]:
    value, q = stats.tail(values_ms)
    label = f"p{q:g}" if q is not None else "max"
    return (f"{name} ({label}, n={len(values_ms)})", value, "ms")


def _sample_tail(name: str, per_sample_ms: Sequence[Sequence[float]]) -> Tuple[str, float, str]:
    """Median over groups of each group's own tail.

    The tail is about the 10th-worst value; one hiccup (a GC pause, a
    preempted period) decides it, so take it per group -- as much work
    as one hiccup can spoil -- and report the median, which one hiccup
    cannot move.
    """
    tails = [stats.tail(values) for values in per_sample_ms]
    labels = sorted({"max" if q is None else f"p{q:g}" for _, q in tails})
    counts = sorted(len(values) for values in per_sample_ms)
    return (
        f"{name} (median of {len(tails)} per-group {'/'.join(labels)}, n={counts[0]}..{counts[-1]} each)",
        stats.median([value for value, _ in tails]),
        "ms",
    )


def _layer(sample: Dict[str, Any], layer: str) -> float:
    return sample["layers"]["self_s"].get(layer, 0.0)


def _calls(sample: Dict[str, Any], layer: str) -> int:
    return sample["layers"]["calls"].get(layer, 0)


#: End-to-end metrics every workload reports, on its own unit of work
#: (see NOTES.md): name -> unit.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "work_ms": "ms",
    "latency_ms_p50": "ms",
    "plan_coverage": "fraction",
    "plan_cost": "cost/period",
    "peak_rss_mb": "MB",
}


def _end_to_end(**values: float) -> Metrics:
    if set(values) != set(END_TO_END_UNITS):
        raise KeyError(f"end-to-end metrics {sorted(values)} != {sorted(END_TO_END_UNITS)}")
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


# ----------------------------------------------------------------------
# Per-layer metric catalogue (``--trace 1`` reports every one of them,
# 0 where the workload does not run the layer).
# ----------------------------------------------------------------------
PER_LAYER_UNITS: Dict[str, str] = {
    "core.planner.self_s": "s",
    "core.planner.candidates_evaluated": "count",
    "core.forest.self_s": "s",
    "core.forest.build_calls": "count",
    "core.forest.memo_hit_rate": "fraction",
    "trees.build.self_s": "s",
    "trees.build.calls": "count",
    "trees.adjust.self_s": "s",
    "trees.adjust.calls": "count",
    "checks.gate_s": "s",
    "core.adaptation.self_ms": "ms",
    "core.adaptation.applied_ops": "count",
    "core.adaptation.throttled_ops": "count",
    "core.adaptation.messages": "count",
    "serve.controlplane.shard_ms": "ms",
    "serve.http.overhead_ms_p50": "ms",
    "obs.metrics.self_ms_per_period": "ms",
    "obs.metrics.calls_per_period": "count",
    "cluster.metrics.self_ms_per_period": "ms",
    "cluster.metrics.calls_per_period": "count",
    "runtime.collector.close_ms": "ms",
    "runtime.tasks_per_period": "count",
    "runtime.transport.sends_per_period": "count",
    "runtime.messages_per_period": "count",
    "runtime.values_per_message": "count",
    "runtime.engine.overrun_ms": "ms",
    "runtime.agent.residual_ms_per_period": "ms",
    "net.codec.encode_ms_per_period": "ms",
    "net.codec.decode_ms_per_period": "ms",
    "net.codec.bytes_per_period": "bytes",
    "net.tcp.frames_per_period": "count",
    "python.gc_ms_per_op": "ms",
    "tracing.overhead": "fraction",
    "tracing.overhead_spread": "fraction",
}

PLANNER_LAYERS = ("core.planner", "core.forest", "trees.build", "trees.adjust")


def _per_layer(values: Dict[str, float]) -> Metrics:
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}


def _check_self_times(out: Outcome, what: str, self_total: float, budget: float) -> None:
    """The estimator's own failure condition: non-overlapping self
    times can never sum to more than the total they partition."""
    if not stats.fits(self_total, budget):
        out.problems.append(
            f"self-time estimator: layers sum to {self_total:.6f} > {what} {budget:.6f}"
        )
        out.failed += 1


def _paired(seeds: Sequence[int], run: Callable[[int, bool], Any]) -> List[Tuple[Any, Any]]:
    """(untraced, traced) results per seed, alternating which runs first."""
    pairs = []
    for index, seed in enumerate(seeds):
        if index % 2 == 0:
            plain = run(seed, False)
            traced = run(seed, True)
        else:
            traced = run(seed, True)
            plain = run(seed, False)
        pairs.append((plain, traced))
    return pairs


def _overhead(values: Dict[str, float], pairs: Sequence[Tuple[float, float]]) -> None:
    centre, spread = stats.paired_overhead([p for p, _ in pairs], [t for _, t in pairs])
    values["tracing.overhead"] = centre
    values["tracing.overhead_spread"] = spread


# ----------------------------------------------------------------------
# plan_cold
# ----------------------------------------------------------------------
def _plan_spec(seed: int, trace: bool, gate_reps: int = GATE_REPS) -> Dict[str, Any]:
    return {
        "kind": "plan",
        "nodes": PLAN_NODES,
        "central": CENTRAL_PER_NODE * PLAN_NODES,
        "seed": seed,
        "trace": trace,
        "gate_reps": gate_reps,
    }


def _check_plan(out: Outcome, task_set: int, sample: Dict[str, Any]) -> None:
    out.attempted += 1
    out.check(sample["gate_errors"] == 0, f"task set {task_set}: gate reported {sample['gate_errors']} errors")


def plan_cold(args: argparse.Namespace) -> Outcome:
    out = Outcome()
    if args.trace:
        task_sets = PLAN_TASK_SETS[:3]
        pairs = _paired(
            task_sets,
            lambda k, t: run_sample(_plan_spec(k, t, gate_reps=0), args.seed * 1000 + k)[1],
        )
        traced = [t for _, t in pairs]
        for task_set, (plain, tr) in zip(task_sets, pairs):
            _check_plan(out, task_set, plain)
            _check_plan(out, task_set, tr)
            out.check(
                plain["fingerprint"] == tr["fingerprint"],
                f"task set {task_set}: traced plan differs from the untraced one",
            )
            self_total = sum(_layer(tr, layer) for layer in PLANNER_LAYERS) + tr["gate_once_s"]
            _check_self_times(out, "plan_s", self_total, tr["plan_s"])
        n = len(traced)
        hits = sum(t["memo_hits"] for t in traced)
        lookups = hits + sum(t["memo_misses"] for t in traced)
        values = {
            "core.planner.self_s": sum(_layer(t, "core.planner") for t in traced) / n,
            "core.planner.candidates_evaluated": sum(t["candidates_evaluated"] for t in traced) / n,
            "core.forest.self_s": sum(_layer(t, "core.forest") for t in traced) / n,
            "core.forest.build_calls": sum(_calls(t, "core.forest") for t in traced) / n,
            "core.forest.memo_hit_rate": hits / lookups if lookups else 0.0,
            "trees.build.self_s": sum(_layer(t, "trees.build") for t in traced) / n,
            "trees.build.calls": sum(_calls(t, "trees.build") for t in traced) / n,
            "trees.adjust.self_s": sum(_layer(t, "trees.adjust") for t in traced) / n,
            "trees.adjust.calls": sum(_calls(t, "trees.adjust") for t in traced) / n,
            "checks.gate_s": sum(t["gate_once_s"] for t in traced) / n,
            "python.gc_ms_per_op": sum(t["gc_s"] for t in traced) / n * 1000.0,
        }
        _overhead(values, [(p["plan_s"], t["plan_s"]) for p, t in pairs])
        out.metrics = _per_layer(values)
        return out

    task_sets = PLAN_TASK_SETS[: max(2, min(len(PLAN_TASK_SETS), round(args.seconds / 4.0)))]
    samples = []
    for task_set in task_sets:
        spawned, sample = run_sample(_plan_spec(task_set, False), args.seed * 1000 + task_set)
        sample["setup_s"] = sample["ready"] - spawned
        _check_plan(out, task_set, sample)
        samples.append(sample)
    # Determinism: the first task set again, in another interpreter
    # with another hash seed, must give the same plan byte for byte.
    _, again = run_sample(_plan_spec(task_sets[0], False, gate_reps=0), args.seed * 1000 + 7)
    _check_plan(out, task_sets[0], again)
    out.check(
        again["fingerprint"] == samples[0]["fingerprint"],
        f"task set {task_sets[0]}: re-planned fingerprint {again['fingerprint'][:12]} "
        f"!= {samples[0]['fingerprint'][:12]}",
    )
    gate_ms = _ms([g for s in samples for g in s["gate_s"]])
    plan_s = stats.median([s["plan_s"] for s in samples])
    coverage = stats.median([s["coverage"] for s in samples])
    cost = stats.median([s["cost"] for s in samples])
    out.metrics = _end_to_end(
        setup_s=stats.median([s["setup_s"] for s in samples]),
        work_ms=stats.median([s["cpu_s"] for s in samples]) * 1000.0,
        latency_ms_p50=plan_s * 1000.0,
        plan_coverage=coverage,
        plan_cost=cost,
        peak_rss_mb=stats.median([s["peak_rss_mb"] for s in samples]),
    )
    out.table = [
        ("plan_s", plan_s, "s"),
        ("plan CPU", stats.median([s["cpu_s"] for s in samples]), "s"),
        ("plan_coverage", coverage, "fraction"),
        ("plan_cost", cost, "cost/period"),
        (f"collector usage (of {CENTRAL_PER_NODE * PLAN_NODES:g})", stats.median([s["collector_usage"] for s in samples]), "cost/period"),
        ("gate_ms_p50", stats.percentile(gate_ms, 50), "ms"),
        _pooled_tail("gate_ms_tail", gate_ms),
        ("plans", len(samples), "count"),
    ]
    for task_set, sample in zip(task_sets, samples):
        print(f"  task set {task_set}: plan {sample['plan_s']:.3f} s, coverage "
              f"{sample['coverage']:.4f}, fingerprint {sample['fingerprint'][:12]}")
    return out


# ----------------------------------------------------------------------
# run_inproc / run_wire
# ----------------------------------------------------------------------
def _run_spec(wire: bool, seed: int, periods: int, trace: bool) -> Dict[str, Any]:
    return {"kind": "run", "wire": wire, "seed": seed, "periods": periods, "trace": trace, "period_s": PERIOD_S}


def _check_run(out: Outcome, sample: Dict[str, Any], fingerprints: set) -> None:
    """One operation per period; a sample-wide failure fails them all."""
    periods = len(sample["fresh"])
    out.attempted += periods
    fingerprints.add(sample["fingerprint"])
    failed = set()
    problems = []
    if sample["gate_errors"]:
        problems.append(f"gate reported {sample['gate_errors']} errors")
    if sample["probe_update_sends"] != sample["messages_sent"]:
        problems.append(
            f"probe counted {sample['probe_update_sends']} update sends, report says "
            f"{sample['messages_sent']}"
        )
    if problems:
        failed.update(range(periods))
    for period, fresh in enumerate(sample["fresh"]):
        if fresh < sample["coverage"] - _EPS:
            failed.add(period)
            problems.append(
                f"period {period}: fresh fraction {fresh:.4f} below plan coverage "
                f"{sample['coverage']:.4f}"
            )
    out.failed += len(failed)
    out.problems.extend(problems)


def _per_period(sample: Dict[str, Any], value: float) -> float:
    return value / len(sample["fresh"])


def _median_period_cpu_ms(sample: Dict[str, Any]) -> float:
    """Median tick-to-tick process CPU over a sample's periods (the
    last period, whose interval would include shutdown, has no next
    tick)."""
    ticks = sample["tick_cpu"]
    return stats.median([(b - a) * 1000.0 for a, b in zip(ticks, ticks[1:])])


def _overrun_ms(sample: Dict[str, Any]) -> float:
    """Mean tick lateness added per period against a fixed schedule."""
    ticks = sample["tick_at"]
    return ((ticks[-1] - ticks[0]) / (len(ticks) - 1) - PERIOD_S) * 1000.0


def run_periods(args: argparse.Namespace, wire: bool) -> Outcome:
    out = Outcome()
    fingerprints: set = set()
    if args.trace:
        n_pairs = 3
        periods = max(3, round(args.seconds / (2 * n_pairs * PERIOD_S)))
        seeds = [args.seed * 1000 + i for i in range(n_pairs)]
        pairs = _paired(seeds, lambda s, t: run_sample(_run_spec(wire, s, periods, t), s)[1])
        per_period: Dict[str, List[float]] = {}
        for plain, tr in pairs:
            _check_run(out, plain, fingerprints)
            _check_run(out, tr, fingerprints)
            cpu_ms = _per_period(tr, tr["cpu_s"]) * 1000.0
            layer_ms = {
                layer: _per_period(tr, _layer(tr, layer)) * 1000.0
                for layer in ("obs.metrics", "cluster.metrics", "runtime.collector",
                              "net.codec.encode", "net.codec.decode")
            }
            _check_self_times(out, "period_cpu_ms", sum(layer_ms.values()), cpu_ms)
            row = {
                "obs.metrics.self_ms_per_period": layer_ms["obs.metrics"],
                "obs.metrics.calls_per_period": _per_period(tr, _calls(tr, "obs.metrics")),
                "cluster.metrics.self_ms_per_period": layer_ms["cluster.metrics"],
                "cluster.metrics.calls_per_period": _per_period(tr, _calls(tr, "cluster.metrics")),
                "runtime.collector.close_ms": layer_ms["runtime.collector"],
                "runtime.tasks_per_period": _per_period(tr, tr["tasks"]),
                "runtime.transport.sends_per_period": _per_period(tr, tr["probe_sends"]),
                "runtime.messages_per_period": _per_period(tr, tr["messages_sent"]),
                "runtime.values_per_message": tr["probe_values"] / max(1, tr["probe_update_sends"]),
                "runtime.engine.overrun_ms": _overrun_ms(tr),
                "runtime.agent.residual_ms_per_period": cpu_ms - sum(layer_ms.values()),
                "net.codec.encode_ms_per_period": layer_ms["net.codec.encode"],
                "net.codec.decode_ms_per_period": layer_ms["net.codec.decode"],
                "net.codec.bytes_per_period": _per_period(tr, tr["net_bytes"]),
                "net.tcp.frames_per_period": _per_period(tr, tr["net_frames"]),
                "python.gc_ms_per_op": _per_period(tr, tr["gc_s"]) * 1000.0,
            }
            for name, value in row.items():
                per_period.setdefault(name, []).append(value)
        values = {name: stats.median(v) for name, v in per_period.items()}
        _overhead(values, [(_median_period_cpu_ms(p), _median_period_cpu_ms(t)) for p, t in pairs])
        out.attempted += 1
        out.check(len(fingerprints) == 1, f"plan fingerprints differ across samples: {sorted(fingerprints)}")
        out.metrics = _per_layer(values)
        return out

    # Five set-ups per run: setup_s is a median over set-ups, and three
    # were too few to hold it steady.
    n_samples = 5
    periods = max(3, round(args.seconds / (n_samples * PERIOD_S)))
    samples = []
    for index in range(n_samples):
        seed = args.seed * 1000 + index
        spawned, sample = run_sample(_run_spec(wire, seed, periods, False), seed)
        sample["setup_s"] = sample["ready"] - spawned
        _check_run(out, sample, fingerprints)
        samples.append(sample)
    out.attempted += 1
    out.check(len(fingerprints) == 1, f"plan fingerprints differ across samples: {sorted(fingerprints)}")
    per_sample_collect = [_ms(stats.nonempty(s["collect_s"], "collect")) for s in samples]
    collect_ms = [c for values in per_sample_collect for c in values]
    collect_tail = _sample_tail("collect_ms_tail", per_sample_collect)
    # A median over all ~36 tick-to-tick periods, not over 3 samples,
    # so a few seconds of machine noise cannot move it.
    period_cpu_ms = stats.median([
        (b - a) * 1000.0 for s in samples for a, b in zip(s["tick_cpu"], s["tick_cpu"][1:])
    ])
    coverage = samples[0]["coverage"]
    cost = samples[0]["cost"]
    fresh = stats.mean([f for s in samples for f in s["fresh"]])
    out.metrics = _end_to_end(
        setup_s=stats.median([s["setup_s"] for s in samples]),
        work_ms=period_cpu_ms,
        latency_ms_p50=stats.percentile(collect_ms, 50),
        plan_coverage=coverage,
        plan_cost=cost,
        peak_rss_mb=stats.median([s["peak_rss_mb"] for s in samples]),
    )
    out.table = [
        ("period_cpu_ms", period_cpu_ms, "ms"),
        ("set-up plan_s", stats.median([s["plan_s"] for s in samples]), "s"),
        ("collect_ms_p50", stats.percentile(collect_ms, 50), "ms"),
        collect_tail,
        ("fresh_coverage", fresh, "fraction"),
        ("wave headroom (1 - max collect / period)", 1.0 - max(collect_ms) / (PERIOD_S * 1000.0), "fraction"),
        ("update messages per period", stats.median([_per_period(s, s["messages_sent"]) for s in samples]), "count"),
        ("periods", sum(len(s["fresh"]) for s in samples), "count"),
    ]
    print(f"  plan fingerprint {samples[0]['fingerprint'][:12]}, coverage {coverage:.4f}, set-up plans "
          + ", ".join(f"{s['plan_s']:.3f}" for s in samples) + " s")
    return out


# ----------------------------------------------------------------------
# churn_serve
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP connection; counts every request and failure."""

    def __init__(self, port: int, out: Outcome) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
        self.out = out
        self.elapsed: List[float] = []

    def request(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Tuple[float, Any]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.out.attempted += 1
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.out.check(False, f"{method} {path}: transport error {exc!r}")
            raise SampleError(f"{method} {path}: {exc!r}") from exc
        elapsed = time.perf_counter() - started
        self.elapsed.append(elapsed)
        self.out.check(200 <= response.status < 300, f"{method} {path}: HTTP {response.status} {raw[:200]!r}")
        return elapsed, json.loads(raw) if raw else {}

    def close(self) -> None:
        self.conn.close()


def _task_body(task: Any) -> Dict[str, Any]:
    return {
        "task_id": task.task_id,
        "attributes": sorted(task.attributes),
        "nodes": sorted(task.nodes),
        "frequency": task.frequency,
    }


def _wait_for_announce(path: str, proc: "subprocess.Popen[str]", deadline: float) -> int:
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SampleError(f"repro serve exited {proc.returncode} before listening")
        try:
            with open(path, encoding="utf-8") as fh:
                return int(json.load(fh)["port"])
        except (OSError, ValueError, KeyError):
            time.sleep(0.002)
    raise SampleError("repro serve did not announce its port in time")


def churn_session(
    seed: int,
    trace: bool,
    rounds: int,
    out: Outcome,
    tmpdir: str,
    hash_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """One server process: submit, adapt, then update rounds; SIGINT.

    The server's ``PYTHONHASHSEED`` stays unpinned unless ``hash_seed``
    is given (see NOTES.md, "Determinism defect").
    """
    from repro.workloads.presets import sampled_workload
    from repro.workloads.tasks import TaskSampler
    from repro.workloads.updates import TaskUpdateStream

    # The CLI-default deployment and initial tasks (as in ``run_*``); the
    # seed drives the churn: update stream, retired and submitted tasks.
    cluster, _cost, tasks = sampled_workload(nodes=SERVE_NODES, tasks=SERVE_TASKS)
    stem = os.path.join(tmpdir, f"serve-{seed}-{int(trace)}")
    announce = stem + ".announce.json"
    spec = {
        "trace": trace,
        "nodes": SERVE_NODES,
        "collectors": SERVE_COLLECTORS,
        "announce": announce,
        "max_seconds": SAMPLE_TIMEOUT,
    }
    # Server output goes to files: a pipe nobody reads until exit could
    # fill up and stall the server mid-session.
    with open(stem + ".out", "w", encoding="utf-8") as out_fh, open(stem + ".err", "w", encoding="utf-8") as err_fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_launcher.py"), json.dumps(spec)],
            stdout=out_fh,
            stderr=err_fh,
            env=_child_env(hash_seed),
            cwd=ROOT,
        )
    session: Dict[str, Any] = {"task_ms": [], "adapt_ms": [], "records": []}
    try:
        port = _wait_for_announce(announce, proc, spawned + 60.0)
        session["setup_s"] = time.monotonic() - spawned
        client = Client(port, out)
        tenant_of: Dict[str, str] = {}
        rng = random.Random(seed)
        sampler = TaskSampler(cluster, seed=seed + 1)
        try:
            for index, task in enumerate(tasks):
                tenant = tenant_of[task.task_id] = f"tenant-{index % SERVE_TENANTS}"
                elapsed, _ = client.request("POST", f"/tenants/{tenant}/tasks", _task_body(task))
                session["task_ms"].append(elapsed * 1000.0)

            def adapt() -> None:
                elapsed, record = client.request("POST", "/adapt", {})
                session["adapt_ms"].append(elapsed * 1000.0)
                session["records"].append(record)

            adapt()
            stream = TaskUpdateStream(cluster, tasks, seed=seed)
            for round_index in range(rounds):
                for _op, task in stream.next_batch():
                    tenant = tenant_of[task.task_id]
                    body = _task_body(task)
                    del body["task_id"]
                    elapsed, _ = client.request("PUT", f"/tenants/{tenant}/tasks/{task.task_id}", body)
                    session["task_ms"].append(elapsed * 1000.0)
                retired = stream.tasks.pop(rng.randrange(len(stream.tasks)))
                elapsed, _ = client.request("DELETE", f"/tenants/{tenant_of[retired.task_id]}/tasks/{retired.task_id}")
                session["task_ms"].append(elapsed * 1000.0)
                fresh = None
                while fresh is None:
                    fresh = sampler.sample(f"churn{round_index:03d}", rng.randint(2, 5), rng.randint(16, 50))
                tenant = tenant_of[fresh.task_id] = f"tenant-{round_index % SERVE_TENANTS}"
                stream.tasks.append(fresh)
                elapsed, _ = client.request("POST", f"/tenants/{tenant}/tasks", _task_body(fresh))
                session["task_ms"].append(elapsed * 1000.0)
                adapt()
            _, session["plan"] = client.request("GET", "/plan")
            session["client_s"] = sum(client.elapsed)
            session["requests"] = len(client.elapsed)
        finally:
            client.close()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        with open(stem + ".err", encoding="utf-8") as fh:
            raise SampleError(f"serve launcher exited {proc.returncode}: {fh.read()[-2000:]}")
    with open(stem + ".out", encoding="utf-8") as fh:
        session["server"] = json.loads(fh.read().strip().splitlines()[-1])
    out.attempted += 1
    out.check(
        session["server"]["gate_errors"] == 0,
        f"session {seed}: final plan failed the gate ({session['server']['gate_errors']} errors)",
    )
    return session


def churn_serve(args: argparse.Namespace) -> Outcome:
    out = Outcome()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        if args.trace:
            seeds = [args.seed * 1000 + i for i in range(2)]
            # Both arms of a pair share a hash seed: the adaptation path
            # depends on it, and the pair must measure the same work.
            pairs = _paired(
                seeds, lambda s, t: churn_session(s, t, SERVE_ROUNDS // 2, out, tmpdir, hash_seed=s)
            )
        else:
            n_sessions = max(2, round(args.seconds / 7.0))
            sessions = [
                churn_session(args.seed * 1000 + i, False, SERVE_ROUNDS, out, tmpdir)
                for i in range(n_sessions)
            ]
    if args.trace:
        traced = [t for _, t in pairs]
        adapts = sum(len(t["adapt_ms"]) for t in traced)
        requests = sum(t["requests"] for t in traced)
        overhead_ms: List[float] = []
        for tr in traced:
            server = tr["server"]
            layer_total = sum(server["layers"]["self_s"].values())
            _check_self_times(out, "client request time", layer_total, tr["client_s"])
            server_ms = _ms(server["layers"]["samples_s"].get("serve.controlplane.task", []))
            out.check(len(server_ms) == len(tr["task_ms"]), "server saw a different number of task ops")
            overhead_ms.extend(c - s for c, s in zip(tr["task_ms"], server_ms))

        def per_adapt(layer: str, scale: float = 1.0) -> float:
            return sum(t["server"]["layers"]["self_s"].get(layer, 0.0) for t in traced) / adapts * scale

        def per_adapt_calls(layer: str) -> float:
            return sum(t["server"]["layers"]["calls"].get(layer, 0) for t in traced) / adapts

        records = [r for t in traced for r in t["records"]]
        values = {
            "core.planner.self_s": per_adapt("core.planner"),
            "core.forest.self_s": per_adapt("core.forest"),
            "core.forest.build_calls": per_adapt_calls("core.forest"),
            "trees.build.self_s": per_adapt("trees.build"),
            "trees.build.calls": per_adapt_calls("trees.build"),
            "trees.adjust.self_s": per_adapt("trees.adjust"),
            "trees.adjust.calls": per_adapt_calls("trees.adjust"),
            "core.adaptation.self_ms": per_adapt("core.adaptation", 1000.0),
            "core.adaptation.applied_ops": stats.mean([len(r["applied_ops"]) for r in records]),
            "core.adaptation.throttled_ops": stats.mean([r["throttled_ops"] for r in records]),
            "core.adaptation.messages": stats.mean([r["adaptation_messages"] for r in records]),
            "serve.controlplane.shard_ms": per_adapt("serve.controlplane", 1000.0),
            "serve.http.overhead_ms_p50": stats.percentile(stats.nonempty(overhead_ms, "overhead"), 50),
            "python.gc_ms_per_op": sum(t["server"]["gc_s"] for t in traced) / requests * 1000.0,
        }
        _overhead(values, [(p["client_s"], t["client_s"]) for p, t in pairs])
        out.metrics = _per_layer(values)
        return out

    task_ms = [v for s in sessions for v in s["task_ms"]]
    # Thirds of sessions (~360 consecutive task ops each) as tail groups.
    update_groups = [
        s["task_ms"][len(s["task_ms"]) * i // 3 : len(s["task_ms"]) * (i + 1) // 3]
        for s in sessions
        for i in range(3)
    ]
    update_tail = _sample_tail("update_ms_tail", update_groups)
    adapt_ms = [v for s in sessions for v in s["adapt_ms"]]
    coverage = stats.median([s["server"]["coverage"] for s in sessions])
    cost = stats.median([s["server"]["cost"] for s in sessions])
    out.metrics = _end_to_end(
        setup_s=stats.median([s["setup_s"] for s in sessions]),
        work_ms=stats.percentile(adapt_ms, 50),
        latency_ms_p50=stats.percentile(task_ms, 50),
        plan_coverage=coverage,
        plan_cost=cost,
        peak_rss_mb=stats.median([s["server"]["peak_rss_mb"] for s in sessions]),
    )
    out.table = [
        ("update_ms_p50", stats.percentile(task_ms, 50), "ms"),
        update_tail,
        ("adapt_ms_p50", stats.percentile(adapt_ms, 50), "ms"),
        _pooled_tail("adapt_ms_tail", adapt_ms),
        ("plan_coverage (final plan)", coverage, "fraction"),
        ("plan_cost (final plan)", cost, "cost/period"),
        ("server CPU per request", stats.median([s["server"]["cpu_s"] / s["requests"] * 1000.0 for s in sessions]), "ms"),
    ]
    for index, session in enumerate(sessions):
        server = session["server"]
        print(f"  session {args.seed * 1000 + index}: final coverage {server['coverage']:.4f}, "
              f"fingerprint {server['fingerprint'][:12]} (PYTHONHASHSEED not pinned)")
    return out


WORKLOADS: Dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "plan_cold": plan_cold,
    "run_inproc": lambda args: run_periods(args, wire=False),
    "run_wire": lambda args: run_periods(args, wire=True),
    "churn_serve": churn_serve,
}


def run_workload(workload: str, args: argparse.Namespace) -> int:
    """Measure one workload, print its table and its JSON result line."""
    try:
        outcome = WORKLOADS[workload](args)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 1
    print(f"{workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}):")
    for name, value, unit in outcome.table:
        print(f"  {name:<48} {value:>14.4f} {unit}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<48} {value:>14.6f} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  failed operations: {outcome.failed}/{outcome.attempted} ({share:.2%})")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        import selftest

        failures = selftest.run_all()
        if failures:
            for failure in failures:
                print(f"perfbench self-test failed: {failure}", file=sys.stderr)
            return 1
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(workload, args) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
