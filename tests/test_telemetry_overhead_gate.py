"""The telemetry-overhead gate's estimator must be able to pass and fail.

``benchmarks/bench_telemetry_overhead.py`` gates on the median of
paired per-round ratios with a seeded bootstrap interval, failing when
the interval's lower bound exceeds the budget.  Identical arms must
read about zero; an arm 20% slower must trip the gate.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    module = importlib.import_module("bench_telemetry_overhead")
    yield module
    for name in ("bench_telemetry_overhead", "bench_planner_scaling", "_common"):
        sys.modules.pop(name, None)


def _noisy_timings(seed: int, rounds: int = 11) -> list:
    rng = random.Random(seed)
    return [1.0 + rng.gauss(0.0, 0.05) for _ in range(rounds)]


def test_identical_arms_ci_contains_zero(bench):
    plain = _noisy_timings(1)
    median, low, high = bench.overhead_estimate(plain, list(plain))
    assert median == low == high == 0.0
    assert not bench.gate_fails(low)


def test_same_distribution_arms_ci_contains_zero(bench):
    median, low, high = bench.overhead_estimate(_noisy_timings(1), _noisy_timings(2))
    assert low <= 0.0 <= high
    assert low <= median <= high
    assert not bench.gate_fails(low)


def test_twenty_percent_slower_arm_trips_gate(bench):
    plain = _noisy_timings(1)
    slowed = [t * 1.2 for t in _noisy_timings(2)]
    median, low, _high = bench.overhead_estimate(plain, slowed)
    assert median > bench.LIMIT
    assert bench.gate_fails(low)


def test_estimate_is_seeded(bench):
    plain, arm = _noisy_timings(3), _noisy_timings(4)
    assert bench.overhead_estimate(plain, arm) == bench.overhead_estimate(plain, arm)


def test_mismatched_arms_rejected(bench):
    with pytest.raises(ValueError):
        bench.overhead_estimate([1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        bench.overhead_estimate([], [])
