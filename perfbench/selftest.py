"""Self-test of the benchmark's two estimators; ``run.py --trace 1``
runs it before measuring, and it runs standalone::

    python3 perfbench/selftest.py

1. Self time: nested synthetic calls with known busy time must come out
   at their known self times, partitioning the outer call's wall time;
   the sum check must reject inclusive (nested-overlapping) times, the
   failure mode of phase timers that nest.
2. Tracing overhead: paired arms doing identical work must read about
   0, and an arm with a known 20% slowdown must read about +20%.

Exits non-zero on any failure.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from probes import SelfTimer  # noqa: E402


class _VirtualClock:
    """A nanosecond clock that only the synthetic calls advance."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def busy_ms(self, ms: float) -> None:
        self.now += int(ms * 1e6)


def _work(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def _nested(timer: SelfTimer, busy: Callable[[float], None]) -> Callable[[], None]:
    """outer(10 ms) -> mid(6 ms) -> 2 x inner(4 ms), then outer -> inner."""
    inner = timer.wrap("inner", lambda: busy(4.0))

    def mid_body() -> None:
        busy(6.0)
        inner()
        inner()

    mid = timer.wrap("mid", mid_body)

    def outer_body() -> None:
        busy(10.0)
        mid()
        inner()

    return timer.wrap("outer", outer_body)


def check_self_time() -> List[str]:
    failures: List[str] = []
    clock = _VirtualClock()
    timer = SelfTimer(clock=clock)
    _nested(timer, clock.busy_ms)()
    total_ms = clock.now / 1e6
    expected = {"outer": 10.0, "mid": 6.0, "inner": 12.0}
    for layer, want in expected.items():
        got = timer.self_seconds(layer) * 1000.0
        if abs(got - want) > 1e-9:
            failures.append(f"self time of {layer}: {got:.3f} ms, expected {want:.3f} ms")
    if dict(timer.calls) != {"inner": 3, "mid": 1, "outer": 1}:
        failures.append(f"call counts {dict(timer.calls)} != inner 3, mid 1, outer 1")
    if not stats.fits(sum(timer.self_ns.values()) / 1e6, total_ms):
        failures.append("self times sum to more than the wall time they partition")
    inclusive = 32.0 + 14.0 + 12.0
    if stats.fits(inclusive, total_ms):
        failures.append("sum check accepted inclusive (overlapping) times")

    # The real clock: however the process is scheduled, the self times
    # partition the outer call's wall time.
    timer = SelfTimer()
    call = _nested(timer, lambda ms: _work(int(ms * 2000)))
    started = time.perf_counter_ns()
    call()
    wall = time.perf_counter_ns() - started
    self_sum = sum(timer.self_ns.values())
    if not (0.9 * wall <= self_sum and stats.fits(self_sum, wall)):
        failures.append(f"real-clock self times sum to {self_sum} ns of wall {wall} ns")
    return failures


def _pairs(plain: Callable[[], object], traced: Callable[[], object], n: int) -> List[Tuple[float, float]]:
    out = []
    for index in range(n):
        arms = [plain, traced] if index % 2 == 0 else [traced, plain]
        timings = []
        for arm in arms:
            started = time.process_time()
            arm()
            timings.append(time.process_time() - started)
        out.append((timings[0], timings[1]) if index % 2 == 0 else (timings[1], timings[0]))
    return out


def _overhead_reading(extra: float, base: int = 80_000, pairs: int = 21) -> float:
    """Median over 3 trials of the paired estimator on an arm doing
    ``1 + extra`` times the work; a noise burst from another process
    can spoil one trial on a shared machine, not the median of three."""
    readings = []
    for _ in range(3):
        timed = _pairs(lambda: _work(base), lambda: _work(int(base * (1.0 + extra))), pairs)
        centre, _spread = stats.paired_overhead([u for u, _ in timed], [t for _, t in timed])
        readings.append(centre)
    return stats.median(readings)


def check_overhead() -> List[str]:
    failures: List[str] = []
    same = _overhead_reading(0.0)
    if abs(same) > 0.03:
        failures.append(f"identical arms read {same:+.3f}, expected about 0")
    slow = _overhead_reading(0.2)
    if not 0.14 <= slow <= 0.26:
        failures.append(f"a known 20% slowdown read {slow:+.3f}")
    return failures


def run_all() -> List[str]:
    return check_self_time() + check_overhead()


if __name__ == "__main__":
    problems = run_all()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("perfbench self-test:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
