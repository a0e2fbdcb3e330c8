"""Scaling benchmark for the solver's linear-time contract.

Runs the solver on random connected graphs along a doubling ladder of edge
counts with n = m/4 (constant density), so consecutive median-time ratios
near 2 indicate linear behavior in m. Times exclude generation.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from .generate import InstanceSpec, generate
from .solver import StartPolicy, tree

DEFAULT_LADDER = (16, 21)   # exponents: m = 2^16 .. 2^21
DEFAULT_RUNS = 5
WARMUP_SECONDS = 0.4        # keep solving until this much wall time has passed
WARMUP_MAX_ITERATIONS = 50


@dataclass(frozen=True)
class BenchRow:
    m: int
    n: int
    median_ms: float
    ratio: float | None          # median over passes of this rung's time over
                                 # the previous rung's time in the same pass
    touches: int
    touch_limit: int             # 10 * (n + m)


def run_ladder(ladder: tuple[int, int] = DEFAULT_LADDER, runs: int = DEFAULT_RUNS,
               seed: int = 0, policy: StartPolicy | None = None) -> list[BenchRow]:
    """Benchmark each rung m = 2^lo .. 2^hi: `runs` timed solves per rung.

    The timed runs are interleaved across rungs (pass 1 solves every rung
    once, then pass 2, ...) so that consecutive rungs are measured back to
    back. Each rung-to-rung ratio is taken within a pass and the median over
    passes is reported, so machine-speed drift between passes cancels out.
    """
    lo, hi = ladder
    if lo > hi:
        raise ValueError(f"ladder start {lo} exceeds stop {hi}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    graphs = []
    for exp in range(lo, hi + 1):
        m = 1 << exp
        n = max(4, m // 4)
        graphs.append(generate(InstanceSpec("random_connected", (n, m), seed + exp)))
    touches = []
    for g in graphs:
        # Warm up until the clock has visibly advanced: small rungs solve in
        # milliseconds and would otherwise be timed in a transient CPU state.
        warm_start = time.perf_counter()
        for _ in range(WARMUP_MAX_ITERATIONS):
            _, trace = tree(g, policy)
            if time.perf_counter() - warm_start >= WARMUP_SECONDS:
                break
        touches.append(trace.touches)
    times: list[list[float]] = [[] for _ in graphs]
    # Collector disabled around the timed region, timeit-style, so the
    # numbers reflect the solver rather than allocator housekeeping.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            for idx, g in enumerate(graphs):
                t0 = time.perf_counter()
                tree(g, policy)
                times[idx].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    rows: list[BenchRow] = []
    prev_times: list[float] | None = None
    for g, rung_times, rung_touches in zip(graphs, times, touches):
        ratio = (statistics.median(t / p for t, p in zip(rung_times, prev_times))
                 if prev_times else None)
        rows.append(BenchRow(g.m, g.n, statistics.median(rung_times) * 1000.0, ratio,
                             rung_touches, 10 * (g.n + g.m)))
        prev_times = rung_times
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["m,n,median_ms,ratio"]
    for row in rows:
        ratio = f"{row.ratio:.3f}" if row.ratio is not None else ""
        lines.append(f"{row.m},{row.n},{row.median_ms:.3f},{ratio}")
    return "\n".join(lines) + "\n"
