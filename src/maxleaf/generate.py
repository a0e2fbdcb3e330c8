"""Deterministic instance generation for tests, benchmarks and searches.

Families: cycle, star, complete, grid, random_connected, tight_search.
Every family is a pure function of its InstanceSpec: same spec, same graph.
Generated adjacency lists are in ascending id order.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .graph import Graph

# Each family with the number of integer parameters it takes.
PARAM_COUNTS = {"cycle": 1, "star": 1, "complete": 1, "grid": 2,
                "random_connected": 2, "tight_search": 2}
FAMILIES = tuple(PARAM_COUNTS)


@dataclass(frozen=True)
class InstanceSpec:
    """A generator family plus its integer parameters and a 64-bit seed."""

    family: str
    params: tuple[int, ...] = field(default_factory=tuple)
    seed: int = 0


class InfeasibleSpecError(ValueError):
    """Parameters cannot produce a connected simple graph."""


def _cycle(k: int) -> Graph:
    if k < 3:
        raise InfeasibleSpecError(f"cycle needs >= 3 vertices, got {k}")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges.append((0, k - 1))
    edges.sort()
    return Graph.from_edges(k, edges)


def _star(k: int) -> Graph:
    if k < 1:
        raise InfeasibleSpecError(f"star needs >= 1 vertex, got {k}")
    return Graph.from_edges(k, [(0, i) for i in range(1, k)])


def _complete(k: int) -> Graph:
    if k < 1:
        raise InfeasibleSpecError(f"complete needs >= 1 vertex, got {k}")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph.from_edges(k, edges)


def _grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InfeasibleSpecError(f"grid needs positive dimensions, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    edges.sort()
    return Graph.from_edges(rows * cols, edges)


def uniform_random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniformly random labeled tree on n vertices (decoded Pruefer sequence)."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def add_random_edges(edge_set: set[tuple[int, int]], n: int, count: int,
                     rng: random.Random) -> None:
    """Add count new (u, v), u < v, edges on n vertices to edge_set.

    Rejection sampling: each draw is two rng.randrange(n) calls, and
    self-loops and edges already present are drawn again. The caller keeps
    the target well below n(n-1)/2 so that rejections stay rare.
    """
    target = len(edge_set) + count
    while len(edge_set) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edge_set.add((u, v) if u < v else (v, u))


def _random_connected(n: int, m: int, rng: random.Random) -> Graph:
    max_edges = n * (n - 1) // 2
    if n < 1:
        raise InfeasibleSpecError(f"random_connected needs >= 1 vertex, got {n}")
    if m < n - 1 or m > max_edges:
        raise InfeasibleSpecError(
            f"random_connected({n}, {m}): need {n - 1} <= m <= {max_edges}")
    edge_set = set(uniform_random_tree(n, rng))
    extra = m - len(edge_set)
    if extra > 0 and extra > (max_edges - len(edge_set)) // 2:
        # Dense target: rejection sampling degenerates, sample the complement.
        complement = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in edge_set]
        edge_set.update(rng.sample(complement, extra))
    else:
        add_random_edges(edge_set, n, extra, rng)
    return Graph.from_edges(n, sorted(edge_set))


def generate(spec: InstanceSpec) -> Graph:
    """Build the instance described by spec; deterministic for a fixed spec."""
    family, params = spec.family, spec.params
    if family not in PARAM_COUNTS:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if len(params) != PARAM_COUNTS[family]:
        raise ValueError(f"{family} takes {PARAM_COUNTS[family]} parameter(s), "
                         f"got {len(params)}")
    if family == "cycle":
        return _cycle(*params)
    if family == "star":
        return _star(*params)
    if family == "complete":
        return _complete(*params)
    if family == "grid":
        return _grid(*params)
    if family == "random_connected":
        n, m = params
        return _random_connected(n, m, random.Random(spec.seed))
    # The only family left is tight_search.
    from .tightness import tight_search

    n_max, trials = params
    return tight_search(n_max, trials, spec.seed).best.graph
