"""Deterministic instance generation for tests, benchmarks and searches.

Families: cycle, star, complete, grid, random_connected, tight_search.
Every family is a pure function of its InstanceSpec: same spec, same graph.
Generated adjacency lists are in ascending id order. A spec whose vertex
count exceeds graph.MAX_VERTICES, or whose edge count exceeds MAX_EDGES,
is refused before anything is allocated.

The random samplers keep an edge (u, v), u < v, on n vertices as the int
key u*n + v. Keys sort in the same order as the pairs, hash and compare
faster, and divmod(key, n) gives the pair back.

Every random vertex comes from _draws(rng, n), which yields
rng.getrandbits(n.bit_length()) values and skips those >= n. That is the
rejection loop random.Random.randrange(n) runs (via _randbelow) on
CPython 3.10-3.13, so each value and the generator state after it equal
those of a randrange(n) call, at less than half the cost. Python does not
promise randrange's sequence across versions, but getrandbits is the raw
Mersenne Twister output, so these draws depend on nothing else.

uniform_random_tree decodes its Pruefer sequence in O(n) with a pointer
that scans ids upward for the next leaf; a vertex that becomes a leaf
below the pointer is taken at once. That always takes the smallest leaf,
as a heap would, so the edges and their order match the textbook decode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterator

from . import graph
from .graph import Graph

# Each family with the number of integer parameters it takes.
PARAM_COUNTS = {"cycle": 1, "star": 1, "complete": 1, "grid": 2,
                "random_connected": 2, "tight_search": 2}
FAMILIES = tuple(PARAM_COUNTS)

# The most edges a spec may ask for. An edge costs about 130 bytes while the
# graph is built; the cap, 8x the m = 2^21 top of the benchmark ladder,
# bounds that at about 2 GB.
MAX_EDGES = 1 << 24


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


def _draws(rng: random.Random, n: int) -> Iterator[int]:
    """Yield, one per next(), the values successive rng.randrange(n) calls give."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


def uniform_random_tree(n: int, rng: random.Random) -> list[int]:
    """Uniformly random labeled tree on n vertices (decoded Pruefer sequence).

    Returns the n - 1 edges as keys u*n + v, u < v, in decode order.
    """
    if n <= 1:
        return []
    if n == 2:
        return [1]
    seq = list(islice(_draws(rng, n), n - 2))
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaf = ptr = degree.index(1)
    keys = []
    append = keys.append
    for x in seq:
        append(leaf * n + x if leaf < x else x * n + leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    # The two vertices left are the current leaf and n - 1.
    append(leaf * n + n - 1)
    return keys


def add_random_edges(keys: set[int], n: int, count: int,
                     rng: random.Random) -> None:
    """Add count new edges on n vertices to keys, each as u*n + v with u < v.

    Rejection sampling: each draw is two randrange(n) values, and
    self-loops and edges already present are drawn again. The caller keeps
    the target well below n(n-1)/2 so that rejections stay rare.
    """
    if count <= 0:
        return
    target = len(keys) + count
    add = keys.add
    draws = _draws(rng, n)
    for u, v in zip(draws, draws):
        if u < v:
            add(u * n + v)
        elif v < u:
            add(v * n + u)
        else:
            continue
        if len(keys) == target:
            return


def graph_from_keys(n: int, keys: set[int]) -> Graph:
    """The graph on n vertices whose edges are keys; adjacency ascends."""
    return Graph.from_edges(n, map(divmod, sorted(keys), repeat(n)))


def _random_connected(n: int, m: int, rng: random.Random) -> Graph:
    max_edges = n * (n - 1) // 2
    if n < 1:
        raise InfeasibleSpecError(f"random_connected needs >= 1 vertex, got {n}")
    if m < n - 1 or m > max_edges:
        raise InfeasibleSpecError(
            f"random_connected({n}, {m}): need {n - 1} <= m <= {max_edges}")
    keys = set(uniform_random_tree(n, rng))
    extra = m - len(keys)
    if extra > 0 and extra > (max_edges - len(keys)) // 2:
        # Dense target: rejection sampling degenerates, sample the complement.
        complement = [key for u in range(n) for key in range(u * n + u + 1, u * n + n)
                      if key not in keys]
        keys.update(rng.sample(complement, extra))
    else:
        add_random_edges(keys, n, extra, rng)
    return graph_from_keys(n, keys)


def _vertex_count(family: str, params: tuple[int, ...]) -> int:
    """Vertices the spec asks for; for tight_search, the most it may draw."""
    if family == "grid":
        rows, cols = params
        return rows * cols if rows > 0 else 0   # _grid rejects rows < 1 itself
    return params[0]


def _edge_count(family: str, params: tuple[int, ...]) -> int:
    """Edges the spec asks for; 0 where the family rejects the parameters
    itself, and for cycle, star and tight_search, which the vertex cap bounds."""
    if family == "complete":
        k = params[0]
        return k * (k - 1) // 2 if k > 0 else 0
    if family == "grid":
        rows, cols = params
        return rows * (cols - 1) + cols * (rows - 1) if rows > 0 and cols > 0 else 0
    if family == "random_connected":
        return params[1]
    return 0


def generate(spec: InstanceSpec) -> Graph:
    """Build the instance described by spec; deterministic for a fixed spec."""
    family, params = spec.family, spec.params
    if family not in PARAM_COUNTS:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if len(params) != PARAM_COUNTS[family]:
        raise ValueError(f"{family} takes {PARAM_COUNTS[family]} parameter(s), "
                         f"got {len(params)}")
    vertices = _vertex_count(family, params)
    if vertices > graph.MAX_VERTICES:
        raise InfeasibleSpecError(f"{family} asks for {vertices} vertices, "
                                  f"more than the cap of {graph.MAX_VERTICES}")
    edges = _edge_count(family, params)
    if edges > MAX_EDGES:
        raise InfeasibleSpecError(f"{family} asks for {edges} edges, "
                                  f"more than the cap of {MAX_EDGES}")
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
