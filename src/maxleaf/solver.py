"""Greedy tree expansion for maximum-leaf spanning trees in O(n + m) time.

The solver grows a tree from a start vertex of degree >= 2, always expanding
at the most promising tree vertex: first any vertex with >= 2 neighbors
outside the tree (a W2 expansion adds them all as leaves), then a vertex
whose single outside neighbor does not itself have exactly one outside
neighbor (W1): that neighbor either has none, so it joins as a leaf for
good, or has >= 2 and becomes a W2 candidate. Only as a last resort comes
the most recently added vertex with a single outside neighbor (W0), which
grows a path depth-first.

Scheduling uses two FIFO queues (w2, w1) and one LIFO stack (w0) over the
current leaves plus a per-vertex count of neighbors outside the tree, so a
whole run costs O(n + m) regardless of expansion order. Every tie is broken
deterministically (adjacency order), so identical inputs give identical runs.

The run is recorded flat: parallel tuples of step centers, case labels and
cumulative end offsets into one tuple of added vertices. ExpansionStep
objects are built only when a caller reads ExpansionTrace.steps. The work
counter touches is computed once at the end from the exact identity
touches = 2m + (sum of final scan pointers) + (number of W1 peeks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse

from .graph import Graph, is_connected

W2, W1, W0 = "W2", "W1", "W0"


class DisconnectedGraphError(ValueError):
    """Input graph is not connected; no spanning tree exists."""


@dataclass(frozen=True)
class StartPolicy:
    """How the start vertex is chosen: first id of degree >= 2, the
    lowest-id maximum-degree vertex, or an explicit vertex."""

    kind: str                 # "first" | "maxdeg" | "explicit"
    vertex: int | None = None

    @classmethod
    def first_eligible(cls) -> "StartPolicy":
        return cls("first")

    @classmethod
    def max_degree(cls) -> "StartPolicy":
        return cls("maxdeg")

    @classmethod
    def explicit(cls, vertex: int) -> "StartPolicy":
        return cls("explicit", vertex)

    @classmethod
    def parse(cls, text: str) -> "StartPolicy":
        if text == "first":
            return cls.first_eligible()
        if text == "maxdeg":
            return cls.max_degree()
        if text.startswith("vertex:"):
            return cls.explicit(int(text.split(":", 1)[1]))
        raise ValueError(f"unknown start policy {text!r}")


_FIRST_ELIGIBLE = StartPolicy.first_eligible()   # tree()'s default, built once


@dataclass(frozen=True, slots=True)
class ExpansionStep:
    """One tree expansion: all outside neighbors of center joined at once."""

    center: int
    case_label: str           # W2 | W1 | W0
    added: tuple[int, ...]    # in adjacency order of center


@dataclass(frozen=True)
class ExpansionTrace:
    """Replayable record of a run: start vertex plus the ordered steps.

    Stored flat: step i expanded at centers[i] under case labels[i] and
    added added[ends[i - 1]:ends[i]], the first step starting at 0. So ends
    is strictly increasing and its last entry is len(added). steps views the
    same run as ExpansionStep objects, built on first access.

    touches counts adjacency-list entries read during the run; it is the
    work-accounting instrument behind the linear-time contract. tree()
    obtains it as 2m (each vertex's row read once by the count decrement
    when the vertex joins) plus its final scan pointers plus one peeked
    entry per W1 check.
    """

    start: int
    centers: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()
    ends: tuple[int, ...] = ()
    added: tuple[int, ...] = ()
    touches: int = 0

    @cached_property
    def steps(self) -> tuple[ExpansionStep, ...]:
        added = self.added
        steps = []
        begin = 0
        for center, label, end in zip(self.centers, self.labels, self.ends):
            steps.append(ExpansionStep(center, label, added[begin:end]))
            begin = end
        return tuple(steps)


@dataclass(frozen=True)
class SpanningTree:
    root: int
    parent: tuple[int | None, ...]
    leaf_set: frozenset[int] = field(default_factory=frozenset)

    def edges(self) -> list[tuple[int, int]]:
        """Tree edges as sorted (u, v) pairs with u < v."""
        out = []
        for v, p in enumerate(self.parent):
            if p is not None:
                out.append((v, p) if v < p else (p, v))
        out.sort()
        return out


@dataclass(frozen=True)
class TreeCheck:
    """Verification outcome; falsy on failure, with a reason code."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def leaf_count(t: SpanningTree) -> int:
    """Number of tree vertices of tree-degree exactly 1."""
    return len(t.leaf_set)


def pick_start(g: Graph, policy: StartPolicy) -> int:
    """Resolve the start vertex for a run; requires degree >= 2 when n >= 3.

    The one place that decides whether a run can start. A refused explicit
    start (out of range, or degree < 2 with n >= 3) raises
    DisconnectedGraphError on a disconnected graph and ValueError on a
    connected one; only that refusal pays for the connectivity pass. The
    other policies raise DisconnectedGraphError when no vertex reaches
    degree 2 at n >= 3.
    """
    n = g.n
    if policy.kind == "explicit":
        v = policy.vertex
        if v is None or not 0 <= v < n:
            reason = f"start vertex {v} out of range [0, {n})"
        elif n >= 3 and g.degree(v) < 2:
            reason = f"start vertex {v} has degree {g.degree(v)} < 2"
        else:
            return v
        if not is_connected(g):
            raise DisconnectedGraphError(f"{reason}, and the graph is disconnected")
        raise ValueError(reason)
    if n <= 2:
        return 0
    if policy.kind == "first":
        adjacency = g.adjacency
        for v in range(n):      # ends on vertex n - 1 when no degree reaches 2
            if len(adjacency[v]) >= 2:
                break
    elif policy.kind == "maxdeg":
        v = max(range(n), key=g.degree)     # the first, so the lowest id, of a tie
    else:
        raise ValueError(f"unknown start policy kind {policy.kind!r}")
    if g.degree(v) < 2:
        raise DisconnectedGraphError(
            "no vertex of degree >= 2: graph is disconnected")
    return v


def _leaf_set(n: int, start: int, centers: list[int], ends: list[int],
              added: list[int]) -> frozenset[int]:
    """Leaves of a finished run. A non-root vertex is internal exactly when it
    was a center; the root's children are exactly its first step's, so it is
    a leaf when that step added one vertex."""
    internal = bytearray(n)
    for u in centers:
        internal[u] = 1
    if ends[0] == 1:
        internal[start] = 0
    # Filtering grows the set with the leaves alone: a set of all n vertices
    # would need a table several times larger, fresh pages on every call.
    return frozenset(filterfalse(internal.__getitem__, chain((start,), added)))


def tree(g: Graph, policy: StartPolicy | None = None) -> tuple[SpanningTree, ExpansionTrace]:
    """Build a spanning tree of the connected simple graph g by greedy expansion.

    Returns the tree plus the expansion trace. Deterministic for a fixed
    (graph, policy). Raises DisconnectedGraphError whenever g is
    disconnected, under every policy, and ValueError when an explicit start
    is refused on a connected g (see pick_start).
    """
    n = g.n
    start = pick_start(g, policy or _FIRST_ELIGIBLE)
    if n == 1:
        return SpanningTree(start, (None,)), ExpansionTrace(start)

    adjacency = g.adjacency
    in_tree = bytearray(n)
    parent: list[int | None] = [None] * n
    # cnt[w] = number of neighbors of w outside the tree, for every w
    cnt = list(map(len, adjacency))
    # scan pointer per vertex: entries before it are known to be in the tree
    ptr = [0] * n
    w2: deque[int] = deque()
    w1: deque[int] = deque()
    w0: list[int] = []
    centers: list[int] = []
    labels: list[str] = []
    ends: list[int] = []
    added: list[int] = []
    peeks = 0

    in_tree[start] = 1
    for w in adjacency[start]:
        cnt[w] -= 1
    # The start's own step is W2, or W0 when it adds a single vertex (n == 2).
    u, label = start, ""
    while True:
        au = adjacency[u]
        p = ptr[u]
        base = len(added)
        # Joining each neighbor as the scan meets it is safe: a simple
        # graph's row lists every neighbor once.
        for v in (au[p:] if p else au):
            if not in_tree[v]:
                in_tree[v] = 1
                parent[v] = u
                added.append(v)
                for w in adjacency[v]:
                    cnt[w] -= 1
        ptr[u] = len(au)
        end = len(added)
        # Every step adds a vertex but an edgeless start's, and for that
        # one the pick below finds nothing and raises.
        centers.append(u)
        labels.append(label or (W2 if end - base >= 2 else W0))
        ends.append(end)
        w2.extend(added[base:])
        if end + 1 >= n:
            break
        # Pick the next center and its case.
        while True:
            if w2:
                u = w2.popleft()
                c = cnt[u]
                if c >= 2:
                    label = W2
                    break
                if c == 1:
                    w1.append(u)
            elif w1:
                u = w1.popleft()
                if cnt[u] == 0:
                    continue
                au = adjacency[u]
                i = ptr[u]
                while in_tree[au[i]]:
                    i += 1
                ptr[u] = i
                peeks += 1
                # v = au[i] joined next would itself have exactly one outside
                # neighbor: defer u to the depth-first stack instead.
                if cnt[au[i]] == 1:
                    w0.append(u)
                    continue
                label = W1
                break
            elif w0:
                u = w0.pop()
                if cnt[u]:
                    label = W0
                    break
            else:
                raise DisconnectedGraphError(
                    f"graph is disconnected: reached {end + 1} of {n} vertices")

    # Exact work count, not an estimate: every vertex's row is read once by
    # the count decrement when it joins (2m in all), and every other entry
    # read is a scan read that advanced ptr, except the one entry each W1
    # check peeks at without moving past it.
    touches = 2 * g.m + sum(ptr) + peeks
    t = SpanningTree(start, tuple(parent), _leaf_set(n, start, centers, ends, added))
    trace = ExpansionTrace(start, tuple(centers), tuple(labels), tuple(ends),
                           tuple(added), touches)
    return t, trace


def verify_spanning_tree(g: Graph, t: SpanningTree) -> TreeCheck:
    """Check that t is a spanning tree of g: n-1 parent edges, all present
    in g, acyclic, connected, with a consistent leaf set."""
    n = g.n
    if len(t.parent) != n:
        return TreeCheck(False, "vertex-count-mismatch")
    if not 0 <= t.root < n:
        return TreeCheck(False, "root-out-of-range")
    if t.parent[t.root] is not None:
        return TreeCheck(False, "root-has-parent")
    for v, p in enumerate(t.parent):
        if v == t.root:
            continue
        if p is None:
            return TreeCheck(False, "missing-parent")
        if not 0 <= p < n:
            return TreeCheck(False, "parent-out-of-range")
        if p not in g.adjacency[v]:
            return TreeCheck(False, "parent-edge-not-in-graph")
    # Root-reachability along parent links implies acyclic and spanning.
    state = bytearray(n)  # 0 unknown, 1 on current path, 2 done
    state[t.root] = 2
    for v in range(n):
        path = []
        x = v
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = t.parent[x]  # type: ignore[assignment]
        if state[x] == 1:
            return TreeCheck(False, "cycle")
        for y in path:
            state[y] = 2
    tree_degree = [0] * n
    for v, p in enumerate(t.parent):
        if p is not None:
            tree_degree[v] += 1
            tree_degree[p] += 1
    if t.leaf_set != frozenset(v for v in range(n) if tree_degree[v] == 1):
        return TreeCheck(False, "leaf-set-mismatch")
    return TreeCheck(True)
