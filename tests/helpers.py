"""Shared test helpers: a direct graph validator, a trace builder from
hand-made steps, the reference solver and enumerator, an independent
step-semantics replayer, the connected-dominating-set search before its
start size, the heap-based Pruefer decoder, the instance sets of
the acceptance campaigns and hypothesis strategies for random connected
graphs."""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import combinations
from typing import Iterable

from hypothesis import strategies as st

from maxleaf import (CertificateError, DisconnectedGraphError, ExpansionStep,
                     ExpansionTrace, Graph, InstanceSpec, LemmaReport, RankForest,
                     SpanningTree, StartPolicy, generate, pick_start)
from maxleaf.graph import articulation_points, is_connected
from maxleaf.oracle import (DEFAULT_BUDGET, OracleResult, _induced_connected,
                            _tree_from_edges)
from maxleaf.solver import W0, W1, W2


def validate_graph(g: Graph) -> None:
    """Check symmetry, simplicity and edge-count consistency by direct scan."""
    n = g.n
    if len(g.adjacency) != n:
        raise ValueError("adjacency length differs from vertex count")
    half_edges = 0
    neighbor_sets = []
    for u, nbrs in enumerate(g.adjacency):
        seen = set()
        for v in nbrs:
            if not 0 <= v < n:
                raise ValueError(f"vertex {u} has out-of-range neighbor {v}")
            if v == u:
                raise ValueError(f"self-loop at vertex {u}")
            if v in seen:
                raise ValueError(f"duplicate neighbor {v} in adjacency of {u}")
            seen.add(v)
        neighbor_sets.append(seen)
        half_edges += len(nbrs)
    for u in range(n):
        for v in neighbor_sets[u]:
            if u not in neighbor_sets[v]:
                raise ValueError(f"asymmetric edge {u}-{v}")
    if half_edges != 2 * g.m:
        raise ValueError("edge count inconsistent with adjacency")


def trace_from_steps(start: int, steps: Iterable[ExpansionStep],
                     touches: int = 0) -> ExpansionTrace:
    """Flatten hand-built steps into a trace."""
    centers, labels, ends, added = [], [], [], []
    for step in steps:
        centers.append(step.center)
        labels.append(step.case_label)
        added += step.added
        ends.append(len(added))
    return ExpansionTrace(start, tuple(centers), tuple(labels), tuple(ends),
                          tuple(added), touches)


def _finish_tree(n: int, root: int, parent: list[int | None]) -> SpanningTree:
    tree_degree = [0] * n
    for v, p in enumerate(parent):
        if p is not None:
            tree_degree[v] += 1
            tree_degree[p] += 1
    leaves = frozenset(v for v in range(n) if tree_degree[v] == 1)
    return SpanningTree(root, tuple(parent), leaves)


def reference_tree(g: Graph, policy: StartPolicy | None = None
                   ) -> tuple[SpanningTree, ExpansionTrace]:
    """The solver with one ExpansionStep per step, an expand closure that
    counts touches as it reads, and leaves taken from tree degrees; tree()
    must match it in tree, trace and touches."""
    if policy is None:
        policy = StartPolicy.first_eligible()
    n = g.n
    start = pick_start(g, policy)
    if n == 1:
        return _finish_tree(1, start, [None]), trace_from_steps(start, ())

    adjacency = g.adjacency
    in_tree = bytearray(n)
    parent: list[int | None] = [None] * n
    # cnt[w] = number of neighbors of w outside the tree, for every w
    cnt = [len(a) for a in adjacency]
    # scan pointer per vertex: entries before it are known to be in the tree
    ptr = [0] * n
    w2: deque[int] = deque()
    w1: deque[int] = deque()
    w0: list[int] = []
    touches = 0
    spanned = 1
    steps: list[ExpansionStep] = []

    in_tree[start] = 1
    for w in adjacency[start]:
        cnt[w] -= 1
    touches += len(adjacency[start])

    def expand(u: int) -> tuple[int, ...]:
        nonlocal spanned, touches
        au = adjacency[u]
        added = []
        for i in range(ptr[u], len(au)):
            v = au[i]
            if not in_tree[v]:
                added.append(v)
        touches += len(au) - ptr[u]
        ptr[u] = len(au)
        for v in added:
            in_tree[v] = 1
            parent[v] = u
            w2.append(v)
            av = adjacency[v]
            for w in av:
                cnt[w] -= 1
            touches += len(av)
        spanned += len(added)
        return tuple(added)

    added = expand(start)
    if added:
        steps.append(ExpansionStep(start, W2 if len(added) >= 2 else W0, added))

    while spanned < n:
        if w2:
            u = w2.popleft()
            c = cnt[u]
            if c == 0:
                continue
            if c == 1:
                w1.append(u)
                continue
            steps.append(ExpansionStep(u, W2, expand(u)))
        elif w1:
            u = w1.popleft()
            if cnt[u] == 0:
                continue
            au = adjacency[u]
            i = ptr[u]
            while in_tree[au[i]]:
                i += 1
            touches += i - ptr[u] + 1
            ptr[u] = i
            v = au[i]
            # v joined next would itself have exactly one outside neighbor:
            # defer u to the depth-first stack instead of expanding now.
            if cnt[v] == 1:
                w0.append(u)
                continue
            steps.append(ExpansionStep(u, W1, expand(u)))
        elif w0:
            u = w0.pop()
            if cnt[u] == 0:
                continue
            steps.append(ExpansionStep(u, W0, expand(u)))
        else:
            raise DisconnectedGraphError(
                f"graph is disconnected: reached {spanned} of {n} vertices")

    return _finish_tree(n, start, parent), trace_from_steps(start, steps, touches)


class _Budget(Exception):
    pass


def reference_max_leaf_exact(g: Graph, budget: int = DEFAULT_BUDGET,
                             prune_bound: bool = False) -> OracleResult:
    """The enumerator as it was before its simplification, kept verbatim:
    a _Budget exception, a tuple of the chosen edges per tree and an explicit
    lexicographic tie-break. max_leaf_exact must match it on all four fields.

    Enumerate all spanning trees of g and return a maximum-leaf witness.

    Ties are broken toward the lexicographically smallest edge set. With
    prune_bound=True, branches whose leaf potential cannot beat the incumbent
    are cut; this keeps the result identical but makes trees_examined smaller,
    so it stays off wherever the count matters.

    If more than `budget` trees exist, enumeration stops after `budget` of
    them and the result carries budget_exhausted=True.
    """
    n = g.n
    if not is_connected(g):
        raise DisconnectedGraphError("oracle requires a connected graph")
    if n == 1:
        return OracleResult(0, _tree_from_edges(1, ()), 1)

    edges = g.edge_list()
    m = len(edges)
    root = list(range(n))          # union-find without path splitting: n is tiny

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    deg = [0] * n
    chosen: list[tuple[int, int]] = []
    best_leaves = -1
    best_edges: tuple[tuple[int, int], ...] = ()
    trees = 0
    internal = 0                   # vertices with partial degree >= 2

    def remaining_connects(i: int) -> bool:
        # Can included edges plus edges[i:] still connect everything?
        scratch = root.copy()

        def sfind(x: int) -> int:
            while scratch[x] != x:
                x = scratch[x]
            return x

        comps = n - len(chosen)
        for u, v in edges[i:]:
            ru, rv = sfind(u), sfind(v)
            if ru != rv:
                scratch[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(i: int) -> None:
        nonlocal best_leaves, best_edges, trees, internal
        if len(chosen) == n - 1:
            if trees >= budget:
                raise _Budget   # a tree beyond the budget exists
            trees += 1
            leaves = sum(1 for d in deg if d == 1)
            et = tuple(chosen)
            if leaves > best_leaves or (leaves == best_leaves and et < best_edges):
                best_leaves = leaves
                best_edges = et
            return
        if m - i < n - 1 - len(chosen):
            return
        if prune_bound and n - internal < best_leaves:
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            deg[u] += 1
            deg[v] += 1
            grew = (deg[u] == 2) + (deg[v] == 2)
            internal += grew
            chosen.append((u, v))
            rec(i + 1)
            chosen.pop()
            internal -= grew
            deg[u] -= 1
            deg[v] -= 1
            root[ru] = ru
        if remaining_connects(i + 1):
            rec(i + 1)

    exhausted = False
    try:
        rec(0)
    except _Budget:
        exhausted = True
    if best_leaves < 0:
        raise DisconnectedGraphError("no spanning tree found")
    return OracleResult(best_leaves, _tree_from_edges(n, best_edges), trees, exhausted)


def reference_max_leaf_cds(g: Graph) -> tuple[int, SpanningTree]:
    """The connected-dominating-set search as it was before it started at the
    leaf budget's size, kept verbatim but for the cut flags, which it turns
    into a bitmask: every size from 0 (1 without cut vertices) is searched.
    max_leaf_cds must match it on the optimum and the witness.
    """
    n = g.n
    adjacency = g.adjacency
    flags, reached = articulation_points(g)
    if reached != n:
        raise DisconnectedGraphError("oracle requires a connected graph")
    cut = sum(1 << v for v in range(n) if flags[v])
    if n <= 2:
        return 2 * (n - 1), _tree_from_edges(n, g.edge_list())

    nbr = [0] * n
    closed = [0] * n
    for v, row in enumerate(adjacency):
        mask = 0
        for w in row:
            mask |= 1 << w
        nbr[v] = mask
        closed[v] = mask | 1 << v
    full = (1 << n) - 1
    forced_dom = 0
    candidates = []
    for v in range(n):
        if cut >> v & 1:
            forced_dom |= closed[v]
        elif len(adjacency[v]) >= 2:
            candidates.append(v)

    d = 0
    for k in range(0 if cut else 1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            dom = forced_dom
            mask = cut
            for v in combo:
                dom |= closed[v]
                mask |= 1 << v
            if dom == full and _induced_connected(mask, nbr):
                d = mask
                break
        if d:
            break

    root = (d & -d).bit_length() - 1
    seen = 1 << root
    order = [root]
    edges = []
    for x in order:
        for y in adjacency[x]:
            if d >> y & 1 and not seen >> y & 1:
                seen |= 1 << y
                edges.append((x, y))
                order.append(y)
    for v in range(n):
        if not d >> v & 1:
            edges.append((v, next(y for y in adjacency[v] if d >> y & 1)))
    return n - d.bit_count(), _tree_from_edges(n, edges)


def replay_trace(g: Graph, trace: ExpansionTrace) -> None:
    """Re-simulate a trace with from-scratch set arithmetic.

    Recomputes the outside-neighbor sets definitionally at every step and
    checks each step's label against the priority classes, independent of
    the solver's queue bookkeeping. Raises AssertionError on any mismatch.
    """
    n = g.n
    adjacency = g.adjacency
    in_t = {trace.start}

    def outside_count(w: int) -> int:
        return sum(1 for x in adjacency[w] if x not in in_t)

    for step in trace.steps:
        u = step.center
        assert u in in_t, f"expansion at {u} before it joined"
        outside = [v for v in adjacency[u] if v not in in_t]
        assert list(step.added) == outside, \
            f"step at {u} added {step.added}, expected {outside}"
        if step.case_label == "W2":
            assert len(outside) >= 2
        else:
            assert len(outside) == 1
            assert all(outside_count(w) < 2 for w in in_t), \
                f"{step.case_label} step at {u} while a 2+-expansion exists"
            if step.case_label == "W1":
                assert outside_count(outside[0]) != 1, \
                    f"W1 step at {u} onto {outside[0]}, which has one outside neighbor"
            if step.case_label == "W0":
                # No waiting vertex may still lead on to a double expansion.
                for w in in_t:
                    if outside_count(w) != 1:
                        continue
                    succ = next(x for x in adjacency[w] if x not in in_t)
                    assert outside_count(succ) < 2, \
                        f"W0 step at {u} while {w} -> {succ} expands further"
                assert outside_count(outside[0]) <= 1
        in_t.update(outside)

    assert in_t == set(range(n)), "trace does not span the graph"

    # Depth-first growth: a W0 expansion is always continued at the vertex
    # it just added, and (for n >= 3) can never be the final step.
    for i, step in enumerate(trace.steps):
        if step.case_label != "W0":
            continue
        if n >= 3:
            assert i + 1 < len(trace.steps), "W0 step ended the run"
            assert trace.steps[i + 1].center == step.added[0]


def reference_uniform_random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The textbook heap decode of a randrange(n) Pruefer sequence, as (u, v)
    pairs with u < v; the linear decode in maxleaf.generate must match it."""
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


def atlas_connected_graphs() -> list[Graph]:
    """Every connected graph on 2..7 vertices up to isomorphism (995 graphs)."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    graphs = []
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 2 or not nx.is_connected(ag):
            continue
        relabel = {v: i for i, v in enumerate(sorted(ag.nodes()))}
        edges = sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in ag.edges())
        graphs.append(Graph.from_edges(n, edges))
    return graphs


CAMPAIGN_SEED = 0xA11CE


def campaign_schedule(size: int):
    """The first `size` specs of the seeded criterion-2 campaign schedule."""
    rng = random.Random(CAMPAIGN_SEED)
    for _ in range(size):
        n = rng.randint(3, 10)
        m = rng.randint(n - 1, min(20, n * (n - 1) // 2))
        yield InstanceSpec("random_connected", (n, m), rng.getrandbits(64))


def shuffled_edgelist(g: Graph, rng: random.Random) -> str:
    """Edgelist text of g with edges in random order and orientation."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edge_list()]
    rng.shuffle(edges)
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def unique_rank_vertices(f: RankForest) -> frozenset[int]:
    return frozenset(comp[0] for comp in f.components if len(comp) == 1)


def forest_leaves(f: RankForest) -> frozenset[int]:
    return frozenset(v for v, d in enumerate(f.f_degree) if d == 1)


def reference_check_lemmas(g: Graph, rank: list[int], f: RankForest) -> LemmaReport:
    """Sort-based lemma audit over frozensets and g.edge_list(); check_lemmas must match it.

    local_degree lists one path per violating (lower unique neighbor, center)
    pair, closed by the center's first higher neighbor."""
    unique = unique_rank_vertices(f)
    leaves_f = forest_leaves(f)
    adjacency = g.adjacency
    local_degree = []
    for v in sorted(unique):
        if len(adjacency[v]) < 3:
            continue
        rv = rank[v]
        higher = [w for w in adjacency[v] if rank[w] > rv]
        if not higher:
            continue
        local_degree.extend((u, v, higher[0]) for u in adjacency[v]
                            if u in unique and rank[u] < rv)
    upward_neighbor = []
    for u in range(g.n):
        higher = [v for v in adjacency[u] if rank[v] > rank[u]]
        if len(higher) > 1:
            upward_neighbor.append((u, higher[0], higher[1]))
    branch_rank = []
    unique_over_leaf = []
    for u, v in g.edge_list():
        if f.f_degree[u] >= 2 and rank[u] < rank[v]:
            branch_rank.append((u, v))
        if f.f_degree[v] >= 2 and rank[v] < rank[u]:
            branch_rank.append((v, u))
        if u in unique and v in leaves_f and rank[u] <= rank[v]:
            unique_over_leaf.append((u, v))
        if v in unique and u in leaves_f and rank[v] <= rank[u]:
            unique_over_leaf.append((v, u))
    return LemmaReport(tuple(local_degree), tuple(upward_neighbor),
                       tuple(branch_rank), tuple(unique_over_leaf))


def reference_build_forest(g: Graph, t: SpanningTree, rank: list[int]) -> RankForest:
    """DFS over the forest's adjacency lists, then a per-component rank
    check; build_forest must match it."""
    n = g.n
    if len(t.parent) != n or len(rank) != n:
        raise CertificateError("tree or rank size differs from graph")
    f_adj: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(t.parent):
        if p is not None and rank[v] == rank[p]:
            f_adj[v].append(p)
            f_adj[p].append(v)
    seen = [False] * n
    raw_components: list[list[int]] = []
    for v in range(n):
        if seen[v]:
            continue
        seen[v] = True
        comp = [v]
        stack = [v]
        while stack:
            x = stack.pop()
            for y in f_adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        raw_components.append(sorted(comp))
    components = tuple(tuple(c) for c in sorted(raw_components,
                                                 key=lambda c: (-len(c), c[0])))
    f_degree = [len(a) for a in f_adj]

    for comp in components:
        if len(comp) == 2:
            raise CertificateError(f"forest component of size 2: {comp}")
        if len(comp) >= 3:
            deg2 = [v for v in comp if f_degree[v] == 2]
            if len(deg2) > 1:
                raise CertificateError(
                    f"component {comp} has {len(deg2)} degree-2 vertices: {deg2}")
    # Components must be exactly the rank classes, in both directions.
    rank_of_comp: dict[int, int] = {}
    for idx, comp in enumerate(components):
        ranks_seen = {rank[v] for v in comp}
        if len(ranks_seen) != 1:
            raise CertificateError(f"component {comp} mixes ranks {ranks_seen}")
        r = ranks_seen.pop()
        if r in rank_of_comp:
            raise CertificateError(
                f"rank {r} split across components {rank_of_comp[r]} and {idx}")
        rank_of_comp[r] = idx
    return RankForest(components, tuple(f_degree))


def tree_degrees(t: SpanningTree) -> list[int]:
    degree = [0] * len(t.parent)
    for v, p in enumerate(t.parent):
        if p is not None:
            degree[v] += 1
            degree[p] += 1
    return degree


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 12, max_extra: int = 6):
    """Random connected graphs, built deterministically from drawn seeds."""
    n = draw(st.integers(min_n, max_n))
    cap = min(max_extra, n * (n - 1) // 2 - (n - 1))
    extra = draw(st.integers(0, cap)) if cap > 0 else 0
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return generate(InstanceSpec("random_connected", (n, n - 1 + extra), seed))


@st.composite
def arbitrary_graphs(draw, max_n: int = 10):
    """Graphs that need not be connected, as vertex count plus an edge set."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) \
        if pairs else []
    return Graph.from_edges(n, sorted(edges))
