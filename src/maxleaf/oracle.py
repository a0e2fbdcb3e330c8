"""Exact maximum-leaf spanning trees for small graphs: two independent engines.

* max_leaf_exact enumerates spanning trees by deciding each edge in
  lexicographic order: the include branch is skipped when the edge would
  close a cycle, the exclude branch when the remaining undecided edges can
  no longer connect the graph. Every spanning tree is visited exactly once,
  which makes the enumeration count itself a testable quantity (n^(n-2) on
  complete graphs). Intended for n <= 12 or so; a budget caps the number of
  trees examined. The CLI `oracle` command reports that count, so it
  enumerates every tree. compare() (and with it the CLI `compare` command
  and the acceptance campaigns) reads only the optimum, so it turns on the
  bound prune, which skips branches that cannot beat the best tree so far:
  same optimum and witness, fewer trees examined.

* max_leaf_cds uses the identity max leaves = n - gamma_c(G) for connected
  G with n >= 3, where gamma_c is the size of a minimum connected dominating
  set (Fernau et al., "An exact algorithm for the maximum leaf spanning tree
  problem", TCS 2011). Cut vertices lie in every connected dominating set and
  degree-1 vertices never need to, so only the remaining vertices are
  searched, as bitmask subsets in increasing size. The search starts at
  n - leaf_budget_bound(g) - |cut vertices| of them, not at 0: a connected
  dominating set D gives a tree with n - |D| leaves, so a smaller D would
  beat a sound upper bound. The sizes skipped hold no solution, so the first
  set found, and with it the witness, is the one a search from 0 finds.
  The cost grows exponentially in the number of those non-cut vertices,
  not in the number of spanning trees; tight_search uses it for every
  admitted trial.

* leaf_budget_bound is a cheap upper bound on the leaves of every spanning
  tree that uses neither the solver nor the rank forest: cut vertices are
  never leaves, and a leaf of degree d leaves d - 1 of its edges out of the
  tree. tight_search uses it as its second admission bound.

Neither engine calls the greedy solver or the certificate: they are the
ground truth those are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certificate import Certificate, LemmaReport, audit, certify
from .graph import Graph, articulation_points, is_connected
from .solver import (DisconnectedGraphError, SpanningTree, StartPolicy,
                     leaf_count, tree)

DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class OracleResult:
    opt_leaves: int
    witness: SpanningTree
    trees_examined: int
    budget_exhausted: bool = False


class OracleDisagreementError(RuntimeError):
    """The two exact engines gave incompatible answers on the same graph."""


def _tree_from_edges(n: int, edges: tuple[tuple[int, int], ...]) -> SpanningTree:
    adj = Graph.from_edges(n, edges).adjacency
    parent: list[int | None] = [None] * n
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = 1
                parent[y] = x
                stack.append(y)
    return SpanningTree.from_parent(0, tuple(parent))


def max_leaf_exact(g: Graph, budget: int = DEFAULT_BUDGET,
                   prune_bound: bool = False) -> OracleResult:
    """Enumerate all spanning trees of g and return a maximum-leaf witness.

    Ties are broken toward the lexicographically smallest edge set. With
    prune_bound=True, branches whose leaf potential cannot beat the incumbent
    are cut; this keeps the result identical but makes trees_examined smaller,
    so it stays off wherever the count matters.

    If more than `budget` trees exist, enumeration stops after `budget` of
    them and the result carries budget_exhausted=True. A budget below 1
    raises ValueError.
    """
    if budget < 1:
        raise ValueError(f"tree budget must be at least 1, got {budget}")
    n = g.n
    if not is_connected(g):
        raise DisconnectedGraphError("oracle requires a connected graph")

    edges = g.edge_list()
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
        # Can included edges plus edges[i:] still connect everything? Link
        # them into the forest itself; find never compresses paths, so
        # resetting the roots that moved restores the forest exactly.
        comps = n - len(chosen)
        linked = []
        for u, v in edges[i:]:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
                linked.append(ru)
                comps -= 1
                if comps == 1:
                    break
        for r in linked:
            root[r] = r
        return comps == 1

    # Every call starts from included edges that, with edges[i:], still
    # connect the graph: true for the connected input, kept by an include
    # and checked before an exclude.
    def rec(i: int) -> bool:
        """Visit the trees below this branch; False once one beyond the budget turns up."""
        nonlocal best_leaves, best_edges, trees, internal
        if len(chosen) == n - 1:
            if trees >= budget:
                return False
            trees += 1
            leaves = deg.count(1)
            # Include-first over the sorted edges visits trees in lexicographic
            # order, so the first tree with the most leaves is the smallest.
            if leaves > best_leaves:
                best_leaves = leaves
                best_edges = tuple(chosen)
            return True
        if prune_bound and n - internal < best_leaves:
            return True
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:               # closes a cycle: only the exclude branch, always connectable
            return rec(i + 1)
        root[ru] = rv
        deg[u] += 1
        deg[v] += 1
        grew = (deg[u] == 2) + (deg[v] == 2)
        internal += grew
        chosen.append((u, v))
        within = rec(i + 1)
        chosen.pop()
        internal -= grew
        deg[u] -= 1
        deg[v] -= 1
        root[ru] = ru
        return within and (not remaining_connects(i + 1) or rec(i + 1))

    exhausted = not rec(0)
    return OracleResult(best_leaves, _tree_from_edges(n, best_edges), trees, exhausted)


def _leaf_budget(adjacency: list[tuple[int, ...]], m: int, cut: bytearray) -> int:
    """leaf_budget_bound from the rows and the cut flags of a connected graph."""
    # count[d] = non-cut vertices of degree d, for d = 0..n.
    count = [0] * (len(adjacency) + 1)
    for row, c in zip(adjacency, cut):
        if not c:
            count[len(row)] += 1
    leaves = count[1]
    budget = 2 * (m - len(adjacency) + 1)
    for d in range(2, len(count)):
        k = count[d]
        if k:
            take = min(k, budget // (d - 1))
            leaves += take
            if take < k:
                break
            budget -= take * (d - 1)
    return leaves


def leaf_budget_bound(g: Graph) -> int:
    """An upper bound on the leaves of every spanning tree of connected g,
    from neither the solver nor the rank forest, in O(n + m).

    A cut vertex is internal in every spanning tree. A leaf of degree d
    leaves d - 1 of its edges out of the tree, and the m - n + 1 left-out
    edges count at both their endpoints, so the leaves' (d - 1) sum to at
    most 2(m - n + 1). The bound is the number of degree-1 vertices plus
    the most other non-cut vertices, taken in ascending degree, whose
    (d - 1) fit in that budget. n=1 gives 0 and n=2 gives 2, the optima.
    Raises DisconnectedGraphError on disconnected input.
    """
    cut, reached = articulation_points(g)
    if reached != g.n:
        raise DisconnectedGraphError("leaf budget needs a connected graph")
    return _leaf_budget(g.adjacency, g.m, cut)


def _induced_connected(mask: int, nbr: list[int]) -> bool:
    """True iff the vertices in the nonempty bitmask induce a connected subgraph."""
    reached = frontier = mask & -mask
    while frontier:
        grow = 0
        while frontier:
            bit = frontier & -frontier
            grow |= nbr[bit.bit_length() - 1]
            frontier ^= bit
        frontier = grow & mask & ~reached
        reached |= frontier
    return reached == mask


def max_leaf_cds(g: Graph) -> tuple[int, SpanningTree]:
    """Maximum leaf count of g and a witness tree, via a minimum connected
    dominating set D.

    The witness is a BFS tree inside D (from its lowest vertex, neighbours in
    adjacency order) with every other vertex attached as a leaf to its first
    neighbour in D, rooted at vertex 0 like max_leaf_exact's witnesses.
    Degenerate sizes match max_leaf_exact: n=1 gives 0 and n=2 gives 2.
    Raises DisconnectedGraphError on disconnected input.
    """
    n = g.n
    adjacency = g.adjacency
    cut, reached = articulation_points(g)
    if reached != n:
        raise DisconnectedGraphError("oracle requires a connected graph")
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
    forced = forced_dom = 0
    candidates = []
    for v in range(n):
        if cut[v]:
            forced |= 1 << v
            forced_dom |= closed[v]
        elif len(adjacency[v]) >= 2:
            candidates.append(v)

    # D holds every cut vertex, and n - |D| leaves <= the leaf budget bound,
    # so no D has fewer than n - bound - |cut| candidates: the sizes skipped
    # hold none, and the first D found is the one a search from size 0
    # finds. Every non-leaf vertex together is connected and dominating
    # (n >= 3), so the search ends by size len(candidates) at the latest.
    first = max(0 if forced else 1,
                n - _leaf_budget(adjacency, g.m, cut) - cut.count(1))
    d = 0
    for k in range(first, len(candidates) + 1):
        for combo in combinations(candidates, k):
            dom = forced_dom
            mask = forced
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
    # A minimum D has no tree leaf of its own: one could be dropped from D.
    return n - d.bit_count(), _tree_from_edges(n, edges)


@dataclass(frozen=True)
class CompareResult:
    """Algorithm-versus-optimum comparison on one instance."""

    alg_leaves: int
    opt_leaves: int
    ratio: float
    certificate_ok: bool
    bound_ok: bool
    certificate: Certificate | None = None
    lemmas: LemmaReport | None = None
    budget_exhausted: bool = False


def compare(g: Graph, policy: StartPolicy | None = None,
            budget: int = DEFAULT_BUDGET) -> CompareResult:
    """Run the greedy solver, the certificate, its audit and the exact oracle.

    bound_ok checks opt <= 2*alg - 1 (the approximation guarantee),
    certificate_ok checks opt <= upper_bound (soundness of the bound).
    Both checks are skipped in the degenerate regime n < 3. certify checks
    the run's trace against the expansion rules; audit then runs the
    forest and lemma checks on its ranks, and lemmas is the report, which
    has always passed. A failed check of either raises CertificateError
    before the oracle runs.

    The oracle runs with prune_bound=True: only the optimum is read here,
    not the tree count. budget therefore caps the trees the pruned search
    visits, which are far fewer than all spanning trees.
    """
    t, trace = tree(g, policy)
    alg = leaf_count(t)
    cert = report = None
    if g.n >= 3:
        cert, rank = certify(g, t, trace)
        report = audit(g, t, rank)
    result = max_leaf_exact(g, budget=budget, prune_bound=True)
    opt = result.opt_leaves
    ratio = opt / alg if alg else 1.0
    bound_ok = opt <= 2 * alg - 1 if g.n >= 2 else True
    certificate_ok = True
    if cert is not None:
        certificate_ok = opt <= cert.upper_bound
    return CompareResult(alg, opt, ratio, certificate_ok, bound_ok,
                         cert, report, result.budget_exhausted)
