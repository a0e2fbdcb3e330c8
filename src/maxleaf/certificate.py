"""Machine-checkable quality certificate for a solver run.

Replaying an expansion trace assigns every vertex a rank: W2 expansions
propagate the center's rank to all added vertices, W1/W0 expansions give
the single added vertex a fresh maximum. Deleting tree edges between
differently ranked endpoints yields the rank forest F. Its edges never
leave a rank class, so its components are the rank classes exactly when
each class of s vertices holds s - 1 forest edges; build_forest groups the
vertices by rank and checks that count. From F we read off

    u_size       -- vertices of unique rank (singleton components),
    k            -- components with >= 3 vertices,
    upper_bound  -- n - u_size - k + 1,

an upper bound on the leaf count of EVERY spanning tree of the input, and
upper_bound <= 2 * leaves(T) - 1 gives the 2-approximation guarantee.

The audit re-checks what it states: the trace replays onto g
(assign_ranks), each rank class is one forest component of the right shape
(build_forest), the counts obey the bound's arithmetic
(compute_certificate), and the four lemma validators find no witness
(check_lemmas). certify gives the one verdict: it raises CertificateError
on any failed check, a lemma witness included, so a certificate it returns
has passed the whole audit. Every correct run passes, so a violation is an
implementation-bug detector, never data. The audit does not yet check that
ranks never fall along a tree edge, rank[v] >= rank[parent[v]]. The replay
enforces that order without stating it, and the other checks do not imply
the bound without it: at n = 6, 45 graph/tree/rank triples pass them all
and still certify a false bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .solver import ExpansionTrace, SpanningTree, W2


class CertificateError(ValueError):
    """An invariant that holds for all genuine runs failed: a bug signal."""


def assign_ranks(g: Graph, trace: ExpansionTrace) -> list[int]:
    """Replay a trace and return the per-vertex rank (>= 1 everywhere).

    Reads the flat layout directly. Raises CertificateError if the layout
    is malformed or the trace is inconsistent with g.
    """
    n = g.n
    if not 0 <= trace.start < n:
        raise CertificateError(f"trace start {trace.start} out of range")
    centers, labels, ends, added = trace.centers, trace.labels, trace.ends, trace.added
    if not len(centers) == len(labels) == len(ends):
        raise CertificateError(f"trace has {len(centers)} centers, {len(labels)} "
                               f"labels and {len(ends)} ends")
    if (ends[-1] if ends else 0) != len(added):
        raise CertificateError(f"trace ends at {ends[-1] if ends else 0}, "
                               f"not at its {len(added)} added vertices")
    rank = [0] * n
    rank[trace.start] = 1
    in_tree = bytearray(n)
    in_tree[trace.start] = 1
    max_rank = 1
    begin = 0
    for u, label, end in zip(centers, labels, ends):
        if not in_tree[u]:
            raise CertificateError(f"trace expands at {u} before it joined the tree")
        if end <= begin:
            raise CertificateError(f"trace step at {u} adds no vertices")
        if label == W2:
            if end - begin < 2:
                raise CertificateError(f"W2 step at {u} adds fewer than 2 vertices")
            r = rank[u]
        else:
            if end - begin != 1:
                raise CertificateError(f"{label} step at {u} adds {end - begin} vertices")
            max_rank += 1
            r = max_rank
        # A one-vertex step checks the row itself; a set pays off only for more.
        neighbors = g.adjacency[u] if end - begin == 1 else set(g.adjacency[u])
        for v in added[begin:end]:
            if v not in neighbors:
                raise CertificateError(f"trace adds non-neighbor {v} at {u}")
            if in_tree[v]:
                raise CertificateError(f"trace adds vertex {v} twice")
            in_tree[v] = 1
            rank[v] = r
        begin = end
    if not all(in_tree):
        raise CertificateError("trace does not span all vertices")
    return rank


@dataclass(frozen=True)
class RankForest:
    """The tree with edges between unequal ranks removed.

    components are the rank classes, each in ascending id order, sorted
    largest first (ties by smallest vertex); f_degree is the per-vertex
    forest degree.
    """

    components: tuple[tuple[int, ...], ...]
    f_degree: tuple[int, ...]

    def singleton_count(self) -> int:
        return sum(1 for comp in self.components if len(comp) == 1)

    def big_component_count(self) -> int:
        return sum(1 for comp in self.components if len(comp) >= 3)


def build_forest(g: Graph, t: SpanningTree, rank: list[int]) -> RankForest:
    """Group the vertices into rank classes and count forest degrees.

    Forest edges (tree edges with equal endpoint ranks) never leave a rank
    class, and t must be a tree (as tree() returns and verify_spanning_tree
    checks), so a class of s vertices is one forest component exactly when
    it holds s - 1 forest edges. Verifies the structural invariants every
    genuine run satisfies: each rank class is one component, no component
    has exactly two vertices, and a component with >= 3 vertices has at most
    one vertex of forest-degree exactly 2. Violations raise CertificateError.
    """
    n = g.n
    if len(t.parent) != n or len(rank) != n:
        raise CertificateError("tree or rank size differs from graph")
    classes: dict[int, list[int]] = {}
    f_degree = [0] * n
    for v, p in enumerate(t.parent):
        r = rank[v]
        members = classes.get(r)
        if members is None:
            classes[r] = [v]
        else:
            members.append(v)
        if p is not None and r == rank[p]:
            f_degree[v] += 1
            f_degree[p] += 1
    # Classes are in first-vertex order and the sort is stable, so ties
    # stay ordered by smallest vertex.
    components = tuple(sorted(map(tuple, classes.values()), key=len, reverse=True))

    for comp in components:
        degrees = list(map(f_degree.__getitem__, comp))
        if sum(degrees) != 2 * (len(comp) - 1):
            raise CertificateError(
                f"rank class {comp} holds {sum(degrees) // 2} forest edges, "
                f"not {len(comp) - 1}: it is not one component")
        if len(comp) == 2:
            raise CertificateError(f"forest component of size 2: {comp}")
        if degrees.count(2) > 1:
            deg2 = [v for v in comp if f_degree[v] == 2]
            raise CertificateError(
                f"component {comp} has {len(deg2)} degree-2 vertices: {deg2}")

    return RankForest(components, tuple(f_degree))


@dataclass(frozen=True)
class Certificate:
    """Per-run quality guarantee: no spanning tree of the input has more
    than upper_bound leaves, and upper_bound <= 2 * leaf_count - 1."""

    u_size: int
    k: int
    upper_bound: int
    leaf_count: int

    @property
    def ratio_bound(self) -> float:
        return self.upper_bound / self.leaf_count


def compute_certificate(g: Graph, t: SpanningTree, f: RankForest) -> Certificate:
    """Derive (u_size, k, upper_bound, leaf_count) and check its invariants."""
    n = g.n
    if n < 3:
        raise ValueError(f"certificate needs n >= 3, got n={n}")
    u_size = f.singleton_count()
    k = f.big_component_count()
    upper_bound = n - u_size - k + 1
    leaves = len(t.leaf_set)
    cert = Certificate(u_size, k, upper_bound, leaves)

    if k < 1:
        raise CertificateError(f"expected k >= 1, got k={k}")
    big_total = sum(len(c) for c in f.components if len(c) >= 3)
    if n - u_size != big_total:
        raise CertificateError(
            f"n - u_size = {n - u_size} but big components hold {big_total} vertices")
    if upper_bound < leaves:
        raise CertificateError(
            f"upper_bound {upper_bound} below own leaf count {leaves}")
    # The 2-approximation, upper_bound <= 2*leaves - 1, with upper_bound
    # written out as n - u_size - k + 1.
    if n - u_size > 2 * leaves + k - 2:
        raise CertificateError(
            f"n - u_size = {n - u_size} exceeds 2*leaves + k - 2 = {2 * leaves + k - 2}")
    return cert


@dataclass(frozen=True)
class LemmaReport:
    """Witness lists per lemma check; all empty on a correct run.

    local_degree holds one path witness per violating (lower neighbor,
    center) pair, so every list is bounded by the degrees: the report has
    O(n + m) entries on any input.
    """

    local_degree: tuple[tuple[int, int, int], ...]      # u, v, w path witnesses
    upward_neighbor: tuple[tuple[int, int, int], ...]   # u with two higher nbrs
    branch_rank: tuple[tuple[int, int], ...]            # forest-internal u below v
    unique_over_leaf: tuple[tuple[int, int], ...]       # unique-rank u not above leaf v

    @property
    def passed(self) -> bool:
        return not (self.local_degree or self.upward_neighbor
                    or self.branch_rank or self.unique_over_leaf)

    def witness_counts(self) -> tuple[int, int, int, int]:
        return (len(self.local_degree), len(self.upward_neighbor),
                len(self.branch_rank), len(self.unique_over_leaf))


def _edge_order(pair: tuple[int, int]) -> tuple[int, int, bool]:
    a, b = pair
    return (a, b, False) if a < b else (b, a, True)


def check_lemmas(g: Graph, rank: list[int], f: RankForest) -> LemmaReport:
    """Exhaustively check the four structural facts the bound rests on.

    1. local_degree: on a path u-v-w with u, v of unique rank and
       rank(u) < rank(v) < rank(w), v has graph-degree exactly 2.
    2. upward_neighbor: every vertex has at most one neighbor of higher rank.
    3. branch_rank: a forest vertex of forest-degree >= 2 has no neighbor
       of higher rank.
    4. unique_over_leaf: on an edge from a unique-rank vertex to a forest
       leaf, the unique-rank endpoint has the strictly higher rank.

    A violating center v of check 1 is listed once per lower unique
    neighbor u, as (u, v, w) with w its first higher neighbor; check 2
    already reports every vertex with two or more higher neighbors. g must
    be simple with symmetric adjacency: no self-loops, no repeated
    neighbors, and v in row u exactly when u in row v. One pass over the
    vertices in id order does all four checks, and the report they
    produce, in O(n + m).
    """
    n = g.n
    adjacency = g.adjacency
    f_degree = f.f_degree
    unique = bytearray(n)
    for comp in f.components:
        if len(comp) == 1:
            unique[comp[0]] = 1
    leaf_f = bytes(map((1).__eq__, f_degree))

    local_degree = []
    upward_neighbor = []
    branch_rank = []
    unique_over_leaf = []
    for u in range(n):
        ru = rank[u]
        nbrs = adjacency[u]
        # A plain loop: on 3.10-3.11 a comprehension is a function call per vertex.
        higher = []
        for v in nbrs:
            if rank[v] > ru:
                higher.append(v)
        if higher:
            if len(higher) > 1:
                upward_neighbor.append((u, higher[0], higher[1]))
            if f_degree[u] >= 2:
                branch_rank.extend((u, v) for v in higher)
        if not unique[u]:
            continue
        for v in nbrs:
            if leaf_f[v] and ru <= rank[v]:
                unique_over_leaf.append((u, v))
        # Contrapositive scan: only unique-rank centers of degree >= 3 with a
        # higher neighbor can violate.
        if len(nbrs) >= 3 and higher:
            local_degree.extend((w, u, higher[0]) for w in nbrs
                                if unique[w] and rank[w] < ru)

    # Both lists are empty on a correct run; otherwise list them in the
    # order of g.edge_list(), lower endpoint first within an edge.
    branch_rank.sort(key=_edge_order)
    unique_over_leaf.sort(key=_edge_order)
    return LemmaReport(tuple(local_degree), tuple(upward_neighbor),
                       tuple(branch_rank), tuple(unique_over_leaf))


def certify(g: Graph, t: SpanningTree, trace: ExpansionTrace) -> tuple[Certificate, LemmaReport]:
    """Full pipeline: ranks, forest, certificate, lemma checks.

    Raises CertificateError on any failed check, lemma witnesses included,
    so the report it returns has always passed.
    """
    rank = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    cert = compute_certificate(g, t, forest)
    report = check_lemmas(g, rank, forest)
    if not report.passed:
        raise CertificateError(f"lemma audit failed, witness counts {report.witness_counts()}")
    return cert, report
