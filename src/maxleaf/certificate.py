"""Machine-checkable quality certificate for a solver run.

certify proves, for every trace that obeys the expansion rules, that no
spanning tree of the input has more than upper_bound leaves. Its checker
is the replay, assign_ranks. It replays the trace onto g, keeping each
vertex's count of outside neighbours as the solver does, and checks every
step against the rules, with ties free:

    start  at n >= 3, the start has >= 2 neighbours;
    W2     the centre has c >= 2 outside neighbours and the step adds all c;
    W1/W0  no tree vertex has >= 2 outside neighbours, and the centre has
           exactly one, v, which the step adds;
    W1     v does not have exactly one outside neighbour;
    W0     v has exactly one, and no W1 step is possible.

W0's most-recent-first order is a tie-break and is not checked. The rules
are for n >= 3; at n = 2, tree() labels its one step W0, and the replay
takes it. The replay also assigns every vertex a rank: a W2 step puts the
vertices it adds in its centre's rank class, a W1 or W0 step starts a new
class with its one vertex. From the class sizes it counts,

    u_size       -- vertices of unique rank (classes of one vertex),
    k            -- classes of >= 3 vertices,
    upper_bound  -- n - u_size - k + 1,

an upper bound on the leaf count of EVERY spanning tree of the input, and
upper_bound <= 2 * leaves(T) - 1 gives the 2-approximation guarantee
(compute_certificate). certify also checks that t is the tree the trace
replays, with the trace's start as its root and every other vertex a child
of the centre of the step that added it, and that t's leaf set is the one
SpanningTree.from_parent's rule gives. It raises CertificateError on any
failed check, so a certificate it returns holds. Every correct run passes,
so a violation is an implementation-bug detector, never data.

The paper proves its structural lemmas for every run that obeys the rules.
audit re-checks them on a replay's ranks, as an explicit layer that compare
and the tests run and certify does not: deleting tree edges between
differently ranked endpoints yields the rank forest F, whose components
must be the rank classes with the shape the lemmas give (build_forest), and
the four lemma validators must find no witness (check_lemmas). Called on
their own with a (g, t, rank) triple that no replay produced, these layers
do not imply the bound: at n = 6, 45 such triples pass them all and still
certify a false bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .solver import ExpansionTrace, SpanningTree, W0, W1, W2, _leaves


class CertificateError(ValueError):
    """An invariant that holds for all genuine runs failed: a bug signal."""


def assign_ranks(g: Graph, trace: ExpansionTrace) -> tuple[list[int], list[int]]:
    """Replay a trace, checking every step against the expansion rules.

    Returns the per-vertex rank (>= 1 everywhere) and the rank class sizes,
    sizes[r - 1] for rank r. Raises CertificateError if the layout is
    malformed, the trace is inconsistent with g, or a step breaks a rule;
    a broken rule's error names the step and the rule. O(n + m) on any
    input.
    """
    n = g.n
    start = trace.start
    if not 0 <= start < n:
        raise CertificateError(f"trace start {start} out of range")
    centers, labels, ends, added = trace.centers, trace.labels, trace.ends, trace.added
    if not len(centers) == len(labels) == len(ends):
        raise CertificateError(f"trace has {len(centers)} centers, {len(labels)} "
                               f"labels and {len(ends)} ends")
    if (ends[-1] if ends else 0) != len(added):
        raise CertificateError(f"trace ends at {ends[-1] if ends else 0}, "
                               f"not at its {len(added)} added vertices")
    adjacency = g.adjacency
    # cnt[w] = number of neighbours of w outside the tree, as tree() keeps it
    cnt = list(map(len, adjacency))
    if cnt[start] < 2 and n >= 3:
        raise CertificateError(f"trace starts at {start}, of degree {cnt[start]} < 2")
    rank = [0] * n
    rank[start] = 1
    sizes = [1]
    in_tree = bytearray(n)
    in_tree[start] = 1
    for w in adjacency[start]:
        cnt[w] -= 1
    # Counts only fall, so a tree vertex with >= 2 outside neighbours joined
    # with >= 2: wide holds every such vertex not checked since. A W1 or W0
    # step pops them all; one still at >= 2 breaks W2's priority.
    wide = [start]
    # A W1 candidate is a tree vertex x with one outside neighbour, y, where
    # y does not have exactly one. suspects holds the vertices that joined
    # with count 1 or left wide with count 1, unchecked since. A W0 step
    # checks and drops every suspect, scanning x's row for y.
    # A dropped x becomes a candidate again only when y's count falls from
    # 1 to 0, at the join of y's other outside neighbour z. z joins after x
    # was checked, with y outside, so z sits in wide or in suspects; and
    # while x is a candidate y stays outside, so z keeps >= 2 outside
    # neighbours or is a candidate itself. The next W0 step refuses at z.
    # So no count that reaches 0 needs tracking, and each vertex is a
    # suspect, and has its row scanned, at most once.
    suspects: list[int] = []
    begin = 0
    try:
        for u, label, end in zip(centers, labels, ends):
            if not in_tree[u]:
                raise CertificateError(f"trace expands at {u} before it joined the tree")
            c = cnt[u]
            if label == W2:
                if c < 2 or end - begin != c:
                    _refuse_step(adjacency, in_tree, cnt, u, label, added[begin:end])
                r = rank[u]
                sizes[r - 1] += c
            else:
                if c != 1 or end - begin != 1:
                    _refuse_step(adjacency, in_tree, cnt, u, label, added[begin:end])
                while wide:
                    x = wide.pop()
                    if cnt[x] >= 2:
                        _refuse(adjacency, in_tree, u, added[begin:end], f"{label} step "
                                f"at {u} while {x} has {cnt[x]} outside neighbours")
                    if cnt[x]:
                        suspects.append(x)
                v = added[begin]
                if label == W1:
                    if cnt[v] == 1:
                        _refuse(adjacency, in_tree, u, (v,),
                                f"W1 step at {u} adds {v}, which has one outside neighbour")
                elif label == W0 and cnt[v] == 1:
                    while suspects:
                        x = suspects.pop()
                        if cnt[x] == 1:
                            for y in adjacency[x]:
                                if not in_tree[y]:
                                    break
                            if cnt[y] != 1:
                                _refuse(adjacency, in_tree, u, (v,), f"W0 step at {u} while "
                                        f"W1 could expand at {x}, adding {y}")
                # The rules are for n >= 3: at n = 2, tree() labels its one
                # step W0.
                elif label != W0 or n > 2:
                    _refuse(adjacency, in_tree, u, (v,), f"W0 step at {u} adds {v}, which has "
                            f"{cnt[v]} outside neighbours" if label == W0 else
                            f"step at {u} has label {label!r}, not {W2}, {W1} or {W0}")
                sizes.append(1)
                r = len(sizes)
            for v in added[begin:end]:
                if in_tree[v]:
                    step = added[begin:end]
                    _refuse(adjacency, in_tree, u, step, "", step.index(v))
                in_tree[v] = 1
                rank[v] = r
                for w in adjacency[v]:
                    cnt[w] -= 1
                c = cnt[v]
                if c >= 2:
                    wide.append(v)
                elif c:
                    suspects.append(v)
            # The step added as many new vertices as u had outside neighbours,
            # so u has none left exactly when each was its neighbour.
            if cnt[u]:
                _refuse(adjacency, in_tree, u, added[begin:end], "", end - begin)
            begin = end
    except IndexError:
        # Only an id >= n indexes past the replay's lists.
        _refuse_ids(n, centers, ends, added)
        raise

    # Every added vertex is new, so the trace spans when it adds n - 1. An
    # added id v < 0 stands for v + n in the lists; the sum tells, since the
    # start and the added vertices hold every slot once.
    if len(added) != n - 1:
        raise CertificateError("trace does not span all vertices")
    if sum(added) + start != n * (n - 1) // 2:
        _refuse_ids(n, centers, ends, added)
    return rank, sizes


# The replay's error path names the culprit. At a faulty step it looks at
# the step's size, then at each vertex the step adds, then at the rule, so
# a step that adds a non-neighbour or a vertex twice is named for that.

def _refuse_ids(n: int, centers, ends, added):
    begin = 0
    for u, end in zip(centers, ends):
        if not 0 <= u < n:
            raise CertificateError(f"trace expands at {u} before it joined the tree")
        for v in added[begin:end]:
            if not 0 <= v < n:
                raise CertificateError(f"trace adds non-neighbor {v} at {u}")
        begin = end


def _refuse(adjacency, in_tree, u: int, step, rule: str, joined: int = 0):
    """Raise for the first vertex of a step at u that is not u's neighbour
    or is added twice, or else for the rule. The step itself joined its
    first `joined` vertices."""
    row = adjacency[u]
    seen = set()
    for i, x in enumerate(step):
        if x not in row:
            raise CertificateError(f"trace adds non-neighbor {x} at {u}")
        if x in seen or in_tree[x] and i >= joined:
            raise CertificateError(f"trace adds vertex {x} twice")
        seen.add(x)
    raise CertificateError(rule)


def _refuse_step(adjacency, in_tree, cnt, u: int, label: str, step):
    k = len(step)
    if k == 0:
        raise CertificateError(f"trace step at {u} adds no vertices")
    if label == W2 and k < 2:
        raise CertificateError(f"W2 step at {u} adds fewer than 2 vertices")
    if label != W2 and k != 1:
        raise CertificateError(f"{label} step at {u} adds {k} vertices")
    # Past the vertex checks, the step adds k distinct outside neighbours of
    # u, so u has more than k: a W2 step misses some, and a W1 or W0 step
    # is at a vertex W2 could expand.
    _refuse(adjacency, in_tree, u, step, f"W2 step at {u} adds {k} of its {cnt[u]} "
            f"outside neighbours" if label == W2 else
            f"{label} step at {u} while {u} has {cnt[u]} outside neighbours")


@dataclass(frozen=True)
class RankForest:
    """The tree with edges between unequal ranks removed.

    components are the rank classes, each in ascending id order, sorted
    largest first (ties by smallest vertex); f_degree is the per-vertex
    forest degree.
    """

    components: tuple[tuple[int, ...], ...]
    f_degree: tuple[int, ...]


def build_forest(g: Graph, t: SpanningTree, rank: list[int]) -> RankForest:
    """Group the vertices into rank classes and count forest degrees.

    Forest edges (tree edges with equal endpoint ranks) never leave a rank
    class, and t must be a tree (certify checks t against its trace), so a
    class of s vertices is one forest component exactly when it holds s - 1
    forest edges. Verifies the structural invariants every genuine run
    satisfies: each rank class is one component, no component has exactly
    two vertices, and a component with >= 3 vertices has at most one vertex
    of forest-degree exactly 2. Violations raise CertificateError.
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


def compute_certificate(g: Graph, t: SpanningTree, sizes: list[int]) -> Certificate:
    """Derive (u_size, k, upper_bound, leaf_count) from the replay's rank
    class sizes, and check t's leaves and the bound's arithmetic."""
    n = g.n
    if n < 3:
        raise ValueError(f"certificate needs n >= 3, got n={n}")
    u_size = sizes.count(1)
    # A class starts with one vertex and a W2 step adds >= 2 to it, so no
    # class has exactly 2 vertices: every class that is not a singleton is
    # big. So n - u_size is the big classes' total, and k >= 1 needs no
    # check of its own: a tree on n >= 3 vertices has >= 2 leaves, while
    # k = 0 would make every class a singleton, upper_bound = 1, and fail
    # the check below.
    k = len(sizes) - u_size
    upper_bound = n - u_size - k + 1
    leaves = len(t.leaf_set)
    cert = Certificate(u_size, k, upper_bound, leaves)

    if t.leaf_set != _leaves(t.root, t.parent, range(n)):
        raise CertificateError(f"leaf set of {leaves} vertices is not the tree's leaves")
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


def certify(g: Graph, t: SpanningTree, trace: ExpansionTrace) -> tuple[Certificate, list[int]]:
    """The certificate of a run: the rule-checked replay, the tree against
    its trace, and the bound from the replay's class sizes.

    Returns the certificate and the replay's ranks, which audit takes.
    Raises ValueError when n < 3, and CertificateError on any failed check.
    """
    rank, sizes = assign_ranks(g, trace)
    # The replayed trace spans g once, and a step at u added its vertices as
    # u's children, so it fixes every parent link; compute_certificate then
    # checks the leaves against those links.
    parent = t.parent
    if t.root != trace.start or len(parent) != g.n or parent[t.root] is not None:
        raise CertificateError("tree is not the one its trace replays")
    added = trace.added
    begin = 0
    for u, end in zip(trace.centers, trace.ends):
        for v in added[begin:end]:
            if parent[v] != u:
                raise CertificateError(f"tree gives vertex {v} the parent {parent[v]}, "
                                       f"its trace {u}")
        begin = end
    return compute_certificate(g, t, sizes), rank


def audit(g: Graph, t: SpanningTree, rank: list[int]) -> LemmaReport:
    """The forest and lemma audit of a replay's ranks, run by compare and
    the tests, not by certify.

    Raises CertificateError on a forest fault or a lemma witness, so the
    report it returns has always passed.
    """
    report = check_lemmas(g, rank, build_forest(g, t, rank))
    if not report.passed:
        raise CertificateError(f"lemma audit failed, witness counts {report.witness_counts()}")
    return report
