"""Shared test helpers: an independent step-semantics replayer, the
instance sets of the acceptance campaigns and hypothesis strategies for
random connected graphs."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from maxleaf import ExpansionTrace, Graph, InstanceSpec, SpanningTree, generate


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
