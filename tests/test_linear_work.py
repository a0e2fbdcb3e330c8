"""A deterministic linear-work gate for the serialize, parse, solve,
certify and audit layers.

Each layer runs on a doubling ladder, m = 2^11 .. 2^14, for five shapes,
and its bytecode count must double with m, not grow faster, and stay under
a per-layer constant times n + m. Bytecodes are exact and repeatable, so
the gate does not flake as wall-clock ratios do; it does not see work done
inside C (see helpers.bytecodes), which criterion 5's wall clock still
covers.

Paths and complete graphs fall outside the other shapes' per-layer window,
so they carry constants and floors of their own. On a path n + m is about
2m and per-vertex work weighs double: tree reads up to 110.0 bytecodes per
(n + m) against the common 64. On complete graphs parse reads up to 24.9
against 24, and the layers that read only the tree, whose size is n, not
m, read 0.2 to 2.5 per (n + m), below the n + m floor.
"""

import pytest

from maxleaf import (InstanceSpec, assign_ranks, build_forest, certify, check_lemmas,
                     generate, leaf_budget_bound, parse, serialize, tree,
                     verify_spanning_tree)
from maxleaf.graph import articulation_points

from helpers import bytecodes

LADDER = range(11, 15)
MAX_RUNG_RATIO = 2.2
# Bytecodes per (n + m), about 20% above the largest seen over the random,
# star and grid shapes on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 when
# each constant was set: serialize 19.2, parse of canonical edgelist text
# 22.8 (the fast route), parse of DIMACS text 141.2 (the per-line route),
# tree 53.2, build_forest 25.5, check_lemmas 21.5, articulation_points
# 49.0, leaf_budget_bound 55.9 and verify_spanning_tree 58.5. parse keeps
# the 24 set 20% above its 19.5 from before Graph.from_edges interned its
# ids. assign_ranks 44.0 and certify 49.4 were set when the replay began
# to check the rules with outside-neighbour counts, as tree() keeps them,
# and certify stopped running the forest and lemma audit. The other
# constants stay where counts moved since: tree reads up to 52.0 and
# verify_spanning_tree 39.5 (its leaf rule runs in C).
PER_ELEMENT = {"serialize": 23, "parse": 24, "parse_dimacs": 170, "tree": 64,
               "assign_ranks": 53, "build_forest": 31, "check_lemmas": 26, "certify": 60,
               "articulation_points": 59, "leaf_budget_bound": 68,
               "verify_spanning_tree": 71}
# Constants of their own where a shape leaves that window, about 20% above
# the largest seen on the same four Pythons. On a path: tree 110.0,
# assign_ranks 89.5, build_forest 36.5, check_lemmas 49.5 and certify 99.0.
# On complete graphs: parse 24.9 and parse of DIMACS text 171.3.
SHAPE_PER_ELEMENT = {
    "path": {"tree": 132, "assign_ranks": 108, "build_forest": 44, "check_lemmas": 59,
             "certify": 119},
    "complete": {"parse": 30, "parse_dimacs": 206},
}
# On complete graphs these layers read the tree, n - 1 edges, not the
# graph's m, so their floor is n: at the least they read 44.4 and 69.5
# bytecodes per vertex. assign_ranks reads every row, as tree() does.
TREE_SIZED = {"build_forest", "verify_spanning_tree"}


def _graph(shape, k):
    m = 1 << k
    if shape == "random":
        return generate(InstanceSpec("random_connected", (m // 4, m), k))
    if shape == "star":
        return generate(InstanceSpec("star", (m + 1,)))
    if shape == "path":
        return generate(InstanceSpec("grid", (1, m + 1)))
    if shape == "complete":
        return generate(InstanceSpec("complete", (round((2 * m) ** 0.5),)))
    # A 2^a x 2^b grid has about 2^(a+b+1) edges.
    a = (k - 1) // 2
    return generate(InstanceSpec("grid", (1 << a, 1 << (k - 1 - a))))


def _layer_counts(g):
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    return {"serialize": bytecodes(serialize, g),
            "parse": bytecodes(parse, serialize(g)),
            "parse_dimacs": bytecodes(parse, serialize(g, "dimacs"), "dimacs"),
            "tree": bytecodes(tree, g),
            "assign_ranks": bytecodes(assign_ranks, g, trace),
            "build_forest": bytecodes(build_forest, g, t, rank),
            "check_lemmas": bytecodes(check_lemmas, g, rank, forest),
            "certify": bytecodes(certify, g, t, trace),
            "articulation_points": bytecodes(articulation_points, g),
            "leaf_budget_bound": bytecodes(leaf_budget_bound, g),
            "verify_spanning_tree": bytecodes(verify_spanning_tree, g, t)}


@pytest.mark.parametrize("shape", ["random", "star", "grid", "path", "complete"])
def test_every_layer_does_linear_work(shape):
    per_element = {**PER_ELEMENT, **SHAPE_PER_ELEMENT.get(shape, {})}
    previous = None
    for k in LADDER:
        g = _graph(shape, k)
        counts = _layer_counts(g)
        for layer, count in counts.items():
            # Each layer reads every vertex and edge, and a tree-sized layer on
            # a complete graph at least every vertex, so a lower count means
            # the tracer missed frames.
            floor = g.n if shape == "complete" and layer in TREE_SIZED else g.n + g.m
            assert floor <= count <= per_element[layer] * (g.n + g.m), (layer, k, count)
            if previous is not None:
                ratio = count / previous[layer]
                assert ratio <= MAX_RUNG_RATIO, (layer, k, round(ratio, 3))
        previous = counts
