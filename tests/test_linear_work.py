"""A deterministic linear-work gate for the serialize, parse, solve,
certify and audit layers.

Each layer runs on a doubling ladder, m = 2^11 .. 2^14, for three shapes,
and its bytecode count must double with m, not grow faster, and stay under
a per-layer constant times n + m. Bytecodes are exact and repeatable, so
the gate does not flake as wall-clock ratios do; it does not see work done
inside C (see helpers.bytecodes), which criterion 5's wall clock still
covers.

The ladder leaves paths and complete graphs out: their counts fall outside
these shapes' per-layer window. On a path, tree reads 113.5 bytecodes per
(n + m) against its constant of 64; on complete graphs, parse reads 24.9
against 24, and assign_ranks 0.2 to 0.6, below the n + m floor, since it
replays the trace, whose size is n, not m. Gating either shape would need
constants of its own per shape.
"""

import pytest

from maxleaf import (InstanceSpec, assign_ranks, build_forest, certify, check_lemmas,
                     generate, leaf_budget_bound, parse, serialize, tree,
                     verify_spanning_tree)
from maxleaf.graph import articulation_points

from helpers import bytecodes

LADDER = range(11, 15)
MAX_RUNG_RATIO = 2.2
# Bytecodes per (n + m), about 20% above the largest seen over the three
# shapes on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0: serialize 19.2,
# parse of canonical edgelist text 22.8 (the fast route), parse of DIMACS
# text 141.2 (the per-line route), tree 53.2, assign_ranks 15.2,
# build_forest 25.5, check_lemmas 21.5, certify 55.1, articulation_points
# 49.0, leaf_budget_bound 55.9 and verify_spanning_tree 58.5. parse keeps
# the 24 set 20% above its 19.5 from before Graph.from_edges interned its ids.
PER_ELEMENT = {"serialize": 23, "parse": 24, "parse_dimacs": 170, "tree": 64,
               "assign_ranks": 19, "build_forest": 31, "check_lemmas": 26, "certify": 66,
               "articulation_points": 59, "leaf_budget_bound": 68,
               "verify_spanning_tree": 71}


def _graph(shape, k):
    m = 1 << k
    if shape == "random":
        return generate(InstanceSpec("random_connected", (m // 4, m), k))
    if shape == "star":
        return generate(InstanceSpec("star", (m + 1,)))
    # A 2^a x 2^b grid has about 2^(a+b+1) edges.
    a = (k - 1) // 2
    return generate(InstanceSpec("grid", (1 << a, 1 << (k - 1 - a))))


def _layer_counts(g):
    t, trace = tree(g)
    rank = assign_ranks(g, trace)
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


@pytest.mark.parametrize("shape", ["random", "star", "grid"])
def test_every_layer_does_linear_work(shape):
    previous = None
    for k in LADDER:
        g = _graph(shape, k)
        counts = _layer_counts(g)
        for layer, count in counts.items():
            # Each layer reads every vertex and edge, so a lower count means
            # the tracer missed frames.
            assert g.n + g.m <= count <= PER_ELEMENT[layer] * (g.n + g.m), (layer, k, count)
            if previous is not None:
                ratio = count / previous[layer]
                assert ratio <= MAX_RUNG_RATIO, (layer, k, round(ratio, 3))
        previous = counts
