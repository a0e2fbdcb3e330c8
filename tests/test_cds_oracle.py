"""Cross-checks of the two exact engines: the connected-dominating-set search
(max_leaf_cds) against spanning-tree enumeration (max_leaf_exact) and against
its own search from size 0, the leaf budget bound against both, and the
guarantees at sizes only the CDS search reaches."""

import random
from collections import Counter

import pytest

from maxleaf import (DisconnectedGraphError, Graph, InstanceSpec, certify,
                     generate, leaf_budget_bound, leaf_count, max_leaf_cds,
                     max_leaf_exact, tree, verify_spanning_tree)
from maxleaf.tightness import _random_instance

from helpers import atlas_connected_graphs, campaign_schedule, reference_max_leaf_cds


def check_cds(g: Graph, expected: int) -> None:
    """max_leaf_cds gives the optimum expected, a valid witness, and the
    optimum and witness of the search from size 0; the leaf budget is sound."""
    opt, witness = max_leaf_cds(g)
    assert opt == expected, g.edge_list()
    assert verify_spanning_tree(g, witness), g.edge_list()
    assert leaf_count(witness) == opt
    assert (opt, witness) == reference_max_leaf_cds(g), g.edge_list()
    assert opt <= leaf_budget_bound(g), g.edge_list()


def test_engines_agree_on_the_atlas():
    # compare(), and with it criteria 1-3, runs the bound-pruned enumeration:
    # it must give the plain enumeration's optimum and witness.
    graphs = atlas_connected_graphs()
    assert len(graphs) == 995
    gaps = Counter()
    for g in graphs:
        plain = max_leaf_exact(g)
        pruned = max_leaf_exact(g, prune_bound=True)
        assert (pruned.opt_leaves, pruned.witness) == (plain.opt_leaves, plain.witness)
        check_cds(g, plain.opt_leaves)
        gaps[leaf_budget_bound(g) - plain.opt_leaves] += 1
    # The leaf budget is exact on 900 atlas graphs and one above on the rest.
    assert gaps == {0: 900, 1: 95}


def test_engines_agree_on_the_campaign_schedule():
    # Bound pruning returns the same optimum as plain enumeration, faster.
    for spec in campaign_schedule(2000):
        g = generate(spec)
        check_cds(g, max_leaf_exact(g, prune_bound=True).opt_leaves)


def test_degenerate_sizes_match_the_enumerator():
    for g, opt in [(Graph.from_edges(1, []), 0), (Graph.from_edges(2, [(0, 1)]), 2)]:
        assert max_leaf_exact(g).opt_leaves == opt
        check_cds(g, opt)


@pytest.mark.parametrize("n, edges", [
    (2, []), (3, [(0, 1)]), (4, [(0, 1), (2, 3)]), (5, [(1, 2), (2, 3), (3, 4)]),
])
def test_disconnected_input_is_rejected(n, edges):
    g = Graph.from_edges(n, edges)
    with pytest.raises(DisconnectedGraphError):
        max_leaf_exact(g)
    with pytest.raises(DisconnectedGraphError):
        max_leaf_cds(g)
    with pytest.raises(DisconnectedGraphError):
        leaf_budget_bound(g)


def _path(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


@pytest.mark.parametrize("k", range(3, 9))
def test_leaf_budget_bound_is_exact_on_the_simple_families(k):
    # Cycle: budget 2, one per degree-2 vertex. Star and path: budget 0, and
    # every vertex of degree >= 2 is a cut vertex. Complete: budget
    # (k-1)(k-2), k-2 per vertex.
    for g, opt in [(generate(InstanceSpec("cycle", (k,))), 2),
                   (generate(InstanceSpec("star", (k,))), k - 1),
                   (generate(InstanceSpec("complete", (k,))), k - 1),
                   (_path(k), 2)]:
        assert leaf_budget_bound(g) == opt, g.edge_list()


def test_leaf_budget_bound_degenerate_sizes_and_cut_vertices():
    assert leaf_budget_bound(Graph.from_edges(1, [])) == 0
    assert leaf_budget_bound(Graph.from_edges(2, [(0, 1)])) == 2
    # A triangle with a pendant at each corner: the budget of 2 would fit
    # one corner (degree 3) as a fourth leaf, but every corner is a cut vertex.
    net = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    assert leaf_budget_bound(net) == 3 == max_leaf_exact(net).opt_leaves


def test_guarantees_beyond_the_enumerators_reach():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(13, 20)
        m = rng.randint(n - 1, 2 * n)
        g = generate(InstanceSpec("random_connected", (n, m), rng.getrandbits(64)))
        opt, witness = max_leaf_cds(g)
        assert verify_spanning_tree(g, witness)
        assert leaf_count(witness) == opt
        t, trace = tree(g)
        alg = leaf_count(t)
        cert, _rank = certify(g, t, trace)
        assert opt <= 2 * alg - 1, g.edge_list()
        assert opt <= cert.upper_bound, g.edge_list()
        assert opt <= leaf_budget_bound(g), g.edge_list()


def test_search_start_keeps_opt_and_witness_on_tight_search_draws():
    rng = random.Random(20)
    for _ in range(500):
        g = _random_instance(rng, 20)
        opt, witness = max_leaf_cds(g)
        assert (opt, witness) == reference_max_leaf_cds(g), g.edge_list()
        assert verify_spanning_tree(g, witness)
        assert opt <= leaf_budget_bound(g), g.edge_list()
