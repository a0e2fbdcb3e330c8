"""Cross-checks of the two exact engines: the connected-dominating-set search
(max_leaf_cds) against spanning-tree enumeration (max_leaf_exact), and the
guarantees at sizes only the former reaches."""

import random

import pytest

from maxleaf import (DisconnectedGraphError, Graph, InstanceSpec, certify,
                     generate, leaf_count, max_leaf_cds, max_leaf_exact, tree,
                     verify_spanning_tree)

from helpers import atlas_connected_graphs, campaign_schedule


def check_cds(g: Graph, expected: int) -> None:
    opt, witness = max_leaf_cds(g)
    assert opt == expected, g.edge_list()
    assert verify_spanning_tree(g, witness), g.edge_list()
    assert leaf_count(witness) == opt


def test_engines_agree_on_the_atlas():
    # compare(), and with it criteria 1-3, runs the bound-pruned enumeration:
    # it must give the plain enumeration's optimum and witness.
    graphs = atlas_connected_graphs()
    assert len(graphs) == 995
    for g in graphs:
        plain = max_leaf_exact(g)
        pruned = max_leaf_exact(g, prune_bound=True)
        assert (pruned.opt_leaves, pruned.witness) == (plain.opt_leaves, plain.witness)
        check_cds(g, plain.opt_leaves)


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
        cert, _report = certify(g, t, trace)
        assert opt <= 2 * alg - 1, g.edge_list()
        assert opt <= cert.upper_bound, g.edge_list()
