import random

import pytest
from hypothesis import given, settings

from maxleaf import (CertificateError, DisconnectedGraphError, Graph, InstanceSpec,
                     compare, generate, leaf_count, max_leaf_exact, tree,
                     verify_spanning_tree)

from maxleaf.oracle import DEFAULT_BUDGET

from helpers import (atlas_connected_graphs, campaign_schedule, connected_graphs,
                     one_lemma_witness, reference_max_leaf_exact)


def test_cycle5_optimum_is_two():
    # Every spanning tree of a cycle is a Hamiltonian path.
    result = max_leaf_exact(generate(InstanceSpec("cycle", (5,))))
    assert result.opt_leaves == 2
    assert result.trees_examined == 5


def test_star6_optimum():
    assert max_leaf_exact(generate(InstanceSpec("star", (6,)))).opt_leaves == 5


def test_grid33_regression_constants():
    # Frozen from the first enumeration run; 192 trees matches the known
    # spanning-tree count of the 3x3 grid.
    result = max_leaf_exact(generate(InstanceSpec("grid", (3, 3))))
    assert result.opt_leaves == 6
    assert result.trees_examined == 192


def test_cayley_counts_on_complete_graphs():
    for n, expected in [(3, 3), (4, 16), (5, 125), (6, 1296)]:
        result = max_leaf_exact(generate(InstanceSpec("complete", (n,))))
        assert result.trees_examined == expected == n ** (n - 2)


def test_witness_is_a_valid_optimal_tree():
    for seed in range(20):
        g = generate(InstanceSpec("random_connected", (8, 12), seed))
        result = max_leaf_exact(g)
        assert verify_spanning_tree(g, result.witness)
        assert leaf_count(result.witness) == result.opt_leaves


def test_oracle_on_trees_returns_input_leaf_count():
    for seed in range(20):
        g = generate(InstanceSpec("random_connected", (9, 8), seed))
        result = max_leaf_exact(g)
        assert result.trees_examined == 1
        assert result.opt_leaves == sum(1 for v in range(g.n) if g.degree(v) == 1)


def test_adding_an_edge_never_hurts():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(14, n * (n - 1) // 2 - 1))
        g = generate(InstanceSpec("random_connected", (n, m), rng.getrandbits(32)))
        base = max_leaf_exact(g).opt_leaves
        present = set(g.edge_list())
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if (u, v) not in present]
        extra = missing[rng.randrange(len(missing))]
        bigger = Graph.from_edges(n, sorted(present | {extra}))
        assert max_leaf_exact(bigger).opt_leaves >= base


def test_budget_exhaustion_reports_partial_best():
    g = generate(InstanceSpec("complete", (6,)))
    result = max_leaf_exact(g, budget=100)
    assert result.budget_exhausted
    assert result.trees_examined == 100
    assert result.opt_leaves >= 1
    full = max_leaf_exact(g)
    assert not full.budget_exhausted
    assert full.opt_leaves == 5


def test_budget_exactly_equal_to_tree_count_is_not_exhaustion():
    g = generate(InstanceSpec("complete", (5,)))
    result = max_leaf_exact(g, budget=125)
    assert not result.budget_exhausted
    assert result.trees_examined == 125


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="at least 1"):
        max_leaf_exact(generate(InstanceSpec("cycle", (5,))), budget=budget)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 1, 7, 100])
def test_matches_the_reference_enumerator(budget):
    # All four fields, both prune modes: the optimum, the lexicographically
    # smallest witness, the trees visited and whether the budget ran out.
    graphs = atlas_connected_graphs()
    graphs += [generate(spec) for spec in campaign_schedule(300)]
    for g in graphs:
        for prune_bound in (False, True):
            assert max_leaf_exact(g, budget, prune_bound) == \
                reference_max_leaf_exact(g, budget, prune_bound), g.edge_list()


def test_bound_pruning_changes_counts_but_not_answers():
    for seed in range(15):
        g = generate(InstanceSpec("random_connected", (8, 14), seed))
        plain = max_leaf_exact(g)
        pruned = max_leaf_exact(g, prune_bound=True)
        assert pruned.opt_leaves == plain.opt_leaves
        assert pruned.witness == plain.witness
        assert pruned.trees_examined <= plain.trees_examined


def test_tie_break_is_lexicographic():
    # A 4-cycle has four Hamiltonian-path spanning trees, all with 2 leaves;
    # the witness must be the lexicographically smallest edge set.
    g = generate(InstanceSpec("cycle", (4,)))
    result = max_leaf_exact(g)
    assert result.opt_leaves == 2
    assert result.witness.edges() == [(0, 1), (0, 3), (1, 2)]


def test_oracle_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        max_leaf_exact(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_single_vertex():
    result = max_leaf_exact(Graph.from_edges(1, []))
    assert result.opt_leaves == 0
    assert result.trees_examined == 1


def test_compare_budget_counts_pruned_trees():
    # K6 has 1296 spanning trees; the bound-pruned search visits 140.
    g = generate(InstanceSpec("complete", (6,)))
    r = compare(g, budget=200)
    assert not r.budget_exhausted
    assert r.opt_leaves == 5
    assert max_leaf_exact(g, prune_bound=True).trees_examined == 140
    assert compare(g, budget=139).budget_exhausted


def test_compare_star_and_cycle():
    r = compare(generate(InstanceSpec("star", (5,))))
    assert (r.alg_leaves, r.opt_leaves, r.ratio, r.certificate_ok) == (4, 4, 1.0, True)
    assert r.bound_ok
    r = compare(generate(InstanceSpec("cycle", (5,))))
    assert (r.alg_leaves, r.opt_leaves, r.ratio, r.certificate_ok) == (2, 2, 1.0, True)
    assert r.bound_ok


def test_compare_raises_on_a_failed_lemma_audit(monkeypatch):
    monkeypatch.setattr("maxleaf.certificate.check_lemmas", one_lemma_witness)
    with pytest.raises(CertificateError, match=r"^lemma audit failed, witness counts "
                                               r"\(0, 0, 1, 0\)$"):
        compare(generate(InstanceSpec("star", (5,))))


@given(connected_graphs(min_n=3, max_n=9, max_extra=5))
@settings(max_examples=60, deadline=None)
def test_guarantee_holds_on_random_instances(g):
    r = compare(g)
    assert r.opt_leaves <= 2 * r.alg_leaves - 1
    assert r.certificate is not None
    assert r.opt_leaves <= r.certificate.upper_bound


def test_oracle_agrees_with_connected_dominating_sets():
    # Independent cross-check: max leaves = n - min connected dominating set.
    from itertools import combinations

    def cds_optimum(g):
        n = g.n
        adj = [set(a) for a in g.adjacency]
        for size in range(1, n + 1):
            for sub in combinations(range(n), size):
                chosen = set(sub)
                dominated = set(chosen)
                for v in chosen:
                    dominated |= adj[v]
                if len(dominated) != n:
                    continue
                seen = {sub[0]}
                stack = [sub[0]]
                while stack:
                    x = stack.pop()
                    for y in adj[x] & chosen:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if len(seen) == size:
                    return n - size
        raise AssertionError("unreachable for connected input")

    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(3, 8)
        m = rng.randint(n, min(16, n * (n - 1) // 2))
        g = generate(InstanceSpec("random_connected", (n, m), rng.getrandbits(32)))
        # Leafed stars break the CDS equivalence only at n <= 2; fine here.
        assert max_leaf_exact(g).opt_leaves == cds_optimum(g)
