import hashlib
import random

import pytest

from maxleaf import (CertificateError, Graph, OracleDisagreementError, StartPolicy,
                     certify, compare, leaf_count, max_leaf_cds, max_leaf_exact,
                     tight_search, tightness, tree, verify_spanning_tree)

from helpers import one_lemma_witness


def test_same_seed_gives_identical_best_instance():
    a = tight_search(10, 500, seed=42)
    b = tight_search(10, 500, seed=42)
    assert a.best.graph.adjacency == b.best.graph.adjacency
    assert (a.best.alg_leaves, a.best.opt_leaves) == (b.best.alg_leaves, b.best.opt_leaves)
    assert a.oracle_calls == b.oracle_calls


def test_different_seeds_explore_differently():
    a = tight_search(10, 500, seed=1)
    b = tight_search(10, 500, seed=2)
    assert a.best.graph.adjacency != b.best.graph.adjacency or \
        a.oracle_calls != b.oracle_calls


def test_small_search_beats_ratio_one():
    result = tight_search(9, 2000, seed=3)
    assert result.best.ratio > 1.0
    assert result.oracle_calls <= result.trials


def test_best_instance_figures_are_reproducible():
    result = tight_search(10, 1000, seed=11)
    g = result.best.graph
    t, _ = tree(g)
    assert leaf_count(t) == result.best.alg_leaves
    assert max_leaf_exact(g).opt_leaves == result.best.opt_leaves


def test_trees_only_search_has_ratio_one(monkeypatch):
    # With no extra edges every instance is a tree: its unique spanning tree
    # is what the solver returns, so the ratio is always 1.
    monkeypatch.setattr(tightness, "MAX_EXTRA_EDGES", 0)
    result = tight_search(10, 300, seed=5)
    assert result.best.ratio == 1.0
    assert result.tight is not None   # opt = 2, alg = 2 paths have slack 0
    assert result.tight.slack >= 0


def test_tight_instance_satisfies_the_near_worst_case_bound():
    result = tight_search(10, 3000, seed=9)
    assert result.tight is not None
    inst = result.tight
    assert inst.opt_leaves >= 2 * inst.alg_leaves - 2
    # Re-derive both figures from scratch on the stored graph.
    r = compare(inst.graph)
    assert (r.alg_leaves, r.opt_leaves) == (inst.alg_leaves, inst.opt_leaves)


# sha256 over 20 000 instances (n_max cycling through 4, 12 and 30) and the
# final generator state, recorded while _random_instance drew n and the
# extra-edge count with rng.randint: the draws must stay the same.
RANDOM_INSTANCE_SHA256 = "2fde45722dff3f635b9f65b7385ba43ad6a8ad630ed1b1436c6a2ec8c1e61d6e"


def test_random_instances_are_pinned():
    rng = random.Random(2026)
    h = hashlib.sha256()
    for i in range(20_000):
        g = tightness._random_instance(rng, (4, 12, 30)[i % 3])
        h.update(repr((g.n, g.edge_list())).encode())
    h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == RANDOM_INSTANCE_SHA256


@pytest.mark.parametrize("seed", [5, 6])
def test_leaf_budget_filter_changes_only_the_oracle_calls(monkeypatch, seed):
    sharp = tight_search(12, 1000, seed=seed)
    monkeypatch.setattr(tightness, "leaf_budget_bound", lambda g: g.n)   # never binds
    plain = tight_search(12, 1000, seed=seed)
    assert (sharp.best, sharp.tight) == (plain.best, plain.tight)
    assert sharp.oracle_calls < plain.oracle_calls


def test_parameter_validation():
    with pytest.raises(ValueError):
        tight_search(3, 10, seed=0)
    with pytest.raises(ValueError):
        tight_search(8, 0, seed=0)


# best and slack were recorded with the spanning-tree enumerator as the
# per-trial oracle, before the connected-dominating-set engine took over; the
# search must not change. The oracle calls are the trials that both
# admission bounds let through.
GOLDEN_12_2000 = {
    1: ((3, 5, 10, [(0, 1), (0, 7), (1, 2), (1, 8), (2, 3), (2, 7), (3, 5), (3, 8),
                    (4, 7), (4, 9), (5, 6), (6, 9)]), 1, 14),
    2: ((3, 5, 6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
                   (3, 5), (4, 5)]), 1, 4),
    3: ((3, 5, 8, [(0, 7), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5),
                   (4, 7), (5, 6), (6, 7)]), 1, 8),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_12_2000))
def test_search_results_are_pinned(seed):
    best, slack, calls = GOLDEN_12_2000[seed]
    result = tight_search(12, 2000, seed=seed)
    b = result.best
    assert (b.alg_leaves, b.opt_leaves, b.graph.n, b.graph.edge_list()) == best
    assert result.tight.slack == slack
    assert result.oracle_calls == calls


def test_cli_output_is_pinned(tmp_path, capsys):
    from maxleaf.cli import main

    code = main(["tight-search", "--n-max", "8", "--trials", "200", "--seed", "4",
                 "--out", str(tmp_path / "t.edgelist")])
    assert code == 0
    assert capsys.readouterr().out == (
        "7 10\n0 1\n0 5\n1 4\n1 6\n2 3\n2 5\n3 6\n4 5\n4 6\n5 6\n"
        "alg=3\nopt=5\nratio=1.6667\n")


def test_exhausted_confirmation_accepts_a_partial_best(monkeypatch):
    base = tight_search(10, 300, seed=5)
    monkeypatch.setattr(tightness, "PER_TRIAL_TREE_BUDGET", 1)
    again = tight_search(10, 300, seed=5)
    assert again.best.graph == base.best.graph
    assert again.oracle_calls == base.oracle_calls


@pytest.mark.parametrize("budget, wrong", [
    (tightness.PER_TRIAL_TREE_BUDGET, lambda opt: opt + 1),   # finished, differs
    (1, lambda opt: 0),                                       # partial best above
])
def test_confirmation_rejects_a_wrong_optimum(monkeypatch, budget, wrong):
    real = tightness.max_leaf_cds
    monkeypatch.setattr(tightness, "PER_TRIAL_TREE_BUDGET", budget)
    monkeypatch.setattr(tightness, "max_leaf_cds",
                        lambda g: (wrong(real(g)[0]), None))
    with pytest.raises(OracleDisagreementError):
        tight_search(10, 50, seed=5)


def test_a_failed_lemma_audit_stops_the_search(monkeypatch):
    monkeypatch.setattr("maxleaf.certificate.check_lemmas", one_lemma_witness)
    with pytest.raises(CertificateError, match=r"^lemma audit failed, witness counts "
                                               r"\(0, 0, 1, 0\)$"):
        tight_search(10, 50, seed=5)


# Three instances where the greedy tree attains the guarantee exactly,
# opt = 2·alg − 1, beyond alg = 4: found by a simulated annealing over edge
# flips, edge moves and id swaps, scored with max_leaf_cds.
FACTOR_TWO = [
    (13, 5, "0-6 0-9 1-2 1-4 1-6 1-9 2-7 2-8 2-12 3-4 4-7 4-8 4-12 5-8 5-9 5-12 "
            "6-7 7-9 7-10 8-12 10-11"),
    (14, 5, "0-8 0-11 1-5 1-6 1-11 2-4 2-8 2-9 2-11 2-13 3-4 3-13 4-9 4-13 5-10 "
            "6-10 7-12 8-9 8-11 9-10 9-11 10-12"),
    (14, 6, "0-7 0-11 1-2 1-3 1-9 1-13 2-3 2-9 2-12 2-13 3-5 3-6 4-6 4-10 5-6 5-7 "
            "5-8 6-7 6-8 6-11 8-9 8-12 9-13 10-13 11-13 12-13"),
]


@pytest.mark.parametrize("n, alg, edges", FACTOR_TWO,
                         ids=[f"n{n}-alg{alg}" for n, alg, _ in FACTOR_TWO])
def test_greedy_attains_the_factor_two(n, alg, edges):
    g = Graph.from_edges(n, [tuple(map(int, e.split("-"))) for e in edges.split()])
    opt = 2 * alg - 1
    t, trace = tree(g)
    assert leaf_count(t) == alg
    cert, report = certify(g, t, trace)
    assert cert.upper_bound == opt and report.passed
    cds_opt, witness = max_leaf_cds(g)
    assert cds_opt == opt
    assert verify_spanning_tree(g, witness) and leaf_count(witness) == opt
    assert max_leaf_exact(g, prune_bound=True).opt_leaves == opt


# Under the maxdeg start policy the greedy escapes every FACTOR_TWO trap:
# (leaves, upper_bound) for each instance, in the same order.
FACTOR_TWO_MAXDEG = [(8, 11), (7, 10), (9, 13)]


@pytest.mark.parametrize("n, alg, edges, maxdeg_alg, bound",
                         [f + m for f, m in zip(FACTOR_TWO, FACTOR_TWO_MAXDEG)],
                         ids=[f"n{n}-alg{alg}" for n, alg, _ in FACTOR_TWO])
def test_maxdeg_start_escapes_the_factor_two(n, alg, edges, maxdeg_alg, bound):
    g = Graph.from_edges(n, [tuple(map(int, e.split("-"))) for e in edges.split()])
    t, trace = tree(g, StartPolicy.max_degree())
    assert leaf_count(t) == maxdeg_alg > alg
    cert, report = certify(g, t, trace)
    assert cert.upper_bound == bound and report.passed
