import dataclasses
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from maxleaf import (CertificateError, ExpansionStep, ExpansionTrace, Graph,
                     InstanceSpec, LemmaReport, RankForest, SpanningTree,
                     assign_ranks, audit, build_forest, certify, check_lemmas,
                     compute_certificate, generate, max_leaf_cds, parse, tree,
                     verify_spanning_tree)

from helpers import (RELAXATIONS, atlas_connected_graphs, connected_graphs, hand_run,
                     reference_build_forest, reference_check_lemmas, rule_runs,
                     shuffled_edgelist, trace_from_steps, unique_rank_vertices)


def run_pipeline(g):
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    return t, trace, rank, forest


def test_star_ranks_all_one():
    g = generate(InstanceSpec("star", (5,)))
    _, trace = tree(g)
    assert assign_ranks(g, trace) == ([1, 1, 1, 1, 1], [5])


def test_complete4_ranks_all_one():
    g = generate(InstanceSpec("complete", (4,)))
    _, trace = tree(g)
    assert assign_ranks(g, trace) == ([1, 1, 1, 1], [4])


def test_cycle5_ranks_from_trace_replay():
    g = generate(InstanceSpec("cycle", (5,)))
    _, trace = tree(g)
    assert assign_ranks(g, trace) == ([1, 1, 3, 2, 1], [3, 1, 1])


def test_cycle5_forest_components():
    g = generate(InstanceSpec("cycle", (5,)))
    t, trace = tree(g)
    forest = build_forest(g, t, assign_ranks(g, trace)[0])
    assert forest.components == ((0, 1, 4), (2,), (3,))
    assert [len(c) for c in forest.components].count(1) == 2
    assert sum(len(c) >= 3 for c in forest.components) == 1


def test_star_forest_single_component():
    g = generate(InstanceSpec("star", (5,)))
    t, trace, rank, forest = run_pipeline(g)
    assert len(forest.components) == 1
    assert [len(c) for c in forest.components].count(1) == 0
    assert sum(len(c) >= 3 for c in forest.components) == 1


def test_single_vertex_forest_is_degenerate():
    g = Graph.from_edges(1, [])
    t, trace = tree(g)
    rank, sizes = assign_ranks(g, trace)
    assert sizes == [1]
    forest = build_forest(g, t, rank)
    assert forest.components == ((0,),)
    assert [len(c) for c in forest.components].count(1) == 1
    assert sum(len(c) >= 3 for c in forest.components) == 0


def test_certificate_examples():
    cases = {
        ("star", (5,)): (0, 1, 5, 4),
        ("cycle", (5,)): (2, 1, 3, 2),
        ("complete", (4,)): (0, 1, 4, 3),
    }
    for (family, params), expected in cases.items():
        g = generate(InstanceSpec(family, params))
        t, trace = tree(g)
        cert = compute_certificate(g, t, assign_ranks(g, trace)[1])
        assert (cert.u_size, cert.k, cert.upper_bound, cert.leaf_count) == expected
        assert cert.upper_bound <= 2 * cert.leaf_count - 1


def test_cycle5_bound_is_tight():
    g = generate(InstanceSpec("cycle", (5,)))
    t, trace = tree(g)
    cert = compute_certificate(g, t, assign_ranks(g, trace)[1])
    assert cert.upper_bound == 2 * cert.leaf_count - 1


def test_certificate_refuses_small_n():
    g = Graph.from_edges(2, [(0, 1)])
    t, trace = tree(g)
    # The rules are for n >= 3: the replay takes tree()'s one W0 step at
    # n = 2, though its vertex has no outside neighbour.
    rank, sizes = assign_ranks(g, trace)
    assert (trace.labels, rank, sizes) == (("W0",), [1, 2], [1, 1])
    with pytest.raises(ValueError, match="n >= 3"):
        compute_certificate(g, t, sizes)
    with pytest.raises(ValueError, match="n >= 3"):
        certify(g, t, trace)


# Rank classes, given by their vertices, as the replay counts them: no
# class of 2 (a W2 step adds >= 2 to a class of 1), sizes summing to n. So
# n - u_size is the big classes' total, and k >= 1 needs no check of its
# own: k = 0 leaves only singletons, so upper_bound = 1, below the >= 2
# leaves of any tree on n >= 3 vertices, as the first case shows.
@pytest.mark.parametrize("n, components, leaves, message", [
    (3, ((0,), (1,), (2,)), 2, "upper_bound 1 below own leaf count 2"),
    (7, ((0, 1, 2), (3, 4, 5), (6,)), 6, "upper_bound 5 below own leaf count 6"),
    (5, ((0, 1, 2), (3,), (4,)), 4, "upper_bound 3 below own leaf count 4"),
    (5, ((0, 1, 2, 3, 4),), 2, "n - u_size = 5 exceeds 2*leaves + k - 2 = 3"),
    (7, ((0, 1, 2), (3, 4, 5), (6,)), 2, "n - u_size = 6 exceeds 2*leaves + k - 2 = 4"),
    (6, ((0, 1, 2, 3, 4, 5),), 2, "n - u_size = 6 exceeds 2*leaves + k - 2 = 3"),
    (4, ((0, 1, 2, 3),), 2, "n - u_size = 4 exceeds 2*leaves + k - 2 = 3"),
])
def test_compute_certificate_flags_each_broken_invariant(n, components, leaves, message):
    # A star for n - 1 leaves, a path for 2: each tree's leaf set is its own,
    # so only the named invariant breaks.
    parent = (None,) + ((0,) * (n - 1) if leaves == n - 1 else tuple(range(n - 1)))
    t = SpanningTree.from_parent(0, parent)
    assert len(t.leaf_set) == leaves
    sizes = [len(c) for c in components]
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        compute_certificate(Graph.from_edges(n, []), t, sizes)


def test_certify_refuses_a_leaf_set_that_is_not_the_trees():
    # Genuine parent links, but one leaf dropped from the leaf set and two
    # internal vertices added: 41 claimed leaves against a true 40.
    g = generate(InstanceSpec("random_connected", (60, 120), 3))
    t, trace = tree(g)
    internal = sorted(set(range(g.n)) - t.leaf_set)
    forged = dataclasses.replace(
        t, leaf_set=t.leaf_set - {min(t.leaf_set)} | set(internal[:2]))
    assert (len(t.leaf_set), len(forged.leaf_set)) == (40, 41)
    with pytest.raises(CertificateError,
                       match="^leaf set of 41 vertices is not the tree's leaves$"):
        certify(g, forged, trace)


def test_certify_refuses_a_tree_its_trace_does_not_replay():
    # Vertex 1 hangs from 0, not a neighbour but of the same rank as its
    # true parent 26, so the rank forest keeps its shape. The forged tree
    # carries its own 24 leaves, against the genuine tree's 23.
    g = generate(InstanceSpec("random_connected", (40, 80), 0))
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    assert t.parent[1] == 26 and 0 not in g.adjacency[1] and rank[0] == rank[26]
    forged = SpanningTree.from_parent(t.root, t.parent[:1] + (0,) + t.parent[2:])
    assert (len(t.leaf_set), len(forged.leaf_set)) == (23, 24)
    assert verify_spanning_tree(g, forged).reason == "parent-edge-not-in-graph"
    with pytest.raises(CertificateError,
                       match="^tree gives vertex 1 the parent 0, its trace 26$"):
        certify(g, forged, trace)


def test_certify_refuses_a_root_or_size_its_trace_does_not_replay():
    g = generate(InstanceSpec("cycle", (5,)))
    t, trace = tree(g)
    for forged in (dataclasses.replace(t, root=1), dataclasses.replace(t, parent=t.parent[:4]),
                   dataclasses.replace(t, parent=(1,) + t.parent[1:])):
        with pytest.raises(CertificateError, match="^tree is not the one its trace replays$"):
            certify(g, forged, trace)


def test_lemmas_vacuous_on_star():
    g = generate(InstanceSpec("star", (5,)))
    _, _, rank, forest = run_pipeline(g)
    report = check_lemmas(g, rank, forest)
    assert report.passed
    assert report.witness_counts() == (0, 0, 0, 0)


def test_cycle5_upward_neighbors_are_unique():
    g = generate(InstanceSpec("cycle", (5,)))
    _, _, rank, forest = run_pipeline(g)
    report = check_lemmas(g, rank, forest)
    assert report.passed
    # Spot check behind the lemma: vertex 4 sees ranks (1, 2); one is higher.
    higher = [v for v in g.adjacency[4] if rank[v] > rank[4]]
    assert len(higher) == 1


def test_assign_ranks_rejects_inconsistent_traces():
    g = generate(InstanceSpec("cycle", (5,)))
    _, trace = tree(g)
    stranger = trace_from_steps(trace.start, trace.steps + (
        ExpansionStep(0, "W1", (2,)),), trace.touches)
    with pytest.raises(ValueError):
        assign_ranks(g, stranger)
    not_a_neighbor = trace_from_steps(0, (ExpansionStep(0, "W2", (2, 3)),))
    with pytest.raises(ValueError, match="non-neighbor"):
        assign_ranks(g, not_a_neighbor)
    partial = trace_from_steps(0, trace.steps[:1], 0)
    with pytest.raises(ValueError, match="span"):
        assign_ranks(g, partial)


def test_assign_ranks_rejects_malformed_flat_layouts():
    g = generate(InstanceSpec("star", (5,)))
    _, trace = tree(g)
    assert (trace.centers, trace.labels, trace.ends, trace.added) == \
        ((0,), ("W2",), (4,), (1, 2, 3, 4))
    assign_ranks(g, trace)
    added = (1, 2, 3, 4)
    malformed = [
        (ExpansionTrace(0, (0, 0), ("W2",), (4,), added), "2 centers, 1 labels and 1 ends"),
        (ExpansionTrace(0, (0,), ("W2", "W2"), (4,), added), "1 centers, 2 labels and 1 ends"),
        (ExpansionTrace(0, (0,), ("W2",), (2, 4), added), "1 centers, 1 labels and 2 ends"),
        (ExpansionTrace(0, (0,) * 3, ("W2",) * 3, (4, 4, 4), added), "adds no vertices"),
        (ExpansionTrace(0, (0,) * 3, ("W2",) * 3, (4, 3, 4), added), "adds no vertices"),
        (ExpansionTrace(0, (0,), ("W2",), (3,), added), "ends at 3, not at its 4 added"),
        (ExpansionTrace(0, (0,), ("W2",), (5,), added), "ends at 5, not at its 4 added"),
        (ExpansionTrace(0, (), (), (), (1,)), "ends at 0, not at its 1 added"),
        (ExpansionTrace(5, (0,), ("W2",), (4,), added), "trace start 5 out of range"),
        (ExpansionTrace(-1, (0,), ("W2",), (4,), added), "trace start -1 out of range"),
        (ExpansionTrace(0, (1,), ("W2",), (4,), added), "expands at 1 before it joined"),
        (ExpansionTrace(0, (0, 0), ("W2", "W2"), (1, 4), added),
         "W2 step at 0 adds fewer than 2 vertices"),
        (ExpansionTrace(0, (0,), ("W1",), (4,), added), "W1 step at 0 adds 4 vertices"),
        (ExpansionTrace(0, (0,), ("W2",), (4,), (1, 2, 1, 4)), "adds vertex 1 twice"),
    ]
    for bad, message in malformed:
        with pytest.raises(ValueError, match=message):
            assign_ranks(g, bad)


def test_build_forest_flags_corrupt_ranks():
    g = generate(InstanceSpec("cycle", (6,)))
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    for wrong_size in (rank[:-1], rank + [1]):
        with pytest.raises(ValueError, match="tree or rank size differs from graph"):
            build_forest(g, t, wrong_size)
    rank[trace.start] = 99  # split a rank class without moving edges
    with pytest.raises(CertificateError):
        build_forest(g, t, rank)


def forest_or_error(build, g, t, rank):
    try:
        f = build(g, t, rank)
    except CertificateError:
        return "CertificateError"
    return f.components, f.f_degree


def test_build_forest_matches_the_reference_dfs():
    rng = random.Random(4)
    raised = 0
    for seed in range(400):
        n = rng.randint(3, 40)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g = generate(InstanceSpec("random_connected", (n, m), seed))
        t, trace = tree(g)
        rank, _ = assign_ranks(g, trace)
        one_moved = rank[:]
        one_moved[rng.randrange(n)] = rng.randint(1, max(rank) + 1)
        shuffled = rank[:]
        rng.shuffle(shuffled)
        for r in (rank, one_moved, [rng.randint(1, 3) for _ in range(n)], shuffled):
            expected = forest_or_error(reference_build_forest, g, t, r)
            assert forest_or_error(build_forest, g, t, r) == expected
            raised += expected == "CertificateError"
    assert 400 <= raised <= 1200   # both outcomes are exercised


@given(connected_graphs(min_n=3, max_n=14))
@settings(max_examples=100, deadline=None)
def test_rank_monotone_along_tree_edges(g):
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    grown = {s.added[0] for s in trace.steps if s.case_label != "W2"}
    for v, p in enumerate(t.parent):
        if p is None:
            continue
        assert rank[p] <= rank[v]
        assert (rank[p] < rank[v]) == (v in grown)


@given(connected_graphs(min_n=3, max_n=14))
@settings(max_examples=100, deadline=None)
def test_rank_classes_are_forest_components(g):
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    by_rank = {}
    for v, r in enumerate(rank):
        by_rank.setdefault(r, set()).add(v)
    assert sorted(tuple(sorted(s)) for s in by_rank.values()) == \
        sorted(tuple(sorted(c)) for c in forest.components)


@given(connected_graphs(min_n=3, max_n=14))
@settings(max_examples=100, deadline=None)
def test_unique_ranks_are_the_singletons(g):
    t, trace = tree(g)
    rank, _ = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    counts = Counter(rank)
    unique = {v for v, r in enumerate(rank) if counts[r] == 1}
    assert unique_rank_vertices(forest) == unique
    assert [len(c) for c in forest.components].count(1) == len(unique)
    assert {v for v, d in enumerate(forest.f_degree) if d == 0} == unique


@given(connected_graphs(min_n=3, max_n=14))
@settings(max_examples=100, deadline=None)
def test_certificate_arithmetic_and_invariants(g):
    t, trace = tree(g)
    rank, sizes = assign_ranks(g, trace)
    forest = build_forest(g, t, rank)
    assert sorted(sizes) == sorted(map(len, forest.components))
    cert = compute_certificate(g, t, sizes)
    big = [c for c in forest.components if len(c) >= 3]
    assert g.n - cert.u_size == sum(len(c) for c in big)
    assert cert.k == len(big) >= 1
    assert cert.leaf_count <= cert.upper_bound <= 2 * cert.leaf_count - 1


def test_lemma_campaign_on_random_graphs():
    violations = 0
    for seed in range(1000):
        n = 3 + seed % 12
        extra = seed % 5
        m = min(n - 1 + extra, n * (n - 1) // 2)
        g = generate(InstanceSpec("random_connected", (n, m), seed))
        t, trace = tree(g)
        _, rank = certify(g, t, trace)
        report = check_lemmas(g, rank, build_forest(g, t, rank))
        if not report.passed:
            violations += 1
    assert violations == 0


def test_check_lemmas_flags_corrupt_ranks():
    g = generate(InstanceSpec("star", (5,)))
    bogus_rank = [3, 1, 2, 4, 5]   # never produced by a real run
    all_singletons = RankForest(
        components=((0,), (1,), (2,), (3,), (4,)),
        f_degree=(0, 0, 0, 0, 0))
    report = check_lemmas(g, bogus_rank, all_singletons)
    assert not report.passed
    # One path per lower neighbor of the hub, closed by its first higher one.
    assert report.local_degree == ((1, 0, 3), (2, 0, 3))
    assert report.upward_neighbor == ((0, 3, 4),)
    assert report.witness_counts() == (2, 1, 0, 0)


def test_check_lemmas_lists_every_violating_pair_on_a_large_star():
    # Hub 0 sits between 8191 lower and 8192 higher leaves: 8191 x 8192
    # violating paths, reported as one witness per lower leaf, linear in n.
    n = 1 << 14
    g = generate(InstanceSpec("star", (n,)))
    half = n // 2
    rank = [half] + list(range(1, half)) + list(range(half + 1, n + 1))
    singletons = RankForest(components=tuple((v,) for v in range(n)),
                            f_degree=(0,) * n)
    report = check_lemmas(g, rank, singletons)
    assert not report.passed
    assert report.local_degree == tuple((w, 0, half) for w in range(1, half))
    assert report.witness_counts() == (half - 1, 1, 0, 0)


def test_check_lemmas_golden_report_order():
    # Edges in shuffled order and orientation, so adjacency rows are not
    # ascending; the ranks are a shuffle of the genuine ones. The expected
    # report was recorded with the sort-based audit, reference_check_lemmas.
    g = parse("12 22\n8 1\n11 1\n0 3\n11 10\n7 6\n4 2\n2 11\n9 2\n3 4\n2 3\n"
              "4 6\n3 5\n1 9\n9 0\n5 1\n8 10\n2 7\n5 0\n10 9\n4 9\n6 11\n0 11\n")
    assert g.adjacency[1] == (8, 11, 9, 5)
    _, _, rank, forest = run_pipeline(g)
    assert rank == [1, 1, 1, 1, 1, 1, 4, 3, 2, 1, 1, 1]
    assert forest.components == ((0, 1, 2, 3, 4, 5, 9, 10, 11), (6,), (7,), (8,))
    assert forest.f_degree == (4, 1, 1, 3, 1, 1, 0, 0, 0, 3, 1, 1)
    bogus = [1, 1, 1, 1, 3, 4, 2, 1, 1, 1, 1, 1]
    expected = LemmaReport(
        local_degree=((7, 6, 4),),
        upward_neighbor=((3, 4, 5),),
        branch_rank=((0, 5), (3, 4), (3, 5), (9, 4)),
        unique_over_leaf=((8, 1), (7, 2), (6, 4), (8, 10)))
    assert check_lemmas(g, bogus, forest) == expected


def test_check_lemmas_matches_the_reference_audit():
    rng = random.Random(3)
    for seed in range(300):
        n = rng.randint(3, 20)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g = parse(shuffled_edgelist(
            generate(InstanceSpec("random_connected", (n, m), seed)), rng))
        _, _, rank, forest = run_pipeline(g)
        shuffled = rank[:]
        rng.shuffle(shuffled)
        arbitrary = RankForest(
            components=tuple((v,) for v in range(n) if rng.random() < 0.4),
            f_degree=tuple(rng.randint(0, 3) for _ in range(n)))
        for r, f in ((rank, forest), (shuffled, forest), (shuffled, arbitrary),
                     ([rng.randint(1, 4) for _ in range(n)], arbitrary)):
            assert check_lemmas(g, r, f) == reference_check_lemmas(g, r, f)


def test_certify_pipeline_shortcut():
    g = generate(InstanceSpec("grid", (3, 3)))
    t, trace = tree(g)
    cert, rank = certify(g, t, trace)
    assert rank == assign_ranks(g, trace)[0]
    assert audit(g, t, rank).passed
    assert cert.upper_bound <= 2 * cert.leaf_count - 1


def test_certify_raises_on_a_lemma_witness():
    # A W2 step at the hub of star:5 that leaves out its last leaf, which a
    # W1 step adds next: the lemma audit finds a branch_rank witness in
    # these ranks, and certify refuses the step the rules forbid.
    g = generate(InstanceSpec("star", (5,)))
    t, trace = hand_run(5, 0, [(0, "W2", (1, 2, 3)), (0, "W1", (4,))])
    rank = [1, 1, 1, 1, 2]
    assert check_lemmas(g, rank, build_forest(g, t, rank)).witness_counts() == (0, 0, 1, 0)
    with pytest.raises(CertificateError,
                       match="^W2 step at 0 adds 3 of its 4 outside neighbours$"):
        certify(g, t, trace)


# The n = 7 forgery: a W0 step labelled W1. The forest and lemma audit pass
# its ranks, and they would certify upper_bound 4 on a graph with opt 5.
FORGERY = Graph.from_edges(7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 6), (2, 3), (3, 4),
                               (3, 6), (4, 5), (5, 6)])


def test_certify_refuses_the_n7_forgery():
    t, trace = hand_run(7, 0, [(0, "W2", (1, 5, 6)), (1, "W1", (2,)), (5, "W1", (4,)),
                               (2, "W1", (3,))])
    assert trace == ExpansionTrace(0, (0, 1, 5, 2), ("W2", "W1", "W1", "W1"), (3, 4, 5, 6),
                                   (1, 5, 6, 2, 4, 3))
    rank = [1, 1, 2, 4, 3, 1, 1]
    assert audit(FORGERY, t, rank).passed
    assert compute_certificate(FORGERY, t, [4, 1, 1, 1]).upper_bound == 4
    assert max_leaf_cds(FORGERY)[0] == 5
    with pytest.raises(CertificateError,
                       match="^W1 step at 1 adds 2, which has one outside neighbour$"):
        certify(FORGERY, t, trace)


# One hand-built run per rule, breaking that rule and no other.
STAR5 = [(0, 1), (0, 2), (0, 3), (0, 4)]
PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
# Start 0 with a W1 candidate 2 (its leaf 5) and a W0 chain 1-3-4.
FORK = [(0, 1), (0, 2), (1, 3), (2, 5), (3, 4)]


@pytest.mark.parametrize("edges, start, steps, message", [
    pytest.param(STAR5, 1, [(1, "W1", (0,)), (0, "W2", (2, 3, 4))],
                 "trace starts at 1, of degree 1 < 2", id="start"),
    pytest.param(STAR5, 0, [(0, "W2", (1, 2, 3)), (0, "W1", (4,))],
                 "W2 step at 0 adds 3 of its 4 outside neighbours", id="w2-misses-a-neighbour"),
    pytest.param(FORK, 0, [(0, "W2", (1, 2)), (2, "W1", (5,)), (1, "W2", (3,)), (3, "W1", (4,))],
                 "W2 step at 1 adds fewer than 2 vertices", id="w2-at-one-neighbour"),
    pytest.param([(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)], 0,
                 [(0, "W2", (1, 2)), (1, "W1", (3,)), (2, "W2", (4, 5))],
                 "W1 step at 1 while 2 has 2 outside neighbours", id="w1-while-w2"),
    pytest.param(PATH5, 1, [(1, "W2", (0, 2)), (2, "W0", (3,)), (0, "W1", (4,))],
                 "trace adds non-neighbor 4 at 0", id="w1-at-a-centre-with-none"),
    pytest.param(PATH5, 1, [(1, "W2", (0, 2)), (2, "W1", (3,)), (3, "W1", (4,))],
                 "W1 step at 2 adds 3, which has one outside neighbour", id="w1-label-on-w0"),
    pytest.param(PATH5, 1, [(1, "W2", (0, 2)), (2, "W0", (3,)), (3, "W0", (4,))],
                 "W0 step at 3 adds 4, which has 0 outside neighbours", id="w0-label-on-w1"),
    pytest.param(FORK, 0, [(0, "W2", (1, 2)), (1, "W0", (3,)), (3, "W1", (4,)), (2, "W1", (5,))],
                 "W0 step at 1 while W1 could expand at 2, adding 5", id="w0-while-w1"),
    pytest.param(PATH5, 1, [(1, "W2", (0, 2)), (2, "W3", (3,)), (3, "W1", (4,))],
                 "step at 2 has label 'W3', not W2, W1 or W0", id="unknown-label"),
])
def test_certify_refuses_each_broken_rule(edges, start, steps, message):
    n = 1 + max(map(max, edges))
    g = Graph.from_edges(n, edges)
    t, trace = hand_run(n, start, steps)
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        certify(g, t, trace)


def test_every_run_that_obeys_the_rules_certifies_and_every_other_is_refused():
    # Over every connected graph on 3..7 vertices: each run that obeys the
    # rules, under every tie and from every start of degree >= 2, gives a
    # sound bound and the guarantee; each run that breaks one rule once is
    # refused.
    obeyed = 0
    refused = dict.fromkeys(RELAXATIONS, 0)
    for g in atlas_connected_graphs():
        if g.n < 3:
            continue
        opt = max_leaf_cds(g)[0]
        for t, trace, broken in rule_runs(g):
            try:
                cert, _ = certify(g, t, trace)
            except CertificateError:
                assert broken, (g.edge_list(), trace)
                refused[broken] += 1
                continue
            assert not broken, (g.edge_list(), trace)
            assert opt <= cert.upper_bound and opt <= 2 * cert.leaf_count - 1, \
                (g.edge_list(), trace)
            obeyed += 1
    assert obeyed == 16579
    assert refused == {"w1-before-w0": 131, "w2-priority": 4096, "w2-partial": 14277}
