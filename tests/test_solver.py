import random

import pytest
from hypothesis import given, settings

from maxleaf import (DisconnectedGraphError, ExpansionStep, Graph,
                     InstanceSpec, StartPolicy, generate, leaf_count, parse,
                     pick_start, tree, verify_spanning_tree)

from helpers import (atlas_connected_graphs, connected_graphs, reference_tree,
                     replay_trace, trace_from_steps, tree_degrees)


def steps_of(trace):
    return [(s.center, s.case_label, s.added) for s in trace.steps]


def test_star_expands_once():
    g = generate(InstanceSpec("star", (5,)))
    t, trace = tree(g)
    assert steps_of(trace) == [(0, "W2", (1, 2, 3, 4))]
    assert leaf_count(t) == 4


def test_complete4_expands_once():
    g = generate(InstanceSpec("complete", (4,)))
    t, trace = tree(g)
    assert steps_of(trace) == [(0, "W2", (1, 2, 3))]
    assert leaf_count(t) == 3


def test_cycle5_grows_a_path_from_the_most_recent_join():
    g = generate(InstanceSpec("cycle", (5,)))
    t, trace = tree(g)
    # 1 and 4 both wait; 4 joined later, so the depth-first stage starts there.
    assert steps_of(trace) == [(0, "W2", (1, 4)), (4, "W0", (3,)), (3, "W1", (2,))]
    assert t.edges() == [(0, 1), (0, 4), (2, 3), (3, 4)]
    assert leaf_count(t) == 2


def test_first_step_is_w2_when_n_at_least_3():
    for spec in (InstanceSpec("cycle", (6,)), InstanceSpec("grid", (3, 4)),
                 InstanceSpec("random_connected", (9, 14), 11)):
        g = generate(spec)
        _, trace = tree(g)
        assert trace.steps[0].center == trace.start
        assert trace.steps[0].case_label == "W2"


def test_pick_start_policies():
    path = parse("3 2\n0 1\n1 2")
    assert pick_start(path, StartPolicy.first_eligible()) == 1
    star = generate(InstanceSpec("star", (5,)))
    assert pick_start(star, StartPolicy.max_degree()) == 0
    grid = generate(InstanceSpec("grid", (3, 3)))
    assert pick_start(grid, StartPolicy.max_degree()) == 4  # the center cell
    assert pick_start(grid, StartPolicy.explicit(7)) == 7
    # Every vertex of a cycle ties on degree 2; maxdeg takes the lowest id.
    cycle = generate(InstanceSpec("cycle", (5,)))
    assert pick_start(cycle, StartPolicy.max_degree()) == 0


def test_pick_start_rejects_low_degree_explicit():
    path = parse("3 2\n0 1\n1 2")
    for v, message in ((0, "start vertex 0 has degree 1 < 2"),
                       (5, r"start vertex 5 out of range \[0, 3\)")):
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            pick_start(path, StartPolicy.explicit(v))
        assert not isinstance(exc.value, DisconnectedGraphError)


def test_start_policy_parse():
    assert StartPolicy.parse("first") == StartPolicy.first_eligible()
    assert StartPolicy.parse("maxdeg") == StartPolicy.max_degree()
    assert StartPolicy.parse("vertex:3") == StartPolicy.explicit(3)
    with pytest.raises(ValueError):
        StartPolicy.parse("nope")


def test_single_vertex_and_single_edge():
    t1, trace1 = tree(Graph.from_edges(1, []))
    assert t1.parent == (None,) and t1.leaf_set == frozenset()
    assert trace1.steps == ()
    t2, trace2 = tree(Graph.from_edges(2, [(0, 1)]))
    assert t2.leaf_set == frozenset({0, 1})
    assert len(trace2.steps) == 1 and trace2.steps[0].case_label != "W2"


def test_disconnected_input_raises():
    # Under every policy, including an explicit start tree() must refuse.
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for policy in (None, StartPolicy.max_degree(), StartPolicy.explicit(0),
                   StartPolicy.explicit(4)):
        with pytest.raises(DisconnectedGraphError):
            tree(g, policy)


def test_max_degree_policy_changes_the_run():
    # Path: the default policy starts at 1, maxdeg at the first max-degree id.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    t_first, _ = tree(g, StartPolicy.first_eligible())
    t_max, _ = tree(g, StartPolicy.max_degree())
    assert t_first.root == 1
    assert t_max.root == 2
    assert leaf_count(t_max) >= leaf_count(t_first)


def test_verify_rejects_bad_trees():
    g = generate(InstanceSpec("cycle", (5,)))
    t, _ = tree(g)
    assert verify_spanning_tree(g, t)
    non_edge = t.parent[:2] + (4,) + t.parent[3:]  # 2's parent 4 is not adjacent
    bad = type(t)(t.root, non_edge, t.leaf_set)
    check = verify_spanning_tree(g, bad)
    assert not check and check.reason == "parent-edge-not-in-graph"
    short = type(t)(t.root, t.parent[:4], t.leaf_set)
    assert verify_spanning_tree(g, short).reason == "vertex-count-mismatch"
    orphan = type(t)(t.root, t.parent[:2] + (None,) + t.parent[3:], t.leaf_set)
    assert verify_spanning_tree(g, orphan).reason == "missing-parent"
    assert verify_spanning_tree(g, type(t)(5, t.parent, t.leaf_set)).reason \
        == "root-out-of-range"
    assert verify_spanning_tree(g, type(t)(2, t.parent, t.leaf_set)).reason \
        == "root-has-parent"
    far = type(t)(t.root, t.parent[:2] + (5,) + t.parent[3:], t.leaf_set)
    assert verify_spanning_tree(g, far).reason == "parent-out-of-range"
    no_leaves = type(t)(t.root, t.parent, frozenset())
    assert verify_spanning_tree(g, no_leaves).reason == "leaf-set-mismatch"


def test_verify_detects_parent_cycle():
    g = generate(InstanceSpec("cycle", (4,)))
    t = type(tree(g)[0])(0, (None, 2, 1, 0), frozenset({3}))
    assert verify_spanning_tree(g, t).reason == "cycle"


@given(connected_graphs())
@settings(max_examples=100, deadline=None)
def test_output_is_always_a_spanning_tree(g):
    t, trace = tree(g)
    assert verify_spanning_tree(g, t)
    added = [v for s in trace.steps for v in s.added]
    assert sorted(added + [trace.start]) == list(range(g.n))


@given(connected_graphs(max_n=16))
@settings(max_examples=100, deadline=None)
def test_trace_labels_match_priority_semantics(g):
    _, trace = tree(g)
    replay_trace(g, trace)


@given(connected_graphs())
@settings(max_examples=50, deadline=None)
def test_runs_are_deterministic(g):
    t1, trace1 = tree(g)
    t2, trace2 = tree(g)
    assert t1 == t2
    assert trace1 == trace2


@given(connected_graphs(max_n=20, max_extra=10))
@settings(max_examples=80, deadline=None)
def test_work_counter_stays_linear(g):
    _, trace = tree(g)
    assert trace.touches <= 10 * (g.n + g.m)


@given(connected_graphs(min_n=3))
@settings(max_examples=50, deadline=None)
def test_leaf_set_matches_tree_degrees(g):
    t, _ = tree(g)
    degree = tree_degrees(t)
    assert t.leaf_set == frozenset(v for v in range(g.n) if degree[v] == 1)
    assert leaf_count(t) >= 2 or g.n <= 2


def test_expansion_count_is_at_most_n_minus_1():
    for seed in range(30):
        g = generate(InstanceSpec("random_connected", (14, 20), seed))
        _, trace = tree(g)
        assert len(trace.steps) <= g.n - 1


def policies_for(g: Graph) -> list[StartPolicy]:
    """first, maxdeg, and an explicit start at the last vertex that may start."""
    last = max(v for v in range(g.n) if g.n <= 2 or g.degree(v) >= 2)
    return [StartPolicy.first_eligible(), StartPolicy.max_degree(),
            StartPolicy.explicit(last)]


def assert_matches_reference(g: Graph) -> None:
    for policy in policies_for(g):
        t, trace = tree(g, policy)
        ref_t, ref_trace = reference_tree(g, policy)
        assert t.parent == ref_t.parent
        assert t.leaf_set == ref_t.leaf_set
        assert t == ref_t
        assert trace.steps == ref_trace.steps
        assert trace.touches == ref_trace.touches
        assert trace == ref_trace


def test_matches_the_reference_solver_on_the_atlas():
    for g in atlas_connected_graphs():
        assert_matches_reference(g)


def test_matches_the_reference_solver_on_random_graphs():
    rng = random.Random(6)
    for seed in range(300):
        n = rng.randint(2, 60)
        # every third graph is dense: up to all C(n, 2) edges
        cap = n * (n - 1) // 2 if seed % 3 == 0 else min(n * (n - 1) // 2, 3 * n)
        m = rng.randint(n - 1, cap)
        assert_matches_reference(generate(InstanceSpec("random_connected", (n, m), seed)))


def test_disconnected_input_fails_like_the_reference_solver():
    rng = random.Random(7)
    graphs = [Graph.from_edges(2, []), Graph.from_edges(3, [(0, 1)]),
              Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])]
    for seed in range(30):
        n1, n2 = rng.randint(3, 12), rng.randint(1, 12)
        m1 = rng.randint(n1 - 1, min(2 * n1, n1 * (n1 - 1) // 2))
        g1 = generate(InstanceSpec("random_connected", (n1, m1), seed))
        edges = g1.edge_list()
        if n2 >= 2:
            g2 = generate(InstanceSpec("random_connected", (n2, n2 - 1), seed))
            edges += [(u + n1, v + n1) for u, v in g2.edge_list()]
        graphs.append(Graph.from_edges(n1 + n2, edges))
    for g in graphs:
        for policy in (StartPolicy.first_eligible(), StartPolicy.max_degree()):
            with pytest.raises(DisconnectedGraphError) as expected:
                reference_tree(g, policy)
            with pytest.raises(DisconnectedGraphError, match="disconnected") as got:
                tree(g, policy)
            assert str(got.value) == str(expected.value)


@given(connected_graphs(max_n=14))
@settings(max_examples=60, deadline=None)
def test_from_steps_rebuilds_the_trace(g):
    _, trace = tree(g)
    assert trace_from_steps(trace.start, trace.steps, trace.touches) == trace


def test_steps_view_of_a_hand_built_trace():
    steps = (ExpansionStep(0, "W2", (1, 4)), ExpansionStep(4, "W0", (3,)),
             ExpansionStep(3, "W1", (2,)))
    trace = trace_from_steps(0, steps, 17)
    assert (trace.centers, trace.labels, trace.ends, trace.added, trace.touches) == \
        ((0, 4, 3), ("W2", "W0", "W1"), (2, 3, 4), (1, 4, 3, 2), 17)
    assert trace.steps == steps


# Exact touches at n + m of about 10^5 on every generator family: the
# linear-time contract touches <= 10(n + m), with each count pinned.
LINEAR_WORK = [
    (("cycle", (50000,), 0), 249995),
    (("star", (50000,), 0), 149997),
    (("complete", (447,), 0), 199808),
    (("grid", (182, 183), 0), 198698),
    (("random_connected", (25000, 75000), 1), 209235),     # sparse
    (("random_connected", (45000, 55000), 2), 193759),     # tree-like
    (("random_connected", (450, 99000), 3), 198879),       # dense
]


@pytest.mark.parametrize("spec, touches", LINEAR_WORK)
def test_touches_are_linear_on_every_family(spec, touches):
    g = generate(InstanceSpec(*spec))
    assert 99000 <= g.n + g.m <= 101000
    _, trace = tree(g)
    assert trace.touches == touches
    assert trace.touches <= 10 * (g.n + g.m)
