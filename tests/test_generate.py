import hashlib
import importlib
import random
from itertools import islice

import pytest

from helpers import reference_uniform_random_tree
from maxleaf import InfeasibleSpecError, InstanceSpec, generate, graph, is_connected, serialize
from maxleaf.generate import _draws, add_random_edges, uniform_random_tree

# The submodule, which the package's generate() function shadows.
generate_mod = importlib.import_module("maxleaf.generate")


def test_cycle_shape():
    g = generate(InstanceSpec("cycle", (5,)))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_star_shape():
    g = generate(InstanceSpec("star", (5,)))
    assert g.degree(0) == 4
    assert sum(1 for v in range(1, 5) if g.degree(v) == 1) == 4


def test_grid_shape():
    g = generate(InstanceSpec("grid", (3, 3)))
    assert g.n == 9 and g.m == 12
    assert max(g.degree(v) for v in range(9)) == 4


def test_complete_shape():
    g = generate(InstanceSpec("complete", (6,)))
    assert g.m == 15
    assert all(g.degree(v) == 5 for v in range(6))


def test_generate_is_pure():
    spec = InstanceSpec("random_connected", (30, 60), seed=987654321)
    a = generate(spec)
    b = generate(spec)
    assert a.adjacency == b.adjacency
    c = generate(InstanceSpec("random_connected", (30, 60), seed=987654322))
    assert c.adjacency != a.adjacency


def test_generated_adjacency_is_ascending():
    for spec in (InstanceSpec("random_connected", (12, 20), 3),
                 InstanceSpec("grid", (4, 5)),
                 InstanceSpec("cycle", (7,))):
        g = generate(spec)
        assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency)
        g.validate()


def test_infeasible_parameters():
    with pytest.raises(InfeasibleSpecError):
        generate(InstanceSpec("random_connected", (5, 3)))   # m < n - 1
    with pytest.raises(InfeasibleSpecError):
        generate(InstanceSpec("random_connected", (5, 11)))  # m > n(n-1)/2
    with pytest.raises(InfeasibleSpecError):
        generate(InstanceSpec("cycle", (2,)))
    with pytest.raises(InfeasibleSpecError):
        generate(InstanceSpec("grid", (0, 3)))


def test_random_connected_is_connected_for_1000_seeds():
    for seed in range(1000):
        g = generate(InstanceSpec("random_connected", (10, 14), seed))
        assert is_connected(g)


def test_random_connected_dense_fallback():
    g = generate(InstanceSpec("random_connected", (8, 27), 5))  # 27 of 28 edges
    assert g.m == 27
    g.validate()
    assert is_connected(g)


def test_degenerate_sizes():
    assert generate(InstanceSpec("random_connected", (1, 0), 0)).n == 1
    assert generate(InstanceSpec("random_connected", (2, 1), 0)).m == 1
    assert generate(InstanceSpec("star", (1,))).n == 1
    assert generate(InstanceSpec("complete", (2,))).m == 1
    assert generate(InstanceSpec("grid", (1, 4))).m == 3


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate(InstanceSpec("torus", (3,)))


@pytest.mark.parametrize("family, params", [
    ("cycle", (3, 4)), ("grid", (3,)), ("random_connected", (5,))])
def test_wrong_parameter_count(family, params):
    with pytest.raises(ValueError, match=f"^{family} takes .* parameter"):
        generate(InstanceSpec(family, params))


def test_generate_dispatches_tight_search():
    g = generate(InstanceSpec("tight_search", (8, 50), 3))
    assert is_connected(g)
    assert g.adjacency == generate(InstanceSpec("tight_search", (8, 50), 3)).adjacency


# sha256 of serialize(generate(spec)), recorded before the sampling loop was
# shared with tight_search; any change to the RNG draw order shows here.
GOLDEN_SERIALIZED_SHA256 = {
    ("random_connected", (1, 0), 0):
        "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("random_connected", (2, 1), 7):
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    ("random_connected", (30, 60), 987654321):                    # sparse
        "e3df7f36f88589fee639e359bc5fb78f6b89e4a542a1d646afed93ba41456fce",
    ("random_connected", (200, 600), 3):                          # sparse
        "4c421260b7d954860815895e13147b87b1f25fe51527e825766b6185e1b0a975",
    ("random_connected", (8, 27), 5):                             # dense fallback
        "5134f9829b766525d23c90be3b8cfa510f76f0a306fb262823ba2bb562d50078",
    ("random_connected", (12, 50), 11):                           # dense fallback
        "03ca6e526580928d3fafeb7d0c6a1b5ef0dbe525722554193b3caea6d079405f",
    ("random_connected", (10, 45), 2):                            # complete
        "1df85460ce06d8c58223cfd1f4578b56f4ca71b66182291bfa1732f3659ee352",
    # Recorded with the tuple-keyed, randrange-based sampler, before edges
    # became int keys drawn through getrandbits.
    ("random_connected", (16384, 65536), 1):                      # solve_inmem, sparse
        "32f9c707d1616508db71d3b211034d4b798b010cb129ef68475fbcc4e5780b8e",
    ("random_connected", (32768, 36864), 2):                      # solve_inmem, tree-like
        "556bfc303e8b5f30638fcc56bff382771108289384fce9d08c33f97e33c09a9f",
    ("random_connected", (300, 30000), 4):                        # dense fallback
        "d1b9e7ea42d8778cc2fa3e506718b26073695795815382bd7d7093553f267777",
}


@pytest.mark.parametrize("family, params, seed", sorted(GOLDEN_SERIALIZED_SHA256))
def test_generated_graphs_are_pinned(family, params, seed):
    text = serialize(generate(InstanceSpec(family, params, seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_SERIALIZED_SHA256[family, params, seed]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 255, 256, 257, 1 << 16, (1 << 19) + 1])
def test_draws_equal_randrange(n):
    ours, theirs = random.Random(n), random.Random(n)
    assert list(islice(_draws(ours, n), 200)) == [theirs.randrange(n) for _ in range(200)]
    assert ours.getstate() == theirs.getstate()


def test_linear_pruefer_decode_matches_the_heap_decode():
    for n in range(1, 81):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            keys = uniform_random_tree(n, ours)
            assert keys == [u * n + v for u, v in reference_uniform_random_tree(n, theirs)]
            assert ours.getstate() == theirs.getstate()


def test_add_random_edges_rejects_loops_and_repeats():
    n, rng = 6, random.Random(3)
    keys = set(uniform_random_tree(n, rng))
    add_random_edges(keys, n, 10, rng)          # 15 of the 15 possible edges
    assert keys == {u * n + v for u in range(n) for v in range(u + 1, n)}
    state = rng.getstate()
    add_random_edges(keys, n, 0, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("family, params", [
    ("cycle", (101,)), ("star", (101,)), ("complete", (101,)), ("grid", (1, 101)),
    ("grid", (101, 1)), ("random_connected", (101, 100)), ("tight_search", (101, 1))])
def test_vertex_cap_is_checked_before_generation(monkeypatch, family, params):
    monkeypatch.setattr(graph, "MAX_VERTICES", 100)
    with pytest.raises(InfeasibleSpecError, match="101 vertices, more than the cap of 100"):
        generate(InstanceSpec(family, params))


def test_specs_at_the_vertex_cap_are_generated(monkeypatch):
    monkeypatch.setattr(graph, "MAX_VERTICES", 100)
    assert generate(InstanceSpec("grid", (10, 10))).n == 100
    assert generate(InstanceSpec("cycle", (100,))).n == 100
    with pytest.raises(InfeasibleSpecError, match="positive dimensions"):
        generate(InstanceSpec("grid", (-101, -101)))


@pytest.mark.parametrize("family, params, edges", [
    ("complete", (15,), 105), ("grid", (6, 10), 104), ("grid", (10, 6), 104),
    ("random_connected", (101, 101), 101)])
def test_edge_cap_is_checked_before_generation(monkeypatch, family, params, edges):
    monkeypatch.setattr(generate_mod, "MAX_EDGES", 100)
    monkeypatch.setattr(generate_mod, "Graph", None)   # nothing may be built
    with pytest.raises(InfeasibleSpecError,
                       match=f"^{family} asks for {edges} edges, more than the cap of 100$"):
        generate(InstanceSpec(family, params))


def test_specs_at_the_edge_cap_are_generated(monkeypatch):
    monkeypatch.setattr(generate_mod, "MAX_EDGES", 100)
    assert generate(InstanceSpec("complete", (14,))).m == 91
    assert generate(InstanceSpec("grid", (2, 34))).m == 100
    assert generate(InstanceSpec("grid", (1, 101))).m == 100
    assert generate(InstanceSpec("random_connected", (101, 100), 1)).m == 100
    assert generate(InstanceSpec("cycle", (101,))).m == 101
    with pytest.raises(InfeasibleSpecError, match="complete needs >= 1 vertex"):
        generate(InstanceSpec("complete", (-101,)))
    with pytest.raises(InfeasibleSpecError, match="positive dimensions"):
        generate(InstanceSpec("grid", (-101, -101)))
