import pytest
from hypothesis import given, settings

from maxleaf import (Graph, GraphFormatError, InstanceSpec, generate,
                     is_connected, parse, serialize, to_dot)
from maxleaf.graph import _parse_edgelist_bulk

from helpers import arbitrary_graphs
from parse_corpus import (CORPUS, DIMACS_CORPUS, MUTATION_SEEDS, check_mutations,
                          check_parity, check_serialized, missing_errors)


def test_parse_edgelist_path():
    g = parse("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_parse_dimacs_triangle():
    g = parse("p edge 3 3\ne 1 2\ne 2 3\ne 1 3", fmt="dimacs")
    assert g.n == 3 and g.m == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 2") as exc:
        parse("2 1\n0 0")
    assert exc.value.line == 2
    assert "self-loop" in str(exc.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse("3 3\n0 1\n1 2\n1 0")


def test_parse_rejects_out_of_range_id():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse("3 1\n0 3")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse("p edge 3 1\ne 0 1", fmt="dimacs")  # dimacs ids are 1-based


def test_parse_rejects_count_mismatch():
    with pytest.raises(GraphFormatError, match="declared 3 edges but found 2"):
        parse("4 3\n0 1\n1 2")
    with pytest.raises(GraphFormatError, match="more than the declared"):
        parse("3 1\n0 1\n1 2")


def test_parse_rejects_malformed_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse("2 1\n0 1 7")
    with pytest.raises(GraphFormatError, match="not an integer"):
        parse("2 1\nx y")
    with pytest.raises(GraphFormatError, match="unrecognized"):
        parse("p edge 2 1\nq 1 2", fmt="dimacs")


def test_parse_skips_comments_and_blank_lines():
    g = parse("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.m == 2
    g = parse("c a triangle\np edge 3 3\ne 1 2\ne 2 3\nc x\ne 1 3", fmt="dimacs")
    assert g.m == 3


@pytest.mark.parametrize("name", list(CORPUS))
def test_bulk_parse_matches_line_parser_on_corpus(name):
    check_parity(*CORPUS[name])


@given(arbitrary_graphs())
@settings(max_examples=100)
def test_bulk_parse_matches_line_parser_on_serialized_graphs(g):
    check_serialized(g)


def test_canonical_text_skips_the_line_parser(monkeypatch):
    monkeypatch.setattr("maxleaf.graph._parse_lines", None)
    assert parse("3 2\n0 1\n1 2\n").m == 2


@pytest.mark.parametrize("name", list(DIMACS_CORPUS))
def test_line_parser_matches_the_reference_on_dimacs_corpus(name):
    check_parity(DIMACS_CORPUS[name], False, "dimacs")


@pytest.mark.parametrize("fmt", list(MUTATION_SEEDS))
def test_parse_matches_the_reference_on_mutated_texts(fmt):
    messages = check_mutations(fmt, 20_000, MUTATION_SEEDS[fmt])
    assert missing_errors(fmt, messages) == []


@pytest.mark.parametrize("fmt, text", [
    ("edgelist", "# cap\n{n} 1\n0 1\n"),
    ("dimacs", "c cap\np edge {n} 1\ne 1 2\n"),
])
def test_vertex_cap_is_a_parse_error_on_the_header_line(monkeypatch, fmt, text):
    monkeypatch.setattr("maxleaf.graph.MAX_VERTICES", 5)
    assert parse(text.format(n=5), fmt).n == 5
    with pytest.raises(GraphFormatError) as exc:
        parse(text.format(n=6), fmt)
    assert str(exc.value) == "line 2: vertex count must be <= 5, got 6"
    assert exc.value.line == 2


def test_bulk_parse_shares_one_int_per_vertex_id():
    # Ids above 256 escape CPython's small-int cache; 300 isolated vertices
    # stay within the 2m + 1 the gate allows.
    inner = generate(InstanceSpec("random_connected", (700, 1400), 2))
    g = _parse_edgelist_bulk(serialize(Graph.from_edges(
        1000, [(u + 300, v + 300) for u, v in inner.edge_list()])))
    assert g is not None and g.m == 1400
    assert len({id(v) for row in g.adjacency for v in row}) == 700


def test_vertex_cap_closes_the_bulk_gate(monkeypatch):
    monkeypatch.setattr("maxleaf.graph.MAX_VERTICES", 4)
    check_parity("4 2\n0 1\n2 3\n", True)
    past_cap = "5 2\n0 1\n2 3\n"       # within 2m + 1 vertices
    assert _parse_edgelist_bulk(past_cap) is None
    with pytest.raises(GraphFormatError, match="^line 1: vertex count must be <= 4, got 5$"):
        parse(past_cap)


def test_serialize_triangle_dimacs_sorted():
    g = Graph.from_edges(3, [(1, 2), (0, 2), (0, 1)])
    assert serialize(g, "dimacs") == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_serialize_single_vertex_edgelist():
    assert serialize(Graph.from_edges(1, [])) == "1 0\n"


def test_round_trip_random_graphs():
    for seed in range(100):
        n = 2 + seed % 9
        m = min(n - 1 + seed % 5, n * (n - 1) // 2)
        g = generate(InstanceSpec("random_connected", (n, m), seed))
        for fmt in ("edgelist", "dimacs"):
            again = parse(serialize(g, fmt), fmt)
            assert again.n == g.n
            assert again.edge_set() == g.edge_set()


@given(arbitrary_graphs())
@settings(max_examples=60)
def test_round_trip_property(g):
    for fmt in ("edgelist", "dimacs"):
        again = parse(serialize(g, fmt), fmt)
        assert again.edge_set() == g.edge_set()
        again.validate()


def test_is_connected_trivial_cases():
    assert is_connected(generate(InstanceSpec("cycle", (5,))))
    assert is_connected(Graph.from_edges(1, []))
    two_disjoint = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_disjoint)


def test_is_connected_matches_generator_guarantee():
    g = generate(InstanceSpec("random_connected", (50, 100), 1))
    assert is_connected(g)


def test_validate_catches_corruption():
    asymmetric = Graph(3, [(1, 2), (0,), ()])
    with pytest.raises(ValueError, match="asymmetric"):
        asymmetric.validate()
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 1), (0,)]).validate()
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(1, 1), (0, 0)]).validate()


def test_dot_export_plain_and_with_tree():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    plain = to_dot(g)
    assert plain.startswith("graph G {")
    assert "0 -- 1;" in plain and "dashed" not in plain
    styled = to_dot(g, tree_edges=[(0, 1), (1, 2)])
    assert "  0 -- 1;" in styled
    assert "  0 -- 2 [style=dashed];" in styled
