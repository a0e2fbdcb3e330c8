import functools
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings

from maxleaf import (Graph, GraphFormatError, InstanceSpec, generate,
                     is_connected, parse, serialize, to_dot)
from maxleaf.graph import _CHUNK, articulation_points

from helpers import arbitrary_graphs, atlas_connected_graphs, validate_graph
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
    # Canonical body chunks take the fast route, so only the header's two
    # counts go through _parse_int, on a one-chunk and a multi-chunk text.
    counted = []
    monkeypatch.setattr("maxleaf.graph._parse_int",
                        lambda token, what, line: counted.append(what) or int(token))
    assert parse("3 2\n0 1\n1 2\n").m == 2
    assert parse(multi_chunk_text()).m == MULTI_CHUNK_M
    assert counted == ["vertex count", "edge count"] * 2


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


MULTI_CHUNK_N, MULTI_CHUNK_M = 16384, 65536


@functools.cache
def multi_chunk_text(fmt: str = "edgelist") -> str:
    """A connected graph's text of about 700 KB: ten chunks or more."""
    g = generate(InstanceSpec("random_connected", (MULTI_CHUNK_N, MULTI_CHUNK_M), 1))
    text = serialize(g, fmt)
    assert len(text) > 10 * _CHUNK
    return text


def _edit_line(text: str, lineno: int, edit) -> str:
    """Replace line lineno (1-based; -1 is the last) by edit(*its fields)."""
    lines = text.split("\n")[:-1]
    i = lineno if lineno < 0 else lineno - 1
    lines[i] = edit(*lines[i].split())
    return "\n".join(lines) + "\n"


def _edit_header_m(text: str, delta: int) -> str:
    header, body = text.split("\n", 1)
    n, m = header.split()
    return f"{n} {int(m) + delta}\n{body}"


def _insert_line(text: str, at: int, line: str) -> str:
    """Insert line just after the line break at or past character at."""
    cut = text.index("\n", at) + 1
    return f"{text[:cut]}{line}\n{text[cut:]}"


def _one_token_lines_ending_chunks(t: str) -> str:
    """An invalid text whose one-token lines 5637 and 11273 each end a chunk.

    Header m is the body line count less one, so the ids add up to 2m, and
    the pairs shifted by each short line are neither repeats nor self-loops:
    a fast route that did not count a chunk's tokens would accept it.
    """
    n, count = 60000, 20000
    lines = [f"{7919 * i % n} {(7919 * i + 104729) % n}" for i in range(count)]
    lines[5637 - 2], lines[11273 - 2] = "10000 ", "100 "
    text = f"{n} {count - 1}\n" + "\n".join(lines) + "\n"
    body = text.find("\n") + 1
    first = text.find("\n", body + _CHUNK) + 1
    second = text.find("\n", first + _CHUNK) + 1
    assert text[:first].endswith("\n10000 \n") and text[:second].endswith("\n100 \n")
    return text


# name -> (format, edit of the multi-chunk text, whether parse() reads every
# body chunk on the fast route)
MULTI_CHUNK_EDITS = {
    "clean": ("edgelist", lambda t: t, True),
    "no final newline": ("edgelist", lambda t: t[:-1], True),
    "signed id in the last chunk": ("edgelist",
        lambda t: _edit_line(t, -1, lambda u, v: f"{u} +{v}"), False),
    "zero-padded id in the last chunk": ("edgelist",
        lambda t: _edit_line(t, -1, lambda u, v: f"00{u} {v}"), False),
    "out-of-range id in the last chunk": ("edgelist",
        lambda t: _edit_line(t, -1, lambda u, v: f"{u} {MULTI_CHUNK_N}"), False),
    "self-loop in the last chunk": ("edgelist",
        lambda t: _edit_line(t, -1, lambda u, v: f"{u} {u}"), False),
    "first edge repeated in the last chunk": ("edgelist",
        lambda t: _edit_line(t, -1, lambda u, v: t.split("\n", 2)[1]), False),
    "header m one too many": ("edgelist", lambda t: _edit_header_m(t, 1), False),
    "header m one too few": ("edgelist", lambda t: _edit_header_m(t, -1), False),
    # The fast route finds the self-loop only after the whole text, and the
    # per-line route raises at the last line first; the reference raises
    # "line 6: self-loop at vertex 7".
    "self-loop at line 6, out-of-range id in the last chunk": ("edgelist",
        lambda t: _edit_line(_edit_line(t, 6, lambda u, v: "7 7"), -1,
                             lambda u, v: f"{u} {MULTI_CHUNK_N}"), False),
    # No route looks repeats up on the first read.
    "line 3 repeated at line 6, non-integer last line": ("edgelist",
        lambda t: _edit_line(_edit_line(t, 6, lambda u, v: t.split("\n")[2]), -1,
                             lambda u, v: f"{u} x"), False),
    # The reference raises "line 5637: expected edge 'u v', got '10000'".
    "one-token lines ending two chunks": ("edgelist", _one_token_lines_ending_chunks, False),
    "comment in a middle chunk": ("edgelist",
        lambda t: _insert_line(t, len(t) // 2, "# c"), False),
    "dimacs clean": ("dimacs", lambda t: t, False),
    "dimacs first edge repeated in the last chunk": ("dimacs",
        lambda t: _edit_line(t, -1, lambda *e: t.split("\n", 2)[1]), False),
}


@pytest.mark.parametrize("name", list(MULTI_CHUNK_EDITS))
def test_bulk_parse_matches_line_parser_across_chunks(name):
    fmt, edit, bulk = MULTI_CHUNK_EDITS[name]
    check_parity(edit(multi_chunk_text(fmt)), bulk, fmt)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_parse_peak_memory_is_within_11x_the_text():
    # Whole-file line and edge lists and a seen-set peak at about 26x the
    # text; read one chunk at a time, at about 5x to 8x.
    commented = _insert_line(multi_chunk_text(), 0, "# c")
    for fmt, text in [("edgelist", multi_chunk_text()), ("dimacs", multi_chunk_text("dimacs")),
                      ("edgelist", commented)]:
        peak = _traced_peak(parse, text, fmt)
        assert peak <= 11 * len(text), (fmt, text[:20], peak / len(text))


def test_bulk_gate_rejects_a_huge_header_before_allocating():
    # Both texts fail on their edge count, which parse() checks before it
    # allocates anything in proportion to the 2^24 declared vertices.
    for text in [f"{2**24} 1\n0 1\n0 1\n", f"{2**24} 5\n0 1\n"]:
        assert _traced_peak(check_parity, text, False) < 1 << 20, text


def test_bulk_parse_shares_one_int_per_vertex_id():
    # Ids above 256 escape CPython's small-int cache.
    inner = generate(InstanceSpec("random_connected", (700, 1400), 2))
    text = serialize(Graph.from_edges(1000, [(u + 300, v + 300) for u, v in inner.edge_list()]))
    commented = _insert_line(text, 0, "# c")
    dimacs = serialize(parse(text), "dimacs")
    for fmt, t in [("edgelist", text), ("edgelist", commented), ("dimacs", dimacs)]:
        g = parse(t, fmt)
        assert g.m == 1400
        assert len({id(v) for row in g.adjacency for v in row}) == 700, fmt
    # from_edges interns the ids of every chunk of a long text, whichever
    # chunk decoded them.
    g = parse(multi_chunk_text())
    assert g.n == MULTI_CHUNK_N
    assert len({id(v) for row in g.adjacency for v in row}) == MULTI_CHUNK_N


def test_vertex_cap_closes_the_bulk_gate(monkeypatch):
    monkeypatch.setattr("maxleaf.graph.MAX_VERTICES", 4)
    check_parity("4 2\n0 1\n2 3\n", True)
    with pytest.raises(GraphFormatError, match="^line 1: vertex count must be <= 4, got 5$"):
        parse("5 2\n0 1\n2 3\n")


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
            assert set(again.edge_list()) == set(g.edge_list())


@given(arbitrary_graphs())
@settings(max_examples=60)
def test_round_trip_property(g):
    for fmt in ("edgelist", "dimacs"):
        again = parse(serialize(g, fmt), fmt)
        assert set(again.edge_list()) == set(g.edge_list())
        validate_graph(again)


def test_is_connected_trivial_cases():
    assert is_connected(generate(InstanceSpec("cycle", (5,))))
    assert is_connected(Graph.from_edges(1, []))
    two_disjoint = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_disjoint)
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))   # one vertex left out
    assert not is_connected(Graph.from_edges(2, []))


@given(arbitrary_graphs())
@settings(max_examples=200)
def test_is_connected_matches_networkx(g):
    ng = nx.empty_graph(g.n)
    ng.add_edges_from(g.edge_list())
    assert is_connected(g) == nx.is_connected(ng)


def test_is_connected_matches_generator_guarantee():
    g = generate(InstanceSpec("random_connected", (50, 100), 1))
    assert is_connected(g)


def test_articulation_points_match_deleting_each_vertex():
    # networkx is the reference: is_connected itself runs articulation_points.
    graphs = atlas_connected_graphs()
    assert len(graphs) == 995
    for g in graphs:
        cut, reached = articulation_points(g)
        assert reached == g.n
        ng = nx.Graph(g.edge_list())
        assert list(cut) == [not nx.is_connected(nx.restricted_view(ng, [v], []))
                             for v in range(g.n)], g.edge_list()


@pytest.mark.parametrize("family, cuts", [("path", 10 ** 5 - 2), ("cycle", 0), ("star", 1)])
def test_articulation_points_are_exact_and_iterative_at_scale(family, cuts):
    n = 10 ** 5
    g = (Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) if family == "path"
         else generate(InstanceSpec(family, (n,))))
    cut, reached = articulation_points(g)
    assert (reached, cut.count(1)) == (n, cuts)


def test_articulation_points_report_the_reached_part():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    cut, reached = articulation_points(g)
    assert reached == 3
    assert list(cut) == [0, 1, 0, 0, 0, 0]
    assert articulation_points(Graph.from_edges(1, [])) == (bytearray(1), 1)


def test_validate_catches_corruption():
    asymmetric = Graph(3, [(1, 2), (0,), ()])
    with pytest.raises(ValueError, match="asymmetric"):
        validate_graph(asymmetric)
    with pytest.raises(ValueError, match="self-loop"):
        validate_graph(Graph(2, [(0, 1), (0,)]))
    with pytest.raises(ValueError, match="duplicate"):
        validate_graph(Graph(2, [(1, 1), (0, 0)]))


def test_dot_export_plain_and_with_tree():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    plain = to_dot(g)
    assert plain.startswith("graph G {")
    assert "0 -- 1;" in plain and "dashed" not in plain
    styled = to_dot(g, tree_edges=[(0, 1), (1, 2)])
    assert "  0 -- 1;" in styled
    assert "  0 -- 2 [style=dashed];" in styled
