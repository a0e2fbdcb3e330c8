"""Edgelist texts on both sides of the bulk-parse gate, and the parity check.

`parse(text)` must return the same Graph as the line parser
`_parse_edgelist(text)`, or raise a GraphFormatError with the same message
and line number. Each corpus entry also records whether the bulk path reads
the text itself, so a gate that never opens cannot pass for parity.

The module needs neither pytest nor hypothesis; run it as a script to check
the corpus and 500 seeded serialized graphs on any interpreter:

    PYTHONPATH=src python3 tests/parse_corpus.py
"""

from __future__ import annotations

import random

from maxleaf.graph import (Graph, GraphFormatError, _parse_edgelist,
                           _parse_edgelist_bulk, parse, serialize)

# name -> (text, True if the bulk path reads it without the line parser)
CORPUS = {
    "canonical": ("5 4\n3 4\n0 1\n2 1\n3 2\n", True),
    "no_final_newline": ("3 2\n0 1\n1 2", True),
    "single_vertex": ("1 0\n", True),
    "isolated_vertex_within_2m_plus_1": ("3 1\n1 0\n", True),
    "isolated_vertices_beyond_2m_plus_1": ("6 2\n0 1\n3 2\n", False),
    "isolated_vertices_no_edges": ("4 0\n", False),
    "signed_and_underscored_ints": ("3 2\n+0 1\n0_1 2\n", True),
    "self_loop": ("3 2\n0 1\n2 2\n", False),
    "duplicate_same_orientation": ("3 3\n0 1\n1 2\n0 1\n", False),
    "duplicate_reversed": ("3 3\n0 1\n1 2\n1 0\n", False),
    "id_out_of_range": ("3 2\n0 1\n1 3\n", False),
    "negative_id": ("3 2\n0 1\n-1 2\n", False),
    "negative_id_indexing_a_free_row": ("4 2\n0 1\n-1 2\n", False),
    "too_few_edges": ("4 3\n0 1\n1 2\n", False),
    "too_many_edges": ("3 1\n0 1\n1 2\n", False),
    "extra_edge_duplicating_a_declared_one": ("3 1\n0 1\n1 0\n", False),
    "three_field_line": ("4 2\n0 1 2\n3\n", False),
    "three_field_header": ("3 2 1\n0 1\n1 2\n", False),
    "split_line": ("3 2\n0\n1\n1 2\n", False),
    "double_space": ("3 2\n0  1\n1 2\n", False),
    "tab": ("3 2\n0\t1\n1 2\n", False),
    "crlf": ("3 2\r\n0 1\r\n1 2\r\n", False),
    "trailing_spaces": ("3 2 \n0 1\n1 2  \n", False),
    "trailing_space_then_one_token_line": ("3 1\n0 \n1", False),
    "trailing_space_at_end_of_text": ("3 2\n0 1\n1 2 ", False),
    "one_token_last_line": ("3 2\n0 1\n1", False),
    "leading_space": (" 3 2\n0 1\n1 2\n", False),
    "comments": ("# a path\n3 2\n0 1\n# middle\n1 2\n", False),
    "blank_lines": ("\n3 2\n\n0 1\n1 2\n\n", False),
    "file_separator_line_break": ("3 2\n0 1\x1c1 2\n", False),
    "non_ascii_digits": ("3 2\n٠ 1\n1 ２\n", False),
    "non_integer_id": ("3 2\n0 x\n1 2\n", False),
    "header_zero_vertices": ("0 0\n", False),
    "header_negative_edges": ("3 -1\n", False),
    "edge_after_zero_edge_header": ("1 0\n1 0\n", False),
    "empty_text": ("", False),
    "lone_space": (" ", False),
    "space_line": (" \n", False),
    "one_token_header_with_space": ("1 \n", False),
    "leading_space_one_token_header": (" 3\n2 0\n1 2\n", False),
    "comment_only": ("# nothing\n", False),
}


def outcome(parser, text: str):
    try:
        return parser(text)
    except GraphFormatError as exc:
        return str(exc), exc.line


def check_parity(text: str, bulk: bool) -> None:
    assert outcome(parse, text) == outcome(_parse_edgelist, text), repr(text)
    assert (_parse_edgelist_bulk(text) is not None) == bulk, repr(text)


def seeded_graphs(count: int, seed: int):
    """Graphs with 1..12 vertices and any edge set, isolated vertices included."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield Graph.from_edges(n, sorted(rng.sample(pairs, rng.randint(0, len(pairs)))))


def check_serialized(g: Graph) -> None:
    text = serialize(g)
    check_parity(text, g.n <= 2 * g.m + 1)
    assert parse(text) == g


if __name__ == "__main__":
    for text, bulk in CORPUS.values():
        check_parity(text, bulk)
    for g in seeded_graphs(500, seed=0):
        check_serialized(g)
    print(f"parse parity ok: {len(CORPUS)} corpus texts, 500 serialized graphs")
