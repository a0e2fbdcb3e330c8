"""Parse texts on both sides of the bulk-parse gate, the reference line
parsers and the parity check.

`parse(text, fmt)` must return the same Graph as the reference parser of its
format (the two separate line parsers that `_parse_lines` replaced, kept
here verbatim), or raise a GraphFormatError with the same message and line
number. Each edgelist corpus entry also records whether the bulk path reads
the text itself, so a gate that never opens cannot pass for parity. The
seeded mutation generator adds tens of thousands of texts per format.

The module needs neither pytest nor hypothesis; run it as a script to check
the corpus, 500 seeded serialized graphs and 20,000 mutated texts per format
on any interpreter:

    PYTHONPATH=src python3 tests/parse_corpus.py
"""

from __future__ import annotations

import random

from maxleaf.graph import (Graph, GraphFormatError, _parse_edgelist_bulk,
                           _parse_int, parse, serialize)

# name -> (text, True if the bulk path reads it without the line parser)
CORPUS = {
    "canonical": ("5 4\n3 4\n0 1\n2 1\n3 2\n", True),
    "no_final_newline": ("3 2\n0 1\n1 2", True),
    "single_vertex": ("1 0\n", True),
    "isolated_vertex_within_2m_plus_1": ("3 1\n1 0\n", True),
    "isolated_vertices_beyond_2m_plus_1": ("6 2\n0 1\n3 2\n", False),
    "isolated_vertices_no_edges": ("4 0\n", False),
    "signed_and_underscored_ints": ("3 2\n+0 1\n0_1 2\n", False),
    "leading_zero_ids": ("8 4\n00 1\n007 1\n1 2\n2 3\n", False),
    "minus_zero_id": ("3 2\n-0 1\n1 2\n", False),
    "plus_one_id": ("3 2\n0 +1\n1 2\n", False),
    "leading_zero_header": ("03 02\n0 1\n1 2\n", True),
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


# name -> text. No DIMACS text takes the bulk path.
DIMACS_CORPUS = {
    "canonical": "p edge 3 2\ne 1 2\ne 2 3\n",
    "comments": "c a triangle\np edge 3 3\ne 1 2\nc x\ne 2 3\n\ne 1 3",
    "c_prefix_swallows_any_word": "cat\np edge 2 1\ncount 9\ne 2 1\n",
    "hash_is_not_a_comment": "# x\np edge 2 1\ne 1 2\n",
    "crlf_and_tabs": "p\tedge 3 2\r\ne 1\t2\r\n  e 3 2  \r\n",
    "duplicate_p_line": "p edge 3 1\np edge 3 1\ne 1 2\n",
    "e_line_before_p_line": "c x\ne 1 2\np edge 2 1\n",
    "p_alone": "p\n",
    "p_node": "p node 3 1\ne 1 2\n",
    "p_edge_three_fields": "p edge 3\n",
    "p_edge_five_fields": "p edge 3 1 1\ne 1 2\n",
    "missing_p_line": "c only comments\n",
    "empty_text": "",
    "e_line_two_fields": "p edge 3 1\ne 1\n",
    "e_line_four_fields": "p edge 3 1\ne 1 2 3\n",
    "unrecognized_tag": "p edge 2 1\nq 1 2\n",
    "untagged_edge_line": "p edge 2 1\n1 2\n",
    "id_zero": "p edge 3 1\ne 0 1\n",
    "id_above_n": "p edge 3 1\ne 1 4\n",
    "self_loop": "p edge 3 1\ne 2 2\n",
    "duplicate_reversed": "p edge 3 2\ne 1 2\ne 2 1\n",
    "too_many_edges": "p edge 3 1\ne 1 2\ne 2 3\n",
    "too_few_edges": "p edge 4 3\ne 1 2\n",
    "non_integer_count": "p edge x 1\n",
    "non_integer_id": "p edge 2 1\ne 1 y\n",
    "header_zero_vertices": "p edge 0 0\n",
    "header_negative_edges": "p edge 2 -1\n",
}

# The fixed text of every error message the line parser raises, per format.
_SHARED_ERRORS = (
    "vertex count is not an integer", "edge count is not an integer",
    "vertex count must be >= 1", "edge count must be >= 0",
    "vertex id is not an integer", "more than the declared",
    "vertex id out of range", "self-loop at vertex", "duplicate edge",
    "edges but found")
ERRORS = {
    "edgelist": _SHARED_ERRORS + (
        "expected header 'n m', got", "expected edge 'u v', got",
        "missing 'n m' header line"),
    "dimacs": _SHARED_ERRORS + (
        "expected 'p edge n m', got", "expected 'e u v', got",
        "missing 'p edge n m' line", "duplicate 'p' line",
        "'e' line before 'p edge' line", "unrecognized line"),
}


# The two line parsers that _parse_lines replaced, verbatim but for their
# names: the reference that check_parity compares parse() against.
def _reference_add_edge(u: int, v: int, n: int, edges: list, seen: set, line: int, base: int) -> None:
    lo, hi = base, n - 1 + base
    if not (lo <= u <= hi and lo <= v <= hi):
        raise GraphFormatError(f"vertex id out of range [{lo}, {hi}]: {u} {v}", line)
    u -= base
    v -= base
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u + base}", line)
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise GraphFormatError(f"duplicate edge {u + base} {v + base}", line)
    seen.add(key)
    edges.append((u, v))


def reference_parse_edgelist(text: str) -> Graph:
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n < 0:
            if len(fields) != 2:
                raise GraphFormatError(f"expected header 'n m', got {line!r}", lineno)
            n = _parse_int(fields[0], "vertex count", lineno)
            m = _parse_int(fields[1], "edge count", lineno)
            if n < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {n}", lineno)
            if m < 0:
                raise GraphFormatError(f"edge count must be >= 0, got {m}", lineno)
            header_line = lineno
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"expected edge 'u v', got {line!r}", lineno)
        u = _parse_int(fields[0], "vertex id", lineno)
        v = _parse_int(fields[1], "vertex id", lineno)
        if len(edges) == m:
            raise GraphFormatError(f"more than the declared {m} edges", lineno)
        _reference_add_edge(u, v, n, edges, seen, lineno, base=0)
    if n < 0:
        raise GraphFormatError("missing 'n m' header line", 1)
    if len(edges) != m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(edges)}", header_line)
    return Graph.from_edges(n, edges)


def reference_parse_dimacs(text: str) -> Graph:
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    problem_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise GraphFormatError("duplicate 'p' line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphFormatError(f"expected 'p edge n m', got {line!r}", lineno)
            n = _parse_int(fields[2], "vertex count", lineno)
            m = _parse_int(fields[3], "edge count", lineno)
            if n < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {n}", lineno)
            if m < 0:
                raise GraphFormatError(f"edge count must be >= 0, got {m}", lineno)
            problem_line = lineno
            continue
        if fields[0] == "e":
            if n < 0:
                raise GraphFormatError("'e' line before 'p edge' line", lineno)
            if len(fields) != 3:
                raise GraphFormatError(f"expected 'e u v', got {line!r}", lineno)
            u = _parse_int(fields[1], "vertex id", lineno)
            v = _parse_int(fields[2], "vertex id", lineno)
            if len(edges) == m:
                raise GraphFormatError(f"more than the declared {m} edges", lineno)
            _reference_add_edge(u, v, n, edges, seen, lineno, base=1)
            continue
        raise GraphFormatError(f"unrecognized line {line!r}", lineno)
    if n < 0:
        raise GraphFormatError("missing 'p edge n m' line", 1)
    if len(edges) != m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(edges)}", problem_line)
    return Graph.from_edges(n, edges)


REFERENCES = {"edgelist": reference_parse_edgelist, "dimacs": reference_parse_dimacs}


def outcome(parser, text: str):
    try:
        return parser(text)
    except GraphFormatError as exc:
        return str(exc), exc.line


def check_parity(text: str, bulk: bool, fmt: str = "edgelist"):
    """Assert parse() matches the reference; return the shared outcome."""
    result = outcome(lambda t: parse(t, fmt), text)
    assert result == outcome(REFERENCES[fmt], text), (fmt, text)
    assert (fmt == "edgelist" and _parse_edgelist_bulk(text) is not None) == bulk, repr(text)
    return result


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, sorted(rng.sample(pairs, rng.randint(0, len(pairs)))))


def seeded_graphs(count: int, seed: int):
    """Graphs with 1..12 vertices and any edge set, isolated vertices included."""
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_graph(rng)


def check_serialized(g: Graph) -> None:
    text = serialize(g)
    check_parity(text, g.n <= 2 * g.m + 1)
    assert parse(text) == g
    check_parity(serialize(g, "dimacs"), False, "dimacs")


_TOKENS = ("p", "e", "c", "edge", "node", "#", "q", "x", "1.5", "+2", "0_1", "٣", "")


def _token(rng: random.Random) -> str:
    # Every int stays small, so no header declares a graph worth allocating.
    return str(rng.randint(-1, 13)) if rng.random() < 0.7 else rng.choice(_TOKENS)


def _line(fmt: str, rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:       # an edge line
        return ("e " if fmt == "dimacs" else "") + f"{_token(rng)} {_token(rng)}"
    if kind == 1:       # a header line
        return ("p edge " if fmt == "dimacs" else "") + f"{_token(rng)} {_token(rng)}"
    if kind == 2:       # a comment
        return rng.choice(("#", "c")) + " " + _token(rng)
    return " ".join(_token(rng) for _ in range(rng.randint(0, 4)))


def _retokenize(line: str, rng: random.Random) -> str:
    tokens = line.split()
    i = rng.randrange(len(tokens) + 1)
    op = rng.randrange(3)
    if op == 0 and tokens:
        tokens[i % len(tokens)] = _token(rng)
    elif op == 1 and tokens:
        del tokens[i % len(tokens)]
    else:
        tokens.insert(i, _token(rng))
    sep = rng.choice((" ", " ", " ", "  ", "\t", " \t"))
    pad = rng.choice(("", "", "", " ", "\t"))
    return pad + sep.join(tokens) + rng.choice(("", "", "", " ", "\t"))


def mutated_texts(fmt: str, count: int, seed: int):
    """Serialized random graphs with 0-3 lines inserted, deleted, duplicated,
    retokenized or shuffled, joined by "\\n" or "\\r\\n"."""
    rng = random.Random(seed)
    for _ in range(count):
        lines = serialize(_random_graph(rng), fmt).splitlines()
        for _ in range(rng.randint(0, 3)):
            op = rng.randrange(5)
            i = rng.randrange(len(lines) + 1)
            if op == 0 or not lines:
                lines.insert(i, _line(fmt, rng))
            elif op == 1:
                del lines[i % len(lines)]
            elif op == 2:
                lines.insert(i, rng.choice(lines))
            elif op == 3:
                lines[i % len(lines)] = _retokenize(lines[i % len(lines)], rng)
            else:
                j = rng.randrange(len(lines) + 1)
                piece = lines[min(i, j):max(i, j)]
                rng.shuffle(piece)
                lines[min(i, j):max(i, j)] = piece
        eol = rng.choice(("\n", "\n", "\r\n"))
        yield eol.join(lines) + rng.choice((eol, ""))


def check_mutations(fmt: str, count: int, seed: int) -> list[str]:
    """Check parity on mutated texts; return the error messages they raised."""
    messages = []
    for text in mutated_texts(fmt, count, seed):
        result = outcome(REFERENCES[fmt], text)
        assert outcome(lambda t: parse(t, fmt), text) == result, (fmt, text)
        if isinstance(result, tuple):
            messages.append(result[0])
    return messages


def missing_errors(fmt: str, messages: list[str]) -> list[str]:
    return [e for e in ERRORS[fmt] if not any(e in msg for msg in messages)]


MUTATION_SEEDS = {"edgelist": 1, "dimacs": 2}


if __name__ == "__main__":
    for text, bulk in CORPUS.values():
        check_parity(text, bulk)
    for text in DIMACS_CORPUS.values():
        check_parity(text, False, "dimacs")
    for g in seeded_graphs(500, seed=0):
        check_serialized(g)
    print(f"parse parity ok: {len(CORPUS)} edgelist and {len(DIMACS_CORPUS)} "
          f"dimacs corpus texts, 500 serialized graphs")
    for fmt, seed in MUTATION_SEEDS.items():
        messages = check_mutations(fmt, 20_000, seed)
        assert not missing_errors(fmt, messages), missing_errors(fmt, messages)
        print(f"{fmt}: 20000 mutated texts ok, {len(messages)} raise, "
              f"all {len(ERRORS[fmt])} error messages occur")
