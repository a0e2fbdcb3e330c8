"""Simple undirected graph: representation, parsing and serialization.

Vertices are dense 0-based integers. Two text formats are supported:

* edgelist -- header line "n m", then m lines "u v" with 0-based ids.
  Lines starting with '#' are comments.
* dimacs   -- "c" comment lines, one "p edge n m" line, then m lines
  "e u v" with 1-based ids (shifted to 0-based internally).

One reader serves both formats. It takes the text in chunks of about
64 KiB, each cut just after a '\n', with the first line as a chunk of its
own, so the chunks' lines are the text's lines and no whole-file line or
token list exists. An edgelist chunk in the canonical form that serialize()
writes (ASCII "u v\n" lines, one space between the ids, every id spelled
in plain decimal, as "%d" writes it) takes a fast route: with its spaces
and line breaks turned into commas it is one JSON array, decoded by
json.loads in C and range-checked by its max. That is exact: once its
ASCII digits are deleted, a canonical chunk leaves " \n" per line and any
other character (a sign, '_', '.', 'e', a non-ASCII digit, another
separator) is left too, and a JSON number of digits alone is "0" or has
no leading zero, which is how "%d" spells an int. Every other chunk, and
all DIMACS text, is checked line by line; a small table holds what differs
between the formats: the comment prefix, the id base and how error
messages name the header and an edge line. Only DIMACS's 'p'/'e' line tags
need code of their own. Both routes append to one flat array of ids, and
Graph.from_edges builds the graph once the whole text has passed: a
repeated edge, or a self-loop on the fast route, shows there as a row with
fewer distinct neighbours than entries. Text that fails any check is read
once more, every line checked in order and every repeat looked up, so the
error raised is the first in line order. A header that declares more than
MAX_VERTICES vertices is a parse error, and nothing in proportion to n is
allocated before the edge count has been checked.

Graphs are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from typing import Iterable

# The most vertices a parsed header may declare. A graph costs about 115
# bytes per declared vertex before any edge is read; the cap, 32x the
# n = 2^19 top of the benchmark ladder, bounds that at about 1.9 GB.
MAX_VERTICES = 1 << 24


class GraphFormatError(ValueError):
    """Malformed graph text. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Adjacency-list graph with n vertices and m undirected edges.

    Adjacency order is preserved from the input (parsers keep file order,
    generators emit neighbors in ascending id order), which pins down every
    "arbitrary" choice made downstream. Rows are stored as tuples: a Graph
    never changes after construction.
    """

    __slots__ = ("n", "m", "adjacency")

    def __init__(self, n: int, adjacency: list[tuple[int, ...]]):
        self.n = n
        self.adjacency = [tuple(row) for row in adjacency]
        self.m = sum(map(len, self.adjacency)) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # Route all entries through one id table so every occurrence of a
        # vertex id shares a single int object; on large graphs this cuts
        # the boxed-int footprint by ~8x and keeps traversals cache-friendly.
        ids = list(range(n))
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(ids[v])
            adjacency[v].append(ids[u])
        return cls(n, adjacency)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        edges = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    edges.append((u, v))
        edges.sort()
        return edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_connected(g: Graph) -> bool:
    """True iff the articulation-point pass from vertex 0 reaches all n vertices."""
    return g.n <= 1 or articulation_points(g)[1] == g.n


def articulation_points(g: Graph) -> tuple[bytearray, int]:
    """Cut vertices of g by one iterative Tarjan low-point pass from vertex 0.

    Returns a flag per vertex, 1 for a cut vertex of the component of
    vertex 0, and the number of vertices that pass reached, which equals n
    exactly when g is connected. O(n + m) time and no recursion.
    """
    adjacency = g.adjacency
    n = g.n
    cut = bytearray(n)
    disc = [0] * n                 # discovery time, 0 = not yet reached
    low = [0] * n
    disc[0] = low[0] = reached = 1
    root_children = 0
    stack = [(0, -1, iter(adjacency[0]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            if not disc[w]:
                reached += 1
                disc[w] = low[w] = reached
                stack.append((w, v, iter(adjacency[w])))
                break
            if w != p and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if p == 0:
                root_children += 1
            elif p > 0:
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    cut[p] = 1
    if root_children >= 2:
        cut[0] = 1
    return cut, reached


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"{what} is not an integer: {token!r}", line) from None


# The reader takes the text this many characters at a time, rounded up to a
# whole line, so no whole-file line or token list exists.
_CHUNK = 1 << 16

_DIGITS = str.maketrans("", "", "0123456789")


def _canonical_ids(chunk: str, n: int) -> list[int] | None:
    """The ids of a chunk of canonical "u v\n" lines, or None if it is anything else."""
    # Canonical lines, with a missing final "\n" put back, leave " \n" per
    # line once their digits are deleted; any other character is left too.
    seps = chunk.translate(_DIGITS)
    if not chunk.endswith("\n"):
        seps += "\n"
    if seps != " \n" * (len(seps) // 2):
        return None
    # A JSON number of digits alone is 0 or has no leading zero, as "%d"
    # writes it; an empty token is a JSON error or a short count.
    try:
        ids = json.loads("[" + chunk.replace(" ", ",").replace("\n", ",").rstrip(",") + "]")
    except ValueError:
        return None
    if len(ids) != len(seps) or max(ids) >= n:
        return None
    return ids


# fmt -> (comment prefix, id base, and how error messages name the header,
# the header line and an edge line).
_LINE_FORMATS = {
    "edgelist": ("#", 0, "header 'n m'", "'n m' header line", "edge 'u v'"),
    "dimacs": ("c", 1, "'p edge n m'", "'p edge n m' line", "'e u v'"),
}
FORMATS = tuple(_LINE_FORMATS)


def _read(text: str, fmt: str, seen: set[tuple[int, int]] | None) -> Graph:
    """Read text one chunk at a time; parse() alone calls this.

    Without seen, canonical edgelist chunks take the fast route, and repeats,
    with the fast route's self-loops, are found only at the end. With seen,
    every line is checked in order, repeats included, so the error raised is
    the text's first.
    """
    comment, base, header, header_name, edge = _LINE_FORMATS[fmt]
    n = m = -1
    ids = array("i")            # both ends of every edge read so far, 0-based
    fast = seen is None and fmt == "edgelist"
    header_line = lineno = start = 0
    end = text.find("\n") + 1 or len(text)     # the first line on its own
    while start < len(text):
        chunk = text[start:end]
        new = _canonical_ids(chunk, n) if fast and n >= 0 else None
        if new is not None and len(ids) + len(new) <= 2 * m:
            ids.extend(new)
            lineno += len(new) // 2
        else:
            # A cut just after a "\n" is a line break for splitlines() too,
            # so the chunks' lines are the text's lines.
            for lineno, raw in enumerate(chunk.splitlines(), lineno + 1):
                line = raw.strip()
                if not line or line.startswith(comment):
                    continue
                fields = line.split()
                is_header = n < 0
                if fmt == "dimacs":
                    # A tag says what the line is. Only "p edge n m" leaves the
                    # two fields the header check below accepts.
                    tag, fields = fields[0], fields[1:]
                    is_header = tag == "p"
                    if is_header:
                        if n >= 0:
                            raise GraphFormatError("duplicate 'p' line", lineno)
                        fields = fields[1:] if fields[:1] == ["edge"] else []
                    elif tag != "e":
                        raise GraphFormatError(f"unrecognized line {line!r}", lineno)
                    elif n < 0:
                        raise GraphFormatError("'e' line before 'p edge' line", lineno)
                if is_header:
                    if len(fields) != 2:
                        raise GraphFormatError(f"expected {header}, got {line!r}", lineno)
                    n = _parse_int(fields[0], "vertex count", lineno)
                    m = _parse_int(fields[1], "edge count", lineno)
                    if n < 1:
                        raise GraphFormatError(f"vertex count must be >= 1, got {n}", lineno)
                    if n > MAX_VERTICES:
                        raise GraphFormatError(
                            f"vertex count must be <= {MAX_VERTICES}, got {n}", lineno)
                    if m < 0:
                        raise GraphFormatError(f"edge count must be >= 0, got {m}", lineno)
                    header_line = lineno
                    continue
                if len(fields) != 2:
                    raise GraphFormatError(f"expected {edge}, got {line!r}", lineno)
                u = _parse_int(fields[0], "vertex id", lineno)
                v = _parse_int(fields[1], "vertex id", lineno)
                if len(ids) == 2 * m:
                    raise GraphFormatError(f"more than the declared {m} edges", lineno)
                if not (base <= u < n + base and base <= v < n + base):
                    raise GraphFormatError(
                        f"vertex id out of range [{base}, {n - 1 + base}]: {u} {v}", lineno)
                if u == v:
                    raise GraphFormatError(f"self-loop at vertex {u}", lineno)
                if seen is not None:
                    key = (u, v) if u < v else (v, u)
                    if key in seen:
                        raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
                    seen.add(key)
                ids.append(u - base)
                ids.append(v - base)
        start = end
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
    if n < 0:
        raise GraphFormatError(f"missing {header_name}", 1)
    if len(ids) != 2 * m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(ids) // 2}", header_line)
    # The array goes as soon as the rows are built (an array iterator lets
    # go of its array once exhausted), so the peak does not hold it beside
    # the rows' lists and tuples.
    it = iter(ids)
    del ids
    g = Graph.from_edges(n, zip(it, it))
    # A repeat, or a self-loop (u twice in row u), shrinks a row's set.
    if sum(map(len, map(set, g.adjacency))) != 2 * m:
        raise GraphFormatError("repeated edge or self-loop")
    return g


def parse(text: str, fmt: str = "edgelist") -> Graph:
    """Parse a graph description; raises GraphFormatError with a line number."""
    if fmt not in _LINE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    try:
        return _read(text, fmt, None)
    except GraphFormatError:
        pass
    # Only invalid text gets here. The first read finds some errors only at
    # its end, so the one it raised need not be the first in line order; this
    # read, fast route off and every repeat looked up, raises that one.
    return _read(text, fmt, set())


def serialize(g: Graph, fmt: str = "edgelist") -> str:
    """Serialize with edges sorted; parse(serialize(g)) reproduces the edge set."""
    edges = g.edge_list()
    ids = chain.from_iterable(edges)
    if fmt == "edgelist":
        header, line = f"{g.n} {g.m}\n", "%d %d\n"
    elif fmt == "dimacs":
        header, line = f"p edge {g.n} {g.m}\n", "e %d %d\n"
        ids = [x + 1 for x in ids]
    else:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return header + (line * len(edges)) % tuple(ids)


def to_dot(g: Graph, tree_edges: Iterable[tuple[int, int]] | None = None) -> str:
    """DOT export. With tree_edges, tree edges are solid and the rest dashed."""
    tree = None
    if tree_edges is not None:
        tree = {(u, v) if u < v else (v, u) for u, v in tree_edges}
    lines = ["graph G {"]
    for u, v in g.edge_list():
        if tree is None or (u, v) in tree:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f"  {u} -- {v} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
