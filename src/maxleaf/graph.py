"""Simple undirected graph: representation, validation, parsing and serialization.

Vertices are dense 0-based integers. Two text formats are supported:

* edgelist -- header line "n m", then m lines "u v" with 0-based ids.
  Lines starting with '#' are comments.
* dimacs   -- "c" comment lines, one "p edge n m" line, then m lines
  "e u v" with 1-based ids (shifted to 0-based internally).

One line-by-line parser serves both formats. A small table holds what
differs between them: the comment prefix, the id base and how error
messages name the header and an edge line; only DIMACS's 'p'/'e' line tags
need code of their own. The header, edge and edge-count checks are shared.
A header that declares more than MAX_VERTICES vertices is a parse error,
raised before anything is allocated.

Edgelist text in the canonical form that serialize() writes is read in
bulk: ASCII only, no '#', no blank lines, every line two tokens joined by
exactly one space, '\n' as the only other separator, at most
min(2m + 1, MAX_VERTICES) declared vertices, and every vertex id spelled
in plain decimal, as "%d" writes it. That path does one bytes split(),
looks each id token up in a table from the "%d" spelling of every id in
range to one shared int (one lookup converts, range-checks and interns
it), frees the tokens and the table before it builds the adjacency rows,
and checks the rows once for duplicates and self-loops. Any other text
(ids such as "+1", "007", "-0" or "0_1" included), canonical text that
fails a check, and all DIMACS text go to the line parser, which accepts
exactly the same graphs. Errors, with their messages and line numbers,
therefore always come from the line parser.

Graphs are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
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
        self.m = sum(len(a) for a in self.adjacency) // 2

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

    def edge_set(self) -> set[tuple[int, int]]:
        return {(u, v) if u < v else (v, u)
                for u, nbrs in enumerate(self.adjacency) for v in nbrs}

    def validate(self) -> None:
        """Check symmetry, simplicity and edge-count consistency by direct scan."""
        n = self.n
        if len(self.adjacency) != n:
            raise ValueError("adjacency length differs from vertex count")
        half_edges = 0
        neighbor_sets = []
        for u, nbrs in enumerate(self.adjacency):
            seen = set()
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {u} has out-of-range neighbor {v}")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if v in seen:
                    raise ValueError(f"duplicate neighbor {v} in adjacency of {u}")
                seen.add(v)
            neighbor_sets.append(seen)
            half_edges += len(nbrs)
        for u in range(n):
            for v in neighbor_sets[u]:
                if u not in neighbor_sets[v]:
                    raise ValueError(f"asymmetric edge {u}-{v}")
        if half_edges != 2 * self.m:
            raise ValueError("edge count inconsistent with adjacency")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches all n vertices (true for n=1)."""
    if g.n <= 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    reached = 1
    queue = deque([0])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                reached += 1
                queue.append(v)
    return reached == g.n


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"{what} is not an integer: {token!r}", line) from None


# Every ASCII byte but the ones that can separate or comment out tokens; what
# is left after deleting these is the text's separator sequence.
_TOKEN_BYTES = bytes(c for c in range(128) if c not in b" \n\t\r\x0b\x0c\x1c\x1d\x1e\x1f#")


def _parse_edgelist_bulk(text: str) -> Graph | None:
    """The canonical-text fast path of parse(); None where the line parser must run."""
    if not text.isascii():
        return None
    # Canonical text, with its final "\n" put back if missing, is "u v\n"
    # lines: its separators alternate " " and "\n", and each of the pieces
    # before them, one per separator, is a non-empty token.
    raw = text.encode("ascii")
    seps = raw.translate(None, _TOKEN_BYTES)
    if not text.endswith("\n"):
        seps += b"\n"
    lines = len(seps) // 2
    if lines == 0 or seps != b" \n" * lines:
        return None
    # With only " " and "\n" between tokens, bytes.split() cuts where
    # str.split() would.
    tokens = raw.split()
    if len(tokens) != len(seps):
        return None
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        return None
    # n <= 2m + 1 keeps the id table and what is built below in proportion
    # to the text; a connected graph always qualifies.
    if not 1 <= n <= len(tokens) - 1 or n > MAX_VERTICES or m != lines - 1:
        return None
    # The table maps the plain-decimal spelling of each id in range to one
    # shared int, so a single lookup converts a token, checks its range and
    # interns the id. Any other token (out of range, signed, zero-padded,
    # underscored or no integer) misses and leaves the text to the line
    # parser.
    table = dict(zip(map(b"%d".__mod__, range(n)), range(n)))
    try:
        ids = list(map(table.__getitem__, islice(tokens, 2, None)))
    except KeyError:
        return None
    # Freed before the rows grow, so the peak holds only one of the two.
    del tokens, table
    rows: list[list[int]] = [[] for _ in range(n)]
    it = iter(ids)
    for u, v in zip(it, it):
        rows[u].append(v)
        rows[v].append(u)
    # A duplicate edge, or a self-loop (u twice in row u), shrinks a row's set.
    if sum(map(len, map(set, rows))) != 2 * m:
        return None
    return Graph(n, rows)


# fmt -> (comment prefix, id base, and how error messages name the header,
# the header line and an edge line).
_LINE_FORMATS = {
    "edgelist": ("#", 0, "header 'n m'", "'n m' header line", "edge 'u v'"),
    "dimacs": ("c", 1, "'p edge n m'", "'p edge n m' line", "'e u v'"),
}
FORMATS = tuple(_LINE_FORMATS)


def _parse_lines(text: str, fmt: str) -> Graph:
    """The line-by-line parser of both formats; every parse error comes from here."""
    comment, base, header, header_name, edge = _LINE_FORMATS[fmt]
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        fields = line.split()
        is_header = n < 0
        if fmt == "dimacs":
            # A tag says what the line is. Only "p edge n m" leaves the two
            # fields the header check below accepts.
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
        if len(edges) == m:
            raise GraphFormatError(f"more than the declared {m} edges", lineno)
        if not (base <= u < n + base and base <= v < n + base):
            raise GraphFormatError(
                f"vertex id out of range [{base}, {n - 1 + base}]: {u} {v}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
        seen.add(key)
        edges.append((u - base, v - base))
    if n < 0:
        raise GraphFormatError(f"missing {header_name}", 1)
    if len(edges) != m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(edges)}", header_line)
    return Graph.from_edges(n, edges)


def parse(text: str, fmt: str = "edgelist") -> Graph:
    """Parse a graph description; raises GraphFormatError with a line number."""
    if fmt not in _LINE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    g = _parse_edgelist_bulk(text) if fmt == "edgelist" else None
    return g if g is not None else _parse_lines(text, fmt)


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
