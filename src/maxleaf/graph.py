"""Simple undirected graph: representation, parsing and serialization.

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
in plain decimal, as "%d" writes it. That path first gates on the line
count and the header alone, allocating nothing in proportion to n or to
the text until they pass. It then builds a table from the "%d" spelling of
every id in range to one shared int (one lookup converts, range-checks and
interns it) and reads the body in chunks of about 64 KiB cut at line
ends: each chunk is encoded, checked, split, looked up and appended to the
adjacency rows, and its tokens are freed before the next. The peak thus
holds the text, the table, the rows and one chunk, never a whole-file
token list. The table is freed before the rows are checked once for
duplicates and self-loops and become the Graph. Any other text
(ids such as "+1", "007", "-0" or "0_1" included), canonical text that
fails a check, and all DIMACS text go to the line parser, which accepts
exactly the same graphs. Errors, with their messages and line numbers,
therefore always come from the line parser.

Graphs are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

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


# Every ASCII byte but the ones that can separate or comment out tokens; what
# is left after deleting these is the text's separator sequence.
_TOKEN_BYTES = bytes(c for c in range(128) if c not in b" \n\t\r\x0b\x0c\x1c\x1d\x1e\x1f#")


# The bulk parser encodes, splits and looks up the body this many characters
# at a time (rounded up to a whole line), so no whole-file token list exists.
_CHUNK = 1 << 16


def _canonical_tokens(raw: bytes) -> list[bytes] | None:
    """The tokens of canonical "u v\n" lines, or None if raw is anything else."""
    # Canonical lines, with a missing final "\n" put back, have separators
    # that alternate " " and "\n", and each of the pieces before them, one
    # per separator, is a non-empty token. With only " " and "\n" between
    # tokens, bytes.split() cuts where str.split() would.
    seps = raw.translate(None, _TOKEN_BYTES)
    if not raw.endswith(b"\n"):
        seps += b"\n"
    if seps != b" \n" * (len(seps) // 2):
        return None
    tokens = raw.split()
    return tokens if len(tokens) == len(seps) else None


def _parse_edgelist_bulk(text: str) -> Graph | None:
    """The canonical-text fast path of parse(); None where the line parser must run."""
    if not text.isascii():
        return None
    # Every gate that needs no more than the header runs before anything in
    # proportion to n or to the text is allocated.
    lines = text.count("\n") + (not text.endswith("\n"))
    body = text.find("\n") + 1 or len(text)
    header = _canonical_tokens(text[:body].encode("ascii"))
    if header is None:
        return None
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        return None
    # n <= 2m + 1 keeps the id table and what is built below in proportion
    # to the text; a connected graph always qualifies.
    if not 1 <= n <= 2 * lines - 1 or n > MAX_VERTICES or m != lines - 1:
        return None
    # The table maps the plain-decimal spelling of each id in range to one
    # shared int, so a single lookup converts a token, checks its range and
    # interns the id. Any other token (out of range, signed, zero-padded,
    # underscored or no integer) misses and leaves the text to the line
    # parser.
    table = dict(zip(map(b"%d".__mod__, range(n)), range(n)))
    rows: list[list[int]] = [[] for _ in range(n)]
    while body < len(text):
        end = text.find("\n", body + _CHUNK) + 1 or len(text)
        tokens = _canonical_tokens(text[body:end].encode("ascii"))
        if tokens is None:
            return None
        try:
            ids = list(map(table.__getitem__, tokens))
        except KeyError:
            return None
        # Freed before the next chunk, so the peak holds one chunk's tokens.
        del tokens
        it = iter(ids)
        for u, v in zip(it, it):
            rows[u].append(v)
            rows[v].append(u)
        body = end
    # Freed before Graph() copies the rows into tuples, so the peak holds
    # only one of the two.
    del table
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
