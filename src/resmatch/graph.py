"""Simple undirected graphs on dense 1-indexed vertex sets.

Vertices are the integers 1..vertex_count.  Edges are unordered pairs stored
as (u, v) tuples with u < v.  Optional integer lattice coordinates can be
attached per vertex; they are metadata used for deterministic layouts and for
the artifact parity check, never for adjacency.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class DuplicateEdgeWarning(UserWarning):
    pass


class GraphFormatError(ValueError):
    """Raised when a graph file does not follow the expected format."""


# the one digit rule of every integer the package reads, in files and in CLI
# fields: int() alone would also read 1_0 and non-ASCII digits and blanks
_INT_BLANKS = " \t\n\r\f\v"


def parse_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits with ASCII blanks
    around them; otherwise a ValueError that quotes the text."""
    digits = text.strip(_INT_BLANKS)
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text[:40]!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{text[:40]!r} has too many digits") from None


BLANKS = " \t\f\v"  # the digit rule's ASCII blanks, less the line ends
_fields = re.compile("[^" + BLANKS + "]+").findall
_LINE_END = re.compile(r"\r\n?|\n")
_BLOCK = 1 << 14  # characters a block of lines takes before the line end that closes it


def records(text: str, comment: str) -> Iterator[tuple[int, list[str], str]]:
    """Yield (line number, fields, line) for each line of a graph or DIMACS
    text that has a field and whose first field does not start with
    `comment`; `line` is the line stripped of BLANKS.  A line ends at \\n,
    \\r\\n or \\r only, and its fields are its runs of anything but BLANKS:
    str.splitlines() and str.split() would also part at other Unicode line
    ends and blanks and at \\x1c-\\x1f.  Lines are split a block at a time as
    the caller reads on, so a parser that stops at a refused header splits no further."""
    lineno, start = 1, 0
    while start < len(text):
        end = _LINE_END.search(text, start + _BLOCK)
        cut = end.end() if end else len(text)
        block = text[start:cut].replace("\r\n", "\n").replace("\r", "\n")
        # where it parts at BLANKS alone, str.split() gives the same fields faster
        split = (str.split if block.isascii() and not any(c in block for c in "\x1c\x1d\x1e\x1f")
                 else _fields)
        # a block ends with a line end, so its last line, empty, is the next one's first
        for lineno, line in enumerate(block.split("\n"), lineno):
            line = line.strip(BLANKS)
            if line and line[0] != comment:
                yield lineno, split(line), line
        start = cut


def normalize_edge(u: int, v: int, vertex_count: int | None = None) -> tuple[int, int]:
    """The pair ordered so that u < v.  Given vertex_count, a self-loop or an
    endpoint outside 1..vertex_count is a ValueError naming the pair as given."""
    if vertex_count is not None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if not (1 <= u <= vertex_count) or not (1 <= v <= vertex_count):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{vertex_count}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A dataclass: adjacency() caches in the instance __dict__, and coords stays out of hash."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    coords: dict[int, tuple[int, int]] | None = field(default=None, hash=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbors of each vertex in increasing order, indexed by vertex
        (slot 0 is empty): each edge is appended at both ends, then each
        vertex's list is sorted.  Built on the first call and shared by every
        later one, so callers must not change it; it is no field, so it
        takes no part in == or hash."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            adj = [[] for _ in range(self.vertex_count + 1)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for nbrs in adj:
                nbrs.sort()
            object.__setattr__(self, "_adjacency", adj)
        return adj


class Bipartition(NamedTuple):
    side0: frozenset[int]
    side1: frozenset[int]


def build_graph(
    vertex_count: int,
    edges: list[tuple[int, int]],
    coords: dict[int, tuple[int, int]] | None = None,
) -> Graph:
    """Validate and build a Graph.

    Duplicate edge pairs are collapsed; a DuplicateEdgeWarning reporting the
    collapse count is emitted when any are found.  Self-loops and endpoints
    outside 1..vertex_count are construction errors.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
    checked = [normalize_edge(u, v, vertex_count) for u, v in edges]
    if coords is not None:
        for v in coords:
            if not (1 <= v <= vertex_count):
                raise ValueError(f"coordinate record for unknown vertex {v}")
    return _assemble(vertex_count, checked, coords)


def _assemble(
    vertex_count: int,
    edges: list[tuple[int, int]],
    coords: dict[int, tuple[int, int]] | None,
) -> Graph:
    """The Graph of edges already checked against vertex_count and ordered
    u < v, and of coords whose vertices lie in 1..vertex_count.  Collapses
    duplicate edges and makes the checks that need every record at once."""
    seen = frozenset(edges)
    dupes = len(edges) - len(seen)
    if dupes:
        # stacklevel 3: the caller of build_graph or parse_graph_file
        warnings.warn(
            f"collapsed {dupes} duplicate edge(s)", DuplicateEdgeWarning, stacklevel=3
        )
    if coords is not None:
        if len(coords) != vertex_count:
            raise ValueError("coords must cover every vertex when present")
        if len(set(coords.values())) != vertex_count:
            raise ValueError("coords must be injective")
        # an empty map (only a vertexless graph has one) is stored as no map,
        # which is what parse_graph_file reads back from emit_graph_file
        coords = dict(sorted(coords.items())) or None
    return Graph(vertex_count, seen, coords)


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color g by BFS, or return None when some component has an odd cycle.

    Component roots are visited in increasing vertex order and each root is
    placed on side0.  Coordinates are ignored.
    """
    n = g.vertex_count
    adj = g.adjacency()
    color = [-1] * (n + 1)
    for root in range(1, n + 1):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:  # the queue grows while it is read
            cu = color[u]
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - cu
                    queue.append(w)
                elif color[w] == cu:
                    return None
    return Bipartition(frozenset(v for v in range(1, n + 1) if not color[v]),
                       frozenset(v for v in range(1, n + 1) if color[v] == 1))


def is_valid_bipartition(g: Graph, b: Bipartition) -> bool:
    verts = frozenset(range(1, g.vertex_count + 1))
    if b.side0 | b.side1 != verts or b.side0 & b.side1:
        return False
    return all((u in b.side0) != (v in b.side0) for u, v in g.edges)


def require_bipartite(g: Graph, b: Bipartition | None = None) -> None:
    """Raise ValueError unless g is bipartite and b, when given, two-colors it.

    Only `max_matching_bipartite` is handed a b, and only by the benchmark
    harness; every other caller lets this two-color g."""
    if b is None:
        if bipartition(g) is None:
            raise ValueError("graph is not bipartite")
    elif not is_valid_bipartition(g, b):
        raise ValueError("invalid bipartition for this graph")


def is_connected(g: Graph) -> bool:
    """True when g has at most one component (vertexless graphs count as connected)."""
    if g.vertex_count == 0:
        return True
    adj = g.adjacency()
    seen = [False] * (g.vertex_count + 1)
    seen[1] = True
    queue = [1]
    for u in queue:  # the queue grows while it is read
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return len(queue) == g.vertex_count


def degree_profile(g: Graph) -> dict:
    """Min and max degree and the degree histogram as sorted (degree, vertex
    count) pairs, by adjacency: the shape `compute` reports."""
    hist = Counter(map(len, g.adjacency()[1:]))
    return {"min": min(hist, default=0), "max": max(hist, default=0),
            "histogram": sorted(hist.items())}


def delete_edges(g: Graph, removed) -> Graph:
    """Remove the given edges, keeping all vertices.

    Asking to remove an edge that is not present is an error naming the edge.
    """
    drop = set()
    for u, v in removed:
        e = normalize_edge(u, v)
        if e not in g.edges:
            raise ValueError(f"edge ({e[0]}, {e[1]}) is not in the graph")
        drop.add(e)
    return Graph(g.vertex_count, g.edges - drop, g.coords)


# vertices of one graph file: compute's report costs about 440 bytes per vertex
# even without edges, and p mg 100000 0 takes about 0.5 s and 60 MB to compute
GRAPH_VERTEX_LIMIT = 10**5
# edge records of one graph file, ten per vertex at the vertex limit: 10^6
# distinct records parse in about 2 s at 240 MB; the largest L artifact has 110,999
GRAPH_EDGE_LIMIT = 10**6


def parse_graph_file(text: str) -> Graph:
    """Parse the plain-text graph format.

    Lines: '#' comments, one 'p mg <vertices> <edges>' header, optional
    'v <id> <x> <y>' coordinate records, and 'e <u> <v>' edge records, as
    `records` reads them.  The header is read first: one declaring more than
    GRAPH_VERTEX_LIMIT vertices or GRAPH_EDGE_LIMIT edge records is refused
    on its line, and no line after it is read.
    """
    rows = records(text, "#")
    lineno, parts, line = next(rows, (0, None, ""))
    if parts is None:
        raise GraphFormatError("missing 'p mg' header")
    if parts[0] != "p":
        raise GraphFormatError(f"line {lineno}: record before header" if parts[0] in ("v", "e")
                               else f"line {lineno}: unknown record tag {parts[0]!r}")
    try:
        _, kind, vertices, edge_records = parts
        if kind != "mg":
            raise ValueError(kind)
        n, m = parse_int(vertices), parse_int(edge_records)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    if n > GRAPH_VERTEX_LIMIT:
        raise GraphFormatError(f"line {lineno}: header declares {n} vertices,"
                               f" at most {GRAPH_VERTEX_LIMIT} are accepted")
    if m > GRAPH_EDGE_LIMIT:
        raise GraphFormatError(f"line {lineno}: header declares {m} edges,"
                               f" at most {GRAPH_EDGE_LIMIT} are accepted")
    edges: list[tuple[int, int]] = []
    coords: dict[int, tuple[int, int]] = {}
    for lineno, parts, line in rows:
        tag = parts[0]
        if tag == "e":
            try:
                _, u_text, v_text = parts
                u, v = parse_int(u_text), parse_int(v_text)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed edge record {line!r}") from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: edge endpoint out of range in {line!r}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u, v) if u < v else (v, u))
        elif tag == "v":
            try:
                _, vid_text, x_text, y_text = parts
                vid, x, y = parse_int(vid_text), parse_int(x_text), parse_int(y_text)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed vertex record {line!r}") from None
            if not (1 <= vid <= n):
                raise GraphFormatError(f"line {lineno}: vertex id {vid} out of range")
            if vid in coords:
                raise GraphFormatError(f"line {lineno}: duplicate coordinates for vertex {vid}")
            coords[vid] = (x, y)
        elif tag == "p":
            raise GraphFormatError(f"line {lineno}: duplicate header")
        else:
            raise GraphFormatError(f"line {lineno}: unknown record tag {tag!r}")
    if len(edges) != m:
        # count duplicates once: the header declares record count, so compare raw
        raise GraphFormatError(f"header declares {m} edges but {len(edges)} edge records found")
    return _assemble(n, edges, coords or None)


def emit_graph_file(g: Graph) -> str:
    """Serialize g in canonical form: sorted records, no comments.

    Each record kind is one flat comprehension, with every vertex id
    formatted once, and the lines are joined once.  Edge records come from
    the upper half (v > u) of each adjacency list in vertex order: u rises
    from list to list and each list is sorted, so the pairs come out in the
    order of sorted(g.edges) without a sort."""
    names = list(map(str, range(g.vertex_count + 1)))
    coords = g.coords or {}
    lines = [f"p mg {g.vertex_count} {g.edge_count}"]
    lines += [f"v {names[v]} {x} {y}" for v in sorted(coords) for x, y in (coords[v],)]
    lines += [f"e {names[u]} {names[v]}"
              for u, nbrs in enumerate(g.adjacency()) for v in nbrs if v > u]
    return "\n".join(lines) + "\n"
