"""Graph model, exact shortest-path machinery, and unbalanced-cycle checkers.

Everything downstream (solver, repair, reductions, oracle) is built on the
primitives in this module.  All weight arithmetic is exact: an integral weight
is stored as an ``int`` and any other weight as a ``Fraction``, so a graph
scaled by :meth:`Graph.integer_scaled` runs on plain integers.  There is
deliberately no floating point anywhere near a comparison; ``INFINITY`` is
only the unreachable sentinel.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

Weight = int | Fraction
Edge = tuple[int, int]

#: Sentinel distance for unreachable pairs.  Compares greater than every
#: Weight and absorbs addition, which is all the code ever does with it.
INFINITY = float("inf")


class InstanceFormatError(ValueError):
    """The one input error: a malformed file, with its 1-based offending line
    number, or a parameter outside its domain."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalConsistencyError(RuntimeError):
    """A mathematically guaranteed invariant failed at runtime: a bug, not bad input."""


def canonical_edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max)."""
    return (u, v) if u < v else (v, u)


def _as_weight(value) -> Weight:
    """``value`` as an exact weight: an ``int`` when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float weight {value!r}; weights are exact rationals")
    f = value if type(value) is Fraction else Fraction(value)
    return f.numerator if f.denominator == 1 else f


class Graph:
    """Undirected simple graph with exact rational edge weights (``int`` when
    integral, ``Fraction`` otherwise).

    Immutable after construction; the "mutators" (:meth:`with_weight`,
    :meth:`without_edges`, :meth:`scaled`) return new graphs, so a search on
    G minus S runs on ``without_edges(S)``.  Input weights must be strictly
    positive; zero weights are tolerated only when ``allow_zero`` is set,
    which the mutators do by default.  The repair never sets a weight to
    zero; ``repair.lift_zero_edges`` accepts a graph that has some.
    """

    __slots__ = ("n", "_weights", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, object]], *, allow_zero: bool = False):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        self.n = n
        weights: dict[Edge, Weight] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = canonical_edge(u, v)
            if e in weights:
                raise ValueError(f"duplicate edge {e}")
            wf = _as_weight(w)
            if wf < 0 or (wf == 0 and not allow_zero):
                raise ValueError(f"nonpositive weight {wf} on edge {e}")
            weights[e] = wf
        self._weights = weights
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
        for (u, v), wf in weights.items():
            adj[u].append((v, wf))
            adj[v].append((u, wf))
        for row in adj:
            row.sort()
        self._adj = adj

    @property
    def m(self) -> int:
        return len(self._weights)

    def edges(self) -> list[Edge]:
        """Edge pairs in (u, v) lexicographic order."""
        return sorted(self._weights)

    def edge_items(self) -> list[tuple[Edge, Weight]]:
        return sorted(self._weights.items())

    def weight(self, u: int, v: int) -> Weight:
        return self._weights[canonical_edge(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._weights

    def neighbors(self, u: int) -> list[tuple[int, Weight]]:
        return self._adj[u]

    def with_weight(self, edge: Edge, w, *, allow_zero: bool = True) -> "Graph":
        e = canonical_edge(*edge)
        if e not in self._weights:
            raise KeyError(f"no edge {e}")
        items = [(u, v, w if (u, v) == e else wf) for (u, v), wf in self._weights.items()]
        return Graph(self.n, items, allow_zero=allow_zero)

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        drop = {canonical_edge(*e) for e in edges}
        if missing := drop - self._weights.keys():
            raise KeyError(f"no edge {min(missing)}")
        items = [(u, v, wf) for (u, v), wf in self._weights.items() if (u, v) not in drop]
        return Graph(self.n, items, allow_zero=True)

    def scaled(self, factor) -> "Graph":
        """Multiply every weight by a positive rational factor."""
        f = _as_weight(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return Graph(self.n, [(u, v, wf * f) for (u, v), wf in self._weights.items()],
                     allow_zero=True)

    def integer_scaled(self) -> tuple["Graph", int]:
        """``(self scaled by L, L)``, with L the least common multiple of the
        weight denominators, so every weight of the scaled graph is an int.

        Every sum and comparison of weights scales by the same positive L, so
        anything decided on the scaled graph holds for this one; a weight w
        found there maps back exactly as ``Fraction(w, L)``.
        """
        scale = math.lcm(*(w.denominator for w in self._weights.values()))
        return (self if scale == 1 else self.scaled(scale)), scale

    def has_zero_weight(self) -> bool:
        return any(w == 0 for w in self._weights.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._weights == other._weights)

    def __hash__(self):
        return hash((self.n, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Instance text format


def _parse_weight_token(token: str, line: int) -> Weight:
    num, slash, den = token.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        den = 0
    if den <= 0:
        raise InstanceFormatError(f"malformed weight {token!r}", line)
    return Fraction(num, den)


#: Largest vertex count a file header may declare, so that a ten-byte header
#: cannot ask for unbounded memory.  Only the gmvd/gmvid greedy builds an
#: n x n distance table; an entry is an 8-byte pointer plus its own int or
#: Fraction: about 40 bytes for an int and 80 or more for a Fraction on
#: CPython 3.11 (measured at n = 300), so its table at 10 000 vertices takes
#: 4 GB or more.
MAX_VERTICES = 10_000


class LineReader:
    """The significant lines of a text file, read one at a time by shape.

    Every file format goes through this reader: ``#`` starts a comment,
    blank lines are skipped, and every error names its 1-based line.  A
    shape such as ``"u v w"`` or ``"LB s t L"`` names the fields of a line: a
    leading field in capitals is a keyword the line must start with, ``w``
    is a weight, ``n`` a vertex count in [1, MAX_VERTICES], ``m`` and ``k``
    counts that must be nonnegative, and any other field an integer.
    """

    def __init__(self, text: str):
        raw_lines = text.splitlines()
        self._rows = ((lineno, tokens) for lineno, raw in enumerate(raw_lines, start=1)
                      if (tokens := raw.split("#", 1)[0].split()))
        self._eof = len(raw_lines) + 1
        self.lineno = 0  # line last read

    def read(self, shape: str, missing: str | None = None, label: str = "") -> tuple | None:
        """The next line's values.  At the end of the file this raises the
        error ``missing``, or returns None when ``missing`` is None."""
        self.lineno, tokens = next(self._rows, (self._eof, None))
        if tokens is None:
            if missing is None:
                return None
            raise InstanceFormatError(missing, self.lineno)
        return self._values(shape, tokens, label)

    def end(self) -> None:
        lineno, tokens = next(self._rows, (None, None))
        if tokens is not None:
            raise InstanceFormatError(f"unexpected trailing content {' '.join(tokens)!r}",
                                      lineno)

    def _values(self, shape: str, tokens: list[str], label: str) -> tuple:
        fields = shape.split()
        skip = 1 if fields[0].isupper() else 0  # the keyword field
        mismatch = f"expected {label}{shape!r}, got {' '.join(tokens)!r}"
        if len(tokens) != len(fields) or tokens[:skip] != fields[:skip]:
            raise InstanceFormatError(mismatch, self.lineno)
        values = []
        for field, token in zip(fields[skip:], tokens[skip:]):
            if field == "w":
                values.append(_parse_weight_token(token, self.lineno))
                continue
            try:
                value = int(token)
            except ValueError:
                raise InstanceFormatError(mismatch, self.lineno) from None
            if field == "n" and not 1 <= value <= MAX_VERTICES:
                raise InstanceFormatError(
                    f"vertex count must lie in [1, {MAX_VERTICES}], got {value}", self.lineno)
            if field in ("m", "k") and value < 0:
                raise InstanceFormatError(
                    f"count {field!r} must be nonnegative, got {value}", self.lineno)
            values.append(value)
        return tuple(values)

    @contextmanager
    def blame(self):
        """Report a ValueError raised inside as a format error on the line last read."""
        try:
            yield
        except InstanceFormatError:
            raise
        except ValueError as exc:
            raise InstanceFormatError(str(exc), self.lineno) from None

    def graph(self, *, weighted: bool = True) -> "Graph":
        """The ``n m`` header and m edge lines (unweighted: weight 1) of every
        graph format.  Graph checks each edge as it consumes its line."""
        n, m = self.read("n m", "empty instance", "header ")
        rows = (self.read("u v w" if weighted else "u v", f"expected {m} edge lines, got {i}")
                for i in range(m))
        with self.blame():
            return Graph(n, rows if weighted else ((u, v, 1) for u, v in rows))


def parse_instance(text: str) -> Graph:
    """Parse the shared edge-list instance format.

    First significant line is ``n m``; then exactly m lines ``u v w`` where w
    is a positive integer or fraction ``p/q``.  ``#`` starts a comment.  All
    violations are reported with their line number.
    """
    lines = LineReader(text)
    g = lines.graph()
    lines.end()
    return g


def parse_cover(text: str, g: Graph) -> list[Edge]:
    """Parse a cover file, one edge ``u v`` per line, each an edge of ``g``."""
    lines = LineReader(text)
    cover = []
    while (row := lines.read("u v")) is not None:
        e = canonical_edge(*row)
        if not g.has_edge(*e):
            raise InstanceFormatError(f"cover edge {e} is not an edge of the instance",
                                      lines.lineno)
        cover.append(e)
    return cover


def format_weight(w: Weight) -> str:
    """Render a rational exactly: integer or ``p/q``."""
    if w == INFINITY:
        return "inf"
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def serialize_instance(g: Graph) -> str:
    """Canonical text form; ``parse_instance`` round-trips it exactly."""
    out = [f"{g.n} {g.m}"]
    for (u, v), w in g.edge_items():
        out.append(f"{u} {v} {format_weight(w)}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Shortest paths


def dijkstra(g: Graph, source: int) -> tuple[list, list]:
    """Single-source shortest paths with exact weights over every edge of
    ``g``; a search that must avoid an edge set S runs on ``g.without_edges(S)``.

    Returns (dist, parent); dist entries are exact weights (ints when every
    weight is an int) or INFINITY, parent is a deterministic shortest-path
    tree (ties resolved by heap order on (distance, vertex id), updates on
    strict improvement only).
    """
    n = g.n
    dist: list = [INFINITY] * n
    parent: list = [None] * n
    done = [False] * n
    dist[source] = 0
    heap: list[tuple[Weight, int]] = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g.neighbors(u):
            if done[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def _path_from_parents(parent: list, source: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        prev = parent[path[-1]]
        if prev is None:
            raise InternalConsistencyError(f"no parent chain from {target} to {source}")
        path.append(prev)
    path.reverse()
    return path


class DistanceTables:
    """All-pairs shortest-path distances and shortest-path counts.

    ``dist(u, v)`` is exact (INFINITY when unreachable); ``spcount(u, v)`` is
    the number of distinct shortest u-v paths as an unbounded integer, with
    the conventions spcount(v, v) = 1 and spcount = 0 for unreachable pairs.
    Immutable after construction.  Only the greedy needs these n x n tables;
    a question about one distance per edge goes through :func:`edge_distances`.
    """

    __slots__ = ("n", "_dist", "_count")

    def __init__(self, n: int, dist_rows: list[list], count_rows: list[list[int]]):
        self.n = n
        self._dist = dist_rows
        self._count = count_rows

    def dist(self, u: int, v: int):
        return self._dist[u][v]

    def spcount(self, u: int, v: int) -> int:
        return self._count[u][v]

    def row(self, u: int) -> tuple[list, list[int]]:
        """Rows ``dist(u, .)`` and ``spcount(u, .)`` for scans over many
        targets: the tables' own lists, which callers must only read."""
        return self._dist[u], self._count[u]


def all_pairs_shortest_paths(g: Graph) -> DistanceTables:
    """Build the full distance and path-count tables.

    Counts are obtained per source by processing vertices in increasing
    distance and summing the counts of the predecessors that realize that
    distance; strictly positive weights make the recurrence well founded, so
    counting demands a zero-free graph.
    """
    if g.has_zero_weight():
        raise ValueError("path counting requires strictly positive weights")
    dist_rows: list[list] = []
    count_rows: list[list[int]] = []
    for s in range(g.n):
        dist, _ = dijkstra(g, s)
        dist_rows.append(dist)
        row = [0] * g.n
        row[s] = 1
        order = sorted((d, v) for v, d in enumerate(dist) if v != s and d != INFINITY)
        for d, v in order:
            total = 0
            for x, w in g.neighbors(v):
                dx = dist[x]
                if dx != INFINITY and dx + w == d:
                    total += row[x]
            row[v] = total
        count_rows.append(row)
    return DistanceTables(g.n, dist_rows, count_rows)


def edge_distances(h: Graph, edges: Iterable[tuple[Edge, Weight]]) -> Iterator[tuple]:
    """``(edge, weight, d(u, v) in h, parent row of u)`` for each of the
    sorted ``(edge, weight)`` pairs.

    One Dijkstra run in ``h`` per distinct lower endpoint u, and only one
    row held at a time: the way to ask one distance per edge without an
    n x n table.  The edges need not be edges of ``h``.
    """
    source = None
    for (u, v), w in edges:
        if u != source:
            source = u
            dist, parent = dijkstra(h, u)
        yield (u, v), w, dist[v], parent


# ---------------------------------------------------------------------------
# Deficits and covers


def graph_deficit(g: Graph, tables: DistanceTables) -> Weight:
    """Maximum cycle deficit, computed as max(w(e) - d(endpoints), 0).

    Every cycle's deficit is at most its top edge's excess over the endpoint
    distance, and each positive excess is realized by the cycle closing the
    edge with a shortest path, so the edge scan equals the cycle maximum.
    """
    best = 0
    for (u, v), w in g.edge_items():
        excess = w - tables.dist(u, v)
        if excess > best:
            best = excess
    return best


@dataclass(frozen=True)
class CycleWitness:
    """An explicit unbalanced cycle: top edge, the ordered non-top path, deficit."""

    top: Edge
    nontop: tuple[Edge, ...]
    deficit: Weight

    @property
    def edges(self) -> tuple[Edge, ...]:
        return (self.top,) + self.nontop

    def __str__(self) -> str:
        path = " ".join(f"({u},{v})" for u, v in self.nontop)
        return f"top ({self.top[0]},{self.top[1]}) nontop [{path}] deficit {format_weight(self.deficit)}"


class CoverKind(Enum):
    """Which part of every unbalanced cycle a cover must contain."""

    REGULAR = "regular"
    NONTOP = "nontop"
    TOP = "top"


def _check_edge_subset(g: Graph, edges: Iterable[Edge], label: str) -> frozenset[Edge]:
    out = frozenset(canonical_edge(*e) for e in edges)
    for e in out:
        if e not in g._weights:
            raise ValueError(f"{label} contains non-edge {e}")
    return out


def find_uncovered_cycle(g: Graph, top_cover: Iterable[Edge],
                         nontop_cover: Iterable[Edge]) -> CycleWitness | None:
    """Find an unbalanced cycle escaping (top_cover as tops, nontop_cover as non-tops).

    A cycle escapes iff its top edge is outside ``top_cover`` and none of its
    non-top edges lie in ``nontop_cover``.  Equivalently: some edge e = (u, v)
    not in ``top_cover`` has dist(u, v) < w(e) in the graph without the
    ``nontop_cover`` edges (such a shortest path is simple and cannot use e).
    Returns a maximum-deficit witness, ties broken by lexicographic top edge,
    or None when every unbalanced cycle is covered.
    """
    a = _check_edge_subset(g, top_cover, "top_cover")
    b = _check_edge_subset(g, nontop_cover, "nontop_cover")
    h = g.without_edges(b) if b else g  # the graph searched; top weights stay g's
    best: tuple[Weight, Edge, list] | None = None  # deficit, top, its parent row
    tops = ((e, w) for e, w in g.edge_items() if e not in a)
    for e, w, d, parent in edge_distances(h, tops):
        if d < w:  # before w - d: an unreachable float d must not meet a huge w
            deficit = w - d
            if best is None or deficit > best[0]:
                best = (deficit, e, parent)
    if best is None:
        return None
    deficit, (u, v), parent = best
    vertices = _path_from_parents(parent, u, v)
    nontop = tuple(canonical_edge(x, y) for x, y in zip(vertices, vertices[1:]))
    return CycleWitness(top=(u, v), nontop=nontop, deficit=deficit)


def is_metric(g: Graph) -> bool:
    """True iff every edge weight equals its endpoints' shortest-path distance,
    that is, no edge is heavier than that distance."""
    return find_uncovered_cycle(g, (), ()) is None


def validate_cover(g: Graph, cover: Iterable[Edge], kind: CoverKind) -> CycleWitness | None:
    """None when ``cover`` is a valid cover of the given kind, else a witness cycle."""
    s = frozenset(canonical_edge(*e) for e in cover)
    if kind is CoverKind.REGULAR:
        return find_uncovered_cycle(g, s, s)
    if kind is CoverKind.NONTOP:
        return find_uncovered_cycle(g, frozenset(), s)
    if kind is CoverKind.TOP:
        return find_uncovered_cycle(g, s, frozenset())
    raise ValueError(f"unknown cover kind {kind!r}")
