"""Graph model, exact shortest-path machinery, and unbalanced-cycle checkers.

Everything downstream (solver, repair, reductions, oracle) is built on the
primitives in this module.  All weight arithmetic is exact: an integral weight
is stored as an ``int`` and any other weight as a ``Fraction``, so a graph
scaled by :meth:`Graph.integer_scaled` runs on plain integers.  There is
deliberately no floating point anywhere near a comparison; ``INFINITY`` is
only the unreachable sentinel.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import groupby
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

    The constructor checks each edge it is given (ids in range, no self-loop
    or duplicate, an exact weight above zero; a float is refused) and fixes
    the edge order: (u, v) lexicographic.  Immutable after that; the
    "mutators" (:meth:`with_weight`, :meth:`without_edges`, :meth:`scaled`)
    build new graphs from the checked, sorted weights and check only what
    they are given, so a search on G minus S runs on ``without_edges(S)``.
    :meth:`with_weight` is the one way to set a zero weight; the repair never
    does, and ``repair.lift_zero_edges`` accepts a graph that has some.

    Being immutable, a graph keeps the answers of its cycle checks: the memo
    maps each ``(top cover, non-top cover)`` pair that
    :func:`find_uncovered_cycle` has searched to its witness or None.  A
    derived graph is a new object and starts with an empty memo.
    """

    __slots__ = ("n", "_weights", "_adj", "_checks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, object]]):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
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
            if wf <= 0:
                raise ValueError(f"nonpositive weight {wf} on edge {e}")
            weights[e] = wf
        self._fill(n, dict(sorted(weights.items())))

    def _fill(self, n: int, weights: dict[Edge, Weight]) -> "Graph":
        """Store checked ``weights``, already in edge order, and their rows."""
        self.n, self._weights = n, weights
        # x's edges (a, x), a < x, come before (x, b), b > x: rows fill in neighbour order
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
        for (u, v), wf in weights.items():
            adj[u].append((v, wf))
            adj[v].append((u, wf))
        self._adj = adj
        self._checks = {}  # (top cover, non-top cover) -> witness or None
        return self

    @property
    def m(self) -> int:
        return len(self._weights)

    def edges(self) -> list[Edge]:
        """Edge pairs in (u, v) lexicographic order."""
        return list(self._weights)

    def edge_items(self) -> list[tuple[Edge, Weight]]:
        return list(self._weights.items())

    def weight(self, u: int, v: int) -> Weight:
        return self._weights[canonical_edge(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._weights

    def neighbors(self, u: int) -> list[tuple[int, Weight]]:
        return self._adj[u]

    def with_weight(self, edge: Edge, w) -> "Graph":
        e = canonical_edge(*edge)
        if e not in self._weights:
            raise KeyError(f"no edge {e}")
        if (wf := _as_weight(w)) < 0:
            raise ValueError(f"negative weight {wf} on edge {e}")
        return Graph.__new__(Graph)._fill(self.n, {**self._weights, e: wf})

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        drop = {canonical_edge(*e) for e in edges}
        if missing := drop - self._weights.keys():
            raise KeyError(f"no edge {min(missing)}")
        weights = {e: wf for e, wf in self._weights.items() if e not in drop}
        return Graph.__new__(Graph)._fill(self.n, weights)

    def scaled(self, factor) -> "Graph":
        """Multiply every weight by a positive rational factor (1: this graph)."""
        f = _as_weight(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        if f == 1:
            return self
        weights = {e: _as_weight(wf * f) for e, wf in self._weights.items()}
        return Graph.__new__(Graph)._fill(self.n, weights)

    def integer_scaled(self) -> tuple["Graph", int]:
        """``(self scaled by L, L)``, with L the least common multiple of the
        weight denominators, so every weight of the scaled graph is an int.

        Every sum and comparison of weights scales by the same positive L, so
        anything decided on the scaled graph holds for this one; a weight w
        found there maps back exactly as ``Fraction(w, L)``.
        """
        scale = math.lcm(*(w.denominator for w in self._weights.values()))
        return self.scaled(scale), scale

    def has_zero_weight(self) -> bool:
        return any(w == 0 for w in self._weights.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._weights == other._weights)

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
    return Fraction(num, den) if slash else num


#: Largest vertex count a file header may declare, so that a ten-byte header
#: cannot ask for unbounded memory.  No stage builds an n x n table: the
#: gmvd/gmvid greedy holds counted rows of n entries only at the endpoints of
#: a round's tight tops, and every other search one Dijkstra row at a time.
#: A row entry is an 8-byte pointer plus its own int, about 40 bytes, or
#: Fraction, 80 bytes or more, on CPython 3.11 (measured at n = 300).
MAX_VERTICES = 10_000
_pow10 = functools.cache((10).__pow__)


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
        if len(tokens) != len(fields) or tokens[:skip] != fields[:skip]:
            raise self._mismatch(shape, tokens, label)
        values = []
        for field, token in zip(fields[skip:], tokens[skip:]):
            if field == "w":
                values.append(_parse_weight_token(token, self.lineno))
                continue
            try:
                value = int(token)
            except ValueError:
                raise self._mismatch(shape, tokens, label) from None
            if field == "n" and not 1 <= value <= MAX_VERTICES:
                raise InstanceFormatError(
                    f"vertex count must lie in [1, {MAX_VERTICES}], got {value}", self.lineno)
            if field in ("m", "k") and value < 0:
                raise InstanceFormatError(
                    f"count {field!r} must be nonnegative, got {value}", self.lineno)
            values.append(value)
        return tuple(values)

    def _mismatch(self, shape: str, tokens: list[str], label: str) -> InstanceFormatError:
        return InstanceFormatError(f"expected {label}{shape!r}, got {' '.join(tokens)!r}",
                                   self.lineno)

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
            return Graph(n, self._printable(rows) if weighted else ((u, v, 1) for u, v in rows))

    def _printable(self, rows: Iterator[tuple]) -> Iterator[tuple]:
        """The weighted rows, up to the first line after which a reported number
        (numerator at most 2 * L * max(1, max w) over a divisor of the common
        denominator L) could pass the int-to-str digit limit: an input error."""
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before 3.10.7
        scale, num, den = 1, 1, 1  # L and max(1, max w) = num / den so far
        for u, v, w in rows:
            p, q = w.numerator, w.denominator
            if scale % q or p * den > num * q:  # in ints: a Fraction comparison is slower
                scale = math.lcm(scale, q)
                num, den = (p, q) if p * den > num * q else (num, den)
                if limit and 2 * scale * num >= _pow10(limit) * den:
                    raise InstanceFormatError(f"weights need more than {limit} digits"
                                              " over their common denominator", self.lineno)
            yield u, v, w


def parse_instance(text: str) -> Graph:
    """Parse the shared edge-list instance format.

    First significant line is ``n m``; then exactly m lines ``u v w`` where w
    is a positive integer or fraction ``p/q`` that ``LineReader._printable``
    admits.  ``#`` starts a comment; every error names its line.
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
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def serialize_instance(g: Graph) -> str:
    """Canonical text form; ``parse_instance`` round-trips it exactly."""
    out = [f"{g.n} {g.m}"]
    for (u, v), w in g.edge_items():
        out.append(f"{u} {v} {format_weight(w)}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Shortest paths


def dijkstra(g: Graph, source: int, bound: Weight | float = INFINITY) -> tuple[list, list]:
    """Single-source shortest paths with exact weights over every edge of
    ``g``; a search that must avoid an edge set S runs on ``g.without_edges(S)``.

    Returns (dist, parent), a deterministic shortest-path tree: ties are
    resolved by heap order on (distance, vertex id) and updates happen on
    strict improvement only.  The search stops once the next distance it
    would settle reaches ``bound``.  A distance below ``bound`` is exact
    (ints when every weight is an int) and its parent is a tree edge, the
    same distance and parent an unbounded run gives.  Any other entry is
    INFINITY or a tentative value ``>= bound`` whose parent is not a tree
    edge; :func:`edge_distances` is the one reader of a bounded row, and it
    caps each entry at its edge's weight before any caller sees it.
    """
    n = g.n
    dist: list = [INFINITY] * n
    parent: list = [None] * n
    done = [False] * n
    dist[source] = 0
    heap: list[tuple[Weight, int]] = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d >= bound:
            break
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
    """Shortest-path distances and counts from some sources, a row for each.

    ``dist(u, v)`` is exact (INFINITY when unreachable); ``spcount(u, v)`` is
    the number of distinct shortest u-v paths as an unbounded integer, with
    the conventions spcount(v, v) = 1 and spcount = 0 for unreachable pairs.
    Immutable after construction.  The greedy holds rows at its tight tops'
    endpoints only; the full tables of :func:`all_pairs_shortest_paths` are a
    public reference that the acceptance criteria check against.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[int, tuple[list, list[int]]]):
        self._rows = rows

    def dist(self, u: int, v: int):
        return self._rows[u][0][v]

    def spcount(self, u: int, v: int) -> int:
        return self._rows[u][1][v]

    def row(self, u: int) -> tuple[list, list[int]] | None:
        """Rows ``dist(u, .)`` and ``spcount(u, .)``, the tables' own lists
        for callers to read only, or None when u has no row."""
        return self._rows.get(u)


def shortest_path_counts(g: Graph, source: int) -> tuple[list, list[int]]:
    """``(dist, count)``: an unbounded Dijkstra row from ``source`` and the
    number of distinct shortest paths to each vertex.

    Counts are summed in increasing distance over the neighbours that
    realize the distance (a neighbour of a reached vertex is reached); this
    recurrence needs strictly positive weights, which the caller checks.
    """
    dist, _ = dijkstra(g, source)
    count = [0] * g.n
    count[source] = 1
    for d, v in sorted((d, v) for v, d in enumerate(dist) if v != source and d != INFINITY):
        count[v] = sum(count[x] for x, w in g.neighbors(v) if dist[x] + w == d)
    return dist, count


def all_pairs_shortest_paths(g: Graph) -> DistanceTables:
    """The full n x n distance and path-count tables, one
    :func:`shortest_path_counts` row per vertex, of a zero-free graph."""
    if g.has_zero_weight():
        raise ValueError("path counting requires strictly positive weights")
    return DistanceTables({s: shortest_path_counts(g, s) for s in range(g.n)})


def edge_distances(h: Graph, edges: Iterable[tuple[Edge, Weight]]) -> Iterator[tuple]:
    """``(edge, w, d, parent row of u)`` for each of the sorted ``(edge, w)``
    pairs, with d = min(d(u, v) in ``h``, w): exact, so ``w - d`` is the
    edge's excess, 0 when the edge is not violated.  When d < w the parent
    row holds a shortest u-v path.

    One Dijkstra run in ``h`` per distinct lower endpoint u, stopped at the
    largest weight among u's listed edges, and only one row held at a time:
    the way to ask whether d(u, v) < w for each edge without an n x n table.
    A row entry at or above w shows only that d(u, v) >= w (past the bound
    it is INFINITY or tentative), so it reads as w.  The edges need not be
    edges of ``h``.
    """
    for u, group in groupby(edges, key=lambda item: item[0][0]):
        row = list(group)
        dist, parent = dijkstra(h, u, max(w for _, w in row))
        for (_, v), w in row:
            d = dist[v]
            yield (u, v), w, d if d < w else w, parent


# ---------------------------------------------------------------------------
# Deficits and covers


def graph_deficit(g: Graph, tables: DistanceTables) -> Weight:
    """Maximum cycle deficit, computed as max(w(e) - d(endpoints), 0); the
    greedy takes the same maximum from one :func:`edge_distances` pass.

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
    if missing := out - g._weights.keys():
        raise ValueError(f"{label} contains non-edge {min(missing)}")
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

    Both edge sets are checked on every call; the search itself runs once
    per graph and pair of sets, whose answer the graph's memo then keeps.
    """
    a = _check_edge_subset(g, top_cover, "top_cover")
    b = _check_edge_subset(g, nontop_cover, "nontop_cover")
    memo = g._checks
    if (a, b) not in memo:
        memo[a, b] = _uncovered_cycle(g, a, b)
    return memo[a, b]


def _uncovered_cycle(g: Graph, a: frozenset[Edge], b: frozenset[Edge]) -> CycleWitness | None:
    """The search behind :func:`find_uncovered_cycle`, on checked edge sets."""
    h = g.without_edges(b) if b else g  # the graph searched; top weights stay g's
    deficit, top, parent = 0, None, None  # the first maximum so far, and its row
    tops = ((e, w) for e, w in g.edge_items() if e not in a)
    for e, w, d, row in edge_distances(h, tops):
        if w - d > deficit:
            deficit, top, parent = w - d, e, row
    if top is None:
        return None
    vertices = _path_from_parents(parent, *top)
    nontop = tuple(canonical_edge(x, y) for x, y in zip(vertices, vertices[1:]))
    return CycleWitness(top=top, nontop=nontop, deficit=deficit)


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
