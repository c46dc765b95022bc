"""Deficit-layered greedy cover solver and its counting primitives.

The solver repeatedly finds the current maximum cycle deficit as the largest
edge excess, counts for every edge how many maximum-deficit unbalanced cycles
it lies on (as top and/or non-top edge, from the distances and path counts of
the tight tops' lower endpoints alone; no n x n table), removes the edge with
the largest count from the working graph, and stops when no unbalanced cycle
remains.  The removed edges form a regular cover (full variant) or a
non-top cover (increase-only variant) of the original graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    CoverKind,
    DistanceTables,
    Edge,
    Graph,
    INFINITY,
    InternalConsistencyError,
    Weight,
    canonical_edge,
    excess_map,
    excesses,
    shortest_path_counts,
    validate_cover,
)


class ProblemKind(Enum):
    """Which weight edits are allowed when turning the graph metric."""

    GMVD = "gmvd"      # arbitrary changes; needs a regular cover
    GMVID = "gmvid"    # increases only; needs a non-top cover
    GMVDD = "gmvdd"    # decreases only; exactly solvable

    @property
    def cover_kind(self) -> CoverKind:
        return {ProblemKind.GMVD: CoverKind.REGULAR,
                ProblemKind.GMVID: CoverKind.NONTOP,
                ProblemKind.GMVDD: CoverKind.TOP}[self]


class Role(Enum):
    INCREASE = "increase"
    DECREASE = "decrease"
    UNASSIGNED = "unassigned"


@dataclass(frozen=True)
class CoverSolution:
    """An ordered cover with per-edge roles and the deficit layers encountered."""

    kind: ProblemKind
    edges: tuple[Edge, ...]
    roles: tuple[Role, ...]
    layer_deficits: tuple[Weight, ...]

    def __post_init__(self):
        if len(self.edges) != len(set(self.edges)):
            raise ValueError("solution edges must be distinct")
        if len(self.roles) != len(self.edges):
            raise ValueError("one role per edge required")
        if any(a <= b for a, b in zip(self.layer_deficits, self.layer_deficits[1:])):
            raise ValueError("layer deficits must be strictly decreasing")

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CountReport:
    """Per-edge occurrence counts in maximum-deficit unbalanced cycles."""

    edge: Edge
    n_top: int
    n_nontop: int
    count: int


def count_top(g: Graph, tables: DistanceTables, delta: Weight, edge: Edge) -> int:
    """Number of deficit-``delta`` unbalanced cycles whose top edge is ``edge``.

    Valid only at delta = current maximum deficit: such a cycle must close its
    top edge with a shortest path, so the count is the shortest-path count
    when w(e) = d(s, t) + delta and zero otherwise.
    """
    s, t = canonical_edge(*edge)
    if g.weight(s, t) == tables.dist(s, t) + delta:
        return tables.spcount(s, t)
    return 0


def count_nontop(g: Graph, tables: DistanceTables, delta: Weight, edge: Edge) -> int:
    """Number of deficit-``delta`` unbalanced cycles containing ``edge`` as non-top.

    Scans candidate top edges f = (a, b).  A maximum-deficit cycle through
    both f and e = (s, t) consists of f plus shortest paths a-s and t-b (or
    b-s and t-a), so each orientation contributes the product of the two
    shortest-path counts whenever the exact length equation holds.  With
    exact arithmetic the two orientation equations are mutually exclusive on
    the degenerate shared-endpoint configurations, so nothing is double
    counted.
    """
    s, t = canonical_edge(*edge)
    w_e = g.weight(s, t)
    total = 0
    for (a, b), w_f in g.edge_items():
        # another component: all four distances are unreachable, no cycle
        if (a, b) == (s, t) or tables.dist(a, s) == INFINITY:
            continue
        if w_f == tables.dist(a, s) + w_e + tables.dist(t, b) + delta:
            total += tables.spcount(a, s) * tables.spcount(t, b)
        if w_f == tables.dist(b, s) + w_e + tables.dist(t, a) + delta:
            total += tables.spcount(b, s) * tables.spcount(t, a)
    return total


def _cycle_counts(g: Graph, tables: DistanceTables, delta: Weight,
                  tops: Iterable[tuple[Edge, Weight]]) -> tuple[dict[Edge, int], dict[Edge, int]]:
    """Sparse ``(n_top, n_nontop)`` over the deficit-``delta`` cycles topped
    by the ``(edge, w)`` pairs ``tops``, delta the maximum deficit of ``g``.

    At the maximum deficit a cycle topped by f = (a, b) closes f with a
    shortest path, so only tight tops (w_f = d(a, b) + delta) have cycles,
    and those are f plus a shortest a-b path: the row of a alone counts
    them.  On its shortest-path DAG, walked back from b in decreasing
    distance, tau[x] = sum of tau[y] over the successors y (tau[b] = 1)
    counts the shortest x-b paths, and a DAG edge (x, y) lies on
    count_a[x] * tau[y] of f's cycles: count_nontop's orientation term for
    the direction x -> y, without a row from b.  The walk ends at a, where
    tau[a] counts the shortest a-b paths: n_top of f, read without count_a[b].
    So a row bounded at w_f - delta serves (it counts only below its bound,
    and its distance at the bound is exact on positive weights).  A top
    whose lower endpoint has no row is skipped; any other non-tight top
    fails the tightness test.
    """
    n_top: dict[Edge, int] = {}
    n_nontop: dict[Edge, int] = {}
    for (a, b), w_f in tops:
        if (row := tables.row(a)) is None:
            continue
        dist, count = row
        rest = w_f - delta  # the length of the non-top path of f's cycles
        if dist[b] != rest:
            continue
        # f itself is no DAG edge, since delta > 0
        tau = {b: 1}
        heap = [(-rest, b)]
        while heap:
            d, y = heapq.heappop(heap)
            t_y = tau[y]
            for x, w in g.neighbors(y):
                if count[x] and dist[x] + w == -d:  # x reached: INFINITY + w can overflow
                    if x not in tau:
                        tau[x] = 0
                        heapq.heappush(heap, (-dist[x], x))
                    tau[x] += t_y
                    e = canonical_edge(x, y)
                    n_nontop[e] = n_nontop.get(e, 0) + count[x] * t_y
        n_top[(a, b)] = tau[a]
    return n_top, n_nontop


def count_report(g: Graph, tables: DistanceTables, delta: Weight,
                 kind: ProblemKind) -> dict[Edge, CountReport]:
    """Counts for every edge at the maximum deficit ``delta``; the greedy score
    is n_top + n_nontop for the full problem and n_nontop alone for the
    increase-only problem.

    The counts equal :func:`count_top` and :func:`count_nontop` edge by edge,
    but are gathered from the tight tops by the greedy's own accumulator,
    which walks each tight top's shortest paths once: O(m) plus, per tight
    top, the edges at its paths' vertices, instead of O(m^2).  Rows are
    needed only at tight tops' lower endpoints, and may be bounded at the
    largest w_f - delta among that endpoint's tops.
    """
    if delta <= 0:
        raise ValueError("counts are defined for positive deficit only")
    n_top, n_nontop = _cycle_counts(g, tables, delta, g.edge_items())
    reports = {}
    for e in g.edges():
        top, nontop = n_top.get(e, 0), n_nontop.get(e, 0)
        score = nontop if kind is ProblemKind.GMVID else top + nontop
        reports[e] = CountReport(edge=e, n_top=top, n_nontop=nontop, count=score)
    return reports


def greedy_solve(g: Graph, kind: ProblemKind) -> CoverSolution:
    """Greedy cover construction, one maximum-count edge per round.

    Each round takes the maximum deficit delta as the largest excess w - d,
    the first from the graph's :func:`excess_map` and each later one from
    the edges the last round found violated, counts the edges at delta
    from one counted row per tight top's (excess delta) lower endpoint,
    bounded at the longest shortest path those tops close, removes the
    argmax (ties: lexicographically smallest edge), and repeats until the
    deficit reaches zero.  The result is verified as a cover of the requested
    kind on the original graph.  Counting needs positive weights.
    """
    if kind not in (ProblemKind.GMVD, ProblemKind.GMVID):
        raise ValueError("greedy_solve handles the GMVD and GMVID problems")
    if g.has_zero_weight():
        raise ValueError("path counting requires strictly positive weights")
    work, excess = g, excess_map(g)
    selected: list[Edge] = []
    layers: list[Weight] = []
    for _ in range(g.m + 1):
        if not excess:
            break
        delta = max(excess.values())
        tops = [(e, work.weight(*e)) for e, x in excess.items() if x == delta]
        reach: dict[int, Weight] = {}  # lower endpoint -> its tops' longest rest
        for (a, _), w in tops:
            reach[a] = max(reach.get(a, 0), w - delta)
        tables = DistanceTables({a: shortest_path_counts(work, a, r) for a, r in reach.items()})
        if not layers or delta != layers[-1]:
            layers.append(delta)
        n_top, score = _cycle_counts(work, tables, delta, tops)
        if kind is ProblemKind.GMVD:
            for e, c in n_top.items():
                score[e] = score.get(e, 0) + c
        best = min(score, key=lambda e: (-score[e], e), default=None)  # first on ties
        if best is None or score[best] == 0:
            raise InternalConsistencyError(
                "positive deficit but all edge counts are zero")
        selected.append(best)
        work = work.without_edges([best])
        # removing an edge only lengthens distances, so no other edge turns violated
        excess = excesses(work, [(e, work.weight(*e)) for e in excess if e != best])
    else:
        raise InternalConsistencyError("cover loop failed to terminate")

    if validate_cover(g, selected, kind.cover_kind) is not None:
        raise InternalConsistencyError("greedy result is not a valid cover")
    role = Role.INCREASE if kind is ProblemKind.GMVID else Role.UNASSIGNED
    return CoverSolution(kind=kind, edges=tuple(selected),
                         roles=(role,) * len(selected),
                         layer_deficits=tuple(layers))


def solve_decrease_only(g: Graph) -> dict[Edge, Weight]:
    """Exact optimum for the decrease-only problem: each edge heavier than its
    endpoints' shortest-path distance, mapped to that distance, read from the
    graph's :func:`excess_map`.  Setting every such edge to its distance
    repairs the graph, and no table is built."""
    return {e: g.weight(*e) - x for e, x in excess_map(g).items()}
