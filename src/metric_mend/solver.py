"""Deficit-layered greedy cover solver and its counting primitives.

The solver repeatedly finds the current maximum cycle deficit from one
distance per edge, counts for every edge how many maximum-deficit unbalanced
cycles it lies on (as top and/or non-top edge, from the distances and path
counts of the tight tops' endpoints alone; no n x n table), removes the edge
with the largest count from the working graph, and stops when no unbalanced
cycle remains.  The removed edges form a regular cover (full variant) or a
non-top cover (increase-only variant) of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    CoverKind,
    DistanceTables,
    Edge,
    Graph,
    INFINITY,
    InternalConsistencyError,
    Weight,
    canonical_edge,
    edge_distances,
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


def count_report(g: Graph, tables: DistanceTables, delta: Weight,
                 kind: ProblemKind) -> dict[Edge, CountReport]:
    """Counts for every edge at the maximum deficit ``delta``; the greedy score
    is n_top + n_nontop for the full problem and n_nontop alone for the
    increase-only problem.

    The counts equal :func:`count_top` and :func:`count_nontop` edge by edge,
    but are gathered from the tops.  At the maximum deficit a cycle topped by
    f = (a, b) closes f with a shortest path, so only tight tops (w_f =
    d(a, b) + delta) have cycles, and those are f plus a shortest a-b path.
    Each tight top adds count_nontop's two orientation terms to every edge,
    reading the a and b table rows once: O(tight tops * m) per call instead
    of O(m^2).  Rows are needed only at tight tops' endpoints: a top whose
    lower endpoint has no row is skipped, any other fails the tightness test.
    """
    if delta <= 0:
        raise ValueError("counts are defined for positive deficit only")
    edges = g.edge_items()
    n_top = dict.fromkeys((e for e, _ in edges), 0)
    n_nontop = dict.fromkeys(n_top, 0)
    for (a, b), w_f in edges:
        if (row_a := tables.row(a)) is None:
            continue
        dist_a, count_a = row_a
        rest = w_f - delta  # the length of the non-top path of f's cycles
        if dist_a[b] != rest:
            continue
        dist_b, count_b = tables.row(b)
        n_top[(a, b)] = count_a[b]
        # f itself satisfies neither equation, since delta > 0
        for e, w_e in edges:
            s, t = e
            if dist_a[s] == INFINITY:  # e lies in another component than f
                continue
            if dist_a[s] + w_e + dist_b[t] == rest:
                n_nontop[e] += count_a[s] * count_b[t]
            if dist_b[s] + w_e + dist_a[t] == rest:
                n_nontop[e] += count_b[s] * count_a[t]
    reports = {}
    for e, top in n_top.items():
        nontop = n_nontop[e]
        score = nontop if kind is ProblemKind.GMVID else top + nontop
        reports[e] = CountReport(edge=e, n_top=top, n_nontop=nontop, count=score)
    return reports


def greedy_solve(g: Graph, kind: ProblemKind) -> CoverSolution:
    """Greedy cover construction, one maximum-count edge per round.

    Each round takes the maximum deficit delta as the largest excess w - d
    over the edges the last round found violated, counts every edge at delta
    from the rows of the tight tops' (excess delta) endpoints, removes the
    argmax (ties: lexicographically smallest edge), and repeats until the
    deficit reaches zero.  The result is verified as a cover of the requested
    kind on the original graph.  Counting needs positive weights.
    """
    if kind not in (ProblemKind.GMVD, ProblemKind.GMVID):
        raise ValueError("greedy_solve handles the GMVD and GMVID problems")
    if g.has_zero_weight():
        raise ValueError("path counting requires strictly positive weights")
    work, violated = g, g.edge_items()
    selected: list[Edge] = []
    layers: list[Weight] = []
    for _ in range(g.m + 1):
        excess = {e: w - d for e, w, d, _ in edge_distances(work, violated) if d < w}
        if not excess:
            break
        delta = max(excess.values())
        ends = {v for e, x in excess.items() if x == delta for v in e}  # of tight tops
        tables = DistanceTables({v: shortest_path_counts(work, v) for v in ends})
        if not layers or delta != layers[-1]:
            layers.append(delta)
        reports = count_report(work, tables, delta, kind)
        best = max(work.edges(), key=lambda e: reports[e].count)  # first on ties
        if reports[best].count == 0:
            raise InternalConsistencyError(
                "positive deficit but all edge counts are zero")
        selected.append(best)
        work = work.without_edges([best])
        # removing an edge only lengthens distances, so no other edge turns violated
        violated = [(e, work.weight(*e)) for e in excess if e != best]
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
    endpoints' shortest-path distance, mapped to that distance.  Setting
    every such edge to its distance repairs the graph, and no table is built."""
    return {e: d for e, w, d, _ in edge_distances(g, g.edge_items()) if d < w}
