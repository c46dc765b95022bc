"""Turn a validated cover into an actual metric graph.

A regular cover is first partitioned into increase-only and decrease-only
halves by one Dijkstra run per cover edge, stopped at that edge's weight, and
one confirming cycle search (a non-top cover is already an increase half,
with an empty decrease half); the adjustment loop then repeatedly picks an
unbalanced cycle and applies a safe weight move on one of its covered edges
until no unbalanced cycle remains.  A move is safe when it creates no
unbalanced cycle that escapes the (decrease half as top cover, increase half
as non-top cover) pair, which `find_uncovered_cycle` decides exactly.
Each move jumps as far as its limit allows, so one move does the work of
many of the existence argument's unit steps.  Both limits are closed forms:
an increase of a non-top edge stops at the shortest path between its
endpoints that avoids the increase half or at the deficit, whichever comes
first (one Dijkstra run, stopped where the deficit would take the edge), and
a decrease of the top edge goes straight to balancing the witness cycle,
which the split invariant makes safe (see `_apply_safe_move`).  The loop runs
one cycle search per move and none to probe a move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    CoverKind,
    CycleWitness,
    Edge,
    Graph,
    INFINITY,
    InternalConsistencyError,
    Weight,
    _check_edge_subset,
    canonical_edge,
    dijkstra,
    edge_distances,
    find_uncovered_cycle,
    format_weight,
    is_metric,
    validate_cover,
)
from .solver import ProblemKind


class CoverInvalidError(ValueError):
    """The supplied edge set is not a cover of the required kind."""

    def __init__(self, message: str, witness: CycleWitness | None = None):
        super().__init__(message if witness is None else f"{message}: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class SplitCover:
    """A regular cover partitioned into increase-only and decrease-only halves."""

    s_plus: frozenset[Edge]
    s_minus: frozenset[Edge]

    def __post_init__(self):
        if self.s_plus & self.s_minus:
            raise ValueError("increase and decrease halves must be disjoint")


@dataclass(frozen=True)
class RepairOutcome:
    """Repaired graph and the move count; the changed weights are those of
    ``graph`` that differ from the input's."""

    graph: Graph
    steps: int


def split_cover(g: Graph, cover: Iterable[Edge]) -> SplitCover:
    """Partition a regular cover so every unbalanced cycle is non-top covered
    by the plus half or top covered by the minus half.

    Edges are placed one at a time in sorted order.  Before b is placed, no
    cycle escapes with the minus half and the unplaced edges exempt as tops
    and ``cover - s_minus`` blocked as non-tops; the upfront cover check makes
    this hold at the start.  Placing b in the plus half stops exempting b and
    nothing else, so it lets a cycle escape exactly when one topped by b
    avoids ``cover - s_minus``: when d(x, y) < w_b for b = (x, y) in the graph
    without those edges, which one Dijkstra run stopped at w_b decides.  Then
    b goes to the minus half, which the split lemma guarantees fits.  The
    exempt and blocked sets only shrink as the loop runs, so a cycle that
    escapes after any step still escapes at the end, and one final cycle
    search checks every step.
    """
    cover_set = frozenset(canonical_edge(*e) for e in cover)
    witness = validate_cover(g, cover_set, CoverKind.REGULAR)
    if witness is not None:
        raise CoverInvalidError("not a regular cover", witness)
    s_minus: set[Edge] = set()
    h = g.without_edges(cover_set)  # g - (cover - s_minus), rebuilt when s_minus grows
    for b in sorted(cover_set):
        [(_, w_b, d, _)] = edge_distances(h, [(b, g.weight(*b))])
        if d < w_b:
            s_minus.add(b)
            h = g.without_edges(cover_set - s_minus)
    split = SplitCover(s_plus=cover_set - s_minus, s_minus=frozenset(s_minus))
    witness = find_uncovered_cycle(g, split.s_minus, split.s_plus)
    if witness is not None:
        raise InternalConsistencyError(f"split leaves a cycle uncovered: {witness}")
    return split


def repair_weights(g: Graph, split: SplitCover) -> RepairOutcome:
    """Adjust cover-edge weights until the graph is metric.

    ``split`` gives the edges that may only rise (``s_plus``) and those that
    may only fall (``s_minus``); for the full problem it comes from
    :func:`split_cover`, and the increase-only problem is the same repair
    with an empty decrease half.  Weights are scaled to integers by the least
    common denominator, moves never push a weight above the original maximum
    L and never reach 0, and the loop stops at the first metric state rather
    than driving the cover to the extremes.  Each move jumps as far as its
    limit allows, shifting one weight monotonically within (0, L] by at least
    one scaled unit, so the cover size times the scaled L bounds the moves.
    """
    s_plus, s_minus = split.s_plus, split.s_minus
    witness = find_uncovered_cycle(g, s_minus, s_plus)
    if witness is not None:
        raise CoverInvalidError("split cover leaves a cycle uncovered", witness)

    work, factor = g.integer_scaled()
    cap = max((w for _, w in work.edge_items()), default=0)  # no move may exceed this
    max_moves = (len(s_plus) + len(s_minus)) * cap + 1
    steps = 0

    for _ in range(max_moves):
        witness = find_uncovered_cycle(work, frozenset(), frozenset())
        if witness is None:
            break
        moved = _apply_safe_move(work, witness, s_plus, s_minus)
        if moved is None:
            raise InternalConsistencyError(
                f"no safe move on witness cycle {witness}")
        work = moved
        steps += 1
    else:
        raise InternalConsistencyError("repair exceeded its move budget")

    return RepairOutcome(graph=work.scaled(Fraction(1, factor)), steps=steps)


def _apply_safe_move(work: Graph, witness: CycleWitness, s_plus: frozenset[Edge],
                     s_minus: frozenset[Edge]) -> Graph | None:
    """One committed move on the witness cycle, or None if no candidate is safe."""
    deficit = witness.deficit
    raisable = sorted(set(witness.nontop) & s_plus)
    h = work.without_edges(s_plus) if raisable else None
    for f in raisable:
        w_f = work.weight(*f)
        # raising f is safe up to the shortest f-endpoint path that avoids the
        # increase half entirely: only cycles topped by f can become unbalanced,
        # and those are escape cycles exactly when such a shorter path exists.
        [(_, _, limit, _)] = edge_distances(h, [(f, w_f + deficit)])
        if limit > w_f:
            return work.with_weight(f, limit)

    t = witness.top
    if t in s_minus:
        # lowering t = (x, y) to v >= w_t - deficit, the length of the witness
        # path P, is always safe here.  No cycle escapes on entry, so a new
        # escape must run through t as a non-top edge: some f = (a, b) outside
        # the decrease half with w_f > d(a, x) + v + d(y, b), d taken without
        # the increase half and t.  The loop above left every increase edge g
        # on P tight, so some path of length <= w_g < w_t avoiding the increase
        # half (hence t) stands in for g, giving d(x, y) <= |P| <= v; and since
        # d(a, b) >= w_f on entry, no such f exists.  The shortest-path limit
        # of a decrease therefore never binds before the deficit does.
        return work.with_weight(t, work.weight(*t) - deficit)
    return None


@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting zero-weight edges back to positive values."""

    graph: Graph
    lifted: Mapping[Edge, Weight]
    unresolved: frozenset[Edge]


def lift_zero_edges(g: Graph) -> LiftResult:
    """Raise zero-weight edges of a metric graph to positive values.

    Each zero edge is set to the shortest-path distance between its endpoints
    over the remaining edges whenever that distance is positive and finite;
    matching an existing path's weight cannot create an unbalanced cycle.
    Passes repeat until stable, since one lift can make another possible.
    Edges with no positive alternative path are reported, not hidden.
    """
    if not is_metric(g):
        raise ValueError("lift_zero_edges expects a metric graph")
    work = g
    lifted: dict[Edge, Weight] = {}
    while True:
        progressed = False
        for e in work.edges():
            if work.weight(*e) != 0:
                continue
            dist, _ = dijkstra(work.without_edges([e]), e[0])
            alt = dist[e[1]]
            if alt != INFINITY and alt > 0:
                work = work.with_weight(e, alt)
                lifted[e] = alt
                progressed = True
        if not progressed:
            break
    unresolved = frozenset(e for e in work.edges() if work.weight(*e) == 0)
    return LiftResult(graph=work, lifted=lifted, unresolved=unresolved)


def export_lp(g: Graph, cover: Iterable[Edge], kind: ProblemKind) -> str:
    """Emit the weight-feasibility linear program as deterministic text.

    Variables a_<i>_<j> (i < j) cover all vertex pairs.  Edges outside the
    cover are fixed to their weight; free pairs get a lower bound of 0, or of
    the current weight for cover edges in the increase-only variant.  Every
    triangle inequality over distinct triples appears once per orientation.
    The program is a pure feasibility check (objective: minimize 0), printed
    with exact rationals.
    """
    if kind not in (ProblemKind.GMVD, ProblemKind.GMVID):
        raise ValueError("the feasibility program covers the GMVD and GMVID problems")
    s = _check_edge_subset(g, cover, "cover")

    def var(i: int, j: int) -> str:
        i, j = canonical_edge(i, j)
        return f"a_{i}_{j}"

    lines = ["minimize 0", "subject to"]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for k in range(j + 1, g.n):
                for (x, y), (p, q), (r, t) in (((i, j), (i, k), (j, k)),
                                               ((i, k), (i, j), (j, k)),
                                               ((j, k), (i, j), (i, k))):
                    lines.append(
                        f"tri_{x}_{y}_via_{(set((i, j, k)) - {x, y}).pop()}:"
                        f" {var(x, y)} - {var(*(p, q))} - {var(*(r, t))} <= 0")
    lines.append("bounds")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            pair = (i, j)
            if g.has_edge(i, j) and pair not in s:
                lines.append(f"{var(i, j)} = {format_weight(g.weight(i, j))}")
            elif kind is ProblemKind.GMVID and pair in s:
                lines.append(f"{var(i, j)} >= {format_weight(g.weight(i, j))}")
            else:
                lines.append(f"{var(i, j)} >= 0")
    lines.append("end")
    return "\n".join(lines) + "\n"
