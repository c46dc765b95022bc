"""Exponential-time ground truth for small instances.

Exhaustive unbalanced-cycle enumeration (one weight-bounded path search per
top edge, exponential in the worst case and bounded by a work budget),
brute-force minimum covers, and one brute-force minimum length-bounded cut,
which at bound n - 1 is the minimum multicut.  Everything here is the
independent second route against which the polynomial machinery is
verified; none of it consults the fast counting or checking code paths.
A cover is decided against the enumerated cycle inventory, never by the
polynomial checker `find_uncovered_cycle` that the greedy uses on itself,
so a fault in that checker cannot move the greedy and its ground truth
together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import inf

from .core import (
    CoverKind,
    CycleWitness,
    Edge,
    Graph,
    InstanceFormatError,
    Weight,
    canonical_edge,
)
from .solver import CoverSolution, ProblemKind, Role

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The configured work budget ran out before the search finished."""


@dataclass
class WorkBudget:
    """Work counter shared by the exhaustive searches; a limit of 0 allows no work."""

    limit: int
    used: int = 0

    def __post_init__(self):
        if self.limit < 0:
            raise InstanceFormatError(f"work budget must be nonnegative, got {self.limit}")

    def charge(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(f"work budget of {self.limit} exhausted")


@dataclass(frozen=True)
class CycleInventory:
    """Every unbalanced simple cycle of a graph, plus the distinct deficits."""

    cycles: tuple[CycleWitness, ...]
    distinct_deficits: tuple[Weight, ...]

    @property
    def max_deficit(self) -> Weight:
        return self.distinct_deficits[-1] if self.distinct_deficits else 0

    def __len__(self) -> int:
        return len(self.cycles)


def _witness_from_cycle(g: Graph, vertices: list[int]) -> CycleWitness:
    """The witness of an unbalanced cycle given in cyclic order.  Its top is
    its heaviest edge, which is unique: a second one would balance the cycle."""
    # edges[i] joins vertices[i] and vertices[i+1 mod k]
    k = len(vertices)
    cycle_edges = [canonical_edge(vertices[i], vertices[(i + 1) % k]) for i in range(k)]
    weights = [g.weight(*e) for e in cycle_edges]
    top_idx = max(range(k), key=weights.__getitem__)
    nontop = tuple(cycle_edges[top_idx + 1:] + cycle_edges[:top_idx])
    return CycleWitness(top=cycle_edges[top_idx], nontop=nontop,
                        deficit=2 * weights[top_idx] - sum(weights))


def _canonical(cycle: list[int]) -> list[int]:
    """``cycle`` rotated to start at its smallest vertex and turned so that
    the second vertex is smaller than the last: one order per cycle."""
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[1] > cycle[-1]:
        cycle[1:] = cycle[:0:-1]
    return cycle


def enumerate_unbalanced_cycles(g: Graph, budget: WorkBudget | None = None) -> CycleInventory:
    """Enumerate every simple cycle with positive deficit, each exactly once.

    An unbalanced cycle has one heaviest edge, its top e = (u, v), and the
    rest of it is a simple u-v path lighter than w(e).  So the search runs
    once per edge, in edge order, as a depth-first walk over the simple
    u-v paths of G - e.  It extends a path only while the path's length
    plus v's lightest edge to a vertex other than u stays below w(e), and
    it records a cycle when it reaches v with length below w(e); every
    path edge is then lighter than w(e), so each cycle is found once, from
    its top.  A found cycle goes to its witness in canonical order (the
    smallest vertex first, the second vertex below the last).

    The worst case is still exponential; the budget is charged one unit per
    neighbour the search examines and fails fast on oversized inputs.  The
    search keeps its own stack of neighbor iterators, one per path vertex,
    beside the path's prefix lengths, so path length is not bounded by the
    interpreter's recursion limit.
    """
    if budget is None:
        budget = WorkBudget(DEFAULT_BUDGET)
    found: list[CycleWitness] = []
    rows = [g.neighbors(u) for u in range(g.n)]
    on_path = [False] * g.n
    used, limit = budget.used, budget.limit
    try:
        for (u, v), top in g.edge_items():
            # a path to v ends with one of v's other edges; with none, nothing extends
            bound = top - min((w for x, w in rows[v] if x != u), default=top)
            path, lengths = [u], [0]  # lengths[i]: the length of path[:i + 1]
            on_path[u] = True
            pending = [iter(rows[u])]  # pending[i]: unvisited neighbors of path[i]
            while pending:
                length = lengths[-1]
                for y, w in pending[-1]:
                    used += 1
                    if used > limit:
                        raise BudgetExceededError(f"work budget of {limit} exhausted")
                    if y == v:  # from u itself this is e
                        if length + w < top and len(path) > 1:
                            found.append(_witness_from_cycle(g, _canonical(path + [v])))
                    elif length + w < bound and not on_path[y]:
                        path.append(y)
                        lengths.append(length + w)
                        on_path[y] = True
                        pending.append(iter(rows[y]))
                        break
                else:  # every neighbor of path[-1] tried: backtrack
                    pending.pop()
                    lengths.pop()
                    on_path[path.pop()] = False
    finally:
        budget.used = used

    found.sort(key=lambda w: (w.top, w.nontop))
    deficits = tuple(sorted({w.deficit for w in found}))
    return CycleInventory(cycles=tuple(found), distinct_deficits=deficits)


def brute_count(g: Graph, delta: Weight, edge: Edge, role: str,
                budget: WorkBudget | None = None,
                inventory: CycleInventory | None = None) -> int:
    """Count deficit-``delta`` unbalanced cycles in which ``edge`` plays ``role``.

    ``role`` is "top" or "nontop"; counting is a filter over the exhaustive
    inventory, nothing cleverer.  A precomputed inventory for the same graph
    may be passed to avoid re-enumeration across many queries.
    """
    if role not in ("top", "nontop"):
        raise ValueError(f"role must be 'top' or 'nontop', got {role!r}")
    e = canonical_edge(*edge)
    if inventory is None:
        inventory = enumerate_unbalanced_cycles(g, budget=budget)
    if role == "top":
        return sum(1 for c in inventory.cycles if c.deficit == delta and c.top == e)
    return sum(1 for c in inventory.cycles if c.deficit == delta and e in c.nontop)


def _first_subset(items: list, accepts, budget: WorkBudget | None) -> tuple:
    """First subset of ``items`` that ``accepts`` takes, smallest size first.

    Subsets are tried in `combinations` order, so the answer is the
    lexicographically first minimum; each subset tried costs one budget unit.
    """
    if budget is None:
        budget = WorkBudget(DEFAULT_BUDGET)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            budget.charge()
            if accepts(combo):
                return combo
    raise BudgetExceededError("subset search exhausted without an accepted subset")


def exact_min_cover(g: Graph, kind: CoverKind, budget: WorkBudget | None = None,
                    inventory: CycleInventory | None = None):
    """Minimum-cardinality cover by subset search, lexicographically first.

    A cover is a hitting set of the enumerated inventory: a subset is a
    regular cover when it meets every unbalanced cycle, and a non-top cover
    when it meets every cycle's non-top path.  Candidates are the edges that
    lie on such a cycle part (a minimum cover never contains a useless edge).
    A precomputed inventory of ``g`` may be passed; the budget then pays for
    the subset search alone.
    """
    if kind is CoverKind.REGULAR:
        problem, role = ProblemKind.GMVD, Role.UNASSIGNED
    elif kind is CoverKind.NONTOP:
        problem, role = ProblemKind.GMVID, Role.INCREASE
    else:
        raise ValueError("exact_min_cover supports regular and nontop covers")
    if budget is None:
        budget = WorkBudget(DEFAULT_BUDGET)
    if inventory is None:
        inventory = enumerate_unbalanced_cycles(g, budget=budget)
    parts = [c.edges if kind is CoverKind.REGULAR else c.nontop for c in inventory.cycles]
    candidates = sorted({e for part in parts for e in part})
    bit = {e: 1 << i for i, e in enumerate(candidates)}
    # a cycle's edges are distinct, so summing their bits is their union
    masks = {sum(bit[e] for e in part) for part in parts}

    def hits_every_cycle(combo: tuple[Edge, ...]) -> bool:
        chosen = sum(bit[e] for e in combo)
        return all(chosen & mask for mask in masks)

    cover = _first_subset(candidates, hits_every_cycle, budget)
    return CoverSolution(kind=problem, edges=cover, roles=(role,) * len(cover),
                         layer_deficits=())


# ---------------------------------------------------------------------------
# Brute-force source-problem optima for the reduction cross-checks


def _hop_counts(n: int, edges: list[Edge], removed: frozenset[Edge], source: int) -> list[float]:
    """Breadth-first hop counts from ``source`` once ``removed`` is deleted; inf if unreachable."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if (u, v) not in removed:
            adj[u].append(v)
            adj[v].append(u)
    hops = [inf] * n
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if hops[v] == inf:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def _brute_cut(n: int, edges: list[Edge], pairs: list[tuple[int, int]], bound: int,
               budget: WorkBudget | None) -> frozenset[Edge]:
    """Minimum edge set leaving every pair more than ``bound`` hops apart, by subset search."""
    edges = sorted(canonical_edge(*e) for e in edges)

    def separates(combo: tuple[Edge, ...]) -> bool:
        removed = frozenset(combo)
        return all(_hop_counts(n, edges, removed, s)[t] > bound for s, t in pairs)

    return frozenset(_first_subset(edges, separates, budget))


def brute_multicut(n: int, edges: list[Edge], demands: list[tuple[int, int]],
                   budget: WorkBudget | None = None) -> frozenset[Edge]:
    """Minimum edge set disconnecting all demand pairs: the length-bounded cut
    at bound n - 1, since a reachable vertex is at most n - 1 hops away."""
    return _brute_cut(n, edges, demands, n - 1, budget)


def brute_lbcut(n: int, edges: list[Edge], source: int, sink: int, bound: int,
                budget: WorkBudget | None = None) -> frozenset[Edge]:
    """Minimum edge set destroying every source-sink path of length <= bound."""
    return _brute_cut(n, edges, [(source, sink)], bound, budget)
