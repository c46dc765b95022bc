"""Shared test machinery: independent verifiers and corpus builders.

Everything here is deliberately written against the definitions, not against
the library's fast code paths, so the tests stay a second, independent route
to the same answers.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from metric_mend.core import (
    CoverKind,
    CycleWitness,
    Graph,
    INFINITY,
    InternalConsistencyError,
    Weight,
    all_pairs_shortest_paths,
    canonical_edge,
    dijkstra,
    find_uncovered_cycle,
    graph_deficit,
    validate_cover,
)
from metric_mend.oracle import CycleInventory, WorkBudget
from metric_mend.repair import CoverInvalidError, SplitCover

# Registry filled by the acceptance suite and printed in the terminal summary.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, name, ok, detail))


# ---------------------------------------------------------------------------
# Definition-level verifiers


def verify_witness(g: Graph, witness) -> None:
    """Re-check a CycleWitness against the raw definitions."""
    edges = witness.edges
    assert len(edges) >= 3, "cycle length must be at least 3"
    assert len(set(edges)) == len(edges), "cycle edges must be distinct"
    # the non-top edges must form a path between the top edge's endpoints,
    # in either direction
    u, v = witness.top
    first = witness.nontop[0]
    assert u in first or v in first, "non-top path must start at a top endpoint"
    walk = u if u in first else v
    goal = v if walk == u else u
    for x, y in witness.nontop:
        assert walk in (x, y), "non-top edges must chain"
        walk = y if walk == x else x
    assert walk == goal, "non-top path must end at the top edge's other endpoint"
    w_top = g.weight(*witness.top)
    w_rest = sum(g.weight(*e) for e in witness.nontop)
    assert witness.deficit == w_top - w_rest
    assert witness.deficit > 0
    assert all(w_top >= g.weight(*e) for e in edges)


def brute_shortest_path_counts(g: Graph) -> tuple[list[list], list[list[int]]]:
    """Exhaustive simple-path enumeration: (min weights, counts of minima)."""
    n = g.n
    best: list[list] = [[None] * n for _ in range(n)]
    count = [[0] * n for _ in range(n)]
    for s in range(n):
        stack = [(s, frozenset([s]), Fraction(0))]
        while stack:
            u, seen, w = stack.pop()
            if u != s:
                if best[s][u] is None or w < best[s][u]:
                    best[s][u], count[s][u] = w, 1
                elif w == best[s][u]:
                    count[s][u] += 1
            for v, wv in g.neighbors(u):
                if v not in seen:
                    stack.append((v, seen | {v}, w + wv))
        best[s][s], count[s][s] = Fraction(0), 1
    for s in range(n):
        for t in range(n):
            if best[s][t] is None:
                best[s][t] = INFINITY
    return best, count


def parent_dijkstra(g: Graph, source: int, bound: Weight | float = INFINITY) -> tuple[list, list]:
    """A Dijkstra run that records each vertex's parent: the reference the
    library's path reader (``core._path_from_row``) must agree with.

    Returns (dist, parent), a deterministic shortest-path tree: ties are
    resolved by heap order on (distance, vertex id) and updates happen on
    strict improvement only.  The search stops once the next distance it
    would settle reaches ``bound``.  A distance below ``bound`` is exact and
    its parent is a tree edge, the same distance and parent an unbounded run
    gives.
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


def parent_path(parent: list, source: int, target: int) -> list[int]:
    """The tree path from ``source`` to ``target`` in a :func:`parent_dijkstra` row."""
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def smallest_safe_decrease(work: Graph, t, deficit, s_plus, s_minus):
    """The probe-search value of a decrease move on top edge ``t``: the
    smallest v in [w_t - deficit, w_t - 1] at which no cycle escapes the
    split (``s_minus`` as tops, ``s_plus`` as non-tops), or None when even
    w_t - 1 lets one escape.  Safety only grows with v, so a binary search
    over full cycle searches finds it."""
    def safe(value) -> bool:
        return find_uncovered_cycle(work.with_weight(t, value), s_minus, s_plus) is None

    w_t = work.weight(*t)
    lo, hi = w_t - deficit, w_t - 1
    if not safe(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if safe(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def increase_only(cover) -> SplitCover:
    """A non-top cover as the split the increase-only repair takes."""
    return SplitCover(s_plus=frozenset(canonical_edge(*e) for e in cover),
                      s_minus=frozenset())


def changed(g: Graph, h: Graph) -> dict:
    """``{edge: (weight in g, weight in h)}`` for each edge a repair moved;
    a repair keeps the edge set, so ``h`` must have exactly ``g``'s edges."""
    assert h.edges() == g.edges(), "the repair changed the edge set"
    return {e: (w, h.weight(*e)) for e, w in g.edge_items() if h.weight(*e) != w}


def two_probe_split(g: Graph, cover) -> SplitCover:
    """The two-probe split: edges are assigned one at a time, candidate b
    going to the plus half if that keeps every unbalanced cycle covered with
    the still-unassigned edges counted on both sides, otherwise to the minus
    half under the symmetric test.  Up to two full cycle searches per edge."""
    cover_set = frozenset(canonical_edge(*e) for e in cover)
    witness = validate_cover(g, cover_set, CoverKind.REGULAR)
    if witness is not None:
        raise CoverInvalidError("not a regular cover", witness)
    s_plus: set = set()
    s_minus: set = set()
    remaining = set(cover_set)
    for b in sorted(cover_set):
        remaining.discard(b)
        rest = frozenset(remaining)
        if find_uncovered_cycle(g, frozenset(s_minus) | rest,
                                frozenset(s_plus) | {b} | rest) is None:
            s_plus.add(b)
        elif find_uncovered_cycle(g, frozenset(s_minus) | {b} | rest,
                                  frozenset(s_plus) | rest) is None:
            s_minus.add(b)
        else:
            raise InternalConsistencyError(
                f"edge {b} fits neither half of the split")
    return SplitCover(s_plus=frozenset(s_plus), s_minus=frozenset(s_minus))


def _hop_distances(edges, removed, source: int) -> dict[int, int]:
    """Hops from ``source`` to each vertex it still reaches once ``removed`` is deleted."""
    kept = {tuple(sorted(e)) for e in edges} - {tuple(sorted(e)) for e in removed}
    dist = {source: 0}
    frontier = {source}
    hops = 0
    while frontier:
        hops += 1
        frontier = {b for u, v in kept for a, b in ((u, v), (v, u))
                    if a in frontier and b not in dist}
        dist.update((b, hops) for b in frontier)
    return dist


def multicut_feasible(edges, removed, demands) -> bool:
    """No demand pair stays connected once ``removed`` is deleted."""
    return all(t not in _hop_distances(edges, removed, s) for s, t in demands)


def lbcut_feasible(edges, removed, source: int, sink: int, bound: int) -> bool:
    """Every remaining source-sink path is longer than ``bound`` edges."""
    return _hop_distances(edges, removed, source).get(sink, bound + 1) > bound


# ---------------------------------------------------------------------------
# Reference cycle enumerator


def _reference_witness(g: Graph, vertices: list[int]) -> CycleWitness | None:
    k = len(vertices)
    cycle_edges = [canonical_edge(vertices[i], vertices[(i + 1) % k]) for i in range(k)]
    weights = [g.weight(*e) for e in cycle_edges]
    total = sum(weights)
    top_idx = 0
    for i in range(1, k):
        if weights[i] > weights[top_idx] or (
                weights[i] == weights[top_idx] and cycle_edges[i] < cycle_edges[top_idx]):
            top_idx = i
    deficit = weights[top_idx] - (total - weights[top_idx])
    if deficit <= 0:
        return None
    nontop = tuple(cycle_edges[top_idx + 1:] + cycle_edges[:top_idx])
    return CycleWitness(top=cycle_edges[top_idx], nontop=nontop, deficit=deficit)


def reference_enumeration(g: Graph, budget: WorkBudget) -> CycleInventory:
    """A second route to the inventory ``enumerate_unbalanced_cycles`` must
    return: a plain depth-first walk over every simple cycle, each rooted at
    its smallest vertex in the canonical direction (the second vertex below
    the last), that tries a witness on each closed cycle and prunes by
    nothing, with ``budget.charge()`` once per neighbour examined."""
    found = []
    on_path = [False] * g.n
    for root in range(g.n):
        path = [root]
        on_path[root] = True
        pending = [iter(g.neighbors(root))]
        while pending:
            for v, _ in pending[-1]:
                budget.charge()
                if v == root and len(path) >= 3 and path[1] < path[-1]:
                    witness = _reference_witness(g, path)
                    if witness is not None:
                        found.append(witness)
                    continue
                if v <= root or on_path[v]:
                    continue
                path.append(v)
                on_path[v] = True
                pending.append(iter(g.neighbors(v)))
                break
            else:
                pending.pop()
                on_path[path.pop()] = False
    found.sort(key=lambda w: (w.top, w.nontop))
    return CycleInventory(cycles=tuple(found),
                          distinct_deficits=tuple(sorted({w.deficit for w in found})))


# ---------------------------------------------------------------------------
# Test corpus


def graph_with_zeros(n: int, edges) -> Graph:
    """The graph on ``edges`` whose zero weights stay zero: built with 1 in
    place of each zero, then each zero set through ``with_weight``, the one
    way a graph gets a zero weight."""
    edges = list(edges)
    g = Graph(n, [(u, v, 1 if w == 0 else w) for u, v, w in edges])
    for u, v, w in edges:
        if w == 0:
            g = g.with_weight((u, v), 0)
    return g


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph
    violations: int


@st.composite
def count_graphs(draw, max_n=8):
    """Small graphs with int and Fraction weights, drawn from few values so
    that path counts and edge counts tie; a split point makes them
    disconnected when it falls inside the vertex range."""
    n = draw(st.integers(3, max_n))
    split = draw(st.integers(0, n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < split) == (v < split)]
    chosen = [pair for pair in pairs if draw(st.booleans())]
    halves = st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(9, 2)])
    weights = draw(st.lists(st.one_of(st.integers(1, 6), halves),
                            min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@st.composite
def small_graphs(draw, max_n=8):
    """Graphs on up to eight vertices with int and Fraction weights; a drawn
    edge subset leaves many of them disconnected or with isolated vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    weights = draw(st.lists(
        st.one_of(st.integers(1, 9),
                  st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)),
        min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


def rational_instance(n: int, violations: int, seed: int, density: float = 0.7) -> Graph:
    """Metric base with genuinely rational weights, then planted violations."""
    rng = random.Random(seed)
    work = None
    for _ in range(30):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        if len(pairs) < max(1, violations):
            continue
        base = Graph(n, [(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 4)))
                         for u, v in pairs])
        tables = all_pairs_shortest_paths(base)
        work = Graph(n, [(u, v, tables.dist(u, v)) for u, v in pairs])
        if violations == 0:
            return work
        for e in rng.sample(sorted(work.edges()), min(violations, work.m)):
            if rng.random() < 0.5:
                dist, _ = dijkstra(work.without_edges([e]), e[0])
                alt = dist[e[1]]
                bump = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                base_w = alt if alt != INFINITY else work.weight(*e)
                assert base_w + bump > 0
                work = work.with_weight(e, base_w + bump)
            else:
                shrink = Fraction(1, rng.randint(2, 4))
                assert work.weight(*e) * shrink > 0
                work = work.with_weight(e, work.weight(*e) * shrink)
        if graph_deficit(work, all_pairs_shortest_paths(work)) > 0:
            return work
    if work is None:
        raise ValueError(f"could not sample a workable graph at n={n}")
    return work  # a rare metric draw is still a usable zero-violation entry


def build_corpus(count: int = 500) -> list[CorpusEntry]:
    """Deterministic mixed corpus: n in [4, 8], 0-3 planted violations,
    integer, rationally rescaled, and natively rational weights."""
    from metric_mend.reductions import gen_random

    entries = []
    densities = [0.5, 0.7, 0.9]
    for i in range(count):
        n = 4 + i % 5
        violations = i % 4
        style = i % 3
        seed = 9_000 + i
        if style == 0:
            g = gen_random(n, densities[(i // 3) % 3], 10, violations, seed)
        elif style == 1:
            lam = Fraction(1 + (i % 5), 1 + ((i // 5) % 4))
            g = gen_random(n, densities[(i // 3) % 3], 10, violations, seed).scaled(lam)
        else:
            g = rational_instance(n, violations, seed)
        entries.append(CorpusEntry(name=f"corpus[{i}]", graph=g, violations=violations))
    return entries
