"""Shared test machinery: independent verifiers, corpus builders, LP checking.

Everything here is deliberately written against the definitions, not against
the library's fast code paths, so the tests stay a second, independent route
to the same answers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from metric_mend.core import (
    CoverKind,
    CycleWitness,
    Graph,
    INFINITY,
    InternalConsistencyError,
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
    """The plain depth-first enumeration that ``enumerate_unbalanced_cycles``
    must reproduce: the same roots, neighbour order and canonical direction,
    a witness tried on every closed cycle, and ``budget.charge()`` once per
    neighbour examined."""
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


# ---------------------------------------------------------------------------
# Exact LP feasibility (parser for the exported format + phase-1 simplex)


_TERM = re.compile(r"([+-]?)\s*(a_\d+_\d+)")


def parse_lp(text: str):
    """Parse the exported feasibility program.

    Returns (rows, fixed, lower): rows are (coeff dict, rhs) meaning
    sum coeff*x <= rhs; fixed maps variables to exact values; lower maps
    variables to lower bounds.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    assert lines[0] == "minimize 0"
    assert lines[1] == "subject to"
    assert lines[-1] == "end"
    split = lines.index("bounds")
    rows = []
    for line in lines[2:split]:
        body = line.split(":", 1)[1] if ":" in line else line
        lhs, rhs = body.split("<=")
        coeffs: dict[str, Fraction] = {}
        for sign, var in _TERM.findall(lhs):
            coeffs[var] = coeffs.get(var, Fraction(0)) + (Fraction(-1) if sign == "-" else Fraction(1))
        rows.append((coeffs, _parse_rational(rhs.strip())))
    fixed: dict[str, Fraction] = {}
    lower: dict[str, Fraction] = {}
    for line in lines[split + 1:-1]:
        if ">=" in line:
            var, bound = line.split(">=")
            lower[var.strip()] = _parse_rational(bound.strip())
        else:
            var, value = line.split("=")
            fixed[var.strip()] = _parse_rational(value.strip())
    return rows, fixed, lower


def _parse_rational(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def lp_feasible(text: str) -> bool:
    """Exact feasibility of an exported program via phase-1 simplex.

    Fixed variables are substituted, lower bounds shifted to zero, and the
    remaining system {Ay <= b, y >= 0} is tested with a single artificial
    variable and Bland's rule, entirely in rational arithmetic.
    """
    rows, fixed, lower = parse_lp(text)
    free = sorted(set(lower) - set(fixed))
    index = {v: i for i, v in enumerate(free)}
    system = []
    for coeffs, rhs in rows:
        vec = [Fraction(0)] * len(free)
        for var, c in coeffs.items():
            if var in fixed:
                rhs -= c * fixed[var]
            else:
                rhs -= c * lower[var]
                vec[index[var]] += c
        system.append((vec, rhs))
    return _phase_one_feasible(system, len(free))


def _phase_one_feasible(system, n_vars: int) -> bool:
    m = len(system)
    if all(rhs >= 0 for _, rhs in system):
        return True
    art = n_vars            # artificial column
    total = n_vars + 1 + m  # originals, artificial, slacks
    tableau = []
    for i, (vec, rhs) in enumerate(system):
        row = vec + [Fraction(0)] * (1 + m) + [rhs]
        row[art] = Fraction(-1)
        row[art + 1 + i] = Fraction(1)
        tableau.append(row)
    basis = [art + 1 + i for i in range(m)]
    cost = [Fraction(0)] * (total + 1)
    cost[art] = Fraction(1)  # minimize the artificial variable

    def pivot(r: int, c: int) -> None:
        piv = tableau[r][c]
        tableau[r] = [x / piv for x in tableau[r]]
        for i in range(m):
            if i != r and tableau[i][c] != 0:
                f = tableau[i][c]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[r])]
        if cost[c] != 0:
            f = cost[c]
            for j in range(total + 1):
                cost[j] -= f * tableau[r][j]
        basis[r] = c

    start = min(range(m), key=lambda i: (tableau[i][total], i))
    pivot(start, art)  # all right-hand sides become nonnegative

    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        candidates = [(tableau[i][total] / tableau[i][entering], basis[i], i)
                      for i in range(m) if tableau[i][entering] > 0]
        if not candidates:  # cannot happen: the objective is bounded below by 0
            raise AssertionError("phase-1 objective unbounded")
        _, _, leaving = min(candidates)
        pivot(leaving, entering)

    value = Fraction(0)
    if art in basis:
        value = tableau[basis.index(art)][total]
    return value == 0
