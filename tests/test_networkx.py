"""Differential checks against networkx, an implementation that shares no code
with metric_mend: simple-cycle enumeration, shortest-path counting, the
covers and repairs of the pipeline at n = 300 and 600, a cycle-packing lower
bound on the greedy covers, and a closed-form cap on the gmvid repair."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metric_mend.cli import run_pipeline
from metric_mend.core import INFINITY, Graph, all_pairs_shortest_paths
from metric_mend.oracle import enumerate_unbalanced_cycles
from metric_mend.reductions import gen_random
from metric_mend.solver import ProblemKind, greedy_solve

nx = pytest.importorskip("networkx")


def _random_graph(n: int, m: int, weight, seed: int) -> tuple[Graph, "nx.Graph"]:
    rng = random.Random(seed)
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)})
    items = [(u, v, weight(rng)) for u, v in pairs]
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_weighted_edges_from(items)
    return Graph(n, items), reference


@pytest.mark.parametrize("n", range(8, 13))
def test_unbalanced_cycles_match_simple_cycles(n):
    g, reference = _random_graph(n, 2 * n,
                                 lambda rng: Fraction(rng.randint(1, 30), rng.randint(1, 3)),
                                 seed=4_000 + n)
    expected = {}
    for cycle in nx.simple_cycles(reference):
        edges = frozenset(tuple(sorted(pair)) for pair in zip(cycle, cycle[1:] + cycle[:1]))
        weights = [g.weight(*e) for e in edges]
        deficit = 2 * max(weights) - sum(weights)  # top minus the rest
        if deficit > 0:
            expected[edges] = deficit
    inventory = enumerate_unbalanced_cycles(g)
    found = {frozenset(c.edges): c.deficit for c in inventory.cycles}
    assert len(found) == len(inventory)  # each cycle enumerated once
    assert expected  # the seeds give graphs with unbalanced cycles
    assert found == expected


@pytest.mark.parametrize("n", [150, 220, 300])
def test_spcount_matches_networkx(n):
    # weights 1-3 make many equal-length paths; 2n random pairs leave some
    # vertices unreachable
    g, reference = _random_graph(n, 2 * n, lambda rng: rng.randint(1, 3), seed=5_000 + n)
    tables = all_pairs_shortest_paths(g)
    for s in range(n):
        pred, dist = nx.dijkstra_predecessor_and_distance(reference, s)
        count = {s: 1}
        for v in sorted(dist, key=dist.get)[1:]:
            count[v] = sum(count[p] for p in pred[v])
        for t in range(n):
            assert tables.dist(s, t) == dist.get(t, INFINITY)
            assert tables.spcount(s, t) == count.get(t, 0)


def _shorter_pairs(n: int, items, removed, edges) -> list:
    """The listed edges (u, v, w) with a u-v path shorter than w in the graph
    of ``items`` without the ``removed`` pairs, by networkx Dijkstra alone."""
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_weighted_edges_from((u, v, w) for u, v, w in items if (u, v) not in removed)
    by_source: dict[int, list] = {}
    for u, v, w in edges:
        by_source.setdefault(u, []).append((v, w))
    shorter = []
    for u, row in by_source.items():
        dist = nx.single_source_dijkstra_path_length(reference, u,
                                                     cutoff=max(w for _, w in row))
        shorter += [(u, v, w) for v, w in row if dist.get(v, w) < w]
    return shorter


@pytest.mark.parametrize("n, density, seed", [(300, 0.02, 1), (600, 0.008, 2),
                                               (2000, 0.0025, 3)])
def test_pipeline_at_scale_against_networkx(n, density, seed):
    """Covers of all three kinds and their repairs, at sizes no oracle reaches."""
    g = gen_random(n, density, 10, 3, seed=seed)
    items = [(u, v, w) for (u, v), w in g.edge_items()]
    assert _shorter_pairs(n, items, set(), items)  # the input is not metric
    for kind in ProblemKind:
        result = run_pipeline(g, kind, repair=True)
        cover = set(result.cover)
        outside = [(u, v, w) for u, v, w in items if (u, v) not in cover]
        if kind is ProblemKind.GMVD:  # no cycle with top and non-tops all outside
            assert not _shorter_pairs(n, items, cover, outside)
        elif kind is ProblemKind.GMVID:  # no cycle with every non-top outside
            assert not _shorter_pairs(n, items, cover, items)
        else:  # no cycle with its top outside
            assert not _shorter_pairs(n, items, set(), outside)
        final = [(u, v, w) for (u, v), w in result.final.edge_items()]
        assert not _shorter_pairs(n, final, set(), final)  # the repair is metric
        assert {(u, v) for u, v, w in final if w != g.weight(u, v)} <= cover


# gen_random(n, density, 10, 3, seed): dense, and sparse at two sizes
BOUND_INSTANCES = [(80, 0.25, 555), (300, 0.02, 1), (1000, 0.005, 7)]


def _reference(n: int, items) -> "nx.Graph":
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_weighted_edges_from(items)
    return reference


def _cycle_packing(n: int, items, kind: ProblemKind) -> int:
    """The number of unbalanced cycles found, top by top in sorted order, that
    share no edge (gmvd) or no non-top edge (gmvid) with a cycle found
    before.  Each needs a cover edge of its own, so every regular (gmvd) or
    non-top (gmvid) cover has at least that many edges."""
    reference = _reference(n, items)
    blocked: set = set()
    count = 0
    for u, v, w in sorted(_shorter_pairs(n, items, set(), items)):  # the candidate tops
        if kind is ProblemKind.GMVD and (u, v) in blocked:
            continue

        def weight(a, b, data, top=(u, v)):
            e = (a, b) if a < b else (b, a)
            return None if e == top or e in blocked else data["weight"]

        try:
            d, path = nx.single_source_dijkstra(reference, u, v, cutoff=w, weight=weight)
        except nx.NetworkXNoPath:
            continue
        if d < w:
            count += 1
            blocked.update((a, b) if a < b else (b, a) for a, b in zip(path, path[1:]))
            if kind is ProblemKind.GMVD:
                blocked.add((u, v))
    return count


@pytest.mark.parametrize("n, density, seed", BOUND_INSTANCES)
def test_greedy_covers_are_at_least_a_cycle_packing(n, density, seed):
    g = gen_random(n, density, 10, 3, seed=seed)
    items = [(u, v, w) for (u, v), w in g.edge_items()]
    for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
        assert greedy_solve(g, kind).size >= _cycle_packing(n, items, kind) > 0


@pytest.mark.parametrize("n, density, seed", BOUND_INSTANCES)
def test_gmvid_repair_stays_under_its_closed_form(n, density, seed):
    """c_e = min(L, d_{G-S}(e)) for each edge e of the greedy non-top cover S,
    with L the largest input weight: each gmvid increase is capped by a
    distance in the graph without the increase half, which is G - S.  The
    caps bound the repair from above, and setting every S edge to its cap
    alone makes the graph metric."""
    g = gen_random(n, density, 10, 3, seed=seed)
    items = [(u, v, w) for (u, v), w in g.edge_items()]
    result = run_pipeline(g, ProblemKind.GMVID, repair=True)
    cover = set(result.cover)
    rest = _reference(n, [(u, v, w) for u, v, w in items if (u, v) not in cover])
    top = max(w for _, _, w in items)  # L
    cap = {}
    for u, v in cover:
        dist = nx.single_source_dijkstra_path_length(rest, u, cutoff=top)
        cap[u, v] = min(top, dist.get(v, top))
    assert all(cap[e] >= g.weight(*e) for e in cover)
    capped = [(u, v, cap.get((u, v), w)) for u, v, w in items]
    assert not _shorter_pairs(n, capped, set(), capped)
    assert all(g.weight(*e) <= result.final.weight(*e) <= cap[e] for e in cover)
