"""Differential checks against networkx, an implementation that shares no code
with metric_mend: simple-cycle enumeration and shortest-path counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metric_mend.core import INFINITY, Graph, all_pairs_shortest_paths
from metric_mend.oracle import enumerate_unbalanced_cycles

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
