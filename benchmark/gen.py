"""Seeded instance generator owned by the benchmark.

It shares no code with ``metric_mend`` (in particular not
``reductions.gen_random``), so a change to the package cannot change the
benchmark's inputs.  Weights are integers counted in units of ``1/scale``:
``scale=1`` gives integer instances, ``scale=10**6`` gives weights with six
decimal places.  Every draw depends only on the seed string passed in.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")


@dataclass(frozen=True)
class Instance:
    """A generated instance: vertex count, weight scale and integer edge weights."""

    n: int
    scale: int
    weights: dict  # (u, v) with u < v -> weight in units of 1/scale

    def text(self) -> str:
        """The package's instance format: ``n m`` then one ``u v w`` line per edge."""
        lines = [f"{self.n} {len(self.weights)}"]
        for (u, v), w in sorted(self.weights.items()):
            q = Fraction(w, self.scale)
            lines.append(f"{u} {v} {q.numerator}" if q.denominator == 1
                         else f"{u} {v} {q.numerator}/{q.denominator}")
        return "\n".join(lines) + "\n"


def adjacency(n: int, weights: dict) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in weights.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra(adj: list, source: int, skip: tuple[int, int] | None = None) -> list:
    """Exact single-source distances over integer (or rational) weights."""
    dist = [INF] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if skip is not None and (min(u, v), max(u, v)) == skip:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def violating_edges(n: int, weights: dict) -> list[tuple[int, int]]:
    """Edges heavier than the shortest path between their endpoints."""
    adj = adjacency(n, weights)
    rows: dict[int, list] = {}
    bad = []
    for (u, v), w in sorted(weights.items()):
        if u not in rows:
            rows[u] = dijkstra(adj, u)
        if rows[u][v] < w:
            bad.append((u, v))
    return bad


def generate(seed: str, n: int, m: int, w_lo: int, w_hi: int, violations: int,
             scale: int = 1) -> Instance:
    """Random connected graph, its metric closure, then planted perturbations.

    A random spanning tree plus uniformly drawn extra pairs gives exactly
    ``m`` edges with weights in ``[w_lo, w_hi]``.  Every weight is then
    replaced by the shortest-path distance between its endpoints, which makes
    the graph metric.  ``violations`` distinct non-bridge edges are then
    perturbed one at a time: about half are raised above their best
    alternative path, the rest are lowered, which breaks the edges whose
    shortest paths ran through them.  A perturbation is kept only if it adds
    exactly one edge heavier than its endpoint distance, so every instance
    ends with exactly ``violations`` such edges and the work per instance of
    one workload stays within a narrow band.  A graph that runs out of
    candidate edges is redrawn.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} impossible for a connected simple graph on {n} vertices")
    rng = random.Random(seed)
    for _ in range(1000):
        order = list(range(n))
        rng.shuffle(order)
        pairs = set()
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            pairs.add((min(u, v), max(u, v)))
        while len(pairs) < m:
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        raw = {e: rng.randint(w_lo, w_hi) for e in sorted(pairs)}
        adj = adjacency(n, raw)
        rows = [dijkstra(adj, s) for s in range(n)]
        weights = {(u, v): rows[u][v] for (u, v) in raw}

        planted = 0
        for e in rng.sample(sorted(weights), len(weights)):
            u, v = e
            w = weights[e]
            if rng.random() < 0.5:
                alt = dijkstra(adjacency(n, weights), u, skip=e)[v]
                if alt == INF:
                    continue  # a bridge lies on no cycle
                weights[e] = alt + rng.randint(1, max(1, (w_hi - w_lo) // 2))
            elif w >= 2:
                weights[e] = rng.randint(max(1, w // 4), w - 1)
            else:
                continue
            if len(violating_edges(n, weights)) == planted + 1:
                planted += 1
                if planted == violations:
                    return Instance(n=n, scale=scale, weights=weights)
            else:
                weights[e] = w
    raise ValueError(f"no graph with n={n}, m={m} took {violations} violations")
