"""Constructive instance transformers and random-instance generation.

Each transformer returns the produced instance together with a back-mapping
from its edges to source-problem objects, so optimal covers of the output can
be translated into source solutions and cross-validated.  Multicut and
length-bounded cut share one gadget: a multicut is the length-bounded cut at
bound n - 1 on every demand pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .core import (
    Edge,
    Graph,
    INFINITY,
    InstanceFormatError,
    LineReader,
    MAX_VERTICES,
    canonical_edge,
    dijkstra,
    excess_map,
    is_metric,
)
from .solver import ProblemKind, solve_decrease_only


def _check_simple_edges(n: int, edges: Iterable[Edge] | Graph) -> tuple[Edge, ...]:
    """Canonical sorted edges of a simple graph on n vertices; the check is Graph's."""
    if isinstance(edges, Graph) and edges.n == n:  # a parser's: checked when built
        return tuple(edges.edges())
    return tuple(Graph(n, ((u, v, 1) for u, v in edges)).edges())


def _demand_pairs(n: int, edges: Iterable[Edge],
                  demands: Iterable[tuple[int, int]]) -> Iterator[Edge]:
    """Canonical demand pairs, each checked as it is drawn from ``demands``."""
    edge_set = set(edges)
    seen: set[Edge] = set()
    for s, t in demands:
        if not (0 <= s < n and 0 <= t < n) or s == t:
            raise ValueError(f"invalid demand pair ({s}, {t})")
        d = canonical_edge(s, t)
        if d in edge_set:
            raise ValueError(f"demand pair {d} is an edge; strip it first")
        if d in seen:
            raise ValueError(f"duplicate demand pair {d}")
        seen.add(d)
        yield d


@dataclass(frozen=True)
class MulticutInstance:
    """Unweighted graph plus demand pairs to disconnect."""

    n: int
    edges: tuple[Edge, ...]
    demands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = _check_simple_edges(self.n, self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "demands", tuple(_demand_pairs(self.n, edges, self.demands)))


@dataclass(frozen=True)
class LbCutInstance:
    """Unweighted graph with a source, a sink, and a path-length bound."""

    n: int
    edges: tuple[Edge, ...]
    source: int
    sink: int
    bound: int

    def __post_init__(self):
        edges = _check_simple_edges(self.n, self.edges)
        object.__setattr__(self, "edges", edges)
        if not (0 <= self.source < self.n and 0 <= self.sink < self.n):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if canonical_edge(self.source, self.sink) in set(edges):
            raise ValueError("the (source, sink) edge must be stripped first")
        if self.bound < 1:
            raise ValueError("length bound must be a positive integer")


@dataclass(frozen=True)
class ReductionArtifact:
    """A produced instance plus the mapping back to the source problem."""

    instance: Graph
    kind: ProblemKind
    back_map: Mapping[Edge, Edge]
    added_edges: frozenset[Edge]
    added_vertices: frozenset[int]

    def map_back(self, edges: Iterable[Edge]) -> list[Edge]:
        """Translate output edges to source objects; rejects introduced edges."""
        out = []
        for e in edges:
            e = canonical_edge(*e)
            if e in self.added_edges:
                raise ValueError(f"edge {e} was introduced by the reduction")
            if e not in self.back_map:
                raise ValueError(f"edge {e} is not in the reduced instance")
            out.append(self.back_map[e])
        return sorted(out)


def _heavy_pairs_gadget(n: int, edges: tuple[Edge, ...], pairs: Iterable[Edge],
                        bound: int) -> ReductionArtifact:
    """Weight ``edges`` 1 and join each pair by an edge of weight ``bound + 1``.

    The unbalanced cycles of the output are exactly a pair edge plus a path
    of at most ``bound`` unit edges between its endpoints, so minimum non-top
    covers coincide with minimum edge sets leaving every pair more than
    ``bound`` hops apart.
    """
    graph = Graph(n, [(u, v, 1) for u, v in edges] + [(s, t, bound + 1) for s, t in pairs])
    return ReductionArtifact(instance=graph, kind=ProblemKind.GMVID,
                             back_map={e: e for e in edges},
                             added_edges=frozenset(pairs), added_vertices=frozenset())


def multicut_to_gmvid(mc: MulticutInstance) -> ReductionArtifact:
    """The length-bounded cut gadget at bound n - 1 on every demand pair: a
    connected pair is joined by a simple path of at most n - 1 edges."""
    return _heavy_pairs_gadget(mc.n, mc.edges, mc.demands, mc.n - 1)


def lbcut_to_gmvid(lb: LbCutInstance) -> ReductionArtifact:
    """The length-bounded cut gadget on the single source-sink pair."""
    return _heavy_pairs_gadget(lb.n, lb.edges, [canonical_edge(lb.source, lb.sink)],
                               lb.bound)


def gmvid_to_gmvd(g: Graph) -> ReductionArtifact:
    """Gadget reduction from the increase-only problem to the full problem.

    For each edge that tops an unbalanced cycle (detected as weight exceeding
    the endpoint distance) the construction attaches m+1 fresh degree-two
    vertices, each joined to the heavy edge's endpoints by a weight-L edge and
    a weight L - w edge, with L one more than the maximum weight.  Gadget
    vertex ids are appended after the original ids, heavy edges in
    lexicographic order, copies in increasing order, so the artifact is
    reproducible.  An output above ``MAX_VERTICES`` vertices is refused
    before anything is built.
    """
    tops = list(excess_map(g))
    copies = g.m + 1
    size = g.n + len(tops) * copies
    if size > MAX_VERTICES:
        raise InstanceFormatError(
            f"the reduction would build {size} vertices ({len(tops)} violating edges "
            f"x {copies} gadget copies + {g.n}), above the cap of {MAX_VERTICES}")
    big = 1 + max((w for _, w in g.edge_items()), default=0)
    items = [(u, v, w) for (u, v), w in g.edge_items()]
    for i, (s, t) in enumerate(tops):  # vid > s, t: each gadget edge is canonical
        for vid in range(g.n + i * copies, g.n + (i + 1) * copies):
            items += [(s, vid, big), (t, vid, big - g.weight(s, t))]
    graph = Graph(size, items)
    return ReductionArtifact(instance=graph, kind=ProblemKind.GMVD,
                             back_map={e: e for e in g.edges()},
                             added_edges=frozenset((u, v) for u, v, _ in items[g.m:]),
                             added_vertices=frozenset(range(g.n, size)))


# ---------------------------------------------------------------------------
# Random instances

#: Draws ``gen_random`` makes before it gives up on the requested violations.
_GEN_ATTEMPTS = 50


def gen_random(n: int, density: float, weight_max: int, violations: int,
               seed: int) -> Graph:
    """Random instance: a metric base with a chosen number of planted violations.

    Edges are sampled with the given probability and random integer weights,
    then every weight is replaced by the endpoint shortest-path distance (a
    metric graph by construction).  Perturbing the chosen edges upward jumps
    above the best alternative path, so at least one planted violation
    registers whenever the sampled graph has a cycle; downward perturbations
    may or may not create violations on other edges.  Deterministic per seed;
    resamples a bounded number of times when a draw cannot express the
    requested violations.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise InstanceFormatError(f"vertex count must lie in [3, {MAX_VERTICES}], got {n}")
    if not 0 < density <= 1:
        raise InstanceFormatError("density must lie in (0, 1]")
    if weight_max < 1:
        raise InstanceFormatError("weight_max must be a positive integer")
    if violations < 0:
        raise InstanceFormatError("violations must be nonnegative")
    rng = random.Random(seed)
    density = float(density)

    for _ in range(_GEN_ATTEMPTS):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        if len(pairs) < violations or (violations > 0 and len(pairs) < 3):
            continue
        base = Graph(n, [(u, v, rng.randint(1, weight_max)) for u, v in pairs])
        fixes = solve_decrease_only(base)  # every other edge equals its distance
        work = Graph(n, [(u, v, fixes.get((u, v), w)) for (u, v), w in base.edge_items()])
        if violations == 0:
            return work
        for e in rng.sample(sorted(work.edges()), violations):
            w = work.weight(*e)
            if rng.random() < 0.5:
                alt = dijkstra(work.without_edges([e]), e[0])[0][e[1]]
                bump = rng.randint(1, weight_max)
                work = work.with_weight(e, (alt if alt != INFINITY else w) + bump)
            elif w > 1:
                work = work.with_weight(e, rng.randint(1, w - 1))
        if not is_metric(work):
            return work
    raise InstanceFormatError(
        f"could not realize {violations} violations at n={n}, density={density}; "
        "the sampled graphs have too few cycles")


# ---------------------------------------------------------------------------
# Source-problem file formats (core edge-list style, unweighted, one trailer)


def parse_multicut(text: str) -> MulticutInstance:
    """Parse 'n m', m unweighted edge lines, then 'D k' and k demand lines."""
    lines = LineReader(text)
    g = lines.graph(weighted=False)
    (k,) = lines.read("D k", "missing demand section 'D k'")
    rows = (lines.read("s t", f"expected {k} demand lines, got {i}") for i in range(k))
    with lines.blame():  # the instance checks each pair as it reads its line
        mc = MulticutInstance(n=g.n, edges=g, demands=rows)
    lines.end()
    return mc


def serialize_multicut(mc: MulticutInstance) -> str:
    out = [f"{mc.n} {len(mc.edges)}"]
    out += [f"{u} {v}" for u, v in mc.edges]
    out.append(f"D {len(mc.demands)}")
    out += [f"{s} {t}" for s, t in mc.demands]
    return "\n".join(out)


def parse_lbcut(text: str) -> LbCutInstance:
    """Parse 'n m', m unweighted edge lines, then one 'LB s t L' line."""
    lines = LineReader(text)
    g = lines.graph(weighted=False)
    source, sink, bound = lines.read("LB s t L", "missing 'LB s t L' line")
    with lines.blame():
        lb = LbCutInstance(n=g.n, edges=g, source=source, sink=sink, bound=bound)
    lines.end()
    return lb


def serialize_lbcut(lb: LbCutInstance) -> str:
    out = [f"{lb.n} {len(lb.edges)}"]
    out += [f"{u} {v}" for u, v in lb.edges]
    out.append(f"LB {lb.source} {lb.sink} {lb.bound}")
    return "\n".join(out)
