"""Independent checks of metric_mend's outputs.

Nothing here imports ``metric_mend``: instances are parsed by this module,
distances come from ``gen.violating_edges`` over integers (weights are
scaled by their common denominator) and unbalanced cycles are enumerated by a plain
depth-first search.  Every function returns a list of problems, empty when
the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from gen import adjacency, violating_edges


def parse(text: str) -> tuple[int, dict]:
    """Instance text -> (n, {(u, v): Fraction}) with u < v."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    n, m = int(rows[0][0]), int(rows[0][1])
    weights = {}
    for u, v, w in rows[1:]:
        u, v = int(u), int(v)
        weights[(min(u, v), max(u, v))] = Fraction(w)
    if len(rows) != m + 1 or len(weights) != m:
        raise ValueError(f"expected {m} distinct edges, got {len(rows) - 1} lines")
    return n, weights


def _as_ints(weights: dict) -> dict:
    scale = math.lcm(*(w.denominator for w in weights.values())) if weights else 1
    return {e: int(w * scale) for e, w in weights.items()}


def violations(n: int, weights: dict) -> list:
    """Edges heavier than the shortest path between their endpoints."""
    return violating_edges(n, _as_ints(weights))


def _edges(report_edges) -> set:
    return {(min(u, v), max(u, v)) for u, v in report_edges}


def check_repair(kind: str, source_text: str, output_text: str, report: dict) -> list[str]:
    """A ``solve --repair`` output: metric, only cover edges moved, weights in [0, L].

    Also checks the move direction the kind allows and that the report's
    ``changed`` list is exactly the difference between the two files.
    """
    problems = []
    if not report.get("verification", {}).get("all_ok"):
        problems.append("report verification is not all_ok")
    n, before = parse(source_text)
    n_out, after = parse(output_text)
    if n_out != n or set(after) != set(before):
        return problems + ["output has a different vertex or edge set"]
    cover = _edges(report["solution"]["edges"])
    changed = {e for e in before if after[e] != before[e]}
    if not changed <= cover:
        problems.append(f"non-cover edges changed: {sorted(changed - cover)}")
    cap = max(before.values())
    if any(not 0 <= w <= cap for w in after.values()):
        problems.append("a weight left [0, L]")
    if kind == "gmvid" and any(after[e] < before[e] for e in changed):
        problems.append("an increase-only repair lowered a weight")
    if kind == "gmvdd" and any(after[e] > before[e] for e in changed):
        problems.append("a decrease-only repair raised a weight")
    reported = {(min(u, v), max(u, v)): (Fraction(old), Fraction(new))
                for (u, v), old, new in report["repair"]["changed"]}
    if reported != {e: (before[e], after[e]) for e in changed}:
        problems.append("reported changes differ from the output file")
    bad = violations(n, after)
    if bad:
        problems.append(f"repaired graph is not metric at {bad[:3]}")
    return problems


def unbalanced_cycles(n: int, weights: dict) -> list[tuple[tuple, frozenset]]:
    """Every simple cycle whose top edge outweighs the rest: (top, non-top edges)."""
    adj = adjacency(n, weights)
    found = []

    def extend(path: list[int], on_path: set[int]) -> None:
        root, u = path[0], path[-1]
        for v, _ in adj[u]:
            if v == root and len(path) >= 3 and path[1] < path[-1]:
                ring = path + [root]
                edges = [(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:])]
                top = max(edges, key=lambda e: weights[e])
                rest = sum(weights[e] for e in edges) - weights[top]
                if weights[top] > rest:
                    found.append((top, frozenset(e for e in edges if e != top)))
            elif v > root and v not in on_path:
                path.append(v)
                on_path.add(v)
                extend(path, on_path)
                on_path.discard(v)
                path.pop()

    for root in range(n):
        extend([root], {root})
    return found


def _hits(cover: set, cycles, nontop_only: bool) -> bool:
    return all(cover & (nontop if nontop_only else nontop | {top}) for top, nontop in cycles)


def check_covers(source_text: str, greedy_regular: dict, oracle_regular: dict,
                 greedy_nontop: dict, oracle_nontop: dict) -> list[str]:
    """Greedy and oracle covers of one small instance against a fresh cycle inventory.

    Each cover must hit every unbalanced cycle (on a non-top edge for the
    non-top kind), the greedy may not beat the oracle, and no smaller hitting
    set than the oracle's may exist.
    """
    problems = []
    n, weights = parse(source_text)
    cycles = unbalanced_cycles(n, weights)
    for label, report, nontop_only in (
            ("greedy gmvd", greedy_regular, False), ("greedy gmvid", greedy_nontop, True)):
        if not report.get("verification", {}).get("all_ok"):
            problems.append(f"{label} report verification is not all_ok")
        if not _hits(_edges(report["solution"]["edges"]), cycles, nontop_only):
            problems.append(f"{label} cover misses an unbalanced cycle")
    for label, greedy, oracle, nontop_only in (
            ("regular", greedy_regular, oracle_regular, False),
            ("nontop", greedy_nontop, oracle_nontop, True)):
        cover = _edges(oracle["min_cover"]["edges"])
        if len(cover) != oracle["min_cover"]["size"]:
            problems.append(f"{label} oracle size disagrees with its edges")
        if not _hits(cover, cycles, nontop_only):
            problems.append(f"{label} oracle cover misses an unbalanced cycle")
        if greedy["solution"]["size"] < len(cover):
            problems.append(f"greedy beats the {label} oracle optimum")
        candidates = sorted({e for top, nontop in cycles
                             for e in (nontop if nontop_only else nontop | {top})})
        if cover and any(_hits(set(c), cycles, nontop_only)
                         for c in combinations(candidates, len(cover) - 1)):
            problems.append(f"a {label} cover smaller than the oracle's exists")
    return problems
