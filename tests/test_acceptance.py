"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test records a pass/fail line that the terminal summary prints, then
asserts.  The shared 500-instance corpus (n in [4, 8], rational weights, 0-3
planted violations) comes from the session fixture; expensive per-instance
artifacts (cycle inventories, greedy solutions, oracle optima) are computed
once per module.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from metric_mend.core import (
    CoverKind,
    Graph,
    all_pairs_shortest_paths,
    find_uncovered_cycle,
    graph_deficit,
    is_metric,
    validate_cover,
)
from metric_mend.oracle import (
    BudgetExceededError,
    WorkBudget,
    brute_count,
    brute_lbcut,
    brute_multicut,
    enumerate_unbalanced_cycles,
    exact_min_cover,
)
from metric_mend.reductions import (
    LbCutInstance,
    MulticutInstance,
    gen_random,
    gmvid_to_gmvd,
    lbcut_to_gmvid,
    multicut_to_gmvid,
)
from metric_mend.repair import lift_zero_edges, repair_weights, split_cover
from metric_mend.solver import ProblemKind, count_nontop, count_top, greedy_solve, solve_decrease_only

import helpers

# work units per exact_min_cover call: one per cycle-search extension plus one
# per subset tried
ORACLE_COMBO_BUDGET = 60_000


def _finish(number: int, name: str, failures: list[str], detail: str = "") -> None:
    ok = not failures
    summary = detail if ok else f"{len(failures)} failures; first: {failures[0]}"
    helpers.record_criterion(number, name, ok, summary)
    assert ok, f"criterion {number} ({name}): {summary}"


@pytest.fixture(scope="module")
def inventories(corpus):
    return [enumerate_unbalanced_cycles(entry.graph) for entry in corpus]


@pytest.fixture(scope="module")
def greedy_solutions(corpus):
    return [{kind: greedy_solve(entry.graph, kind)
             for kind in (ProblemKind.GMVD, ProblemKind.GMVID)}
            for entry in corpus]


@pytest.fixture(scope="module")
def oracle_covers(corpus):
    """Exact minimum covers per instance and kind, None where the budget ran out."""
    out = []
    for entry in corpus:
        per_kind = {}
        for kind in (CoverKind.REGULAR, CoverKind.NONTOP):
            try:
                per_kind[kind] = exact_min_cover(entry.graph, kind,
                                                 budget=WorkBudget(ORACLE_COMBO_BUDGET))
            except BudgetExceededError:
                per_kind[kind] = None
        out.append(per_kind)
    return out


def test_criterion_1_counting_formula_equivalence(corpus, inventories):
    failures = []
    started = time.perf_counter()
    edges_checked = 0
    for entry, inventory in zip(corpus, inventories):
        g = entry.graph
        tables = all_pairs_shortest_paths(g)
        delta = graph_deficit(g, tables)
        if delta == 0:
            continue
        for e in g.edges():
            edges_checked += 1
            fast_top = count_top(g, tables, delta, e)
            fast_nontop = count_nontop(g, tables, delta, e)
            slow_top = brute_count(g, delta, e, "top", inventory=inventory)
            slow_nontop = brute_count(g, delta, e, "nontop", inventory=inventory)
            if fast_top != slow_top or fast_nontop != slow_nontop:
                failures.append(f"{entry.name} edge {e}: formula ({fast_top}, "
                                f"{fast_nontop}) vs brute ({slow_top}, {slow_nontop})")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"counting check took {elapsed:.1f}s, budget is one minute")
    _finish(1, "counting formula equivalence", failures,
            f"{len(corpus)} instances, {edges_checked} edge counts, {elapsed:.1f}s")


def test_criterion_2_algorithm_validity_and_repair(corpus, greedy_solutions):
    failures = []
    for entry, solutions in zip(corpus, greedy_solutions):
        g = entry.graph
        cap = max((w for _, w in g.edge_items()), default=Fraction(0))
        for kind, solution in solutions.items():
            if validate_cover(g, solution.edges, kind.cover_kind) is not None:
                failures.append(f"{entry.name} {kind.value}: greedy output not a cover")
                continue
            if kind is ProblemKind.GMVD:
                split = split_cover(g, solution.edges)
                outcome = repair_weights(g, split)
            else:
                split = None
                outcome = repair_weights(g, helpers.increase_only(solution.edges))
            changed = helpers.changed(g, outcome.graph)
            if not is_metric(outcome.graph):
                failures.append(f"{entry.name} {kind.value}: repair not metric")
            if not set(changed) <= set(solution.edges):
                failures.append(f"{entry.name} {kind.value}: non-cover edge changed")
            for e, (old, new) in changed.items():
                if not 0 <= new <= cap:
                    failures.append(f"{entry.name} {kind.value}: {e} out of [0, L]")
                if kind is ProblemKind.GMVID and new < old:
                    failures.append(f"{entry.name} {kind.value}: {e} decreased")
                if split is not None:
                    if e in split.s_plus and new <= old:
                        failures.append(f"{entry.name}: plus edge {e} did not increase")
                    if e in split.s_minus and new >= old:
                        failures.append(f"{entry.name}: minus edge {e} did not decrease")
            lifted = lift_zero_edges(outcome.graph)
            if not is_metric(lifted.graph):
                failures.append(f"{entry.name} {kind.value}: lift broke metricity")
    _finish(2, "greedy validity and repair contract", failures,
            f"{len(corpus)} instances, both problem kinds")


def test_criterion_3_approximation_bound(corpus, inventories, greedy_solutions, oracle_covers):
    failures = []
    completed = 0
    max_ratio = 0.0
    kind_of = {ProblemKind.GMVD: CoverKind.REGULAR, ProblemKind.GMVID: CoverKind.NONTOP}
    for entry, inventory, solutions, optima in zip(corpus, inventories,
                                                   greedy_solutions, oracle_covers):
        for kind, solution in solutions.items():
            optimum = optima[kind_of[kind]]
            if optimum is None:
                continue
            completed += 1
            universe = len(inventory)
            if solution.size < optimum.size:
                failures.append(f"{entry.name} {kind.value}: greedy beat the optimum")
            if optimum.size == 0:
                if solution.size != 0:
                    failures.append(f"{entry.name} {kind.value}: nonzero cover of metric graph")
                continue
            bound = len(solution.layer_deficits) * (1 + math.log(universe)) * optimum.size
            if solution.size > bound:
                failures.append(f"{entry.name} {kind.value}: {solution.size} > bound {bound:.2f}")
            max_ratio = max(max_ratio, solution.size / optimum.size)
    if completed < len(corpus):
        # only a shortfall of oracle coverage worth flagging, not a few skips
        if completed < len(corpus) // 2:
            failures.append(f"oracle completed on only {completed} solution pairs")
    if not (1.0 <= max_ratio < math.inf):
        failures.append(f"empirical max ratio {max_ratio} out of range")
    _finish(3, "layered greedy approximation bound", failures,
            f"{completed} greedy/optimum comparisons, max ratio {max_ratio:.3f}")


def test_criterion_4_cover_split_realization(corpus, greedy_solutions, oracle_covers):
    failures = []
    splits = 0
    for entry, solutions, optima in zip(corpus, greedy_solutions, oracle_covers):
        g = entry.graph
        covers = [solutions[ProblemKind.GMVD].edges]
        if optima[CoverKind.REGULAR] is not None:
            covers.append(optima[CoverKind.REGULAR].edges)
        for cover in covers:
            splits += 1
            try:
                split = split_cover(g, cover)
            except Exception as exc:  # either case failing is a criterion failure
                failures.append(f"{entry.name}: split_cover raised {exc!r}")
                continue
            if split.s_plus & split.s_minus:
                failures.append(f"{entry.name}: halves overlap")
            if split.s_plus | split.s_minus != frozenset(cover):
                failures.append(f"{entry.name}: halves do not partition the cover")
            if find_uncovered_cycle(g, split.s_minus, split.s_plus) is not None:
                failures.append(f"{entry.name}: split leaves an uncovered cycle")
    _finish(4, "cover split realization", failures,
            f"{splits} covers split (greedy and oracle minima)")


def test_criterion_5_reduction_optimum_equivalence():
    import random

    failures = []
    rng = random.Random(20_240)
    multicut_checked = 0
    while multicut_checked < 100:
        n = rng.randint(3, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = tuple(sorted(pairs[:rng.randint(1, min(8, len(pairs)))]))
        rest = [p for p in pairs if p not in edges]
        demands = tuple(sorted(rest[:rng.randint(0, min(3, len(rest)))]))
        mc = MulticutInstance(n=n, edges=edges, demands=demands)
        artifact = multicut_to_gmvid(mc)
        source = brute_multicut(n, list(edges), list(demands))
        reduced = exact_min_cover(artifact.instance, CoverKind.NONTOP)
        if len(source) != reduced.size:
            failures.append(f"multicut[{multicut_checked}]: {len(source)} vs {reduced.size}")
        else:
            mapped = artifact.map_back(reduced.edges)
            if not helpers.multicut_feasible(edges, mapped, demands):
                failures.append(f"multicut[{multicut_checked}]: back-mapped cover infeasible")
        multicut_checked += 1

    lbcut_checked = 0
    while lbcut_checked < 100:
        n = rng.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        st_pair = pairs.pop()
        edges = tuple(sorted(pairs[:rng.randint(1, min(8, len(pairs)))]))
        bound = rng.randint(1, 4)
        lb = LbCutInstance(n=n, edges=edges, source=st_pair[0], sink=st_pair[1], bound=bound)
        artifact = lbcut_to_gmvid(lb)
        source = brute_lbcut(n, list(edges), lb.source, lb.sink, bound)
        reduced = exact_min_cover(artifact.instance, CoverKind.NONTOP)
        if len(source) != reduced.size:
            failures.append(f"lbcut[{lbcut_checked}]: {len(source)} vs {reduced.size}")
        else:
            mapped = artifact.map_back(reduced.edges)
            if not helpers.lbcut_feasible(edges, mapped, lb.source, lb.sink, bound):
                failures.append(f"lbcut[{lbcut_checked}]: back-mapped cover infeasible")
        lbcut_checked += 1

    gadget_checked = 0
    seed = 0
    while gadget_checked < 50:
        seed += 1
        g = helpers.rational_instance(n=4, violations=seed % 3, seed=77_000 + seed,
                                      density=0.6)
        if g.m > 6:
            continue
        artifact = gmvid_to_gmvd(g)
        out_opt = exact_min_cover(artifact.instance, CoverKind.REGULAR)
        in_opt = exact_min_cover(g, CoverKind.NONTOP)
        if out_opt.size != in_opt.size:
            failures.append(f"gadget[{gadget_checked}]: {out_opt.size} vs {in_opt.size}")
        if set(out_opt.edges) & artifact.added_edges:
            failures.append(f"gadget[{gadget_checked}]: optimum uses gadget edges")
        gadget_checked += 1

    _finish(5, "reduction optimum equivalence", failures,
            f"{multicut_checked} multicut, {lbcut_checked} lb-cut, {gadget_checked} gadget")


def test_criterion_6_decrease_only_exactness(corpus, inventories):
    failures = []
    for entry, inventory in zip(corpus, inventories):
        g = entry.graph
        tables = all_pairs_shortest_paths(g)
        chosen = solve_decrease_only(g).keys()
        heavy = frozenset((u, v) for (u, v), w in g.edge_items()
                          if w > tables.dist(u, v))
        if chosen != heavy:
            failures.append(f"{entry.name}: selection differs from the excess set")
        if chosen != {c.top for c in inventory.cycles}:
            failures.append(f"{entry.name}: selection differs from the inventory tops")
        fixed = Graph(g.n, [(u, v, tables.dist(u, v) if (u, v) in chosen else w)
                            for (u, v), w in g.edge_items()])
        if not is_metric(fixed):
            failures.append(f"{entry.name}: fixing the selection is not metric")
    _finish(6, "decrease-only exactness", failures, f"{len(corpus)} instances")


def test_criterion_7_metric_characterization(corpus, inventories):
    failures = []
    for entry, inventory in zip(corpus, inventories):
        g = entry.graph
        tables = all_pairs_shortest_paths(g)
        metric = is_metric(g)
        empty = len(inventory) == 0
        zero = graph_deficit(g, tables) == 0
        if not (metric == empty == zero):
            failures.append(f"{entry.name}: metric={metric} empty={empty} zero={zero}")
    _finish(7, "metric characterization equivalence", failures, f"{len(corpus)} instances")


def test_criterion_8_determinism_and_scale_invariance(corpus, greedy_solutions):
    failures = []
    lam = Fraction(7, 3)
    for index, (entry, solutions) in enumerate(zip(corpus, greedy_solutions)):
        g = entry.graph
        scaled = g.scaled(lam)
        for kind, solution in solutions.items():
            if greedy_solve(g, kind).edges != solution.edges:
                failures.append(f"{entry.name} {kind.value}: rerun differs")
            if greedy_solve(scaled, kind).edges != solution.edges:
                failures.append(f"{entry.name} {kind.value}: scaling changed the sequence")
            for cover_kind in (CoverKind.REGULAR, CoverKind.NONTOP):
                before = validate_cover(g, solution.edges, cover_kind) is None
                after = validate_cover(scaled, solution.edges, cover_kind) is None
                if before != after:
                    failures.append(f"{entry.name}: cover verdict changed under scaling")
        if index % 5 == 0:  # generator determinism spot checks
            again = gen_random(6, 0.5, 10, 2, seed=31_000 + index)
            first = gen_random(6, 0.5, 10, 2, seed=31_000 + index)
            if again != first:
                failures.append(f"gen_random seed {31_000 + index} not deterministic")
    _finish(8, "determinism and scale-argmax invariance", failures,
            f"{len(corpus)} instances rescaled by 7/3")


def test_criterion_9_polynomial_scaling_shape():
    failures = []
    timings = {}
    for n in (20, 40, 80):
        g = gen_random(n, 0.25, 10, 3, seed=555)
        started = time.perf_counter()
        solution = greedy_solve(g, ProblemKind.GMVD)
        timings[n] = max(time.perf_counter() - started, 1e-3)
        if validate_cover(g, solution.edges, CoverKind.REGULAR) is not None:
            failures.append(f"n={n}: solution invalid")
    total = sum(timings.values())
    if total >= 300:
        failures.append(f"total solve time {total:.1f}s exceeds five minutes")
    growth = timings[80] / timings[20]
    # the per-round cost is O(n^3 + m^2); with m ~ n^2 a 4x n gives ~256x,
    # so anything within a generous constant of that is polynomial-shaped
    if growth > 4096:
        failures.append(f"t(80)/t(20) = {growth:.0f} looks super-polynomial")
    _finish(9, "polynomial scaling shape", failures,
            f"t20={timings[20]:.2f}s t40={timings[40]:.2f}s t80={timings[80]:.2f}s")
