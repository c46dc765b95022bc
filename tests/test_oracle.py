from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from metric_mend import oracle
from metric_mend.core import CoverKind, Graph, validate_cover
from metric_mend.oracle import (
    BudgetExceededError,
    WorkBudget,
    brute_count,
    brute_lbcut,
    brute_multicut,
    enumerate_unbalanced_cycles,
    exact_min_cover,
)
from metric_mend.reductions import gen_random

import helpers


class TestEnumeration:
    def test_k3_inventory(self, k3):
        inv = enumerate_unbalanced_cycles(k3)
        assert len(inv) == 1
        (cycle,) = inv.cycles
        assert cycle.top == (0, 2)
        assert cycle.deficit == 3
        assert inv.distinct_deficits == (3,)

    def test_unit_square_empty(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert len(enumerate_unbalanced_cycles(g)) == 0

    def test_chorded_square(self, chorded_square):
        inv = enumerate_unbalanced_cycles(chorded_square)
        assert len(inv) == 2
        assert all(c.deficit == 3 for c in inv.cycles)
        assert inv.distinct_deficits == (3,)
        for c in inv.cycles:
            helpers.verify_witness(chorded_square, c)

    def test_cycles_distinct_as_edge_sets(self):
        g = helpers.rational_instance(n=6, violations=3, seed=11)
        inv = enumerate_unbalanced_cycles(g)
        edge_sets = {frozenset(c.edges) for c in inv.cycles}
        assert len(edge_sets) == len(inv.cycles)

    def test_budget_fails_fast(self):
        g = helpers.rational_instance(n=8, violations=0, seed=3, density=1.0)
        with pytest.raises(BudgetExceededError):
            enumerate_unbalanced_cycles(g, budget=WorkBudget(50))


    @pytest.mark.parametrize("make, used", [
        (lambda: Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 5)]), 18),
        (lambda: gen_random(7, 0.6, 10, 2, 11), 105),
        (lambda: gen_random(8, 0.5, 10, 3, 12), 147),
    ], ids=["chorded-square", "n7", "n8"])
    def test_budget_charges_one_unit_per_extension(self, make, used):
        # one unit per neighbour the per-top searches examine
        budget = WorkBudget(10**9)
        enumerate_unbalanced_cycles(make(), budget=budget)
        assert budget.used == used

    @pytest.mark.parametrize("k, h, used", [(7, 4, 220), (8, 6, 350)])
    def test_last_edge_bound_keeps_heavy_spokes_cheap(self, k, h, used):
        """A unit-weight k-clique and h spoke vertices, spoke s joined to
        clique vertices s and s + 1 by edges of weight k.  Every simple path
        in the clique is lighter than a spoke, so a search bounded by path
        length alone would walk them all from each spoke's clique end; one
        that reserves the spoke's other edge, the lightest way into it,
        stops at once."""
        edges = [(i, j, 1) for i in range(k) for j in range(i + 1, k)]
        for s in range(h):
            edges += [(s, k + s, k), ((s + 1) % k, k + s, k)]
        g = Graph(k + h, edges)
        budget = WorkBudget(10**9)
        inventory = enumerate_unbalanced_cycles(g, budget=budget)
        assert inventory == helpers.reference_enumeration(g, WorkBudget(10**9))
        assert budget.used == used

    def test_matches_the_reference_past_the_small_sizes(self):
        # n = 10, m = 30: the all-cycles walk of the reference pays 284,097 units
        g = gen_random(10, 0.6, 10, 3, 1)
        inventory = enumerate_unbalanced_cycles(g)
        assert inventory == helpers.reference_enumeration(g, WorkBudget(10**6))
        assert len(inventory) > 0

    def test_long_cycle_is_not_bounded_by_recursion(self):
        n = 1200
        g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)] + [(0, n - 1, n)])
        inventory = enumerate_unbalanced_cycles(g)
        assert len(inventory) == 1
        assert inventory.cycles[0].top == (0, n - 1)
        assert len(inventory.cycles[0].nontop) == n - 1
        assert inventory.max_deficit == 1


    def test_isolated_vertices_cost_no_scan_per_root(self):
        g = Graph(10_000, [(0, 1, 1)])
        start = time.perf_counter()
        inventory = enumerate_unbalanced_cycles(g)
        assert time.perf_counter() - start < 1.0
        assert len(inventory) == 0

    def test_witness_built_only_for_unbalanced_cycles(self, monkeypatch, chorded_square):
        built = []
        witness = oracle._witness_from_cycle

        def counting(g, vertices):
            built.append(tuple(vertices))
            return witness(g, vertices)

        monkeypatch.setattr(oracle, "_witness_from_cycle", counting)
        # two unbalanced triangles and the balanced unit 4-cycle
        assert len(enumerate_unbalanced_cycles(chorded_square)) == len(built) == 2
        built.clear()
        assert len(enumerate_unbalanced_cycles(Graph(
            4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]))) == len(built) == 0
        for seed in range(6):
            built.clear()
            assert len(enumerate_unbalanced_cycles(gen_random(7, 0.6, 10, 2, seed))) == len(built)


def _outcome(g: Graph, limit: int, used: int):
    budget = WorkBudget(limit, used)
    try:
        result = enumerate_unbalanced_cycles(g, budget)
    except BudgetExceededError as exc:
        result = str(exc)
    return result, budget.used


@settings(max_examples=150, deadline=None)
@given(helpers.small_graphs())
@example(Graph(8, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (4, 5, 2), (5, 6, 2), (4, 6, 9)]))
@example(Graph(6, [(1, 2, Fraction(1, 2)), (2, 4, Fraction(1, 3)), (1, 4, 1), (3, 5, 2)]))
@example(Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (2, 3, 1), (0, 3, 3)]))  # tight cycles
def test_enumerator_matches_its_reference(g):
    budget = WorkBudget(10**9)
    inventory = enumerate_unbalanced_cycles(g, budget=budget)
    assert inventory == helpers.reference_enumeration(g, WorkBudget(10**9))
    total = budget.used
    # at and around the unit where the budget runs out, from a fresh budget
    # and from one a previous search has partly used
    for limit in range(max(total - 3, 0), total + 2):
        for prior in (0, 7):
            if limit < total:
                expected = (f"work budget of {limit + prior} exhausted", limit + prior + 1)
            else:
                expected = (inventory, prior + total)
            assert _outcome(g, limit + prior, prior) == expected


class TestBruteCount:
    def test_chorded_square_counts(self, chorded_square):
        assert brute_count(chorded_square, Fraction(3), (0, 2), "top") == 2
        assert brute_count(chorded_square, Fraction(3), (0, 1), "nontop") == 1
        assert brute_count(chorded_square, Fraction(3), (0, 2), "nontop") == 0

    def test_delta_above_maximum(self, chorded_square):
        assert brute_count(chorded_square, Fraction(9), (0, 2), "top") == 0

    def test_bad_role(self, k3):
        with pytest.raises(ValueError, match="role"):
            brute_count(k3, Fraction(3), (0, 2), "middle")


class TestExactMinCover:
    def test_k3_regular(self, k3):
        sol = exact_min_cover(k3, CoverKind.REGULAR)
        assert sol.size == 1

    def test_k3_nontop(self, k3):
        sol = exact_min_cover(k3, CoverKind.NONTOP)
        assert sol.size == 1
        assert sol.edges[0] in {(0, 1), (1, 2)}

    def test_metric_graph(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        assert exact_min_cover(g, CoverKind.REGULAR).size == 0

    def test_lexicographically_first(self, chorded_square):
        sol = exact_min_cover(chorded_square, CoverKind.NONTOP)
        assert sol.size == 2
        # (0,1) hits the a-b-c triangle, (0,3) the a-c-d one; both are the
        # lexicographically smallest choices at that size
        assert sol.edges == ((0, 1), (0, 3))

    def test_result_is_always_valid(self):
        for idx in range(20):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 4, seed=600 + idx)
            for kind in (CoverKind.REGULAR, CoverKind.NONTOP):
                sol = exact_min_cover(g, kind)
                assert validate_cover(g, sol.edges, kind) is None

    def test_nontop_never_smaller_than_regular(self):
        for idx in range(20):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 4, seed=900 + idx)
            regular = exact_min_cover(g, CoverKind.REGULAR).size
            nontop = exact_min_cover(g, CoverKind.NONTOP).size
            assert nontop >= regular

    def test_takes_an_inventory(self):
        g = gen_random(7, 0.6, 10, 2, 11)
        for kind in (CoverKind.REGULAR, CoverKind.NONTOP):
            alone, shared = WorkBudget(10**6), WorkBudget(10**6)
            expected = exact_min_cover(g, kind, budget=alone)
            inventory = enumerate_unbalanced_cycles(g, budget=shared)
            assert exact_min_cover(g, kind, budget=shared, inventory=inventory) == expected
            assert shared.used == alone.used

    def test_top_kind_rejected(self, k3):
        with pytest.raises(ValueError):
            exact_min_cover(k3, CoverKind.TOP)


class TestBruteCuts:
    def test_multicut_path(self):
        cut = brute_multicut(3, [(0, 1), (1, 2)], [(0, 2)])
        assert len(cut) == 1

    def test_multicut_no_demands(self):
        assert brute_multicut(3, [(0, 1), (1, 2)], []) == frozenset()

    def test_multicut_feasibility(self):
        edges = [(0, 1), (1, 2), (0, 3), (3, 2), (1, 3)]
        demands = [(0, 2)]
        cut = brute_multicut(4, edges, demands)
        assert helpers.multicut_feasible(edges, cut, demands)
        assert not helpers.multicut_feasible(edges, frozenset(), demands)

    def test_lbcut_two_paths(self):
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]
        cut = brute_lbcut(5, edges, 0, 2, 2)
        assert len(cut) == 1
        assert helpers.lbcut_feasible(edges, cut, 0, 2, 2)

    def test_multicut_is_the_lbcut_at_bound_n_minus_1(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(2, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            s, t = pairs.pop()
            edges = pairs[:rng.randint(0, min(8, len(pairs)))]
            multicut, lbcut = WorkBudget(10_000), WorkBudget(10_000)
            assert (brute_multicut(n, edges, [(s, t)], budget=multicut)
                    == brute_lbcut(n, edges, s, t, n - 1, budget=lbcut))
            assert multicut.used == lbcut.used

    def test_lbcut_bound_already_met(self):
        assert brute_lbcut(3, [(0, 1), (1, 2)], 0, 2, 1) == frozenset()
