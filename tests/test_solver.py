from __future__ import annotations

import math
from fractions import Fraction

import pytest

from metric_mend.core import (
    Graph,
    all_pairs_shortest_paths,
    graph_deficit,
    validate_cover,
)
from metric_mend.oracle import brute_count, enumerate_unbalanced_cycles, exact_min_cover
from metric_mend.solver import (
    CoverSolution,
    ProblemKind,
    Role,
    count_nontop,
    count_report,
    count_top,
    greedy_solve,
    solve_decrease_only,
)

import helpers


@pytest.fixture
def chord_tables(chorded_square):
    return all_pairs_shortest_paths(chorded_square)


class TestCountTop:
    def test_chord_counts_both_triangles(self, chorded_square, chord_tables):
        assert count_top(chorded_square, chord_tables, Fraction(3), (0, 2)) == 2

    def test_light_edge_counts_nothing(self, chorded_square, chord_tables):
        assert count_top(chorded_square, chord_tables, Fraction(3), (0, 1)) == 0

    def test_k3(self, k3):
        t = all_pairs_shortest_paths(k3)
        assert count_top(k3, t, Fraction(3), (0, 2)) == 1


class TestCountNontop:
    def test_square_edge_sees_one_triangle(self, chorded_square, chord_tables):
        assert count_nontop(chorded_square, chord_tables, Fraction(3), (0, 1)) == 1

    def test_chord_is_always_top(self, chorded_square, chord_tables):
        assert count_nontop(chorded_square, chord_tables, Fraction(3), (0, 2)) == 0

    def test_k3(self, k3):
        t = all_pairs_shortest_paths(k3)
        assert count_nontop(k3, t, Fraction(3), (0, 1)) == 1

    def test_matches_brute_force_on_random_instances(self):
        for idx in range(40):
            g = helpers.rational_instance(n=4 + idx % 5, violations=idx % 4, seed=3100 + idx)
            t = all_pairs_shortest_paths(g)
            delta = graph_deficit(g, t)
            if delta == 0:
                continue
            for e in g.edges():
                assert count_top(g, t, delta, e) == brute_count(g, delta, e, "top")
                assert count_nontop(g, t, delta, e) == brute_count(g, delta, e, "nontop")


class TestCountReport:
    def test_report_combines_roles(self, chorded_square, chord_tables):
        reports = count_report(chorded_square, chord_tables, Fraction(3), ProblemKind.GMVD)
        assert reports[(0, 2)].count == 2
        assert reports[(0, 1)].count == 1
        assert all(r.count == r.n_top + r.n_nontop for r in reports.values())

    def test_increase_only_ignores_tops(self, chorded_square, chord_tables):
        reports = count_report(chorded_square, chord_tables, Fraction(3), ProblemKind.GMVID)
        assert reports[(0, 2)].count == 0
        assert all(r.count == r.n_nontop for r in reports.values())

    def test_matches_per_edge_views(self, corpus):
        # count_report gathers its counts from the tight tops; count_top and
        # count_nontop are the per-edge views that criterion 1 checks against
        # brute force
        checked = 0
        for entry in corpus:
            for g in (entry.graph, entry.graph.scaled(Fraction(7, 3))):
                t = all_pairs_shortest_paths(g)
                delta = graph_deficit(g, t)
                if delta == 0:
                    continue
                reports = count_report(g, t, delta, ProblemKind.GMVD)
                assert list(reports) == g.edges()
                for e in g.edges():
                    assert reports[e].n_top == count_top(g, t, delta, e), (entry.name, e)
                    assert reports[e].n_nontop == count_nontop(g, t, delta, e), (entry.name, e)
                    checked += 1
        assert checked > 5000

    def test_requires_positive_deficit(self, chorded_square, chord_tables):
        with pytest.raises(ValueError):
            count_report(chorded_square, chord_tables, Fraction(0), ProblemKind.GMVD)


class TestGreedySolve:
    def test_k3_tie_break_is_lexicographic(self, k3):
        sol = greedy_solve(k3, ProblemKind.GMVD)
        assert sol.edges == ((0, 1),)
        assert sol.layer_deficits == (Fraction(3),)

    def test_chord_wins_on_count(self, chorded_square):
        sol = greedy_solve(chorded_square, ProblemKind.GMVD)
        assert sol.edges == ((0, 2),)

    def test_increase_only_picks_two_square_edges(self, chorded_square):
        sol = greedy_solve(chorded_square, ProblemKind.GMVID)
        square = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert len(sol.edges) == 2
        assert set(sol.edges) <= square
        assert all(r is Role.INCREASE for r in sol.roles)

    def test_metric_input_returns_empty(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
            sol = greedy_solve(g, kind)
            assert sol.edges == ()
            assert sol.layer_deficits == ()

    def test_rejects_decrease_only(self, k3):
        with pytest.raises(ValueError):
            greedy_solve(k3, ProblemKind.GMVDD)

    def test_always_valid_on_random_instances(self):
        for idx in range(30):
            g = helpers.rational_instance(n=4 + idx % 5, violations=idx % 4, seed=4100 + idx)
            for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
                sol = greedy_solve(g, kind)
                assert validate_cover(g, sol.edges, kind.cover_kind) is None

    def test_each_step_is_an_argmax(self):
        # replay the recorded selections and recompute the counts they beat
        g = helpers.rational_instance(n=6, violations=3, seed=808)
        for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
            sol = greedy_solve(g, kind)
            work = g
            for chosen in sol.edges:
                t = all_pairs_shortest_paths(work)
                delta = graph_deficit(work, t)
                assert delta > 0
                reports = count_report(work, t, delta, kind)
                best = max(reports.values(), key=lambda r: r.count).count
                assert reports[chosen].count == best
                smaller = [e for e in work.edges()
                           if e < chosen and reports[e].count == best]
                assert not smaller, "tie must resolve to the smallest edge"
                work = work.without_edges([chosen])

    def test_layer_deficits_strictly_decrease(self):
        for idx in range(15):
            g = helpers.rational_instance(n=5 + idx % 3, violations=1 + idx % 3,
                                          seed=909 + idx)
            inventory = enumerate_unbalanced_cycles(g)
            for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
                sol = greedy_solve(g, kind)
                assert all(a > b for a, b in
                           zip(sol.layer_deficits, sol.layer_deficits[1:]))
                # every encountered layer value is a deficit of the original graph
                assert len(sol.layer_deficits) <= len(inventory.distinct_deficits)
                assert set(sol.layer_deficits) <= set(inventory.distinct_deficits)

    def test_greedy_bound_against_oracle(self):
        for idx in range(20):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 4, seed=5100 + idx)
            inventory = enumerate_unbalanced_cycles(g)
            for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
                sol = greedy_solve(g, kind)
                opt = exact_min_cover(g, kind.cover_kind)
                assert sol.size >= opt.size
                if len(inventory):
                    bound = len(sol.layer_deficits) * (1 + math.log(len(inventory))) * opt.size
                    assert sol.size <= bound

    def test_rescaling_keeps_selection_order(self):
        g = helpers.rational_instance(n=6, violations=2, seed=321)
        scaled = g.scaled(Fraction(7, 3))
        for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
            assert greedy_solve(g, kind).edges == greedy_solve(scaled, kind).edges


class TestDecreaseOnly:
    def test_k3(self, k3):
        t = all_pairs_shortest_paths(k3)
        assert solve_decrease_only(k3, t) == {(0, 2)}

    def test_metric_graph_empty(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        assert solve_decrease_only(g, all_pairs_shortest_paths(g)) == frozenset()

    def test_stretched_triangle(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)])
        assert solve_decrease_only(g, all_pairs_shortest_paths(g)) == {(0, 2)}

    def test_setting_to_distance_gives_metric(self):
        from metric_mend.core import is_metric
        for idx in range(15):
            g = helpers.rational_instance(n=5 + idx % 3, violations=idx % 4, seed=6100 + idx)
            t = all_pairs_shortest_paths(g)
            chosen = solve_decrease_only(g, t)
            fixed = Graph(g.n, [(u, v, t.dist(u, v) if (u, v) in chosen else w)
                                for (u, v), w in g.edge_items()])
            assert is_metric(fixed)


class TestCoverSolution:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            CoverSolution(kind=ProblemKind.GMVD, edges=((0, 1), (0, 1)),
                          roles=(Role.UNASSIGNED,) * 2, layer_deficits=())

    def test_rejects_nonmonotone_layers(self):
        with pytest.raises(ValueError):
            CoverSolution(kind=ProblemKind.GMVD, edges=((0, 1), (1, 2)),
                          roles=(Role.UNASSIGNED,) * 2,
                          layer_deficits=(Fraction(1), Fraction(2)))
