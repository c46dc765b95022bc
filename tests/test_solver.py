from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from metric_mend import solver
from metric_mend.core import (
    DistanceTables,
    Graph,
    all_pairs_shortest_paths,
    excess_map,
    excesses,
    graph_deficit,
    shortest_path_counts,
    validate_cover,
)
from metric_mend.oracle import brute_count, enumerate_unbalanced_cycles, exact_min_cover
from metric_mend.reductions import gen_random
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

    @pytest.mark.parametrize("kind", [ProblemKind.GMVD, ProblemKind.GMVID])
    def test_rejects_zero_weights(self, kind):
        # a zero weight breaks path counting; (0, 2) still tops a deficit-3 cycle
        g = helpers.graph_with_zeros(4, [(0, 1, 0), (1, 2, 1), (0, 2, 5), (2, 3, 1)])
        with pytest.raises(ValueError, match="strictly positive"):
            greedy_solve(g, kind)

    def test_sparse_peak_memory(self):
        """Rows only at tight-top endpoints: no n x n table at n = 400."""
        g = gen_random(400, 5 / 400, 10, 3, seed=7)
        tracemalloc.start()
        try:
            sol = greedy_solve(g, ProblemKind.GMVD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.edges
        assert peak < 2 * 2**20

    def test_rescaling_keeps_selection_order(self):
        g = helpers.rational_instance(n=6, violations=2, seed=321)
        scaled = g.scaled(Fraction(7, 3))
        for kind in (ProblemKind.GMVD, ProblemKind.GMVID):
            assert greedy_solve(g, kind).edges == greedy_solve(scaled, kind).edges


class TestDecreaseOnly:
    def test_k3(self, k3):
        assert solve_decrease_only(k3) == {(0, 2): 2}

    def test_metric_graph_empty(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        assert solve_decrease_only(g) == {}

    def test_stretched_triangle(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)])
        assert solve_decrease_only(g) == {(0, 2): 3}

    def test_setting_to_distance_gives_metric(self):
        from metric_mend.core import is_metric
        for idx in range(15):
            g = helpers.rational_instance(n=5 + idx % 3, violations=idx % 4, seed=6100 + idx)
            t = all_pairs_shortest_paths(g)
            fixes = solve_decrease_only(g)
            assert set(fixes) == {(u, v) for (u, v), w in g.edge_items() if w > t.dist(u, v)}
            assert fixes == {(u, v): t.dist(u, v) for u, v in fixes}
            fixed = Graph(g.n, [(u, v, fixes.get((u, v), w)) for (u, v), w in g.edge_items()])
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


def _replay(g: Graph, kind: ProblemKind) -> CoverSolution:
    """The greedy from full tables: graph_deficit, count_report, argmax."""
    work, edges, layers = g, [], []
    while (delta := graph_deficit(work, tables := all_pairs_shortest_paths(work))) > 0:
        if not layers or delta != layers[-1]:
            layers.append(delta)
        reports = count_report(work, tables, delta, kind)
        edges.append(min(work.edges(), key=lambda e: (-reports[e].count, e)))
        work = work.without_edges(edges[-1:])
    role = Role.INCREASE if kind is ProblemKind.GMVID else Role.UNASSIGNED
    return CoverSolution(kind=kind, edges=tuple(edges), roles=(role,) * len(edges),
                         layer_deficits=tuple(layers))


@settings(max_examples=150, deadline=None)
@given(helpers.count_graphs(), st.sampled_from([ProblemKind.GMVD, ProblemKind.GMVID]))
def test_greedy_matches_full_table_replay(g, kind):
    assert greedy_solve(g, kind) == _replay(g, kind)


@settings(max_examples=150, deadline=None)
@given(helpers.count_graphs(), st.sampled_from([ProblemKind.GMVD, ProblemKind.GMVID]), st.data())
def test_count_report_needs_rows_only_at_tight_tops(g, kind, data):
    full = all_pairs_shortest_paths(g)
    delta = graph_deficit(g, full)
    if delta == 0:
        return
    tops = [((a, b), w) for (a, b), w in g.edge_items() if w - full.dist(a, b) == delta]
    reach = {}  # lower endpoint -> the longest rest w - delta among its tops
    for (a, _), w in tops:
        reach[a] = max(reach.get(a, 0), w - delta)
    expected = count_report(g, full, delta, kind)
    # rows at both endpoints or at further vertices change nothing either
    extra = data.draw(st.sets(st.integers(0, g.n - 1)))
    for sources in (reach, {v for e, _ in tops for v in e}, reach.keys() | extra):
        partial = DistanceTables({v: shortest_path_counts(g, v) for v in sources})
        assert count_report(g, partial, delta, kind) == expected
    # nor do rows that stop past their tops' longest rest, or further out
    slack = data.draw(st.sampled_from([0, Fraction(1, 2), 1, 100]))
    bounded = DistanceTables({a: shortest_path_counts(g, a, r + slack) for a, r in reach.items()})
    assert count_report(g, bounded, delta, kind) == expected


@settings(max_examples=150, deadline=None)
@given(helpers.count_graphs(), st.sampled_from([ProblemKind.GMVD, ProblemKind.GMVID]))
def test_each_round_asks_enough_edges(g, kind):
    """Every round's excess map, the first read from the graph's kept map and
    each later one asked of the last round's violated edges only, equals a
    full pass over the working graph's edges."""
    rounds = []

    def checked(work, edges):
        edges = list(edges)
        assert edges == sorted(edges)
        excess = excesses(work, edges)
        assert excess == excesses(work, work.edge_items())
        rounds.append(len(edges))
        return excess

    assert excess_map(g) == excesses(g, g.edge_items())
    first = len(excess_map(g))
    with mock.patch.object(solver, "excesses", checked):
        cover = greedy_solve(g, kind)
    assert len(rounds) == cover.size
    assert all(a >= b for a, b in zip([first] + rounds, rounds))
