from __future__ import annotations

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import metric_mend
from metric_mend.cli import run_pipeline
from metric_mend.core import (
    CoverKind,
    Graph,
    INFINITY,
    InstanceFormatError,
    MAX_VERTICES,
    all_pairs_shortest_paths,
    dijkstra,
    excess_map,
    excesses,
    find_uncovered_cycle,
    graph_deficit,
    is_metric,
    parse_cover,
    parse_instance,
    serialize_instance,
    shortest_path_counts,
    validate_cover,
)
from metric_mend import core, repair
from metric_mend.oracle import enumerate_unbalanced_cycles
from metric_mend.reductions import parse_lbcut, parse_multicut
from metric_mend.solver import ProblemKind, greedy_solve, solve_decrease_only

import helpers
from conftest import K3_TEXT


class TestParsing:
    def test_k3_transcription(self, k3):
        assert k3.n == 3 and k3.m == 3
        assert k3.weight(0, 1) == 1
        assert k3.weight(1, 2) == 1
        assert k3.weight(0, 2) == 5

    def test_rational_weights(self):
        g = parse_instance("3 2\n0 1 1/2\n1 2 3/2")
        assert g.weight(0, 1) == Fraction(1, 2)
        assert g.weight(1, 2) == Fraction(3, 2)

    def test_comments_and_blanks(self):
        g = parse_instance("# header\n3 1\n\n0 1 2  # trailing\n")
        assert g.weight(0, 1) == 2

    @pytest.mark.parametrize("text, fragment", [
        ("2 1\n0 0 1", "self-loop"),
        ("2 2\n0 1 1\n1 0 2", "duplicate"),
        ("2 1\n0 1 0", "nonpositive"),
        ("2 1\n0 1 -3", "nonpositive"),
        ("2 1\n0 2 1", "out of range"),
        ("2 1\n0 1", "expected 'u v w'"),
        ("2 1\n0 1 x", "malformed weight"),
        ("2 1\n0 1 1/0", "malformed weight"),
        ("2 1\n0 1 1/-2", "malformed weight '1/-2'"),
        ("2 1\n0 1 -3", "nonpositive weight -3"),
        ("3 -1", "count 'm' must be nonnegative"),
        ("2 1\n0 1 " + "\u0663" * 5000, "malformed weight"),
        ("not a header", "expected header"),
        ("", "empty"),
        ("2 2\n0 1 1", "expected 2 edge lines"),
        ("1 0\nextra", "trailing"),
    ])
    def test_rejects_bad_input(self, text, fragment):
        with pytest.raises(InstanceFormatError, match=fragment):
            parse_instance(text)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("token", ["9" * 5000, "1/" + "7" * 5000])
    def test_an_over_long_weight_names_the_digit_limit(self, token):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(InstanceFormatError, match=rf"more than {limit} digits") as err:
            parse_instance(f"2 1\n0 1 {token}")
        assert err.value.line == 2 and len(str(err.value)) < 100

    def test_error_carries_line_number(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("# intro\n3 2\n0 1 1\n1 1 4")
        assert err.value.line == 4

    @pytest.mark.parametrize("parse, text", [
        (parse_instance, f"{MAX_VERTICES + 1} 0"),
        (parse_instance, "0 0"),
        (parse_instance, "-4 0"),
        (parse_instance, "3 -1"),
        (parse_multicut, f"{MAX_VERTICES + 1} 0\nD 0"),
        (parse_multicut, "3 -1\nD 0"),
        (parse_lbcut, "3 -1\nLB 0 2 1"),
        (parse_lbcut, "0 0\nLB 0 2 1"),
    ])
    def test_header_rules_reject_at_line_1(self, parse, text):
        with pytest.raises(InstanceFormatError) as err:
            parse(text)
        assert err.value.line == 1

    def test_vertex_cap_admits_max_vertices(self):
        assert parse_instance(f"# cap\n{MAX_VERTICES} 0").n == MAX_VERTICES

    def test_cover_names_its_line(self, k3):
        assert parse_cover("0 2  # chord\n\n1 0\n", k3) == [(0, 2), (0, 1)]
        with pytest.raises(InstanceFormatError, match="not an edge") as err:
            parse_cover("0 2\n1 5\n", k3)
        assert err.value.line == 2

    def test_serialize_canonical_order(self, k3):
        assert serialize_instance(k3) == "3 3\n0 1 1\n0 2 5\n1 2 1"

    def test_serialize_singleton(self):
        assert serialize_instance(Graph(1, [])) == "1 0"

    def test_round_trip(self, k3):
        assert parse_instance(serialize_instance(k3)) == k3


class TestShortestPaths:
    def test_unit_square_counts(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        t = all_pairs_shortest_paths(g)
        assert t.dist(0, 2) == 2
        assert t.spcount(0, 2) == 2

    def test_k3_heavy_edge_not_shortest(self, k3):
        t = all_pairs_shortest_paths(k3)
        assert t.dist(0, 2) == 2
        assert t.spcount(0, 2) == 1

    def test_path_conventions(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        t = all_pairs_shortest_paths(g)
        assert t.dist(0, 2) == 2 and t.spcount(0, 2) == 1
        assert t.dist(0, 0) == 0 and t.spcount(0, 0) == 1

    def test_disconnected_pair(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        t = all_pairs_shortest_paths(g)
        assert t.dist(0, 2) == INFINITY
        assert t.spcount(0, 2) == 0

    def test_without_edges_drops_exactly_the_set(self, k3):
        h = k3.without_edges([(2, 0), (0, 2)])
        assert h.edges() == [(0, 1), (1, 2)] and k3.m == 3
        assert k3.without_edges([]) == k3
        with pytest.raises(KeyError, match=r"no edge \(0, 3\)"):
            Graph(4, [(0, 1, 1), (1, 3, 1)]).without_edges([(0, 1), (3, 0)])

    def test_counts_match_exhaustive_enumeration(self):
        for idx in range(25):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 3, seed=500 + idx)
            t = all_pairs_shortest_paths(g)
            best, count = helpers.brute_shortest_path_counts(g)
            for u in range(g.n):
                for v in range(g.n):
                    assert t.dist(u, v) == best[u][v]
                    assert t.spcount(u, v) == count[u][v]

    def test_a_bounded_count_row_keeps_what_lies_within_its_bound(self):
        for idx in range(25):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 3, seed=500 + idx)
            best, count = helpers.brute_shortest_path_counts(g)
            for s in range(g.n):
                for bound in sorted({d for d in best[s] if d != INFINITY}):
                    dist, cnt = shortest_path_counts(g, s, bound)
                    # exact below the bound and, on positive weights, at it;
                    # past it INFINITY or a tentative value above the distance
                    for d, b in zip(dist, best[s]):
                        assert d == b if b <= bound else d >= b
                    assert cnt == [c if d < bound else 0 for d, c in zip(best[s], count[s])]

    def test_tables_are_a_metric(self):
        g = helpers.rational_instance(n=7, violations=2, seed=77)
        t = all_pairs_shortest_paths(g)
        for u in range(g.n):
            assert t.dist(u, u) == 0
            for v in range(g.n):
                assert t.dist(u, v) == t.dist(v, u)
                for w in range(g.n):
                    if t.dist(u, w) != INFINITY and t.dist(w, v) != INFINITY:
                        assert t.dist(u, v) <= t.dist(u, w) + t.dist(w, v)

    def test_counting_rejects_zero_weights(self):
        g = helpers.graph_with_zeros(2, [(0, 1, 0)])
        with pytest.raises(ValueError, match="positive"):
            all_pairs_shortest_paths(g)


class TestDeficit:
    def test_k3(self, k3):
        assert graph_deficit(k3, all_pairs_shortest_paths(k3)) == 3

    def test_unit_square_is_metric(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert graph_deficit(g, all_pairs_shortest_paths(g)) == 0
        assert is_metric(g)

    def test_chorded_square(self, chorded_square):
        t = all_pairs_shortest_paths(chorded_square)
        assert graph_deficit(chorded_square, t) == 3

    def test_matches_oracle_max(self):
        for idx in range(30):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 4, seed=1300 + idx)
            t = all_pairs_shortest_paths(g)
            inventory = enumerate_unbalanced_cycles(g)
            assert graph_deficit(g, t) == inventory.max_deficit

    def test_is_metric_examples(self, k3):
        assert not is_metric(k3)
        assert is_metric(Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)]))
        assert is_metric(Graph(5, [(0, 1, 3), (1, 2, 1), (1, 3, 7), (3, 4, 2)]))  # a tree


class TestUncoveredCycle:
    def test_k3_witness(self, k3):
        w = find_uncovered_cycle(k3, (), ())
        assert w is not None
        assert w.top == (0, 2)
        assert set(w.nontop) == {(0, 1), (1, 2)}
        assert w.deficit == 3
        helpers.verify_witness(k3, w)

    def test_top_covered(self, k3):
        assert find_uncovered_cycle(k3, {(0, 2)}, ()) is None

    def test_nontop_covered(self, k3):
        assert find_uncovered_cycle(k3, (), {(0, 1)}) is None

    def test_rejects_non_edges(self, k3):
        with pytest.raises(ValueError, match="non-edge"):
            find_uncovered_cycle(k3, {(0, 7)}, ())

    def test_names_the_smallest_non_edge(self):
        # a frozenset of (0, 2) and (2, 3) iterates (2, 3) first
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1)])
        for top, nontop, label in [({(2, 3), (0, 2)}, (), "top_cover"),
                                   ((), [(3, 2), (2, 0)], "nontop_cover")]:
            with pytest.raises(ValueError, match=rf"{label} contains non-edge \(0, 2\)$"):
                find_uncovered_cycle(g, top, nontop)

    def test_agrees_with_oracle_escape_search(self):
        rng = random.Random(4242)
        for idx in range(40):
            g = helpers.rational_instance(n=4 + idx % 3, violations=idx % 4, seed=2000 + idx)
            edges = g.edges()
            a = frozenset(e for e in edges if rng.random() < 0.3)
            b = frozenset(e for e in edges if rng.random() < 0.3)
            witness = find_uncovered_cycle(g, a, b)
            escapes = [c for c in enumerate_unbalanced_cycles(g).cycles
                       if c.top not in a and not (set(c.nontop) & b)]
            if witness is None:
                assert not escapes
            else:
                assert escapes
                helpers.verify_witness(g, witness)
                assert witness.top not in a
                assert not (set(witness.nontop) & b)

    def test_memory_stays_linear_on_a_large_graph(self):
        rng = random.Random(1000)
        n, m = 1000, 2995
        pairs = {(rng.randrange(i), i) for i in range(1, n)}  # a spanning tree
        while len(pairs) < m:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph(n, [(u, v, rng.randint(1, 100)) for u, v in sorted(pairs)])
        tracemalloc.start()
        try:
            w = find_uncovered_cycle(g, (), ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w.top, w.nontop, w.deficit) == ((178, 385), ((178, 313), (313, 385)), 89)
        # keeping every source's distance and parent rows until the end holds
        # an n x n table (about 13 MiB traced); one row pair at a time is O(n)
        assert peak < 4 * 2**20


class TestValidateCover:
    def test_regular_examples(self, k3):
        assert validate_cover(k3, {(0, 2)}, CoverKind.REGULAR) is None
        assert validate_cover(k3, {(0, 2)}, CoverKind.NONTOP) is not None
        assert validate_cover(k3, {(0, 1)}, CoverKind.NONTOP) is None

    def test_top_cover(self, k3):
        assert validate_cover(k3, {(0, 2)}, CoverKind.TOP) is None
        assert validate_cover(k3, {(0, 1)}, CoverKind.TOP) is not None

    def test_metric_graph_empty_cover(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        for kind in CoverKind:
            assert validate_cover(g, (), kind) is None


def _graphs(draw, max_n=6):
    n = draw(st.integers(3, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = draw(st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(9), max_denominator=4),
        min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


graphs = st.composite(_graphs)


def _zero_graphs(draw, max_n=7):
    """Graphs whose weights mix zeros, ints and Fractions."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [pair for pair in pairs if draw(st.booleans())]
    weights = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 9),
                  st.fractions(min_value=0, max_value=9, max_denominator=4)),
        min_size=len(chosen), max_size=len(chosen)))
    return helpers.graph_with_zeros(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


zero_graphs = st.composite(_zero_graphs)
bounds = st.one_of(st.just(0), st.just(INFINITY), st.integers(0, 20),
                   st.fractions(min_value=0, max_value=20, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(zero_graphs(), st.data())
def test_bounded_dijkstra_is_exact_below_its_bound(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    full_dist, full_parent = helpers.parent_dijkstra(g, source)
    # half the bounds are distances of this run, so ties with the bound occur
    reached = sorted({d for d in full_dist if d != INFINITY})
    bound = data.draw(st.one_of(bounds, st.sampled_from(reached)))
    row = dijkstra(g, source, bound)
    dist, order = row
    assert sorted(order) == [v for v in range(g.n) if full_dist[v] < bound]
    for v in range(g.n):
        if full_dist[v] < bound:
            assert dist[v] == full_dist[v]
            assert core._path_from_row(g, row, v) == helpers.parent_path(full_parent, source, v)
        else:
            assert dist[v] >= bound


@settings(max_examples=150, deadline=None)
@given(helpers.count_graphs(), st.data())
def test_dijkstra_settles_by_distance_then_id(g, data):
    """On positive weights every vertex at distance d is in the heap before
    the first one at d is settled, so the settle order is sorted."""
    source = data.draw(st.integers(0, g.n - 1))
    bound = data.draw(bounds)
    dist, order = dijkstra(g, source, bound)
    assert order == sorted((v for v in range(g.n) if dist[v] < bound),
                           key=lambda v: (dist[v], v))


@settings(max_examples=100, deadline=None)
@given(zero_graphs())
def test_excesses_answer_w_minus_d_exactly(g):
    expected = {}
    for (u, v), w in g.edge_items():
        d = helpers.parent_dijkstra(g, u)[0][v]
        if d < w:
            expected[(u, v)] = w - d
    assert excesses(g, g.edge_items()) == expected
    assert list(excesses(g, g.edge_items())) == list(expected)  # in edge order


@settings(max_examples=100, deadline=None)
@given(zero_graphs())
def test_witness_path_is_the_unbounded_reference_path(g):
    """The witness row stops at the top's weight; its path is the one a
    parent-recording run without a bound keeps, zero weights included."""
    witness = find_uncovered_cycle(g, (), ())
    if witness is None:
        assert is_metric(g)
        return
    u, v = witness.top
    vertices = helpers.parent_path(helpers.parent_dijkstra(g, u)[1], u, v)
    assert witness.nontop == tuple(core.canonical_edge(x, y)
                                   for x, y in zip(vertices, vertices[1:]))


def test_excesses_with_an_all_zero_row():
    """Vertex 0's listed edges all weigh 0, so its run stops at once; the
    rows after it still read exact distances below their weights."""
    g = helpers.graph_with_zeros(4, [(0, 1, 0), (0, 2, 0), (1, 2, 3), (1, 3, 1), (2, 3, 0)])
    assert excesses(g, g.edge_items()) == {(1, 2): 3, (1, 3): 1}
    witness = find_uncovered_cycle(g, {(1, 2)}, ())  # closes (1, 3): 1 -> 0 -> 2 -> 3
    assert witness.top == (1, 3) and witness.deficit == 1
    assert witness.nontop == ((0, 1), (0, 2), (2, 3))


@settings(max_examples=150, deadline=None)
@given(helpers.small_graphs(), st.data())
def test_a_check_filters_the_kept_map_of_its_nontop_cover(g, data):
    """Each check equals the search of G minus the non-top cover b over the
    edges outside the top cover a, and the same answer comes back when the
    pair is asked again after other pairs have filled other maps."""
    subsets = st.frozensets(st.sampled_from(g.edges())) if g.m else st.just(frozenset())
    pairs = data.draw(st.lists(st.tuples(subsets, subsets), min_size=1, max_size=4))
    answers = []
    for a, b in pairs:
        searched = excesses(g.without_edges(b), [(e, w) for e, w in g.edge_items() if e not in a])
        answers.append(find_uncovered_cycle(g, a, b))
        assert answers[-1] == core._witness(g, searched, b)
    assert [find_uncovered_cycle(g, a, b) for a, b in pairs] == answers


def _edge_lists(draw, max_n=7):
    """``(n, edges)``: int and Fraction weights, each pair in either
    orientation, the list in any order."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = draw(st.lists(
        st.one_of(st.integers(1, 9),
                  st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)),
        min_size=len(chosen), max_size=len(chosen)))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u, w) if flip else (u, v, w) for (u, v), w, flip in zip(chosen, weights, flips)]
    return n, draw(st.permutations(edges))


@settings(max_examples=100, deadline=None)
@given(st.composite(_edge_lists)(), st.data())
def test_edge_order_is_fixed_at_construction(edge_list, data):
    """Every graph, built or derived, lists its edges sorted, keeps each row
    in increasing neighbour order, and equals the graph built from its
    sorted edge list, rows included."""
    n, edges = edge_list
    g = Graph(n, edges)
    edge = data.draw(st.sampled_from(g.edges()))
    dropped = data.draw(st.lists(st.sampled_from(g.edges()), unique=True))
    lam = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=7, max_denominator=3))
    for h in (g, g.with_weight(edge, data.draw(st.integers(0, 9))), g.without_edges(dropped),
              g.scaled(lam)):
        items = h.edge_items()
        assert h.edges() == sorted(h.edges()) == [e for e, _ in items]
        rebuilt = helpers.graph_with_zeros(n, [(u, v, w) for (u, v), w in sorted(items)])
        assert h == rebuilt and rebuilt.edge_items() == items
        for u in range(n):
            ids = [x for x, _ in h.neighbors(u)]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert h.neighbors(u) == rebuilt.neighbors(u)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_serialize_round_trip_property(g):
    assert parse_instance(serialize_instance(g)) == g


@settings(max_examples=40, deadline=None)
@given(graphs(), st.fractions(min_value=Fraction(1, 3), max_value=Fraction(7), max_denominator=3))
def test_scaling_property(g, lam):
    scaled = g.scaled(lam)
    t, ts = all_pairs_shortest_paths(g), all_pairs_shortest_paths(scaled)
    for u in range(g.n):
        for v in range(g.n):
            if t.dist(u, v) == INFINITY:
                assert ts.dist(u, v) == INFINITY
            else:
                assert ts.dist(u, v) == t.dist(u, v) * lam
            assert ts.spcount(u, v) == t.spcount(u, v)
    assert graph_deficit(scaled, ts) == graph_deficit(g, t) * lam


@settings(max_examples=25, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_scaling_preserves_cover_verdicts(g, rng):
    lam = Fraction(7, 3)
    edges = g.edges()
    cover = frozenset(e for e in edges if rng.random() < 0.4)
    scaled = g.scaled(lam)
    for kind in CoverKind:
        assert (validate_cover(g, cover, kind) is None) == \
            (validate_cover(scaled, cover, kind) is None)


def _exact_weights(g: Graph) -> bool:
    return all(type(w) is int or (type(w) is Fraction and w.denominator > 1)
               for _, w in g.edge_items())


class TestWeightTypes:
    """Integral weights are stored as int, all others as Fraction; never a float."""

    def test_parsed_weights(self):
        g = parse_instance("3 3\n0 1 4/2\n1 2 3/2\n0 2 5\n")
        assert [type(w) for _, w in g.edge_items()] == [int, int, Fraction]  # (0,1) (0,2) (1,2)
        assert g.weight(0, 1) == 2

    @pytest.mark.parametrize("w", [1.0, 0.5, float("inf")])
    def test_floats_refused(self, w):
        with pytest.raises(TypeError):
            Graph(2, [(0, 1, w)])

    @settings(max_examples=40, deadline=None)
    @given(graphs(), st.fractions(min_value=Fraction(1, 3), max_value=Fraction(7),
                                  max_denominator=3))
    def test_every_stored_weight_is_exact(self, g, lam):
        for h in (g, parse_instance(serialize_instance(g)), g.scaled(lam),
                  g.with_weight(g.edges()[0], lam)):
            assert _exact_weights(h)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_integer_scaled(self, g):
        scaled, scale = g.integer_scaled()
        assert scale == math.lcm(*(w.denominator for _, w in g.edge_items()))
        assert scaled == g.scaled(scale)
        assert all(type(w) is int for _, w in scaled.edge_items())
        t = all_pairs_shortest_paths(scaled)
        assert all(type(d) is int or d == INFINITY
                   for u in range(g.n) for d in t.row(u)[0])
        assert scaled.integer_scaled() == (scaled, 1)
        back = scaled.unscaled(scale)
        assert back == g and all(type(w) is int for w in back._weights.values()
                                 if w.denominator == 1)


    def test_scaling_by_one_keeps_the_graph(self, k3):
        assert k3.scaled(1) is k3 and k3.scaled(Fraction(3, 3)) is k3
        assert k3.integer_scaled()[0] is k3 and k3.unscaled(1) is k3


class TestDerivedGraphs:
    """The constructor checks edges from outside; a derived graph reuses the
    checked weights and checks only the value its mutator is given."""

    @staticmethod
    def _count_checked_builds(monkeypatch) -> list:
        builds = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        return builds

    def test_mutators_build_no_checked_graph(self, monkeypatch):
        g = helpers.rational_instance(n=7, violations=2, seed=77)
        builds = self._count_checked_builds(monkeypatch)
        derived = [g.with_weight(g.edges()[0], 0), g.with_weight(g.edges()[1], Fraction(7, 3)),
                   g.without_edges(g.edges()[:3]), g.scaled(Fraction(5, 2)),
                   g.integer_scaled()[0]]
        assert builds == []
        assert derived[4] != g and all(type(w) is int for _, w in derived[4].edge_items())
        assert [h.m for h in derived] == [g.m, g.m, g.m - 3, g.m, g.m]

    @pytest.mark.parametrize("kind", [ProblemKind.GMVD, ProblemKind.GMVID])
    def test_pipeline_builds_no_checked_graph(self, monkeypatch, kind):
        g = helpers.rational_instance(n=7, violations=3, seed=123)
        assert g.integer_scaled()[1] > 1 and not is_metric(g)
        builds = self._count_checked_builds(monkeypatch)
        result = run_pipeline(g, kind, repair=True)
        assert builds == []
        assert result.cover and result.final != g and is_metric(result.final)

    def test_with_weight_keeps_its_refusals(self, k3):
        for w, shown in [(-1, "-1"), (Fraction(-1, 2), "-1/2")]:
            with pytest.raises(ValueError, match=rf"weight {shown} on edge \(0, 1\)"):
                k3.with_weight((1, 0), w)
        with pytest.raises(TypeError):
            k3.with_weight((0, 1), 0.5)
        with pytest.raises(KeyError):
            k3.with_weight((0, 3), 1)
        zero = k3.with_weight((1, 0), 0)
        assert zero.weight(0, 1) == 0 and zero.has_zero_weight()
        assert not k3.has_zero_weight()


class TestCheckMemo:
    """A graph keeps one excess map per non-top cover that a cycle check has
    asked about; a derived graph is a new object and asks afresh."""

    @staticmethod
    def _count(monkeypatch) -> tuple[list, list]:
        """Calls of find_uncovered_cycle, and whole-graph excess passes: a
        graph's excess map or a search of a graph minus a non-top cover."""
        calls, passes = [], []
        find, scan = core.find_uncovered_cycle, core.excesses

        def counting_find(*args):
            calls.append(args[0])
            return find(*args)

        def counting_scan(*args):
            passes.append(args[0])
            return scan(*args)

        for module in (core, repair):
            monkeypatch.setattr(module, "find_uncovered_cycle", counting_find)
        monkeypatch.setattr(core, "excesses", counting_scan)
        return calls, passes

    @pytest.mark.parametrize("kind, n_calls, n_passes", [
        (ProblemKind.GMVD, 5, 3), (ProblemKind.GMVID, 3, 3), (ProblemKind.GMVDD, 1, 2)])
    def test_pipeline_runs_each_distinct_check_once(self, monkeypatch, kind,
                                                    n_calls, n_passes):
        """The greedy or gmvdd and the repair's first pass share the input's
        map, the repaired graph's map serves the repair's confirm and the
        verdict, and the moves recheck edges without a whole-graph pass, so
        the totals do not grow with the moves.  This gmvd split has an empty
        decrease half, so the cover check and the split's final check both
        search G - S and share its map."""
        g = helpers.rational_instance(n=7, violations=3, seed=123)
        calls, passes = self._count(monkeypatch)
        result = run_pipeline(g, kind, repair=True)
        assert result.steps > 1 and result.verdicts["all_ok"]
        assert kind is not ProblemKind.GMVD or not result.split.s_minus
        assert len(calls) == n_calls
        assert len(passes) == n_passes

    def test_a_decrease_half_gives_the_split_check_its_own_pass(self, monkeypatch):
        """With a non-empty decrease half S-, the split's final check searches
        G - S+, not G - S: one pass more than with an empty one."""
        g = helpers.rational_instance(n=7, violations=3, seed=100)
        calls, passes = self._count(monkeypatch)
        result = run_pipeline(g, ProblemKind.GMVD, repair=True)
        assert result.steps > 1 and result.verdicts["all_ok"] and result.split.s_minus
        assert (len(calls), len(passes)) == (5, 4)

    def test_a_derived_graph_starts_with_no_answers(self, monkeypatch):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        assert is_metric(g)
        _, passes = self._count(monkeypatch)
        assert is_metric(g) and g.scaled(1) is g and passes == []
        heavy = g.with_weight((0, 2), 5)
        assert not is_metric(heavy) and len(passes) == 1
        assert find_uncovered_cycle(heavy, (), ()).deficit == 3 and len(passes) == 1
        for derived in (g.without_edges([(0, 2)]), g.scaled(2), heavy.with_weight((0, 2), 2)):
            assert is_metric(derived)
        assert len(passes) == 4

    def test_readers_leave_the_kept_map_unchanged(self):
        gs = helpers.rational_instance(n=7, violations=3, seed=123).integer_scaled()[0]
        kept = excess_map(gs)
        before = dict(kept)
        cover = greedy_solve(gs, ProblemKind.GMVD).edges
        repair.repair_weights(gs, repair.split_cover(gs, cover))
        assert solve_decrease_only(gs) == {e: gs.weight(*e) - x for e, x in before.items()}
        assert excess_map(gs) is kept and kept == before and list(kept) == list(before)

    def test_an_answered_check_still_refuses_non_edges(self, k3):
        assert find_uncovered_cycle(k3, [(0, 2)], ()) is None
        with pytest.raises(ValueError, match=r"top_cover contains non-edge \(0, 3\)"):
            find_uncovered_cycle(k3, [(0, 2), (0, 3)], ())
        with pytest.raises(ValueError, match="nontop_cover"):
            find_uncovered_cycle(k3, [(0, 2)], [(1, 3)])


def test_shared_k3_fixture_text(k3):
    assert parse_instance(K3_TEXT) == k3


def test_every_public_name_resolves():
    for name in metric_mend.__all__:
        assert getattr(metric_mend, name) is not None, name
    assert len(set(metric_mend.__all__)) == len(metric_mend.__all__)


_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "7", "10001", "1/2", "3/0", "-2/3",
                           "x", "D", "LB", "#", "9" * 5000, "1e3", "0x1"])
_TOKEN_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join)


class TestParserFuzz:
    """Whatever the text, the only exception a parser raises is InstanceFormatError."""

    @pytest.mark.parametrize("parse", [
        parse_instance, parse_multicut, parse_lbcut,
        lambda text: parse_cover(text, parse_instance(K3_TEXT)),
    ], ids=["instance", "multicut", "lbcut", "cover"])
    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(st.text(max_size=60), _TOKEN_LINES))
    def test_only_format_errors_escape(self, parse, text):
        try:
            parse(text)
        except InstanceFormatError:
            pass
