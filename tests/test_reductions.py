from __future__ import annotations

import random

import pytest

from metric_mend.core import (
    CoverKind,
    Graph,
    InstanceFormatError,
    MAX_VERTICES,
    all_pairs_shortest_paths,
    graph_deficit,
    is_metric,
)
from metric_mend.oracle import (
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
    parse_lbcut,
    parse_multicut,
    serialize_lbcut,
    serialize_multicut,
)

import helpers


class TestMulticutReduction:
    def test_path_demand_becomes_triangle(self):
        mc = MulticutInstance(n=3, edges=((0, 1), (1, 2)), demands=((0, 2),))
        art = multicut_to_gmvid(mc)
        assert art.instance.weight(0, 1) == 1
        assert art.instance.weight(1, 2) == 1
        assert art.instance.weight(0, 2) == 3
        assert exact_min_cover(art.instance, CoverKind.NONTOP).size == 1

    def test_star_demand(self):
        mc = MulticutInstance(n=3, edges=((0, 2), (1, 2)), demands=((0, 1),))
        art = multicut_to_gmvid(mc)
        assert art.instance.weight(0, 1) == 3
        assert exact_min_cover(art.instance, CoverKind.NONTOP).size == 1

    def test_no_demands_is_metric(self):
        mc = MulticutInstance(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)), demands=())
        art = multicut_to_gmvid(mc)
        assert is_metric(art.instance)
        assert exact_min_cover(art.instance, CoverKind.NONTOP).size == 0

    def test_demand_on_edge_rejected(self):
        with pytest.raises(ValueError, match="strip"):
            MulticutInstance(n=3, edges=((0, 1),), demands=((0, 1),))

    def test_cycle_structure(self):
        # no unbalanced cycle carries two heavy edges, none is all-unit
        mc = MulticutInstance(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)),
                              demands=((0, 2), (1, 3)))
        art = multicut_to_gmvid(mc)
        heavy = art.added_edges
        for cycle in enumerate_unbalanced_cycles(art.instance).cycles:
            in_heavy = [e for e in cycle.edges if e in heavy]
            assert len(in_heavy) == 1
            assert cycle.top in heavy

    def test_optimum_equivalence_randomized(self):
        rng = random.Random(88)
        for _ in range(40):
            n = rng.randint(3, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            edges = tuple(sorted(pairs[:rng.randint(1, min(8, len(pairs)))]))
            rest = [p for p in pairs if p not in edges]
            demands = tuple(sorted(rest[:rng.randint(0, min(3, len(rest)))]))
            mc = MulticutInstance(n=n, edges=edges, demands=demands)
            art = multicut_to_gmvid(mc)
            source = brute_multicut(n, list(edges), list(demands))
            reduced = exact_min_cover(art.instance, CoverKind.NONTOP)
            assert len(source) == reduced.size
            mapped = art.map_back(reduced.edges)
            assert helpers.multicut_feasible(edges, mapped, demands)


class TestLbCutReduction:
    def test_two_route_example(self):
        lb = LbCutInstance(n=5, edges=((0, 1), (1, 2), (0, 3), (3, 4), (4, 2)),
                           source=0, sink=2, bound=2)
        art = lbcut_to_gmvid(lb)
        assert art.instance.weight(0, 2) == 3
        inventory = enumerate_unbalanced_cycles(art.instance)
        assert len(inventory) == 1  # the four-edge route closes a balanced 3 = 3 cycle
        assert exact_min_cover(art.instance, CoverKind.NONTOP).size == 1

    def test_bound_one_path_is_metric(self):
        lb = LbCutInstance(n=3, edges=((0, 1), (1, 2)), source=0, sink=2, bound=1)
        art = lbcut_to_gmvid(lb)
        assert is_metric(art.instance)

    def test_single_middle_vertex(self):
        lb = LbCutInstance(n=3, edges=((0, 1), (1, 2)), source=0, sink=2, bound=2)
        art = lbcut_to_gmvid(lb)
        assert exact_min_cover(art.instance, CoverKind.NONTOP).size == 1

    def test_source_sink_edge_rejected(self):
        with pytest.raises(ValueError, match="strip"):
            LbCutInstance(n=2, edges=((0, 1),), source=0, sink=1, bound=1)

    @pytest.mark.parametrize("source, sink, bound, message", [
        (0, 3, 1, "out of range"),
        (-1, 2, 1, "out of range"),
        (1, 1, 1, "must differ"),
        (0, 2, 0, "positive integer"),
    ], ids=["sink-out-of-range", "source-out-of-range", "source-is-sink", "bound-zero"])
    def test_bad_terminals_or_bound_rejected(self, source, sink, bound, message):
        with pytest.raises(ValueError, match=message):
            LbCutInstance(n=3, edges=((0, 1), (1, 2)), source=source, sink=sink, bound=bound)

    def test_map_back_rejects_introduced_and_foreign_edges(self):
        art = lbcut_to_gmvid(LbCutInstance(n=3, edges=((0, 1), (1, 2)), source=0, sink=2,
                                           bound=2))
        assert art.map_back([(1, 0)]) == [(0, 1)]
        with pytest.raises(ValueError, match="introduced by the reduction"):
            art.map_back([(2, 0)])
        with pytest.raises(ValueError, match="not in the reduced instance"):
            art.map_back([(0, 1), (1, 3)])

    def test_optimum_equivalence_randomized(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(3, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            st_pair = pairs.pop()
            edges = tuple(sorted(pairs[:rng.randint(1, min(8, len(pairs)))]))
            bound = rng.randint(1, 4)
            lb = LbCutInstance(n=n, edges=edges, source=st_pair[0], sink=st_pair[1],
                               bound=bound)
            art = lbcut_to_gmvid(lb)
            source = brute_lbcut(n, list(edges), lb.source, lb.sink, bound)
            reduced = exact_min_cover(art.instance, CoverKind.NONTOP)
            assert len(source) == reduced.size
            mapped = art.map_back(reduced.edges)
            assert helpers.lbcut_feasible(edges, mapped, lb.source, lb.sink, bound)


class TestGmvidToGmvd:
    def test_k3_gadget_layout(self, k3):
        art = gmvid_to_gmvd(k3)
        assert art.instance.n == 3 + 4
        assert sorted(art.added_vertices) == [3, 4, 5, 6]
        for vid in art.added_vertices:
            assert art.instance.weight(0, vid) == 6
            assert art.instance.weight(2, vid) == 1

    def test_metric_input_unchanged(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        art = gmvid_to_gmvd(g)
        assert art.instance == g
        assert not art.added_edges and not art.added_vertices

    def test_k3_optima_agree(self, k3):
        art = gmvid_to_gmvd(k3)
        out_opt = exact_min_cover(art.instance, CoverKind.REGULAR)
        in_opt = exact_min_cover(k3, CoverKind.NONTOP)
        assert out_opt.size == in_opt.size == 1
        assert out_opt.edges[0] in {(0, 1), (1, 2)}

    def test_optima_agree_randomized(self):
        count = 0
        for idx in range(60):
            g = helpers.rational_instance(n=4, violations=idx % 3, seed=12_000 + idx,
                                          density=0.6)
            if g.m > 6:
                continue
            count += 1
            art = gmvid_to_gmvd(g)
            out_opt = exact_min_cover(art.instance, CoverKind.REGULAR)
            in_opt = exact_min_cover(g, CoverKind.NONTOP)
            assert out_opt.size == in_opt.size
            assert not (set(out_opt.edges) & art.added_edges)
        assert count >= 20

    def test_oversized_output_refused_before_building(self):
        g = gen_random(60, 0.3, 10, 12, 5)  # 30 violating edges x 556 copies + 60
        with pytest.raises(InstanceFormatError,
                           match=f"would build 16740 vertices .* cap of {MAX_VERTICES}"):
            gmvid_to_gmvd(g)


class TestGenRandom:
    def test_zero_violations_is_metric(self):
        assert is_metric(gen_random(6, 0.5, 10, 0, seed=1))

    def test_deterministic(self):
        a = gen_random(7, 0.6, 9, 2, seed=42)
        b = gen_random(7, 0.6, 9, 2, seed=42)
        assert a == b

    def test_violations_register(self):
        g = gen_random(6, 0.5, 10, 2, seed=5)
        assert graph_deficit(g, all_pairs_shortest_paths(g)) > 0

    def test_seed_changes_instance(self):
        assert gen_random(6, 0.5, 10, 1, seed=1) != gen_random(6, 0.5, 10, 1, seed=2)

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, density=0.5, weight_max=5, violations=0, seed=0),
        dict(n=5, density=0.0, weight_max=5, violations=0, seed=0),
        dict(n=5, density=0.5, weight_max=0, violations=0, seed=0),
        dict(n=5, density=0.5, weight_max=5, violations=-1, seed=0),
    ])
    def test_parameter_domain(self, kwargs):
        with pytest.raises(ValueError):
            gen_random(**kwargs)


class TestSourceFormats:
    def test_multicut_round_trip(self):
        mc = MulticutInstance(n=4, edges=((0, 1), (1, 2), (2, 3)), demands=((0, 3),))
        assert parse_multicut(serialize_multicut(mc)) == mc

    def test_lbcut_round_trip(self):
        lb = LbCutInstance(n=4, edges=((0, 1), (1, 2), (2, 3)), source=0, sink=3, bound=2)
        assert parse_lbcut(serialize_lbcut(lb)) == lb

    def test_multicut_missing_demands(self):
        with pytest.raises(InstanceFormatError, match="demand"):
            parse_multicut("3 1\n0 1")

    def test_lbcut_malformed_trailer(self):
        with pytest.raises(InstanceFormatError, match="LB"):
            parse_lbcut("3 1\n0 1\nLB 0 2")

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n1 2\nD 1\n0 5\n", "line 5: invalid demand pair \\(0, 5\\)"),
        ("3 2\n0 1\n1 2\nD 1\n2 2\n", "line 5: invalid demand pair \\(2, 2\\)"),
        ("4 2\n0 1\n1 2\nD 3\n0 2\n0 3\n2 0\n", "line 7: duplicate demand pair \\(0, 2\\)"),
    ], ids=["vertex-out-of-range", "self-pair", "duplicate"])
    def test_bad_demand_pair_names_its_line(self, text, message):
        with pytest.raises(InstanceFormatError, match=message):
            parse_multicut(text)

    def test_comments_allowed(self):
        mc = parse_multicut("# instance\n3 2\n0 1\n1 2\nD 1\n0 2\n")
        assert mc.demands == ((0, 2),)

    @pytest.mark.parametrize("parse, text", [
        (parse_multicut, "4 3\n0 1\n1 2\n2 3\nD 1\n0 3\n"),
        (parse_lbcut, "4 3\n0 1\n1 2\n2 3\nLB 0 3 2\n"),
    ], ids=["multicut", "lbcut"])
    def test_parse_checks_the_edges_with_one_graph(self, monkeypatch, parse, text):
        builds = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        assert parse(text).edges == ((0, 1), (1, 2), (2, 3))
        assert builds == [4]

    @pytest.mark.parametrize("parse, text, message", [
        (parse_multicut, "3 2\n0 1\n0 1\nD 0\n", "line 3: duplicate edge \\(0, 1\\)"),
        (parse_multicut, "3 2\n0 1\n1 3\nD 0\n", "line 3: vertex id out of range"),
        (parse_lbcut, "3 2\n0 1\n1 1\nLB 0 2 1\n", "line 3: self-loop at vertex 1"),
        (parse_lbcut, "3 2\n0 1\n1 2\nLB 0 0 1\n", "line 4: source and sink must differ"),
    ], ids=["duplicate", "out-of-range", "self-loop", "terminals"])
    def test_bad_edge_or_terminal_names_its_line(self, parse, text, message):
        with pytest.raises(InstanceFormatError, match=message):
            parse(text)
