from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from metric_mend import repair
from metric_mend.core import (
    CoverKind,
    Graph,
    InternalConsistencyError,
    dijkstra,
    find_uncovered_cycle,
    is_metric,
)
from metric_mend.oracle import exact_min_cover
from metric_mend.reductions import gen_random
from metric_mend.repair import (
    CoverInvalidError,
    SplitCover,
    lift_zero_edges,
    repair_weights,
    split_cover,
)
from metric_mend.solver import ProblemKind, greedy_solve

import helpers


class TestSplitCover:
    def test_top_edge_goes_minus(self, k3):
        split = split_cover(k3, {(0, 2)})
        assert split.s_minus == {(0, 2)}
        assert split.s_plus == frozenset()

    def test_nontop_edge_goes_plus(self, k3):
        split = split_cover(k3, {(0, 1)})
        assert split.s_plus == {(0, 1)}
        assert split.s_minus == frozenset()

    def test_empty_cover_of_metric_graph(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        split = split_cover(g, ())
        assert split.s_plus == split.s_minus == frozenset()

    def test_rejects_non_cover(self, k3):
        with pytest.raises(CoverInvalidError) as err:
            split_cover(k3, ())
        assert err.value.witness is not None

    def test_invariant_on_random_covers(self, corpus):
        """Valid covers split so no cycle escapes, and every cover, invalid
        ones included, splits exactly as the two-probe reference does."""
        rng = random.Random(60)
        inputs = []
        for idx in range(25):
            g = helpers.rational_instance(n=4 + idx % 4, violations=idx % 4, seed=7000 + idx)
            base = exact_min_cover(g, CoverKind.REGULAR).edges
            extra = [e for e in g.edges() if rng.random() < 0.2]
            inputs.append((g, frozenset(base) | frozenset(extra)))
        for entry in corpus:
            g = entry.graph
            greedy = frozenset(greedy_solve(g, ProblemKind.GMVD).edges)
            inputs.append((g, greedy))
            inputs.extend((g, greedy | {e for e in g.edges() if rng.random() < 0.3})
                          for _ in range(3))
            if greedy:  # one edge short of the greedy cover: mostly invalid
                inputs.append((g, greedy - {min(greedy)}))

        def outcome(split, g, cover):
            try:
                return split(g, cover)
            except CoverInvalidError as exc:
                return str(exc)

        invalid = 0
        for g, cover in inputs:
            split = outcome(split_cover, g, cover)
            assert split == outcome(helpers.two_probe_split, g, cover)
            if isinstance(split, str):
                invalid += 1
                continue
            assert split.s_plus | split.s_minus == cover
            assert find_uncovered_cycle(g, split.s_minus, split.s_plus) is None
        assert invalid > 100

    def test_final_check_catches_a_wrong_split(self, monkeypatch, k3):
        """Forcing every edge into the plus half leaves the heavy chord's
        cycle uncovered, which the final search must report."""
        monkeypatch.setattr(repair, "excesses",  # "no shorter path": no excess
                            lambda h, edges: {})
        with pytest.raises(InternalConsistencyError, match="uncovered"):
            split_cover(k3, {(0, 2)})

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            SplitCover(s_plus=frozenset({(0, 1)}), s_minus=frozenset({(0, 1)}))


class TestRepairWeights:
    def test_increase_only_trace(self, k3):
        out = repair_weights(k3, helpers.increase_only([(0, 1)]))
        assert out.graph.weight(0, 1) == 4
        assert out.graph.weight(1, 2) == 1
        assert out.graph.weight(0, 2) == 5
        assert is_metric(out.graph)
        assert helpers.changed(k3, out.graph) == {(0, 1): (Fraction(1), Fraction(4))}

    def test_decrease_trace(self, k3):
        split = SplitCover(s_plus=frozenset(), s_minus=frozenset({(0, 2)}))
        out = repair_weights(k3, split)
        assert out.graph.weight(0, 2) == 2
        assert is_metric(out.graph)

    def test_metric_graph_changes_nothing(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        out = repair_weights(g, helpers.increase_only([(0, 1)]))
        assert out.steps == 0
        assert helpers.changed(g, out.graph) == {}
        assert out.graph == g

    def test_a_missed_violation_is_an_internal_error(self, monkeypatch, k3):
        monkeypatch.setattr(repair, "excess_map", lambda g: {})  # the first pass misses
        with pytest.raises(InternalConsistencyError, match="recheck missed"):
            repair_weights(k3, helpers.increase_only([(0, 1)]))

    def test_rejects_invalid_cover(self, k3):
        with pytest.raises(CoverInvalidError):
            repair_weights(k3, helpers.increase_only([(0, 2)]))

    def test_decrease_moves_match_the_probe_search(self, monkeypatch, corpus):
        original = repair._apply_safe_move
        decreases = blocked = 0

        def checked(work, witness, s_plus, s_minus, h):
            nonlocal decreases, blocked
            move = original(work, witness, s_plus, s_minus, h)
            assert move is None or move[1] > 0  # repair never makes a 0
            t = witness.top
            if t in s_minus and (move is None or move[0] == t):
                expected = helpers.smallest_safe_decrease(work, t, witness.deficit,
                                                          s_plus, s_minus)
                assert (None if move is None else move[1]) == expected
                decreases += 1
                blocked += bool(set(witness.nontop) & s_plus)  # no increase was open
            return move

        monkeypatch.setattr(repair, "_apply_safe_move", checked)
        rng = random.Random(61)
        for entry in corpus:
            g = entry.graph
            splits = [split_cover(g, greedy_solve(g, ProblemKind.GMVD).edges)]
            for _ in range(3):  # random splits also block increases on the witness path
                plus = frozenset(e for e in g.edges() if rng.random() < 0.4)
                minus = frozenset(e for e in g.edges() if e not in plus and rng.random() < 0.5)
                if find_uncovered_cycle(g, minus, plus) is None:
                    splits.append(SplitCover(s_plus=plus, s_minus=minus))
            for split in splits:
                repair_weights(g, split)
        assert decreases > 200 and blocked > 10

    def test_rational_weights_scale_and_restore(self):
        g = Graph(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2)), (0, 2, Fraction(7, 2))])
        out = repair_weights(g, helpers.increase_only([(0, 1), (1, 2)]))
        assert is_metric(out.graph)
        for e, (old, new) in helpers.changed(g, out.graph).items():
            assert new > old

    def test_contract_on_random_instances(self):
        for idx in range(30):
            g = helpers.rational_instance(n=4 + idx % 5, violations=idx % 4, seed=8200 + idx)
            cap = max(w for _, w in g.edge_items())
            gd = greedy_solve(g, ProblemKind.GMVD)
            split = split_cover(g, gd.edges)
            out = repair_weights(g, split)
            changed = helpers.changed(g, out.graph)
            assert is_metric(out.graph)
            assert set(changed) <= set(gd.edges)
            for e, (old, new) in changed.items():
                assert 0 < new <= cap  # a jump stops at |P| > 0
                if e in split.s_plus:
                    assert new > old
                else:
                    assert new < old
            gi = greedy_solve(g, ProblemKind.GMVID)
            out = repair_weights(g, helpers.increase_only(gi.edges))
            changed = helpers.changed(g, out.graph)
            assert is_metric(out.graph)
            assert all(new >= old for old, new in changed.values())
            assert all(new <= cap for _, new in changed.values())


@settings(max_examples=150, deadline=None)
@given(helpers.count_graphs(), st.sampled_from([ProblemKind.GMVD, ProblemKind.GMVID]))
def test_each_move_gets_the_whole_graph_witness(g, kind):
    """Every move's witness, found among the edges the last move can have
    left violated, is the one a whole-graph search finds; a decrease changes
    no distance."""
    original = repair._apply_safe_move
    moves = []

    def checked(work, witness, s_plus, s_minus, h):
        assert witness == find_uncovered_cycle(work, (), ())
        moves.append(witness)
        move = original(work, witness, s_plus, s_minus, h)
        if move is not None and move[1] < work.weight(*move[0]):
            after = work.with_weight(*move)
            assert all(dijkstra(work, s)[0] == dijkstra(after, s)[0] for s in range(g.n))
        return move

    cover = greedy_solve(g, kind).edges
    split = split_cover(g, cover) if kind is ProblemKind.GMVD else helpers.increase_only(cover)
    with mock.patch.object(repair, "_apply_safe_move", checked):
        out = repair_weights(g, split)
    assert len(moves) == out.steps and is_metric(out.graph)


def unit_step_repair(monkeypatch, g, split):
    """``repair_weights`` with every move cut to one scaled unit.

    The walk moves the same edge in the same direction as the jump would, so
    it is the slowest repair the move rules allow: a reference the jumps must
    match in outcome contract and never exceed in steps.
    """
    original = repair._apply_safe_move

    def one_unit(work, witness, s_plus, s_minus, h):
        move = original(work, witness, s_plus, s_minus, h)
        if move is None:
            return None
        e, w = move
        old = work.weight(*e)
        return e, old + 1 if w > old else old - 1

    with monkeypatch.context() as m:
        m.setattr(repair, "_apply_safe_move", one_unit)
        return repair_weights(g, split)


class TestUnitStepVariant:
    def test_unit_trace(self, monkeypatch, k3):
        out = unit_step_repair(monkeypatch, k3, helpers.increase_only([(0, 1)]))
        assert out.graph.weight(0, 1) == 4
        assert out.steps == 3  # one scaled unit per round

    def test_both_variants_satisfy_the_contract(self, monkeypatch):
        for idx in range(12):
            g = gen_random(5, 0.7, 6, 1 + idx % 3, seed=90_000 + idx)
            cap = max(w for _, w in g.edge_items())
            cover = greedy_solve(g, ProblemKind.GMVD).edges
            split = split_cover(g, cover)
            outcomes = [repair_weights(g, split), unit_step_repair(monkeypatch, g, split)]
            assert outcomes[0].steps <= outcomes[1].steps
            for out in outcomes:
                changed = helpers.changed(g, out.graph)
                assert is_metric(out.graph)
                assert set(changed) <= set(cover)
                for e, (old, new) in changed.items():
                    assert 0 < new <= cap  # a jump stops at |P| > 0; a unit step lowers w >= 2
                    assert (new > old) == (e in split.s_plus)


class TestLiftZeroEdges:
    def test_basic_lift(self):
        g = helpers.graph_with_zeros(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
        result = lift_zero_edges(g)
        assert result.graph.weight(0, 1) == 2
        assert is_metric(result.graph)
        assert result.unresolved == frozenset()

    def test_identity_without_zeros(self, k3):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
        result = lift_zero_edges(g)
        assert result.graph == g
        assert result.lifted == {}

    def test_unresolvable_pair(self):
        g = helpers.graph_with_zeros(3, [(0, 1, 0), (1, 2, 0)])
        result = lift_zero_edges(g)
        assert result.unresolved == {(0, 1), (1, 2)}

    def test_cascading_lift(self):
        g = helpers.graph_with_zeros(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        # all-zero triangle: every edge has a zero alternative path, nothing lifts
        result = lift_zero_edges(g)
        assert result.unresolved == {(0, 1), (1, 2), (0, 2)}

    def test_requires_metric_input(self, k3):
        with pytest.raises(ValueError, match="metric"):
            lift_zero_edges(k3)

    def test_stays_metric_with_several_zeros(self):
        g = helpers.graph_with_zeros(4, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (2, 3, 5)])
        result = lift_zero_edges(g)
        assert is_metric(result.graph)


class TestEndToEnd:
    def test_full_pipeline_stays_within_contract(self):
        for idx in range(20):
            g = helpers.rational_instance(n=4 + idx % 5, violations=idx % 4,
                                          seed=11_000 + idx)
            solution = greedy_solve(g, ProblemKind.GMVD)
            split = split_cover(g, solution.edges)
            out = repair_weights(g, split)
            lifted = lift_zero_edges(out.graph)
            assert is_metric(lifted.graph)
            assert not lifted.graph.has_zero_weight() or lifted.unresolved
