from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import metric_mend
from metric_mend import cli, core, oracle
from metric_mend.cli import _verdicts, main, run_pipeline
from metric_mend.core import (MAX_VERTICES, Graph, all_pairs_shortest_paths, graph_deficit,
                              is_metric, parse_instance, serialize_instance)
from metric_mend.reductions import gen_random
from metric_mend.repair import RepairOutcome
from metric_mend.solver import ProblemKind, Role

import helpers

from conftest import K3_TEXT

METRIC_TEXT = "3 3\n0 1 1\n0 2 2\n1 2 1"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def metric_file(tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text(METRIC_TEXT, encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "machine"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_gmvd_with_repair(self, capsys, tmp_path, k3_file):
        out_path = str(tmp_path / "fixed.txt")
        code, report = run_json(capsys, ["solve", k3_file, "--kind", "gmvd",
                                         "--repair", "--out", out_path])
        assert code == 0
        assert report["solution"]["size"] == 1
        assert report["verification"]["all_ok"] is True
        assert report["verification"]["repaired_metric"] is True
        repaired = parse_instance((tmp_path / "fixed.txt").read_text())
        assert is_metric(repaired)

    def test_metric_instance_needs_nothing(self, capsys, metric_file):
        code, report = run_json(capsys, ["solve", metric_file, "--repair"])
        assert code == 0
        assert report["solution"]["size"] == 0
        assert report["repair"]["changed"] == []

    def test_gmvid(self, capsys, k3_file):
        code, report = run_json(capsys, ["solve", k3_file, "--kind", "gmvid", "--repair"])
        assert code == 0
        assert report["solution"]["roles"] == ["increase"]
        assert report["verification"]["all_ok"] is True

    def test_gmvdd(self, capsys, k3_file):
        code, report = run_json(capsys, ["solve", k3_file, "--kind", "gmvdd", "--repair"])
        assert code == 0
        assert report["solution"]["edges"] == [[0, 2]]
        assert report["repair"]["changed"] == [[[0, 2], "5", "2"]]

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0 1", encoding="utf-8")
        assert main(["solve", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 2

    def test_out_without_repair_exits_2(self, capsys, tmp_path, k3_file):
        out_path = tmp_path / "fixed.txt"
        assert main(["solve", k3_file, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and "--repair" in captured.err
        assert not out_path.exists()

    def test_out_not_written_when_verification_fails(self, monkeypatch, capsys, tmp_path):
        def zeroing(g, *args, **kwargs):
            return RepairOutcome(graph=g.with_weight((0, 1), 0), steps=1)
        monkeypatch.setattr(metric_mend.cli, "repair_weights", zeroing)
        src = tmp_path / "tri.txt"
        src.write_text("3 3\n0 1 10\n0 2 2\n1 2 2\n", encoding="utf-8")
        out_path = tmp_path / "fixed.txt"
        code, report = run_json(capsys, ["solve", str(src), "--kind", "gmvid", "--repair",
                                         "--out", str(out_path)])
        assert code == 3
        assert report["verification"]["all_ok"] is False
        assert "output" not in report["repair"]
        assert not out_path.exists()


class TestCheck:
    def write_cover(self, tmp_path, text):
        path = tmp_path / "cover.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_regular_ok(self, capsys, tmp_path, k3_file):
        cover = self.write_cover(tmp_path, "0 2\n")
        code, report = run_json(capsys, ["check", k3_file, cover,
                                         "--cover-kind", "regular"])
        assert code == 0 and report["ok"] is True

    def test_nontop_witness(self, capsys, tmp_path, k3_file):
        cover = self.write_cover(tmp_path, "0 2\n")
        code, report = run_json(capsys, ["check", k3_file, cover,
                                         "--cover-kind", "nontop"])
        assert code == 1
        assert report["witness"]["top"] == [0, 2]

    def test_metric_empty_cover(self, capsys, tmp_path, metric_file):
        cover = self.write_cover(tmp_path, "# nothing\n")
        code, report = run_json(capsys, ["check", metric_file, cover])
        assert code == 0 and report["ok"] is True


class TestReduce:
    def test_multicut(self, capsys, tmp_path):
        src = tmp_path / "mc.txt"
        src.write_text("3 2\n0 1\n1 2\nD 1\n0 2\n", encoding="utf-8")
        out = tmp_path / "mc_red.txt"
        code, report = run_json(capsys, ["reduce", "multicut", str(src),
                                         "--out", str(out)])
        assert code == 0
        assert report["verification"]["equal"] is True
        produced = parse_instance(out.read_text())
        assert produced.weight(0, 2) == 3
        sidecar = json.loads((tmp_path / "mc_red.txt.map.json").read_text())
        assert sidecar["kind"] == "gmvid"
        assert [[0, 2]] == sidecar["added_edges"]

    def test_lbcut_metric_output(self, capsys, tmp_path):
        src = tmp_path / "lb.txt"
        src.write_text("3 2\n0 1\n1 2\nLB 0 2 1\n", encoding="utf-8")
        out = tmp_path / "lb_red.txt"
        code, report = run_json(capsys, ["reduce", "lbcut", str(src), "--out", str(out)])
        assert code == 0
        assert report["instance"]["metric"] is True

    def test_gmvid2gmvd_metric_unchanged(self, capsys, tmp_path, metric_file):
        out = tmp_path / "red.txt"
        code, report = run_json(capsys, ["reduce", "gmvid2gmvd", metric_file,
                                         "--out", str(out)])
        assert code == 0
        assert parse_instance(out.read_text()) == parse_instance(METRIC_TEXT)

    def test_determinism(self, capsys, tmp_path, k3_file):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run_json(capsys, ["reduce", "gmvid2gmvd", k3_file, "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_unequal_optima_exit_3(self, monkeypatch, capsys, tmp_path):
        # a source optimum one edge larger than the reduced one is a broken
        # reduction: exit 3, and neither the instance nor its map is written
        monkeypatch.setattr(metric_mend.cli, "brute_multicut",
                            lambda n, edges, demands, budget: list(edges))
        src = tmp_path / "mc.txt"
        src.write_text("3 2\n0 1\n1 2\nD 1\n0 2\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code, report = run_json(capsys, ["reduce", "multicut", str(src), "--out", str(out)])
        assert code == 3
        assert report["verification"] == {"checked": True, "source_optimum": 2,
                                          "reduced_optimum": 1, "equal": False}
        assert "output" not in report and "back_map" not in report
        assert not out.exists() and not (tmp_path / "out.txt.map.json").exists()


class TestGenerate:
    def test_writes_instance(self, capsys, tmp_path):
        out = tmp_path / "gen.txt"
        code, report = run_json(capsys, ["generate", "--n", "6", "--violations", "2",
                                         "--seed", "9", "--out", str(out)])
        assert code == 0
        g = parse_instance(out.read_text())
        assert g.n == 6
        assert report["instance"]["metric"] is False

    def test_repeatable(self, capsys, tmp_path):
        texts = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run_json(capsys, ["generate", "--n", "5", "--violations", "1",
                              "--seed", "4", "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_without_out_prints_the_instance(self, capsys):
        code, report = run_json(capsys, ["generate", "--n", "6", "--violations", "2",
                                         "--seed", "9"])
        assert code == 0
        g = parse_instance(report["instance_text"])
        assert g == gen_random(6, 0.5, 10, 2, 9)
        assert report["instance"]["metric"] is False

    def test_unrealizable_violations_exit_2(self, capsys):
        # at density 0.01 the three pairs of n = 3 are never all sampled
        assert main(["generate", "--n", "3", "--density", "0.01", "--violations", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "could not realize" in captured.err


class TestOracleCommand:
    def test_inventory(self, capsys, k3_file):
        code, report = run_json(capsys, ["oracle", k3_file, "--what", "inventory"])
        assert code == 0
        assert report["inventory"]["unbalanced_cycles"] == 1
        assert report["inventory"]["distinct_deficits"] == ["3"]

    def test_mincover(self, capsys, k3_file):
        code, report = run_json(capsys, ["oracle", k3_file, "--what", "mincover",
                                         "--cover-kind", "nontop"])
        assert code == 0
        assert report["min_cover"]["size"] == 1

    def test_budget_exhaustion_is_input_error(self, capsys, k3_file):
        assert main(["oracle", k3_file, "--oracle-budget", "1"]) == 2

    @pytest.mark.parametrize("what", [["--what", "inventory"],
                                      ["--what", "mincover", "--cover-kind", "regular"],
                                      ["--what", "mincover", "--cover-kind", "nontop"]])
    @pytest.mark.parametrize("text, deficit", [(K3_TEXT, "3"), (METRIC_TEXT, "0")])
    def test_enumerates_once_and_never_checks(self, monkeypatch, capsys, tmp_path,
                                              what, text, deficit):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        enumerations, checks = [], []
        enumerate_ = oracle.enumerate_unbalanced_cycles

        def counting(*args, **kwargs):
            enumerations.append(kwargs)  # the budget goes by keyword: the tracer reads it there
            return enumerate_(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_unbalanced_cycles", counting)
        monkeypatch.setattr(oracle, "enumerate_unbalanced_cycles", counting)
        monkeypatch.setattr(cli, "find_uncovered_cycle", lambda *a: checks.append(a))
        monkeypatch.setattr(core, "_uncovered_cycle", lambda *a: checks.append(a))
        code, report = run_json(capsys, ["oracle", str(path)] + what)
        assert code == 0 and checks == []
        assert len(enumerations) == 1 and "budget" in enumerations[0]
        assert report["instance"]["deficit"] == deficit
        assert report["instance"]["metric"] is (deficit == "0")


class TestBench:
    def test_small_run_verifies(self, capsys):
        code, report = run_json(capsys, ["bench", "--n", "6", "--violations", "1",
                                         "--trials", "4", "--seed", "11", "--repair"])
        assert code == 0
        assert report["aggregate"]["verified"] == 4
        assert report["aggregate"]["max_ratio"] >= 1.0

    def test_zero_trials(self, capsys):
        code, report = run_json(capsys, ["bench", "--trials", "0"])
        assert code == 0
        assert report["trials"] == []

    def test_negative_trials_exit_2(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("bench generated an instance")
        monkeypatch.setattr(metric_mend.cli.reductions, "gen_random", no_work)
        assert main(["bench", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be nonnegative, got -3" in captured.err

    def test_same_seed_same_report_modulo_timings(self, capsys):
        def strip(rep):
            for row in rep["trials"]:
                row.pop("solve_s", None)
                row.pop("repair_s", None)
            return rep
        _, first = run_json(capsys, ["bench", "--n", "5", "--violations", "1",
                                     "--trials", "3", "--seed", "2"])
        _, second = run_json(capsys, ["bench", "--n", "5", "--violations", "1",
                                      "--trials", "3", "--seed", "2"])
        assert strip(first) == strip(second)


class TestParserReuse:
    def test_second_call_builds_no_parser(self, monkeypatch, k3_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert main(["solve", k3_file]) == 0
        first = len(built)
        assert main(["solve", k3_file]) == 0
        assert first > 0 and len(built) == first

    def test_repeated_calls_give_identical_results(self, capsys, tmp_path, k3_file):
        cover = tmp_path / "cover.txt"
        cover.write_text("0 2\n", encoding="utf-8")
        argvs = [
            ["check", k3_file, str(cover), "--format", "machine"],  # exit 0
            ["solve", k3_file, "--kind", "nope"],  # argparse usage error
            ["solve", str(tmp_path / "missing.txt")],  # input error, exit 2
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        first = [run(argv) for argv in argvs]
        assert first == [run(argv) for argv in argvs]
        assert [code for code, _, _ in first] == [0, ("SystemExit", 2), 2]
        assert "invalid choice: 'nope'" in first[1][2]
        assert first[2][2].startswith("error: ")


class TestLazyPipelineExport:
    """`metric_mend.run_pipeline` imports `cli` on first read, not with the package."""

    @staticmethod
    def _python(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(metric_mend.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120, check=False)

    def test_module_run_warns_nothing(self):
        # runpy warns when a package import has already loaded the module it runs
        proc = self._python("-W", "error::RuntimeWarning", "-m", "metric_mend.cli", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "usage:" in proc.stdout

    def test_cli_loads_on_first_read(self):
        proc = self._python("-c", "import sys, metric_mend\n"
                            "assert 'metric_mend.cli' not in sys.modules\n"
                            "metric_mend.run_pipeline\n"
                            "assert 'metric_mend.cli' in sys.modules")
        assert proc.returncode == 0, proc.stderr


def test_text_format_smoke(capsys, k3_file):
    assert main(["solve", k3_file, "--kind", "gmvd"]) == 0
    out = capsys.readouterr().out
    assert "cover_valid: True" in out


class TestOracleBudget:
    def test_zero_budget_skips_bench_oracle(self, capsys):
        code, report = run_json(capsys, ["bench", "--n", "5", "--trials", "2",
                                         "--oracle-budget", "0"])
        assert code == 0
        assert [row["opt"] for row in report["trials"]] == [None, None]
        assert report["aggregate"]["with_opt"] == 0

    def test_zero_budget_oracle_exits_2(self, k3_file):
        assert main(["oracle", k3_file, "--oracle-budget", "0"]) == 2

    def test_zero_budget_reduce_is_unchecked(self, capsys, tmp_path):
        src = tmp_path / "mc.txt"
        src.write_text("3 2\n0 1\n1 2\nD 1\n0 2\n", encoding="utf-8")
        code, report = run_json(capsys, ["reduce", "multicut", str(src), "--out",
                                         str(tmp_path / "out.txt"), "--oracle-budget", "0"])
        assert code == 0
        assert report["verification"]["checked"] is False
        assert (tmp_path / "out.txt").exists() and report["output"] == str(tmp_path / "out.txt")

    @pytest.mark.parametrize("argv", [
        ["oracle", "K3", "--oracle-budget", "-1"],
        ["reduce", "gmvid2gmvd", "K3", "--out", "OUT", "--oracle-budget", "-1"],
        ["bench", "--n", "5", "--trials", "1", "--oracle-budget", "-1"],
    ], ids=["oracle", "reduce", "bench"])
    def test_negative_budget_is_input_error(self, capsys, tmp_path, k3_file, argv):
        argv = [k3_file if a == "K3" else str(tmp_path / "o.txt") if a == "OUT" else a
                for a in argv]
        assert main(argv) == 2
        assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, files, line", [
    (["solve", "{a}"], {"a": f"{MAX_VERTICES + 1} 0\n"}, 1),
    (["solve", "{a}"], {"a": "0 0\n"}, 1),
    (["reduce", "multicut", "{a}", "--out", "{out}"], {"a": "3 -1\nD 0\n"}, 1),
    (["reduce", "lbcut", "{a}", "--out", "{out}"], {"a": "3 -1\nLB 0 2 1\n"}, 1),
    (["reduce", "multicut", "{a}", "--out", "{out}"], {"a": "3 2\n0 1\n1 2\nD x\n"}, 4),
    (["reduce", "multicut", "{a}", "--out", "{out}"],
     {"a": "3 2\n0 1\n1 2\nD 2\n0 2\n0 y\n"}, 6),
    (["reduce", "multicut", "{a}", "--out", "{out}"],
     {"a": "3 2\n0 1\n1 2\nD 2\n0 1\n0 2\n"}, 5),
    (["reduce", "lbcut", "{a}", "--out", "{out}"], {"a": "3 2\n0 1\n1 2\nLB 0 x 1\n"}, 4),
    (["reduce", "lbcut", "{a}", "--out", "{out}"], {"a": "3 2\n0 1\n1 2\nLB 0 1 1\n"}, 4),
    (["check", "{a}", "{b}"], {"a": "3 3\n0 1 1\n1 2 1\n0 2 5\n", "b": "0 2\n# x\n1 5\n"}, 3),
    (["solve", "{a}"], {"a": b"3 3\n0 1 1\n1 2 1 # caf\xe9\n0 2 5\n"}, 3),
    (["check", "{a}", "{b}"], {"a": "3 3\n0 1 1\n1 2 1\n0 2 5\n", "b": b"0 2\r\n\xff\r\n"}, 2),
    (["reduce", "multicut", "{a}", "--out", "{out}"], {"a": b"\xfe3 2\n0 1\n"}, 1),
    (["oracle", "{a}"], {"a": "3 3\n0 1 1\n1 2 1\n# \u00e9\n0 2 5\n".encode("latin-1")}, 4),
], ids=["vertex-cap", "no-vertices", "multicut-negative-m", "lbcut-negative-m",
        "demand-count", "demand-token", "demand-on-edge", "lb-token", "lb-on-edge",
        "cover-non-edge", "instance-not-utf8", "cover-not-utf8", "source-not-utf8",
        "oracle-not-utf8"])
def test_file_errors_exit_2_with_line(capsys, tmp_path, argv, files, line):
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        paths[name] = str(tmp_path / name)
    assert main([a.format(**paths) for a in argv]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_internal_value_error_exits_3_without_traceback(capsys, monkeypatch, k3_file):
    def broken(*args, **kwargs):
        raise ValueError("increase and decrease halves must be disjoint")
    monkeypatch.setattr(metric_mend.cli, "split_cover", broken)
    assert main(["solve", k3_file, "--kind", "gmvd", "--repair"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_zero_weight_from_repair_fails_verification(monkeypatch):
    # a zero is not a valid output weight, so nothing may lift it out of sight
    def zeroing(g, *args, **kwargs):
        return RepairOutcome(graph=g.with_weight((0, 1), 0), steps=1)
    monkeypatch.setattr(metric_mend.cli, "repair_weights", zeroing)
    g = Graph(3, [(0, 1, 10), (0, 2, 2), (1, 2, 2)])
    result = run_pipeline(g, ProblemKind.GMVD, repair=True)
    assert result.unresolved_zeros == ((0, 1),)
    assert result.verdicts["bounds_respected"] is False
    assert result.verdicts["all_ok"] is False


@pytest.mark.parametrize("role, final_weights, expected", [
    (Role.DECREASE, (4, 3, 2), {"only_cover_edges_changed": False, "roles_monotone": False}),
    (Role.INCREASE, (4, 2, 2), {"only_cover_edges_changed": True, "roles_monotone": False}),
], ids=["non-cover-edge-moved", "increase-edge-lowered"])
def test_verdicts_judge_which_edges_moved_and_how(role, final_weights, expected):
    g = Graph(3, [(0, 1, 10), (0, 2, 2), (1, 2, 2)])
    final = Graph(3, [(u, v, w) for (u, v), w in zip(g.edges(), final_weights)])
    verdicts = _verdicts(g, ProblemKind.GMVD, ((0, 1),), (role,), final)
    assert verdicts == {"cover_valid": True, "bounds_respected": True,
                        "repaired_metric": True, **expected, "all_ok": False}


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_pipeline_deficit_and_verdicts(kind):
    for idx in range(6):
        g = helpers.rational_instance(n=5 + idx % 3, violations=idx % 3, seed=2600 + idx)
        result = run_pipeline(g, kind, repair=True)
        assert result.deficit == graph_deficit(g, all_pairs_shortest_paths(g))
        assert result.verdicts["all_ok"] is True
        assert is_metric(result.final)
        assert set(result.changed) <= set(result.cover)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_pipeline_is_scale_invariant(kind):
    # run_pipeline works on integer weights scaled by the common denominator;
    # rescaling the input must rescale every output weight exactly
    lam = Fraction(7, 3)
    graphs = [Graph(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 3)), (0, 2, 5)])]
    graphs += [helpers.rational_instance(n=5 + idx % 3, violations=1 + idx % 3, seed=2700 + idx)
               for idx in range(6)]
    fractional_outputs = 0
    for g in graphs:
        base = run_pipeline(g, kind, repair=True)
        scaled = run_pipeline(g.scaled(lam), kind, repair=True)
        assert (scaled.cover, scaled.roles, scaled.steps) == (base.cover, base.roles, base.steps)
        assert scaled.layer_deficits == tuple(d * lam for d in base.layer_deficits)
        assert scaled.deficit == base.deficit * lam
        assert scaled.final == base.final.scaled(lam)
        assert scaled.changed == {e: (old * lam, new * lam)
                                  for e, (old, new) in base.changed.items()}
        assert scaled.verdicts == base.verdicts and base.verdicts["all_ok"]
        fractional_outputs += any(new.denominator > 1 for _, new in base.changed.values())
    assert fractional_outputs  # some repaired weight stays non-integral after unscaling


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_pipeline_keeps_huge_weights_out_of_float_range(kind):
    # the common denominator 10^310 scales the lone edge (3, 4) past every
    # float; a distance across components must never be added to it
    d = 10**310
    g = parse_instance(f"5 4\n0 1 1/{d}\n1 2 1/{d}\n0 2 5/{d}\n3 4 1\n")
    assert run_pipeline(g, kind, repair=True).verdicts["all_ok"] is True


def test_oversized_reduction_exits_2(capsys, tmp_path):
    src = tmp_path / "big.txt"
    src.write_text(serialize_instance(gen_random(60, 0.3, 10, 12, 5)), encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["reduce", "gmvid2gmvd", str(src), "--out", str(out)]) == 2
    assert "16740" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_summary_builds_no_distance_table(capsys, tmp_path):
    # unit path 0-1-...-8 plus every longer chord, each heavier than the path:
    # 28 violating edges x 37 gadget copies + 9 = 1045 output vertices
    n = 9
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    edges += [(u, v, Fraction(100 + u + v, 7)) for u in range(n) for v in range(u + 2, n)]
    src = tmp_path / "fan.txt"
    src.write_text(serialize_instance(Graph(n, edges)), encoding="utf-8")
    tracemalloc.start()
    try:
        code, report = run_json(capsys, ["reduce", "gmvid2gmvd", str(src), "--out",
                                         str(tmp_path / "out.txt"), "--oracle-budget", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert report["instance"] == {"n": 1045, "m": 2108, "deficit": "100/7", "metric": False}
    # an n x n table of the output alone holds over 10^6 Fractions (58 MiB traced)
    assert peak < 16 * 2**20


def test_decrease_only_pipeline_builds_no_distance_table():
    # K_{2,998}: hubs 0 and 1 joined to every leaf by unit edges, except the
    # weight-4 edge (0, 2), which the 3-edge path 0-3-1-2 undercuts
    n = 1000
    g = Graph(n, [(h, v, 4 if (h, v) == (0, 2) else 1) for h in (0, 1) for v in range(2, n)])
    tracemalloc.start()
    try:
        result = run_pipeline(g, ProblemKind.GMVDD, repair=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cover == ((0, 2),) and result.verdicts["all_ok"]
    assert result.final.weight(0, 2) == 3
    # an n x n distance table alone peaks at 9 MiB traced here
    assert peak < 4 * 2**20


def _two_denominators(k: int) -> str:
    """A triangle with weights 1/p, 1/q and 5 for the coprime p = 10^k + 1 and
    q = 10^k + 3: the common denominator is pq, and the largest number a
    command may report, 2 * pq * 5, has 2k + 2 digits."""
    return f"3 3\n0 1 1/{10**k + 1}\n1 2 1/{10**k + 3}\n0 2 5\n"


@pytest.mark.parametrize("argv", [["solve", "{a}", "--kind", "gmvd"], ["check", "{a}", "{b}"],
                                  ["oracle", "{a}"], ["reduce", "gmvid2gmvd", "{a}", "--out", "{o}"]],
                         ids=["solve", "check", "oracle", "reduce"])
def test_unprintable_denominator_exits_2(capsys, tmp_path, argv):
    # 1/(10^2500 + 1) and 1/(10^2500 + 3) each parse, but a repaired weight
    # or deficit over their common denominator has 5001 digits
    (tmp_path / "a").write_text(_two_denominators(2500), encoding="utf-8")
    (tmp_path / "b").write_text("0 2\n", encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in "abo"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "line 3:" in err and "internal" not in err
    assert not (tmp_path / "o").exists()


def test_denominator_cap_is_tight(capsys, tmp_path):
    limit = sys.get_int_max_str_digits() or pytest.skip("no int-to-str digit limit")
    k = (limit - 2) // 2  # the largest k whose 2k + 2 digits fit
    under, over = tmp_path / "under.txt", tmp_path / "over.txt"
    under.write_text(_two_denominators(k), encoding="utf-8")
    over.write_text(_two_denominators(k + 1), encoding="utf-8")
    for kind in ("gmvd", "gmvid", "gmvdd"):
        out = tmp_path / f"{kind}.txt"
        assert main(["solve", str(under), "--kind", kind, "--repair", "--out", str(out)]) == 0
        assert is_metric(parse_instance(out.read_text(encoding="utf-8")))
    assert main(["reduce", "gmvid2gmvd", str(under), "--out", str(tmp_path / "r.txt")]) == 0
    assert parse_instance((tmp_path / "r.txt").read_text(encoding="utf-8")).n > 3
    assert main(["solve", str(over)]) == 2
    assert "line 3:" in capsys.readouterr().err
