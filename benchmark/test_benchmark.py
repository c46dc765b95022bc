"""Self-tests of the benchmark: python3 -m pytest benchmark -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import check_covers, check_repair, parse, unbalanced_cycles, violations  # noqa: E402
from gen import generate, violating_edges  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = ("solver.greedy_rounds", "solver.cover_size_sum", "repair.moves",
         "core.dijkstra_calls", "oracle.work_units", "oracle.subsets_tested",
         "repair.probes", "repair.split_probes", "core.apsp_calls")


@pytest.fixture(scope="module")
def package():
    return run.load_package()


def small(name: str, ops: int = 4):
    return dataclasses.replace(WORKLOADS[name], traced_ops=ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = WORKLOADS[name].make
    assert make(f"{name}:7:0").text() == make(f"{name}:7:0").text()
    assert make(f"{name}:7:0").text() != make(f"{name}:8:0").text()


def test_generator_plants_exactly_the_requested_violations():
    for i in range(20):
        inst = generate(f"t:{i}", 12, 20, 1, 20, 3)
        assert len(inst.weights) == 20
        assert len(violating_edges(inst.n, inst.weights)) == 3
        n, weights = parse(inst.text())
        assert len(violations(n, weights)) == 3


def test_decimal_weights_have_six_places():
    inst = generate("t:dec", 10, 15, 10**6, 10**7, 2, scale=10**6)
    _, weights = parse(inst.text())
    assert all((w * 10**6).denominator == 1 for w in weights.values())
    assert any(w.denominator > 1 for w in weights.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_reports_agree(name, package, tmp_path):
    workload = small(name)
    pool = run.build_pool(workload, 3, tmp_path, workload.traced_ops)
    result = run.measure_traced(workload, pool, *package)
    assert result["failed"] == 0  # includes the report and output comparison
    assert result["tracer"].spans


@pytest.mark.parametrize("name", ["greedy-dense", "oracle-small"])
def test_exact_counts_repeat(name, package, tmp_path):
    workload = small(name)
    pool = run.build_pool(workload, 5, tmp_path, workload.traced_ops)
    first, second = (run.layer_metrics(run.measure_traced(workload, pool, *package))
                     for _ in range(2))
    for key in EXACT:
        assert first[key] == second[key], key
    assert first["solver.cover_size_sum"]["value"] > 0


def test_tracer_restores_the_package(package):
    from tracer import Tracer

    pkg, _ = package
    before = {m: dict(vars(getattr(pkg, m))) for m in ("cli", "core", "solver", "repair", "oracle")}
    tracer = Tracer(pkg)
    tracer.install()
    assert pkg.cli.greedy_solve is not before["cli"]["greedy_solve"]
    assert pkg.repair.dijkstra is not before["repair"]["dijkstra"]
    tracer.uninstall()
    for m, attrs in before.items():
        assert dict(vars(getattr(pkg, m))) == attrs


def test_check_repair_catches_a_non_metric_output():
    source = "3 3\n0 1 1\n1 2 1\n0 2 5\n"
    report = {"verification": {"all_ok": True},
              "solution": {"edges": [[0, 2]]},
              "repair": {"changed": [[[0, 2], "5", "3"]]}}
    assert check_repair("gmvd", source, "3 3\n0 1 1\n1 2 1\n0 2 3\n", report)
    report["repair"]["changed"] = [[[0, 2], "5", "2"]]
    assert check_repair("gmvd", source, "3 3\n0 1 1\n1 2 1\n0 2 2\n", report) == []
    report["solution"]["edges"] = [[0, 1]]
    assert check_repair("gmvd", source, "3 3\n0 1 1\n1 2 1\n0 2 2\n", report)


def test_check_covers_catches_a_non_minimal_oracle():
    source = "3 3\n0 1 1\n1 2 1\n0 2 5\n"
    assert unbalanced_cycles(3, {(0, 1): Fraction(1), (1, 2): Fraction(1),
                                 (0, 2): Fraction(5)}) == [((0, 2), frozenset({(0, 1), (1, 2)}))]
    greedy = {"verification": {"all_ok": True}, "solution": {"size": 1, "edges": [[0, 1]]}}
    good = {"min_cover": {"size": 1, "edges": [[0, 1]]}}
    assert check_covers(source, greedy, good, greedy, good) == []
    bloated = {"min_cover": {"size": 2, "edges": [[0, 1], [1, 2]]}}
    assert check_covers(source, greedy, bloated, greedy, good)
    top_only = {"min_cover": {"size": 1, "edges": [[0, 2]]}}
    assert check_covers(source, greedy, good, greedy, top_only)


def test_untraced_run_loads_no_wrapper():
    code = ("import sys; sys.path.insert(0, %r); import run; run.MIN_OPS = 2; "
            "run.SETUP_REPEATS = 1; rc = run.run_workload('oracle-small', 0, 0.1, False); "
            "assert rc == 0 and 'tracer' not in sys.modules" % str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "greedy-dense", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
