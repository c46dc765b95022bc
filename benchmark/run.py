#!/usr/bin/env python3
"""Seeded, layered benchmark of the metric-mend command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it imports ``metric_mend`` from the ``src/`` directory next
to this one and refuses to run without it.  One process serves one workload
as a closed loop with a single client: each op calls ``metric_mend.cli.main``
in-process and the next op starts when the previous one returns.  Every op's
outputs are then checked by code that does not use ``metric_mend``; that
check is not timed.

``--trace 0`` loads no wrapper and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of ops twice each, plain and wrapped by
``tracer.Tracer``, requires identical reports from both, reports per-layer
self times and counters, and writes the spans to ``.bench_work/``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100        # so that at least ten ops lie beyond p90
MAX_LOOP_S = 120.0   # stop short of MIN_OPS rather than run past the time limit
SETUP_REPEATS = 3
E2E_UNITS = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an op that failed)."""


def load_package():
    """Import metric_mend from this checkout's src/ and nowhere else."""
    if not (SRC / "metric_mend" / "cli.py").is_file():
        raise BenchError(f"no metric_mend sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("metric_mend.cli")
    if Path(cli.__file__).resolve().parent != SRC / "metric_mend":
        raise BenchError(f"imported metric_mend from {cli.__file__}, not from {SRC}")
    return sys.modules["metric_mend"], cli


class Item(NamedTuple):
    """One generated instance, its file and the file its repaired output goes to."""

    text: str
    path: Path
    out: Path


def build_pool(workload, seed: int, workdir: Path, size: int) -> list[Item]:
    pool = []
    for i in range(size):
        text = workload.make(f"{workload.name}:{seed}:{i}").text()
        path = workdir / f"in{i}.txt"
        path.write_text(text, encoding="utf-8")
        pool.append(Item(text, path, workdir / f"out{i}.txt"))
    return pool


def run_op(cli, argvs: list[list[str]]) -> tuple[float, list[tuple]]:
    """Timed: run one op's commands; (seconds, [(exit code, stdout, stderr)])."""
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):  # a failed op, not a benchmark crash
                code = None
                err.write(traceback.format_exc())
        outputs.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def judge(workload, index: int, item: Item, outputs) -> tuple[list[str], list[dict]]:
    """Untimed: the op's problems (empty when correct) and its parsed reports."""
    problems, reports = [], []
    for code, out, err in outputs:
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-300:]}")
        try:
            reports.append(json.loads(out))
        except ValueError:
            problems.append("report is not JSON")
    if problems:
        return problems, reports
    try:
        output = None if workload.oracle else item.out.read_text(encoding="utf-8")
        problems += workload.check(index, item.text, output, reports)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"output unreadable: {exc!r}")
    return problems, reports


def setup(workload, seed: int, workdir: Path, cli, size: int) -> tuple[float, list[Item]]:
    """Generate and write the instances, then warm up with op 0; median of repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = build_pool(workload, seed, workdir, size)
        run_op(cli, workload.commands(0, str(pool[0].path), str(pool[0].out)))
        times.append(time.perf_counter() - start)
    return statistics.median(times), pool


def measure(workload, pool: list[Item], cli, seconds: float) -> dict:
    """Cycle through the pool for ``seconds`` of wall time and at least MIN_OPS ops."""
    latencies, failed = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(latencies) >= MIN_OPS):
            break
        index = len(latencies) % len(pool)
        item = pool[index]
        op_s, outputs = run_op(cli, workload.commands(index, str(item.path), str(item.out)))
        latencies.append(op_s)
        problems, _ = judge(workload, index, item, outputs)
        if problems:
            failed += 1
            print(f"op {len(latencies) - 1} (instance {index}) failed: {problems}",
                  file=sys.stderr)
    return {"latencies": latencies, "failed": failed}


def _strip_timings(reports: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "timings"} for r in reports]


def measure_traced(workload, pool: list[Item], package, cli) -> dict:
    """Each op plain then wrapped (order alternating); both must agree."""
    from tracer import Tracer

    tracer = Tracer(package)
    plain_s = traced_s = 0.0
    failed = moves = 0
    for index, item in enumerate(pool):
        argvs = workload.commands(index, str(item.path), str(item.out))
        seen = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    op_s, outputs = tracer.run_op(index, lambda: run_op(cli, argvs))
                finally:
                    tracer.uninstall()
                traced_s += op_s
            else:
                op_s, outputs = run_op(cli, argvs)
                plain_s += op_s
            problems, reports = judge(workload, index, item, outputs)
            output = None if workload.oracle else item.out.read_text(encoding="utf-8")
            seen[traced] = (problems, _strip_timings(reports), output)
        problems = seen[False][0] + seen[True][0]
        if seen[False][1:] != seen[True][1:]:
            problems.append("traced and untraced runs disagree")
        if problems:
            failed += 1
            print(f"traced instance {index} failed: {problems}", file=sys.stderr)
        moves += sum(r.get("repair", {}).get("steps", 0) for r in seen[True][1])
    return {"tracer": tracer, "plain_s": plain_s, "traced_s": traced_s,
            "failed": failed, "moves": moves}


def layer_metrics(result: dict) -> dict:
    tracer = result["tracer"]
    selfs = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    module_s: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        self_s[s.name] += selfs[s.id]
        incl_s[s.name] += s.duration
        module_s[s.name.split(".")[0]] += selfs[s.id]
    c = tracer.counters
    probes = tracer.under("repair.repair_weights", "core.find_uncovered_cycle")
    values = [
        ("cli.self_s", module_s["cli"], "s"),
        ("core.self_s", module_s["core"], "s"),
        ("core.parse_instance_s", self_s["core.parse_instance"], "s"),
        ("core.serialize_instance_s", self_s["core.serialize_instance"], "s"),
        ("core.apsp_s", self_s["core.all_pairs_shortest_paths"], "s"),
        ("core.apsp_calls", c["core.all_pairs_shortest_paths_calls"], "count"),
        ("core.dijkstra_calls", c["core.dijkstra_calls"], "count"),
        ("core.find_uncovered_cycle_s", self_s["core.find_uncovered_cycle"], "s"),
        ("core.find_uncovered_cycle_calls", c["core.find_uncovered_cycle_calls"], "count"),
        ("core.validate_cover_s", self_s["core.validate_cover"], "s"),
        ("core.validate_cover_incl_s", incl_s["core.validate_cover"], "s"),
        ("core.is_metric_s", self_s["core.is_metric"], "s"),
        ("core.is_metric_incl_s", incl_s["core.is_metric"], "s"),
        ("solver.self_s", module_s["solver"], "s"),
        ("solver.greedy_solve_s", self_s["solver.greedy_solve"], "s"),
        ("solver.greedy_solve_incl_s", incl_s["solver.greedy_solve"], "s"),
        ("solver.count_report_s", self_s["solver.count_report"], "s"),
        ("solver.greedy_rounds", c["solver.count_report_calls"], "count"),
        ("solver.cover_size_sum", c["solver.cover_size_sum"], "count"),
        ("repair.self_s", module_s["repair"], "s"),
        ("repair.split_cover_s", self_s["repair.split_cover"], "s"),
        ("repair.split_cover_incl_s", incl_s["repair.split_cover"], "s"),
        ("repair.split_probes", tracer.under("repair.split_cover", "core.find_uncovered_cycle"),
         "count"),
        ("repair.repair_weights_s", self_s["repair.repair_weights"], "s"),
        ("repair.repair_weights_incl_s", incl_s["repair.repair_weights"], "s"),
        ("repair.probes", probes, "count"),
        ("repair.moves", result["moves"], "count"),
        ("repair.moves_per_probe", result["moves"] / probes if probes else 0.0, "ratio"),
        ("repair.lift_zero_edges_s", self_s["repair.lift_zero_edges"], "s"),
        ("oracle.self_s", module_s["oracle"], "s"),
        ("oracle.exact_min_cover_s", self_s["oracle.exact_min_cover"], "s"),
        ("oracle.exact_min_cover_incl_s", incl_s["oracle.exact_min_cover"], "s"),
        ("oracle.enumerate_s", self_s["oracle.enumerate_unbalanced_cycles"], "s"),
        ("oracle.work_units", sum(b.used for b in tracer.budgets), "count"),
        ("oracle.subsets_tested", tracer.under("oracle.exact_min_cover", "core.validate_cover"),
         "count"),
        ("bench.self_s", module_s["bench"], "s"),
        ("trace.untraced_op_s", result["plain_s"], "s"),
        ("trace.overhead_frac", (result["traced_s"] - result["plain_s"]) / result["plain_s"],
         "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    os.environ.pop("METRIC_MEND_BUDGET", None)  # a stray cap would change oracle work
    start = time.perf_counter()
    package, cli = load_package()
    import_s = time.perf_counter() - start

    workdir = WORK / f"run-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, pool = setup(workload, seed, workdir, cli,
                              workload.traced_ops if trace else workload.pool)
        setup_s += import_s
        if trace:
            result = measure_traced(workload, pool, package, cli)
            attempted, failed = len(pool), result["failed"]
            metrics = layer_metrics(result)
            trace_file = WORK / f"trace-{name}-seed{seed}.jsonl"
            result["tracer"].write_jsonl(trace_file)
            print(f"{name} seed={seed} trace=1: {attempted} ops, each run plain and "
                  f"traced; spans in {trace_file.relative_to(ROOT)}")
        else:
            result = measure(workload, pool, cli, seconds)
            lat = result["latencies"]
            attempted, failed = len(lat), result["failed"]
            p90 = statistics.quantiles(lat, n=10)[-1]
            values = {
                "throughput_ops_per_s": len(lat) / sum(lat),
                "latency_p50_s": statistics.median(lat),
                "latency_p90_s": p90,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            tail = sum(1 for x in lat if x > p90)
            print(f"{name} seed={seed} trace=0: {attempted} ops in {sum(lat):.2f} s timed, "
                  f"closed loop with one client; {tail} ops lie beyond p90")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
