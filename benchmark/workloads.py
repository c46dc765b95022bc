"""The four workloads: how each builds its instances and what one op runs.

One op is one user-visible unit of work.  Every op of a workload calls
``metric_mend.cli.main`` with the argument lists that :meth:`Workload.commands`
returns, and :meth:`Workload.check` judges the captured reports and output
files with the independent checks of ``check.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from check import check_covers, check_repair
from gen import Instance, generate


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[str], Instance]  # seed string -> instance
    kinds: tuple[str, ...]           # solve --repair --kind, by instance index
    pool: int                        # distinct instances, cycled through by a timed run
    traced_ops: int                  # ops in a traced run
    oracle: bool = False             # op cross-checks greedy against the oracle

    def commands(self, index: int, instance: str, output: str) -> list[list[str]]:
        machine = ["--format", "machine"]
        if self.oracle:
            return [["solve", instance, "--kind", "gmvd"] + machine,
                    ["oracle", instance, "--what", "mincover", "--cover-kind", "regular"] + machine,
                    ["solve", instance, "--kind", "gmvid"] + machine,
                    ["oracle", instance, "--what", "mincover", "--cover-kind", "nontop"] + machine]
        kind = self.kinds[index % len(self.kinds)]
        return [["solve", instance, "--kind", kind, "--repair", "--out", output] + machine]

    def check(self, index: int, source: str, output: str | None, reports: list[dict]) -> list[str]:
        if self.oracle:
            return check_covers(source, *reports)
        return check_repair(self.kinds[index % len(self.kinds)], source, output, reports[0])


def _oracle_instance(seed: str) -> Instance:
    shape = random.Random(seed + ":shape")
    violations = shape.randint(1, 3)
    m = round(shape.uniform(0.5, 0.75) * 7 * 6 / 2)  # 10 to 16 edges on 7 vertices
    return generate(seed, 7, m, 1, 10, violations)


def _sparse_instance(seed: str) -> Instance:
    n = random.Random(seed + ":shape").randint(32, 48)
    return generate(seed, n, 3 * n, 1, 20, 6)  # average degree 6


# Sizes keep one op near 0.2 s or less, so that a run holds at least 100 ops,
# and pools are large enough that a 60 s run rarely repeats an instance.  Why
# each workload exists is recorded in README.md; BENCHMARK.json registers the
# two that the regression gate runs.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="greedy-dense",
        make=lambda seed: generate(seed, 16, 42, 1, 20, 3),
        kinds=("gmvd", "gmvid"), pool=400, traced_ops=40),
    Workload(
        name="repair-decimal",
        make=lambda seed: generate(seed, 18, 26, 10**6, 10**9, 6, scale=10**6),
        kinds=("gmvd",), pool=320, traced_ops=40),
    Workload(
        name="oracle-small",
        make=_oracle_instance,
        kinds=(), pool=1600, traced_ops=120, oracle=True),
    Workload(
        name="decrease-only",
        make=_sparse_instance,
        kinds=("gmvdd",), pool=160, traced_ops=40),
)}
