"""In-memory span and counter recorder wrapped around metric_mend's layers.

The package itself carries no tracing, so :meth:`Tracer.install` rebinds the
module attributes of ``cli``, ``core``, ``solver``, ``repair`` and ``oracle``
that refer to the traced public functions, and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` changes and an untraced run
imports this module not at all.

Each span records its name, start, end, parent span id and the id of the
benchmark op that caused it; a layer's self time is its duration minus the
time covered by its child spans.  Counters are bumped at the same call
boundaries.  Everything stays in memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs that get a span; the span name is "<module>.<function>".
SPANNED = (
    ("cli", "main"),
    ("core", "parse_instance"),
    ("core", "serialize_instance"),
    ("core", "all_pairs_shortest_paths"),
    ("core", "find_uncovered_cycle"),
    ("core", "validate_cover"),
    ("core", "is_metric"),
    ("solver", "greedy_solve"),
    ("solver", "count_report"),
    ("solver", "solve_decrease_only"),
    ("repair", "split_cover"),
    ("repair", "repair_weights"),
    ("repair", "lift_zero_edges"),
    ("oracle", "enumerate_unbalanced_cycles"),
    ("oracle", "exact_min_cover"),
)
# Called too often to carry a span of their own: counted only, their time
# stays in the calling span's self time.
COUNTED = (("core", "dijkstra"),)
MODULES = ("cli", "core", "solver", "repair", "oracle")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self, package):
        self._package = package  # the imported metric_mend package
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.budgets: list = []  # every WorkBudget an oracle call received
        self._stack: list[int] = []
        self._next_id = 0
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every module attribute that refers to a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: getattr(self._package, m) for m in MODULES}
        replacements = {}
        for mod, fn_name in SPANNED:
            original = getattr(modules[mod], fn_name)
            replacements[id(original)] = (original, self._spanned(f"{mod}.{fn_name}", original))
        for mod, fn_name in COUNTED:
            original = getattr(modules[mod], fn_name)
            replacements[id(original)] = (original, self._counted(f"{mod}.{fn_name}_calls", original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _counted(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn):
        on_exit = _ON_EXIT.get(name)
        counter = name + "_calls"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self._op))
                self.counters[counter] += 1
            if on_exit is not None:
                on_exit(self, args, kwargs, result)
            return result
        return wrapper

    # -- ops --------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as benchmark op ``op_id`` under a root span ``bench.op``."""
        self._op = op_id
        try:
            return self._spanned("bench.op", fn)()
        finally:
            self._op = None

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return {s.id: s.duration - child_time[s.id] for s in self.spans}

    def under(self, ancestor: str, name: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        by_id = {s.id: s for s in self.spans}
        total = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and by_id[p].name != ancestor:
                p = by_id[p].parent
            total += p is not None
        return total

    def write_jsonl(self, path) -> None:
        """One JSON object per span, then one holding the counters."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "self_s": selfs[s.id]}) + "\n")
            fh.write(json.dumps({"counters": dict(sorted(self.counters.items()))}) + "\n")


def _count_cover(tracer: Tracer, args, kwargs, result) -> None:
    # greedy_solve returns a CoverSolution, solve_decrease_only a frozenset of edges
    tracer.counters["solver.cover_size_sum"] += len(getattr(result, "edges", result))


def _keep_budget(tracer: Tracer, args, kwargs, result) -> None:
    budget = kwargs.get("budget")
    if budget is not None and all(b is not budget for b in tracer.budgets):
        tracer.budgets.append(budget)


_ON_EXIT = {
    "solver.greedy_solve": _count_cover,
    "solver.solve_decrease_only": _count_cover,
    "oracle.exact_min_cover": _keep_budget,
    "oracle.enumerate_unbalanced_cycles": _keep_budget,
}
