"""Golden digests: every pipeline output stays exactly what it was.

Each run is reduced to the canonical JSON of its result (timings left out)
and hashed with SHA-256; ``tests/data/golden_pipeline.json`` holds the
digests.  A change that keeps every cover, tie-break, split, repaired weight
and verdict passes unchanged; one that moves any output names the runs it
moved.  After a deliberate output change, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from metric_mend.cli import run_pipeline
from metric_mend.core import Graph, format_weight, serialize_instance
from metric_mend.reductions import gen_random
from metric_mend.repair import repair_weights, split_cover
from metric_mend.solver import ProblemKind, greedy_solve

import helpers

FIXTURE = Path(__file__).parent / "data" / "golden_pipeline.json"
KINDS = (ProblemKind.GMVD, ProblemKind.GMVID, ProblemKind.GMVDD)


def golden_instances() -> list[tuple[str, Graph]]:
    """120 seeded instances, n in [4, 11]: integer weights, six-decimal
    weights (denominators up to 10^6) and small-denominator rationals."""
    out = []
    for i in range(120):
        n = 4 + i % 8
        density = (0.4, 0.6, 0.8)[(i // 8) % 3]
        violations = 1 + i % 4
        seed = 31_000 + i
        style = i % 3
        if style == 0:
            g = gen_random(n, density, 12, violations, seed)
        elif style == 1:
            g = gen_random(n, density, 20 * 10**6, violations, seed).scaled(Fraction(1, 10**6))
        else:
            g = helpers.rational_instance(n, violations, seed, density)
        out.append((f"{('int', 'decimal', 'rational')[style]}[{i}]", g))
    return out


def unit_step_instances() -> list[tuple[str, Graph]]:
    """Small integer instances whose unit-step gmvd repair stays short."""
    return [(f"unit[{i}]", gen_random(4 + i % 3, 0.7, 6, 1 + i % 3, 32_000 + i))
            for i in range(30)]


def _edges(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def _changed(changed) -> list:
    return [[list(e), format_weight(a), format_weight(b)] for e, (a, b) in sorted(changed.items())]


def pipeline_record(g: Graph, kind: ProblemKind) -> dict:
    r = run_pipeline(g, kind, repair=True)
    return {
        "cover": [list(e) for e in r.cover],
        "roles": [role.value for role in r.roles],
        "layer_deficits": [format_weight(d) for d in r.layer_deficits],
        "split": None if r.split is None else {"plus": _edges(r.split.s_plus),
                                               "minus": _edges(r.split.s_minus)},
        "final": None if r.final is None else serialize_instance(r.final),
        "steps": r.steps,
        "changed": _changed(r.changed),
        "unresolved_zeros": _edges(r.unresolved_zeros),
        "deficit": format_weight(r.deficit),
        "verdicts": r.verdicts,
    }


def unit_step_record(g: Graph) -> dict:
    split = split_cover(g, greedy_solve(g, ProblemKind.GMVD).edges)
    out = repair_weights(g, split, ProblemKind.GMVD, unit_steps=True)
    return {"final": serialize_instance(out.graph), "changed": _changed(out.changed),
            "steps": out.steps}


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests() -> dict[str, str]:
    out = {}
    for name, g in golden_instances():
        for kind in KINDS:
            out[f"{name}/{kind.value}"] = digest(pipeline_record(g, kind))
    for name, g in unit_step_instances():
        out[f"{name}/gmvd-unit"] = digest(unit_step_record(g))
    return out


def test_outputs_match_golden_digests():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = golden_digests()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} outputs moved, first {moved[:5]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
