"""Golden digests: every pipeline output stays exactly what it was.

Each run is reduced to the canonical JSON of its result (timings left out)
and hashed with SHA-256; ``tests/data/golden_pipeline.json`` holds the
digests.  A change that keeps every cover, tie-break, split, repaired weight
and verdict passes unchanged; one that moves any output names the runs it
moved.  ``tests/data/golden_pipeline_large.json`` does the same for a few
larger instances (n in [24, 64]), ``golden_pipeline_sparse.json`` for two
sparse ones (n = 200 and 250), ``golden_pipeline_dense.json`` for two at
density 0.25 (n = 80 and 120) and ``golden_pipeline_many.json`` for three
with many violations (k disjoint triangles at k = 50 and 100, and n = 1000).  After a deliberate output change, rewrite
every fixture with

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
from metric_mend.solver import ProblemKind

import helpers

FIXTURE = Path(__file__).parent / "data" / "golden_pipeline.json"
LARGE_FIXTURE = Path(__file__).parent / "data" / "golden_pipeline_large.json"
SPARSE_FIXTURE = Path(__file__).parent / "data" / "golden_pipeline_sparse.json"
DENSE_FIXTURE = Path(__file__).parent / "data" / "golden_pipeline_dense.json"
MANY_FIXTURE = Path(__file__).parent / "data" / "golden_pipeline_many.json"
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


def large_instances() -> list[tuple[str, Graph]]:
    """8 seeded sparse instances, n in [24, 64], alternating integer and
    six-decimal weights, with 3-6 planted violations."""
    out = []
    for i in range(8):
        n = 24 + 40 * i // 7
        if i % 2 == 0:
            out.append((f"int[{i}]", gen_random(n, 0.15, 12, 3 + i % 4, 33_000 + i)))
        else:
            g = gen_random(n, 0.15, 20 * 10**6, 3 + i % 4, 33_000 + i)
            out.append((f"decimal[{i}]", g.scaled(Fraction(1, 10**6))))
    return out


def sparse_instances() -> list[tuple[str, Graph]]:
    """2 seeded sparse instances at average degree about 5: n=250 with
    integer weights and n=200 with six-decimal weights."""
    g = gen_random(200, 5 / 199, 20 * 10**6, 5, 34_001).scaled(Fraction(1, 10**6))
    return [("int[250]", gen_random(250, 5 / 249, 12, 4, 34_000)), ("decimal[200]", g)]


def dense_instances() -> list[tuple[str, Graph]]:
    """2 seeded instances at density 0.25: n=80 with six-decimal weights and
    n=120 with integer weights, where the greedy runs tens of rounds."""
    g = gen_random(80, 0.25, 20 * 10**6, 4, 35_000).scaled(Fraction(1, 10**6))
    return [("decimal[80]", g), ("int[120]", gen_random(120, 0.25, 12, 4, 35_001))]


def triangles(k: int) -> Graph:
    """k disjoint triangles weighted (1, 1, 3): k violations, every top at deficit 1."""
    return Graph(3 * k, [e for i in range(0, 3 * k, 3)
                         for e in ((i, i + 1, 1), (i + 1, i + 2, 1), (i, i + 2, 3))])


def many_violation_instances() -> list[tuple[str, Graph]]:
    """3 instances where the greedy runs many rounds: k disjoint triangles at
    k = 50 and 100, where all tops tie at one deficit, and n = 1000 at
    average degree about 5 with 30 planted violations."""
    return [("triangles[50]", triangles(50)), ("triangles[100]", triangles(100)),
            ("int[1000]", gen_random(1000, 0.005, 10, 30, 1))]


def small_instances() -> list[tuple[str, Graph]]:
    """30 seeded instances, n in [4, 6], with integer weights 1-6."""
    return [(f"small[{i}]", gen_random(4 + i % 3, 0.7, 6, 1 + i % 3, 32_000 + i))
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


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pipeline_digests(instances: list[tuple[str, Graph]]) -> dict[str, str]:
    return {f"{name}/{kind.value}": digest(pipeline_record(g, kind))
            for name, g in instances for kind in KINDS}


def golden_digests() -> dict[str, str]:
    return pipeline_digests(golden_instances() + small_instances())


def assert_matches(fixture: Path, actual: dict[str, str]) -> None:
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} outputs moved, first {moved[:5]}"


def test_outputs_match_golden_digests():
    assert_matches(FIXTURE, golden_digests())


def test_large_outputs_match_golden_digests():
    assert_matches(LARGE_FIXTURE, pipeline_digests(large_instances()))


def test_sparse_outputs_match_golden_digests():
    assert_matches(SPARSE_FIXTURE, pipeline_digests(sparse_instances()))


def test_dense_outputs_match_golden_digests():
    assert_matches(DENSE_FIXTURE, pipeline_digests(dense_instances()))


def test_many_violation_outputs_match_golden_digests():
    assert_matches(MANY_FIXTURE, pipeline_digests(many_violation_instances()))


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    for fixture, digests in ((FIXTURE, golden_digests()),
                             (LARGE_FIXTURE, pipeline_digests(large_instances())),
                             (SPARSE_FIXTURE, pipeline_digests(sparse_instances())),
                             (DENSE_FIXTURE, pipeline_digests(dense_instances())),
                             (MANY_FIXTURE, pipeline_digests(many_violation_instances()))):
        fixture.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
