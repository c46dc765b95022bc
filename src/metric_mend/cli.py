"""Command-line front end: solve, check, reduce, generate, oracle, bench.

Every command re-verifies its own output before reporting success, and
reports are emitted either as human-readable text or as JSON (``--format
machine``).  ``solve`` and ``bench`` format what :func:`run_pipeline`, the
one solve -> split -> repair -> verify chain, returns.  Exit codes: 0
verified success, 1 negative verdict, 2 input error (a file, a parameter or
an oracle budget), 3 any internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import reductions
from .core import (
    CoverKind,
    CycleWitness,
    Edge,
    Graph,
    InstanceFormatError,
    Weight,
    find_uncovered_cycle,
    format_weight,
    is_metric,
    parse_cover,
    parse_instance,
    serialize_instance,
    validate_cover,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    WorkBudget,
    brute_lbcut,
    brute_multicut,
    enumerate_unbalanced_cycles,
    exact_min_cover,
)
from .repair import SplitCover, repair_weights, split_cover
from .solver import ProblemKind, Role, greedy_solve, solve_decrease_only

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    """A file's UTF-8 text; any other byte is an input error on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise InstanceFormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text",
                                  len((before + "x").splitlines())) from None


def _emit(report: dict, fmt: str) -> None:
    if fmt == "machine":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                print(f"{indent}  {json.dumps(item, sort_keys=True)}")
        else:
            print(f"{indent}{key}: {value}")


def _instance_summary(g: Graph, path: str | None = None,
                      deficit: Weight | None = None) -> dict:
    if deficit is None:
        # one Dijkstra run per distinct lower edge endpoint, not all n: a
        # gadget output of `reduce` has few, so it builds no n x n table
        worst = find_uncovered_cycle(g, (), ())
        deficit = worst.deficit if worst is not None else 0
    summary = {
        "n": g.n,
        "m": g.m,
        "deficit": format_weight(deficit),
        "metric": deficit == 0,
    }
    if path is not None:
        summary["path"] = path
    return summary


@dataclass(frozen=True)
class PipelineResult:
    """Everything one solve -> split -> repair -> verify run produces."""

    cover: tuple[Edge, ...]
    roles: tuple[Role, ...]
    layer_deficits: tuple[Weight, ...]
    split: SplitCover | None        # gmvd with repair only
    final: Graph | None             # the repaired graph, None without repair
    steps: int                      # repair moves
    changed: dict[Edge, tuple[Weight, Weight]]  # edge -> (input weight, final weight)
    unresolved_zeros: tuple[Edge, ...]  # zero-weight edges of the final graph
    deficit: Weight                 # the input graph's maximum cycle deficit
    verdicts: dict[str, bool]
    timings: dict[str, float]


def run_pipeline(g: Graph, kind: ProblemKind, *, repair: bool) -> PipelineResult:
    """Solve, then with ``repair`` split and repair, then verify.

    gmvd and gmvid use the greedy cover, whose first layer is the input's
    deficit; gmvd splits it and gmvid repairs it as an increase-only half.
    gmvdd sets each edge heavier than its endpoint distance to that distance:
    the exact cover, its repair and the deficit, from one Dijkstra run per
    lower edge endpoint and no n x n table.  Every stage, the verdicts
    included, runs on ``g`` scaled to integer weights by the least common
    denominator L, whose sums and comparisons are those of ``g`` times L;
    deficits and weights are divided by L exactly on the way out.  The
    verdicts are recomputed from the outputs themselves.  The repair creates
    no zero weight and nothing lifts one afterwards, so a zero in the final
    graph fails verification.
    """
    t0 = time.perf_counter()
    gs, scale = g.integer_scaled()
    if kind is ProblemKind.GMVDD:
        fixes = solve_decrease_only(gs)
        cover = tuple(sorted(fixes))
        roles = (Role.DECREASE,) * len(cover)
        layers: tuple = ()
        deficit = max((gs.weight(*e) - d for e, d in fixes.items()), default=0)
    else:
        solution = greedy_solve(gs, kind)
        cover, roles, layers = solution.edges, solution.roles, solution.layer_deficits
        deficit = layers[0] if layers else 0
    t1 = time.perf_counter()

    split = final = None
    steps = 0
    if repair:
        if kind is ProblemKind.GMVDD:
            final = Graph(gs.n, [(u, v, fixes.get((u, v), w)) for (u, v), w in gs.edge_items()])
            steps = len(cover)
        else:
            if kind is ProblemKind.GMVD:
                split = split_cover(gs, cover)
                roles = tuple(Role.INCREASE if e in split.s_plus else Role.DECREASE
                              for e in cover)
                outcome = repair_weights(gs, split)
            else:
                outcome = repair_weights(
                    gs, SplitCover(s_plus=frozenset(cover), s_minus=frozenset()))
            final, steps = outcome.graph, outcome.steps
    unresolved = () if final is None else tuple(sorted(
        e for e, w in final.edge_items() if w == 0))
    unscaled = None if final is None else final.scaled(Fraction(1, scale))
    changed = {} if unscaled is None else {
        e: (w, unscaled.weight(*e)) for e, w in g.edge_items() if unscaled.weight(*e) != w}
    t2 = time.perf_counter()

    verdicts = _verdicts(gs, kind, cover, roles, final)
    t3 = time.perf_counter()
    return PipelineResult(cover=cover, roles=roles,
                          layer_deficits=tuple(Fraction(d, scale) for d in layers),
                          split=split, final=unscaled, steps=steps, changed=changed,
                          unresolved_zeros=unresolved, deficit=Fraction(deficit, scale),
                          verdicts=verdicts,
                          timings={"solve_s": t1 - t0, "repair_s": t2 - t1,
                                   "verify_s": t3 - t2})


def _verdicts(g: Graph, kind: ProblemKind, cover: tuple[Edge, ...], roles: tuple[Role, ...],
              final: Graph | None) -> dict[str, bool]:
    """Recompute every verdict from the outputs themselves.

    The weight-edit contract (only cover edges move, per-role monotonicity,
    every changed weight in (0, L] for the original maximum L) and the
    metric property are judged on the final graph.  A zero weight is not a
    valid output: the instance format rejects it on read-back.
    """
    verdicts = {"cover_valid": validate_cover(g, cover, kind.cover_kind) is None}
    if final is not None:
        role_of = dict(zip(cover, roles))
        cap = max((w for _, w in g.edge_items()), default=0)
        only_cover = monotone = bounded = True
        for (u, v), w_new in final.edge_items():
            w_old = g.weight(u, v)
            if w_new == w_old:
                continue
            if (u, v) not in role_of:
                only_cover = False
            if not 0 < w_new <= cap:
                bounded = False
            role = role_of.get((u, v), Role.UNASSIGNED)
            if not (role is Role.INCREASE and w_new > w_old
                    or role is Role.DECREASE and w_new < w_old):
                monotone = False
        verdicts.update({
            "only_cover_edges_changed": only_cover,
            "roles_monotone": monotone,
            "bounds_respected": bounded,
            "repaired_metric": is_metric(final),
        })
    verdicts["all_ok"] = all(verdicts.values())
    return verdicts


def cmd_solve(args) -> int:
    if args.out and not args.repair:
        raise InstanceFormatError("--out writes the repaired instance and needs --repair")
    t0 = time.perf_counter()
    g = parse_instance(_read_text(args.instance))
    kind = ProblemKind(args.kind)
    parse_s = time.perf_counter() - t0
    result = run_pipeline(g, kind, repair=args.repair)

    report = {
        "command": "solve",
        "kind": kind.value,
        "instance": _instance_summary(g, args.instance, result.deficit),
        "solution": {
            "size": len(result.cover),
            "edges": [list(e) for e in result.cover],
            "roles": [r.value for r in result.roles],
            "layer_deficits": [format_weight(d) for d in result.layer_deficits],
        },
        "verification": result.verdicts,
        "timings": {"parse_s": parse_s, **result.timings},
    }
    if args.repair:
        report["repair"] = {
            "steps": result.steps,
            "changed": [[list(e), format_weight(old), format_weight(new)]
                        for e, (old, new) in sorted(result.changed.items())],
            "unresolved_zeros": [list(e) for e in result.unresolved_zeros],
        }
        if args.out and result.verdicts["all_ok"]:  # never write an unverified instance
            Path(args.out).write_text(serialize_instance(result.final) + "\n", encoding="utf-8")
            report["repair"]["output"] = args.out
    _emit(report, args.format)
    return EXIT_OK if result.verdicts["all_ok"] else EXIT_INTERNAL


def _cycle_json(c: CycleWitness) -> dict:
    return {"top": list(c.top), "nontop": [list(e) for e in c.nontop],
            "deficit": format_weight(c.deficit)}


def cmd_check(args) -> int:
    g = parse_instance(_read_text(args.instance))
    cover = parse_cover(_read_text(args.cover), g)
    kind = CoverKind(args.cover_kind)
    witness = validate_cover(g, cover, kind)
    report = {
        "command": "check",
        "cover_kind": kind.value,
        "instance": _instance_summary(g, args.instance),
        "cover": [list(e) for e in sorted(set(cover))],
        "ok": witness is None,
    }
    if witness is not None:
        report["witness"] = _cycle_json(witness)
    _emit(report, args.format)
    return EXIT_OK if witness is None else EXIT_VERDICT


def cmd_reduce(args) -> int:
    text = _read_text(args.source)
    budget = WorkBudget(args.oracle_budget)

    if args.which == "multicut":
        mc = reductions.parse_multicut(text)
        artifact = reductions.multicut_to_gmvid(mc)

        def source_optimum() -> int:
            return len(brute_multicut(mc.n, list(mc.edges), list(mc.demands),
                                      budget=budget))
    elif args.which == "lbcut":
        lb = reductions.parse_lbcut(text)
        artifact = reductions.lbcut_to_gmvid(lb)

        def source_optimum() -> int:
            return len(brute_lbcut(lb.n, list(lb.edges), lb.source, lb.sink,
                                   lb.bound, budget=budget))
    else:
        g = parse_instance(text)
        artifact = reductions.gmvid_to_gmvd(g)

        def source_optimum() -> int:
            return exact_min_cover(g, CoverKind.NONTOP, budget=budget).size

    try:
        src = source_optimum()
        reduced = exact_min_cover(artifact.instance, artifact.kind.cover_kind,
                                  budget=budget).size
        verification: dict = {"checked": True, "source_optimum": src,
                              "reduced_optimum": reduced, "equal": src == reduced}
    except BudgetExceededError:
        verification = {"checked": False, "reason": "oracle budget exceeded"}
    refuted = verification["checked"] and not verification["equal"]

    report = {"command": "reduce", "which": args.which}
    if not refuted:  # never write a reduction its own cross-check disproved
        out_path = Path(args.out)
        out_path.write_text(serialize_instance(artifact.instance) + "\n", encoding="utf-8")
        sidecar = out_path.with_suffix(out_path.suffix + ".map.json")
        sidecar.write_text(json.dumps({
            "kind": artifact.kind.value,
            "back_map": sorted([list(e), list(s)]
                               for e, s in artifact.back_map.items()),
            "added_edges": [list(e) for e in sorted(artifact.added_edges)],
            "added_vertices": sorted(artifact.added_vertices),
        }, sort_keys=True, indent=2), encoding="utf-8")
        report.update(output=args.out, back_map=str(sidecar))
    report.update(instance=_instance_summary(artifact.instance), verification=verification)
    _emit(report, args.format)
    return EXIT_INTERNAL if refuted else EXIT_OK


def cmd_generate(args) -> int:
    g = reductions.gen_random(args.n, args.density, args.weight_max,
                              args.violations, args.seed)
    if args.out:
        Path(args.out).write_text(serialize_instance(g) + "\n", encoding="utf-8")
    report = {
        "command": "generate",
        "seed": args.seed,
        "violations_requested": args.violations,
        "instance": _instance_summary(g, args.out),
    }
    if not args.out:
        report["instance_text"] = serialize_instance(g)
    _emit(report, args.format)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = parse_instance(_read_text(args.instance))
    budget = WorkBudget(args.oracle_budget)
    report: dict = {"command": "oracle", "what": args.what,
                    "instance": _instance_summary(g, args.instance)}
    if args.what == "inventory":
        inventory = enumerate_unbalanced_cycles(g, budget=budget)
        report["inventory"] = {
            "unbalanced_cycles": len(inventory),
            "distinct_deficits": [format_weight(d) for d in inventory.distinct_deficits],
            "max_deficit": format_weight(inventory.max_deficit),
            "cycles": [_cycle_json(c) for c in inventory.cycles],
        }
    else:
        kind = CoverKind(args.cover_kind)
        solution = exact_min_cover(g, kind, budget=budget)
        report["min_cover"] = {
            "kind": kind.value,
            "size": solution.size,
            "edges": [list(e) for e in solution.edges],
        }
    _emit(report, args.format)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.trials < 0:
        raise InstanceFormatError(f"trials must be nonnegative, got {args.trials}")
    kind = ProblemKind(args.kind)
    trials = []
    for i in range(args.trials):
        trial_seed = args.seed * 100_003 + i
        g = reductions.gen_random(args.n, args.density, args.weight_max,
                                  args.violations, trial_seed)
        result = run_pipeline(g, kind, repair=args.repair)
        row: dict = {
            "trial": i,
            "seed": trial_seed,
            "n": g.n,
            "m": g.m,
            "size": len(result.cover),
            "layers": len(result.layer_deficits),
            "verified": result.verdicts["all_ok"],
            "solve_s": result.timings["solve_s"],
        }
        if args.repair:
            row["repair_s"] = result.timings["repair_s"]
            row["repair_metric"] = result.verdicts["repaired_metric"]
        try:
            opt = exact_min_cover(g, kind.cover_kind, budget=WorkBudget(args.oracle_budget))
            row["opt"] = opt.size
            row["ratio"] = (len(result.cover) / opt.size) if opt.size else 1.0
        except BudgetExceededError:
            row["opt"] = None
            row["ratio"] = None
        trials.append(row)

    ratios = [r["ratio"] for r in trials if r["ratio"] is not None]
    report = {
        "command": "bench",
        "kind": kind.value,
        "params": {"n": args.n, "density": args.density, "weight_max": args.weight_max,
                   "violations": args.violations, "trials": args.trials, "seed": args.seed},
        "trials": trials,
        "aggregate": {
            "verified": sum(1 for r in trials if r["verified"]),
            "with_opt": len(ratios),
            "max_ratio": max(ratios) if ratios else None,
            "mean_size": (sum(r["size"] for r in trials) / len(trials)) if trials else None,
        },
    }
    _emit(report, args.format)
    return EXIT_OK if all(r["verified"] for r in trials) else EXIT_INTERNAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    :func:`main` call in the process: each parse starts from a fresh
    namespace, so nothing carries over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="metric-mend",
        description="Find and repair minimum sets of edge weights that keep a "
                    "graph from being its own metric completion.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="report style: human text or JSON")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--oracle-budget", type=int, default=DEFAULT_BUDGET,
                        help="work cap for the exhaustive oracle; 0 allows no oracle work")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="run the greedy cover solver (exact for gmvdd)")
    p.add_argument("instance", help="instance file: 'n m' then 'u v w' lines")
    p.add_argument("--kind", choices=("gmvd", "gmvid", "gmvdd"), default="gmvd")
    p.add_argument("--repair", action="store_true",
                   help="also rewrite the cover edges' weights to reach a metric graph")
    p.add_argument("--out", help="write the verified repaired instance here (needs --repair)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", parents=[common], help="validate a cover file")
    p.add_argument("instance")
    p.add_argument("cover", help="cover file: one 'u v' edge per line")
    p.add_argument("--cover-kind", choices=("regular", "nontop", "top"),
                   default="regular")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", parents=[common, budget],
                       help="apply one of the constructive reductions")
    p.add_argument("which", choices=("multicut", "lbcut", "gmvid2gmvd"))
    p.add_argument("source", help="multicut: edge list + 'D k' demands; "
                                  "lbcut: edge list + 'LB s t L'; "
                                  "gmvid2gmvd: weighted instance file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("generate", parents=[common],
                       help="random metric instance with planted violations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--weight-max", type=int, default=10)
    p.add_argument("--violations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", parents=[common, budget],
                       help="exhaustive ground truth for small instances")
    p.add_argument("instance")
    p.add_argument("--what", choices=("inventory", "mincover"), default="inventory")
    p.add_argument("--cover-kind", choices=("regular", "nontop"), default="regular")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", parents=[common, budget],
                       help="generate, solve, and cross-check a family of instances")
    p.add_argument("--kind", choices=("gmvd", "gmvid"), default="gmvd")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--weight-max", type=int, default=10)
    p.add_argument("--violations", type=int, default=1)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repair", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # any other failure is a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
