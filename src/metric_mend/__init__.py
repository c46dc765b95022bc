"""Make a positively weighted graph its own metric completion by editing few weights.

The package finds approximately minimum edge sets whose weights must change
(arbitrarily, increase-only, or decrease-only), repairs the weights
constructively, ships the constructive reductions from multicut and
length-bounded cut, and provides exhaustive oracles for verification on
small instances.
"""

from .core import (
    CoverKind,
    CycleWitness,
    DistanceTables,
    Edge,
    Graph,
    INFINITY,
    InstanceFormatError,
    InternalConsistencyError,
    Weight,
    all_pairs_shortest_paths,
    canonical_edge,
    find_uncovered_cycle,
    format_weight,
    graph_deficit,
    is_metric,
    parse_instance,
    serialize_instance,
    validate_cover,
)
from .oracle import (
    BudgetExceededError,
    CycleInventory,
    WorkBudget,
    brute_count,
    enumerate_unbalanced_cycles,
    exact_min_cover,
)
from .reductions import (
    LbCutInstance,
    MulticutInstance,
    ReductionArtifact,
    gen_random,
    gmvid_to_gmvd,
    lbcut_to_gmvid,
    multicut_to_gmvid,
)
from .repair import (
    CoverInvalidError,
    LiftResult,
    RepairOutcome,
    SplitCover,
    lift_zero_edges,
    repair_weights,
    split_cover,
)
from .solver import (
    CountReport,
    CoverSolution,
    ProblemKind,
    Role,
    count_nontop,
    count_report,
    count_top,
    greedy_solve,
    solve_decrease_only,
)

__version__ = "0.1.0"


def __getattr__(name):
    # run_pipeline lives in cli; importing cli lazily keeps `python -m metric_mend.cli` clean
    if name == "run_pipeline":
        from .cli import run_pipeline
        return run_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetExceededError",
    "CountReport",
    "CoverInvalidError",
    "CoverKind",
    "CoverSolution",
    "CycleInventory",
    "CycleWitness",
    "DistanceTables",
    "Edge",
    "Graph",
    "INFINITY",
    "InstanceFormatError",
    "InternalConsistencyError",
    "LbCutInstance",
    "LiftResult",
    "MulticutInstance",
    "ProblemKind",
    "ReductionArtifact",
    "RepairOutcome",
    "Role",
    "SplitCover",
    "Weight",
    "WorkBudget",
    "all_pairs_shortest_paths",
    "brute_count",
    "canonical_edge",
    "count_nontop",
    "count_report",
    "count_top",
    "enumerate_unbalanced_cycles",
    "exact_min_cover",
    "find_uncovered_cycle",
    "format_weight",
    "gen_random",
    "gmvid_to_gmvd",
    "graph_deficit",
    "greedy_solve",
    "is_metric",
    "lbcut_to_gmvid",
    "lift_zero_edges",
    "multicut_to_gmvid",
    "parse_instance",
    "repair_weights",
    "run_pipeline",
    "serialize_instance",
    "solve_decrease_only",
    "split_cover",
    "validate_cover",
]
