"""Reconfiguration of always-connected temporal graphs.

Decide whether one temporal graph can be turned into another by moving one
edge label at a time while every snapshot stays connected, synthesize such
sequences, cross-check everything against an exhaustive oracle, and
generate vertex-cover hardness instances with certified short sequences.
"""

__version__ = "0.1.0"

from .core import (
    GraphError,
    RelabelOp,
    TemporalEdge,
    TemporalGraph,
    ValidationReport,
    align_names,
    apply_relabel,
    check_pair_counts,
    difference,
    find_bridges,
    is_always_connected,
    is_valid_relabel,
    validate_sequence,
)
from .reachability import ReachabilityPartition, is_crossing, reachability_partition
from .changeability import ChangeTable, classify, sequence_to_nonbridge
from .planner import (
    Feasible,
    Infeasible,
    PlanOutcome,
    UnchangeableEdgeError,
    decrease_difference,
    feasible,
    plan,
)
from .oracle import (
    MinStepsOutcome,
    OracleBudget,
    SearchOutcome,
    canonical_state,
    oracle_min_steps_map,
    oracle_min_steps_to_nonbridge,
    oracle_shortest_sequence,
)
from .generator import generate_random_instance
from .hardness import (
    EdgeGadget,
    ReductionOutput,
    VCInstance,
    brute_force_vertex_cover,
    build_reduction,
    cover_to_sequence,
    prerequisite_edges,
)

__all__ = [
    "__version__",
    "GraphError",
    "RelabelOp",
    "TemporalEdge",
    "TemporalGraph",
    "ValidationReport",
    "align_names",
    "apply_relabel",
    "check_pair_counts",
    "difference",
    "find_bridges",
    "is_always_connected",
    "is_valid_relabel",
    "validate_sequence",
    "ReachabilityPartition",
    "is_crossing",
    "reachability_partition",
    "ChangeTable",
    "classify",
    "sequence_to_nonbridge",
    "Feasible",
    "Infeasible",
    "PlanOutcome",
    "UnchangeableEdgeError",
    "decrease_difference",
    "feasible",
    "plan",
    "MinStepsOutcome",
    "OracleBudget",
    "SearchOutcome",
    "canonical_state",
    "generate_random_instance",
    "oracle_min_steps_map",
    "oracle_min_steps_to_nonbridge",
    "oracle_shortest_sequence",
    "EdgeGadget",
    "ReductionOutput",
    "VCInstance",
    "brute_force_vertex_cover",
    "build_reduction",
    "cover_to_sequence",
    "prerequisite_edges",
]
