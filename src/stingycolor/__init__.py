"""Exact chromatic analysis for small graphs.

Frames, lonely edges, frame-preserving swaps, stingy and r-bounded colorings,
and exhaustive verification of the Reed-type bounds built on them.
"""

from .graphs import (
    Graph,
    GraphFormatError,
    GraphInvariants,
    all_graphs,
    canonical_mask,
    clique_number,
    complete,
    cycle,
    emit_graph6,
    empty,
    er_random,
    independence_number,
    invariants,
    matching_number,
    parse_graph6,
    path,
    petersen,
)
from .coloring import (
    BoundedStats,
    Coloring,
    ColoringProperty,
    ColoringStats,
    FrameProperty,
    GuardExceededError,
    Guards,
    PartitionError,
    PropertyUnsatisfiableError,
    b_r,
    bounded_stats,
    check_complete_condition,
    check_frame3_sufficiency,
    chi_p,
    chromatic_number,
    enumerate_colorings,
    enumerate_optimal_colorings,
    is_frame_property,
    is_proper,
    is_singleton_friendly,
    one_optimal_coloring,
    stats,
)
from .lonely import (
    DoublyCriticalResult,
    LonelyDigraph,
    SwapError,
    doubly_critical_edges,
    is_lonely,
    lonely_digraph,
    swap,
)
from .bounds import (
    BoundsReport,
    ClaimRecord,
    GeneralizedReport,
    VerificationParams,
    evaluate_bounds,
    evaluate_generalized,
    full_report,
    recheck_counterexample,
    verify_matching_corollary,
)

__version__ = "0.1.0"
