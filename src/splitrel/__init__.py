"""Exact split-reliability toolkit for two-terminal graphs.

Core objects: SimpleGraph / TwoTerminalGraph values, exact coefficient
vectors and signatures, balloon and threshold constructions, desk-scale class
enumeration with a refinement chain, and an exact dominance decision on the
unit interval.
"""

from .graphs import (
    EdgeSubset,
    GuardError,
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    components,
    contract_edge,
    count_min_separators,
    diameter,
    distance,
    edge_connectivity,
    is_split_subgraph,
    min_degree,
    projected_terminals,
    skeleton,
    subdivide_edge,
    validate,
)
from .counting import (
    CoefficientVector,
    RandomSource,
    SubsetClassification,
    classify_subsets,
    connected_coefficients,
    deletion_contraction_check,
    monte_carlo_sr,
    spanning_tree_count,
    split_coefficients,
    two_tree_count,
)
from .signature import (
    DominanceVerdict,
    Ordering,
    SplitSignature,
    compare_near_one,
    compare_near_zero,
    dominates_on_unit_interval,
    evaluate,
    split_equivalent,
    sr_polynomial,
)
from .families import (
    BalloonProfile,
    ThresholdSpec,
    balloon,
    balloon_profile,
    bogdanowicz_tree_count,
    closed_form_F,
    in_I,
    in_I0,
    in_I1,
    max_bridges,
    min_edge_connectivity,
    sr_composition,
    threshold_graph,
    two_terminal_balloon,
    variant,
)
from .enumeration import (
    ClassLedger,
    UniformVerdict,
    enumerate_graphs,
    enumerate_two_terminal,
    refine_chain,
    uniform_check,
)
from .canon import canonical_form, canonical_form_graph

__version__ = "0.1.0"
