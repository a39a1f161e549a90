"""Exact split-reliability toolkit for two-terminal graphs.

Core objects: SimpleGraph / TwoTerminalGraph values, exact coefficient
vectors and signatures, balloon and threshold constructions, desk-scale class
enumeration with a refinement chain, and an exact dominance decision on the
unit interval.
"""

from .graphs import (
    GuardError,
    SimpleGraph,
    TwoTerminalGraph,
    bridges,
    contract_edge,
    count_min_separators,
    edge_connectivity,
    skeleton,
    skeleton_two_terminal,
    subdivide_edge,
    validate,
)
from .counting import (
    CoefficientVector,
    RandomSource,
    SubsetClassification,
    classify_subsets,
    connected_coefficients,
    monte_carlo_sr,
    spanning_tree_count,
    split_coefficients,
    two_tree_count,
)
from .signature import (
    DominanceVerdict,
    SplitSignature,
    dominates_on_unit_interval,
    evaluate,
    sr_polynomial,
)
from .families import (
    BalloonProfile,
    ThresholdSpec,
    balloon,
    balloon_profile,
    bogdanowicz_tree_count,
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
