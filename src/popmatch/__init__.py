"""Stable, popular and dominant matchings in bipartite instances with
strict two-sided preferences.

A matching is *popular* when it never loses a head-to-head
vertex-majority election against another matching, and *dominant* when
on top of that no election ends in a tie against a larger matching.
The package provides verifiers with replayable certificates, solvers
for the stable/dominant/forced-edge problems, an exhaustive oracle
layer for ground truth at small scale, and a CLI.
"""

from .elections import ElectionResult, LabeledGraph, compare, defeats, label_edges, vote
from .gale_shapley import (
    LevelledMatching,
    is_stable,
    run,
    stable_with_edge,
)
from .instance import (
    Instance,
    InstanceError,
    Matching,
    ParseError,
    generate_random,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)
from .level_graph import dominant_two_level, inverse_map
from .min_cost import min_cost_dominant, parse_costs, stable_matchings
from .oracles import (
    EnumerationGuardError,
    classify,
    dominant_set,
    enumerate_matchings,
    popular_edges,
    popular_set,
    stable_set,
)
from .popular_edge import (
    Decomposition,
    decompose,
    dominant_with_edge,
    lift_to_dominant,
    lower_to_stable,
    popular_edge,
)
from .unstable_popular import exists_unstable_popular, unstable_via_pair
from .verify import Certificate, Partition, is_dominant, is_popular, partition

__version__ = "1.0.0"

__all__ = [
    "Certificate",
    "Decomposition",
    "ElectionResult",
    "EnumerationGuardError",
    "Instance",
    "InstanceError",
    "LabeledGraph",
    "LevelledMatching",
    "Matching",
    "ParseError",
    "Partition",
    "classify",
    "compare",
    "decompose",
    "defeats",
    "dominant_set",
    "dominant_two_level",
    "dominant_with_edge",
    "enumerate_matchings",
    "exists_unstable_popular",
    "generate_random",
    "inverse_map",
    "is_dominant",
    "is_popular",
    "is_stable",
    "label_edges",
    "lift_to_dominant",
    "lower_to_stable",
    "min_cost_dominant",
    "parse_costs",
    "parse_instance",
    "parse_matching",
    "partition",
    "popular_edge",
    "popular_edges",
    "popular_set",
    "run",
    "serialize_instance",
    "serialize_matching",
    "stable_matchings",
    "stable_set",
    "stable_with_edge",
    "unstable_via_pair",
    "vote",
]
