"""Stable, popular and dominant matchings in bipartite instances with
strict two-sided preferences.

A matching is *popular* when it never loses a head-to-head
vertex-majority election against another matching, and *dominant* when
on top of that no election ends in a tie against a larger matching.
The package provides verifiers with replayable certificates, solvers
for the stable/dominant/forced-edge problems, the popular edges read
off the rotation posets, an exhaustive oracle layer for ground truth at
small scale, and a CLI.

`import popmatch` loads only `instance`, `popular_edge` and the proposal
engine in `gale_shapley`; every other public name imports its submodule
on first use (PEP 562), so a CLI command loads just what it runs.
"""

from .instance import (
    EnumerationGuardError,
    Instance,
    InstanceError,
    LevelledMatching,
    Matching,
    ParseError,
    generate_random,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)

# Bound here, after its submodule is imported, so that `popular_edge` is
# the function: importing a submodule first binds the package attribute
# of its name to the module.
from .popular_edge import popular_edge

__version__ = "1.0.0"

# The public names of each submodule.  The names above are bound on
# import; `__getattr__` imports the submodule behind any other on first
# access and binds it here.
_NAMES = {
    "elections": "ElectionResult LabeledGraph compare defeats label_edges vote",
    "gale_shapley": "dominant_two_level is_stable run stable_with_edge",
    "instance": "EnumerationGuardError Instance InstanceError LevelledMatching Matching ParseError "
    "generate_random parse_instance parse_matching serialize_instance serialize_matching",
    "min_cost": "min_cost_dominant parse_costs",
    "oracles": "classify dominant_set enumerate_matchings popular_set stable_set",
    "popular_edge": "Decomposition decompose dominant_with_edge inverse_map lift_to_dominant "
    "lower_to_stable popular_edge",
    "rotations": "exists_unstable_popular popular_edges stable_matchings",
    "verify": "Certificate Partition is_dominant is_popular partition",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime
    # does not report; a non-empty fromlist returns the submodule itself
    module = __import__(f"{__name__}.{_MODULE_OF.get(name, name)}", fromlist=[name])
    if name in _NAMES:  # a submodule, which importing binds here
        return module
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
