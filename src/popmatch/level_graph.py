"""Dominant matchings through the two-copy instance G'.

G' splits each man a of the base instance into a level-0 copy and a
level-1 copy sharing a private dummy woman d(a); base women rank every
level-1 copy above every level-0 copy.  Stable matchings of G' project
exactly onto the dominant matchings of the base instance.  G' is never
built: a stable matching of G' is a levelled matching of the base
instance, in which a man at level l stands for his level-l copy holding
his partner (or nothing) and his other copy holding d(a).  The engine's
two-level run is deferred acceptance on G', and the inverse projection
reads the levels off the alternating-reachability partition.
"""

from __future__ import annotations

from typing import Optional

from . import gale_shapley
from .gale_shapley import LevelledMatching
from .instance import Instance, InstanceError, Matching


class NotDominantError(InstanceError):
    """The inverse projection was asked for a non-dominant matching."""

    def __init__(self, message: str, certificate: Optional["verify.Certificate"] = None):
        super().__init__(message)
        self.certificate = certificate


def dominant_two_level(inst: Instance) -> Matching:
    """A dominant matching: the engine's two-level run, which is deferred
    acceptance on G' without building it."""
    return gale_shapley.run(inst, levels=2)


def inverse_map(inst: Instance, matching: Matching) -> LevelledMatching:
    """Lift a dominant matching to the stable matching of G' that
    projects back onto it: the same pairs, with the men on the level-1
    side of the reachability partition at level 1 and the rest at 0.

    Raises NotDominantError (carrying the verifier's certificate) when
    the input is not dominant; the lift is meaningless otherwise.
    """
    from . import verify

    cert, part = verify.checked_partition(inst, matching, dominant=True)
    if cert is not None:
        raise NotDominantError(f"matching is not dominant: {cert.kind}", cert)
    overlap = part.a0 & part.a1
    if overlap:
        raise NotDominantError(
            "matching is not dominant: reachability sides overlap",
            verify.Certificate("partition-overlap", tuple(sorted(overlap))),
        )
    # Unmatched men are seeded into the level-1 side, so every man at
    # level 0 is matched.
    return LevelledMatching(matching.pairs, {a: int(a in part.a1) for a in inst.men})
