"""Deciding which edges lie in some popular matching.

An edge lies in a popular matching iff it lies in a stable matching or
in a dominant one, so the engine's forced-edge query on the instance
and on its implicit G' settles the question.  The decomposition
machinery splits any popular matching into a dominant core and a stable
remainder and can push the whole matching to either extreme while
keeping the relevant half fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from . import gale_shapley, verify
from .instance import Instance, InstanceError, Matching
from .verify import Certificate


class NotPopularError(InstanceError):
    """A transformation that requires a popular input got a non-popular one."""

    def __init__(self, message: str, certificate: Optional[Certificate] = None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class Decomposition:
    """A popular matching split along the blocking-pair closure.

    m0 covers the closure side (all of it matched, dominant there); m1
    is the untouched remainder (stable on the rest).  y and z are the
    men and women outside the closure, in declared order.
    """

    m0: Matching
    m1: Matching
    partition: "verify.Partition"
    y: Tuple[str, ...]
    z: Tuple[str, ...]


def decompose(inst: Instance, matching: Matching) -> Decomposition:
    """Split a popular matching into its blocking-pair closure part and
    the remainder."""
    cert, part = verify.checked_partition(inst, matching, dominant=False)
    if cert is not None:
        raise NotPopularError(f"matching is not popular: {cert.kind}", cert)
    a_side = part.a0 | part.a1
    m0 = []
    m1 = []
    for m, w in matching.sorted_pairs():
        (m0 if m in a_side else m1).append((m, w))
    b_side = part.b0 | part.b1
    return Decomposition(
        m0=Matching(m0),
        m1=Matching(m1),
        partition=part,
        y=tuple(m for m in inst.men if m not in a_side),
        z=tuple(w for w in inst.women if w not in b_side),
    )


@dataclass(frozen=True)
class _LiftDetails:
    """lift_to_dominant plus the level split of the transformed side."""

    matching: Matching
    decomposition: Decomposition
    y0: FrozenSet[str]
    y1: FrozenSet[str]
    z0: FrozenSet[str]
    z1: FrozenSet[str]


def _lift(inst: Instance, matching: Matching) -> _LiftDetails:
    dec = decompose(inst, matching)
    sub = inst.induced(dec.y + dec.z)
    lifted = gale_shapley.run(sub, start=dec.m1, levels=2)
    y1 = frozenset(y for y in sub.men if lifted.level[y])
    z1 = frozenset(lifted.partner_of(y) for y in y1) - {None}
    return _LiftDetails(
        matching=Matching(dec.m0.pairs | lifted.pairs),
        decomposition=dec,
        y0=frozenset(sub.men) - y1,
        y1=y1,
        z0=frozenset(sub.women) - z1,
        z1=z1,
    )


def lift_to_dominant(inst: Instance, matching: Matching) -> Matching:
    """Transform a popular matching into a dominant one that keeps the
    closure part intact.

    The remainder side is re-solved by a two-level run of the engine
    (deferred acceptance on its implicit G'), warm-started from the
    remainder matching with its unmatched men proposing.
    """
    return _lift(inst, matching).matching


def lower_to_stable(inst: Instance, matching: Matching) -> Matching:
    """Transform a popular matching into a stable one that keeps the
    remainder part intact.

    The closure side is re-solved on original preference lists, starting
    from its level-1-side pairs with the level-0-side men proposing.
    """
    dec = decompose(inst, matching)
    part = dec.partition
    a_side = part.a0 | part.a1
    sub = inst.induced(a_side | part.b0 | part.b1)
    start = Matching((m, w) for m, w in dec.m0.pairs if m in part.a1)
    redone = gale_shapley.run(sub, start=start)
    return Matching(redone.pairs | dec.m1.pairs)


def dominant_with_edge(
    inst: Instance, edge: Tuple[str, str]
) -> Optional[Matching]:
    """A dominant matching containing the edge, if any: force the edge
    onto the man at level 0, then at level 1, in G'."""
    u, v = edge
    for lvl in (0, 1):
        got = gale_shapley.forced(inst, {v: (u, lvl)}, 2)
        if got is not None:
            return got
    return None


def popular_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[Matching]:
    """A popular matching containing the edge, if any.

    Tries the stable route first (smaller, blocking-pair-free witness),
    then the dominant route; a miss on both proves no popular matching
    contains the edge.
    """
    got = gale_shapley.stable_with_edge(inst, edge)
    if got is not None:
        return got
    return dominant_with_edge(inst, edge)
