"""Deciding which edges lie in some popular matching.

An edge lies in a popular matching iff it lies in a stable matching or
in a dominant one, so two forced-edge proposal runs settle the question.
The decomposition machinery splits any popular matching into a dominant
core and a stable remainder and can push the whole matching to either
extreme while keeping the relevant half fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from . import gale_shapley, level_graph, verify
from .gale_shapley import StartState
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
    level = level_graph.build_level_graph(sub)
    start_pairs = []
    free = []
    for y in sub.men:
        y_lo, y_hi = level.copies[y]
        z = dec.m1.partner_of(y)
        if z is None:
            start_pairs.append((y_lo, level.dummy[y]))
            free.append(y_hi)
        else:
            start_pairs.append((y_lo, z))
            start_pairs.append((y_hi, level.dummy[y]))
    aux = gale_shapley.run(
        level.graph, start=StartState(Matching(start_pairs), tuple(sorted(free)))
    )
    lifted = level_graph.map_T(level, aux)
    # Every dummy woman is matched in a stable matching of G', so a man's
    # level-0 copy holds his dummy exactly when his level-1 copy does not.
    f = level_graph.f_values(level, aux)
    y1 = frozenset(y for y in sub.men if f[y])
    z1 = frozenset(z for z in sub.women if f[z])
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

    The remainder side is re-solved through its own two-copy auxiliary
    instance, warm-started from the remainder matching with only the
    level-1 copies of its unmatched men proposing.
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
    redone = gale_shapley.run(
        sub, start=StartState(start, tuple(sorted(part.a0)))
    )
    return Matching(redone.pairs | dec.m1.pairs)


def dominant_with_edge(
    inst: Instance, edge: Tuple[str, str]
) -> Optional[Matching]:
    """A dominant matching containing the edge, if any: force the edge
    onto each copy of the man in the auxiliary instance and project the
    first stable result down."""
    u, v = edge
    if (u, v) not in inst.edges:
        raise InstanceError(f"({u},{v}) is not an edge of the instance")
    level = level_graph.build_level_graph(inst)
    for copy in level.copies[u]:
        got = gale_shapley.stable_with_edge(level.graph, (copy, v))
        if got is not None:
            return level_graph.map_T(level, got)
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
