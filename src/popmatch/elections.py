"""Votes, pairwise elections, the defeat relation, and edge labeling.

Every comparison follows the convention that a vertex always prefers
being matched to being unmatched; a vertex unmatched in both matchings
abstains.
"""

from __future__ import annotations

from functools import cached_property
from operator import lt
from typing import Dict, NamedTuple, Optional, Tuple

from .instance import Instance, InstanceError, Matching

PLUS = 1
ZERO = 0
MINUS = -1


class ElectionResult(NamedTuple):
    """Vote tallies of a head-to-head election between two matchings."""

    for_first: int
    for_second: int


# (man's vote, woman's vote) by 2 * plus_a + plus_b
_VOTE_PAIRS = ((MINUS, MINUS), (MINUS, PLUS), (PLUS, MINUS), (PLUS, PLUS))


class LabeledGraph:
    """The votes on the edges of an instance under a matching, as
    boolean arrays over the instance's edge slots (`Instance.slots`).

    in_m marks the matching edges; plus_a (plus_b) marks the edges the
    man (the woman) votes for against his (her) partner, which is every
    edge of an unmatched vertex and no matching edge.  mate[v] is the
    partner of vertex number v, or -1.  The pruned subgraph G_M keeps
    the matching edges and every edge with a vote for it.

    label, gm_edges and gm_adj are views by vertex name, built on first
    access: label maps each non-matching edge (a, b) to (a's vote for b
    vs its partner, b's vote for a vs its partner), gm_edges holds the
    edges of G_M, and gm_adj[v] lists v's G_M neighbours in name order.
    """

    def __init__(self, inst: Instance, mate, in_m, plus_a, plus_b):
        self.inst, self.slots, self.mate = inst, inst.slots, mate
        self.in_m, self.plus_a, self.plus_b = in_m, plus_a, plus_b

    @cached_property
    def label(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        s, names = self.slots, self.inst.names
        order = s.by_man_name[~self.in_m[s.by_man_name]]
        men = map(names.__getitem__, s.man[order].tolist())
        women = map(names.__getitem__, s.woman[order].tolist())
        codes = (2 * self.plus_a[order] + self.plus_b[order]).tolist()
        return dict(zip(zip(men, women), map(_VOTE_PAIRS.__getitem__, codes)))

    @cached_property
    def gm_edges(self) -> frozenset:
        s, names = self.slots, self.inst.names
        keep = self.in_m | self.plus_a | self.plus_b
        men = map(names.__getitem__, s.man[keep].tolist())
        return frozenset(zip(men, map(names.__getitem__, s.woman[keep].tolist())))

    @cached_property
    def gm_adj(self) -> Dict[str, Tuple[str, ...]]:
        s, names = self.slots, self.inst.names
        keep = self.in_m | self.plus_a | self.plus_b
        rows = s.rows(False, keep, s.woman) + s.rows(True, keep, s.man)
        return {v: tuple(map(names.__getitem__, row)) for v, row in zip(names, rows)}


def vote(inst: Instance, u: str, x: str, y: Optional[str] = None) -> int:
    """u's vote comparing neighbor x against y (None = unmatched)."""
    r = inst.rank[u]
    if x not in r:
        raise InstanceError(f"{x!r} is not adjacent to {u!r}")
    if y is None:
        return PLUS
    if x == y:
        return ZERO
    if y not in r:
        raise InstanceError(f"{y!r} is not adjacent to {u!r}")
    return PLUS if r[x] < r[y] else MINUS


def compare(inst: Instance, first: Matching, second: Matching) -> ElectionResult:
    """Count the vertices preferring each matching."""
    # ranks of partners: an absent one ranks below every neighbour
    p, q = inst.mates(first)[1], inst.mates(second)[1]
    return ElectionResult(sum(map(lt, p, q)), sum(map(lt, q, p)))


def defeats(inst: Instance, first: Matching, second: Matching) -> bool:
    """True if first wins the election, or ties it while being larger."""
    result = compare(inst, first, second)
    if result.for_first != result.for_second:
        return result.for_first > result.for_second
    return len(first) > len(second)


def label_edges(inst: Instance, matching: Matching) -> LabeledGraph:
    """Label every edge with its endpoint votes, as vector operations
    over the instance's edge slots."""
    import numpy as np

    slots = inst.slots
    mate, pos = (np.array(a, dtype=np.intp) for a in inst.mates(matching))
    # an unmatched vertex ranks its partner below every neighbour, so it
    # votes for every edge
    return LabeledGraph(
        inst,
        mate,
        in_m=mate[slots.man] == slots.woman,
        plus_a=slots.man_rank < pos[slots.man],
        plus_b=slots.woman_rank < pos[slots.woman],
    )
