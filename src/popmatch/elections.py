"""Votes, pairwise elections, the defeat relation, and edge labeling.

Every comparison follows the convention that a vertex always prefers
being matched to being unmatched; a vertex unmatched in both matchings
abstains.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, NamedTuple, Optional, Tuple

from .instance import EdgeSlots, Instance, InstanceError, Matching

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

    def __init__(self, slots: EdgeSlots, mate, in_m, plus_a, plus_b):
        self.slots = slots
        self.mate = mate
        self.in_m = in_m
        self.plus_a = plus_a
        self.plus_b = plus_b

    @cached_property
    def label(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        s, names = self.slots, self.slots.names
        order = s.by_man_name[~self.in_m[s.by_man_name]]
        men = map(names.__getitem__, s.man[order].tolist())
        women = map(names.__getitem__, s.woman[order].tolist())
        codes = (2 * self.plus_a[order] + self.plus_b[order]).tolist()
        return dict(zip(zip(men, women), map(_VOTE_PAIRS.__getitem__, codes)))

    @cached_property
    def gm_edges(self) -> frozenset:
        s, names = self.slots, self.slots.names
        keep = self.in_m | self.plus_a | self.plus_b
        men = map(names.__getitem__, s.man[keep].tolist())
        return frozenset(zip(men, map(names.__getitem__, s.woman[keep].tolist())))

    @cached_property
    def gm_adj(self) -> Dict[str, Tuple[str, ...]]:
        s, names = self.slots, self.slots.names
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
    for_first = 0
    for_second = 0
    for u in inst.men + inst.women:
        p = first.partner_of(u)
        q = second.partner_of(u)
        if p == q:
            continue
        if q is None:
            for_first += 1
        elif p is None:
            for_second += 1
        elif inst.rank[u][p] < inst.rank[u][q]:
            for_first += 1
        else:
            for_second += 1
    return ElectionResult(for_first, for_second)


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
    index, rank = slots.index, inst.rank
    mate = np.full(len(slots.names), -1, dtype=np.intp)
    # mate_rank[v]: v's rank of its partner
    mate_rank = np.zeros(len(slots.names), dtype=np.intp)
    for m, w in matching.pairs:
        i, j = index[m], index[w]
        mate[i], mate[j] = j, i
        mate_rank[i], mate_rank[j] = rank[m][w], rank[w][m]
    man, woman = slots.man, slots.woman
    of_man, of_woman = mate[man], mate[woman]
    return LabeledGraph(
        slots,
        mate,
        in_m=of_man == woman,
        plus_a=(of_man < 0) | (slots.man_rank < mate_rank[man]),
        plus_b=(of_woman < 0) | (slots.woman_rank < mate_rank[woman]),
    )
