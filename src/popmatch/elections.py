"""Votes, pairwise elections, the defeat relation, and edge labeling.

Every comparison follows the convention that a vertex always prefers
being matched to being unmatched; a vertex unmatched in both matchings
abstains.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from operator import lt
from typing import Dict, List, NamedTuple, Optional, Tuple

from .instance import Instance, Matching

PLUS = 1
ZERO = 0
MINUS = -1


class ElectionResult(NamedTuple):
    """Vote tallies of a head-to-head election between two matchings."""

    for_first: int
    for_second: int


class LabeledGraph:
    """The votes on the edges of an instance under a matching, read off
    the instance's own lists (`Instance.adj`, `back` and `first`).

    mate[v] is the partner of vertex number v, or -1, and pos[v] its
    rank of the partner, or its list length if it has none.  Man m votes
    for the k-th woman w on his list against his partner iff k < pos[m],
    and she for him iff back[first[m] + k] < pos[w]: an unmatched vertex
    votes for every edge, and no one for a matching edge.  The
    pruned subgraph G_M keeps the matching edges and every edge with a
    vote for it.

    label and gm_edges are views by vertex name, built on first access:
    label maps each non-matching edge (a, b), in id order, to (a's
    vote for b vs its partner, b's vote for a vs its partner), and
    gm_edges holds the edges of G_M.
    """

    def __init__(self, inst: Instance, mate: List[int], pos: List[int]):
        self.inst, self.mate, self.pos = inst, mate, pos

    def row(self, v: int) -> List[int]:
        """Vertex v's G_M neighbours but its partner, sorted by number,
        which is id order.  A man reads each woman's vote off `back`; a
        woman reads the vote of each man below her partner by looking for
        herself among the women he ranks above his own partner."""
        inst, pos = self.inst, self.pos
        adj, k = inst.adj, pos[v]
        row = adj[v]
        # v votes for the first k entries and, if matched, holds the
        # next one; beyond that only the other end's vote keeps an edge
        if v < len(inst.men):
            back = inst.back
            voted = [w for i, w in enumerate(row[k + 1 :], inst.first[v] + k + 1) if back[i] < pos[w]]
        else:
            voted = [x for x in row[k + 1 :] if v in adj[x][: pos[x]]]
        voted += row[:k]
        voted.sort()
        return voted

    @cached_property
    def label(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        inst, mate, pos = self.inst, self.mate, self.pos
        names, back = inst.names, inst.back
        label = {}
        for x in range(len(inst.men)):
            f = inst.first[x]
            for w, i in sorted(zip(inst.adj[x], count(f))):
                if w != mate[x]:
                    label[names[x], names[w]] = (
                        PLUS if i < f + pos[x] else MINUS, PLUS if back[i] < pos[w] else MINUS
                    )
        return label

    @cached_property
    def gm_edges(self) -> frozenset:
        names, mate, n = self.inst.names, self.mate, len(self.inst.men)
        edges = [(x, w) for x in range(n) for w in self.row(x)]
        edges += [(x, w) for x, w in enumerate(mate[:n]) if w >= 0]
        return frozenset((names[x], names[w]) for x, w in edges)


def vote(inst: Instance, u: str, x: str, y: Optional[str] = None) -> int:
    """u's vote comparing neighbor x against y (None = unmatched)."""
    if y is None or x == y:
        inst.prefers(u, x, x)  # raises for an unknown u or a non-neighbour x
        return PLUS if y is None else ZERO
    return PLUS if inst.prefers(u, x, y) else MINUS


def compare(inst: Instance, first: Matching, second: Matching) -> ElectionResult:
    """Count the vertices preferring each matching."""
    # ranks of partners: an absent one ranks below every neighbour
    p, q = inst.mates(first)[1], inst.mates(second)[1]
    return ElectionResult(sum(map(lt, p, q)), sum(map(lt, q, p)))


def defeats(inst: Instance, first: Matching, second: Matching) -> bool:
    """True if first wins the election, or ties it while being larger."""
    for_first, for_second = compare(inst, first, second)
    return (for_first, len(first)) > (for_second, len(second))


def label_edges(inst: Instance, matching: Matching) -> LabeledGraph:
    """Label every edge with its endpoint votes: the partners and their
    ranks (`Instance.mates`), from which `LabeledGraph` reads each vote."""
    return LabeledGraph(inst, *inst.mates(matching))
