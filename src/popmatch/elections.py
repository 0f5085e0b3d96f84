"""Votes, pairwise elections, the defeat relation, and edge labeling.

Every comparison follows the convention that a vertex always prefers
being matched to being unmatched; a vertex unmatched in both matchings
abstains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Tuple

from .instance import Instance, InstanceError, Matching

PLUS = 1
ZERO = 0
MINUS = -1


class ElectionResult(NamedTuple):
    """Vote tallies of a head-to-head election between two matchings."""

    for_first: int
    for_second: int


@dataclass(frozen=True)
class LabeledGraph:
    """Per-edge vote pairs on non-matching edges plus the pruned subgraph.

    label maps each non-matching edge (a, b) to (a's vote for b vs its
    partner, b's vote for a vs its partner).  gm_edges keeps the matching
    edges and every non-(-,-) labeled edge; gm_adj is its adjacency.
    """

    label: Mapping[Tuple[str, str], Tuple[int, int]]
    gm_edges: frozenset
    gm_adj: Mapping[str, Tuple[str, ...]]


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
    """Label every non-matching edge with its endpoint votes and prune
    the (-,-) edges to obtain the reduced subgraph."""
    label = {}
    adj: dict = {v: [] for v in inst.men + inst.women}
    for m, w in matching.pairs:
        adj[m].append(w)
        adj[w].append(m)
    gm = set(matching.pairs)
    for a, b in sorted(inst.edges):
        if (a, b) in matching.pairs:
            continue
        pa = matching.partner_of(a)
        pb = matching.partner_of(b)
        va = PLUS if pa is None or inst.rank[a][b] < inst.rank[a][pa] else MINUS
        vb = PLUS if pb is None or inst.rank[b][a] < inst.rank[b][pb] else MINUS
        label[(a, b)] = (va, vb)
        if va == PLUS or vb == PLUS:
            gm.add((a, b))
            adj[a].append(b)
            adj[b].append(a)
    gm_adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    return LabeledGraph(label=label, gm_edges=frozenset(gm), gm_adj=gm_adj)

