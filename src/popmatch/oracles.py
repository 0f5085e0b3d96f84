"""Brute-force ground truth at desk scale, the reference of the tests.

Exhaustive enumeration and definition-level pairwise elections, apart
from the structural characterizations of the fast verifiers; guarded by
an edge-count limit and a family-size limit.  The CLI reads only
`enumerate_matchings`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Set, Tuple

from .instance import EnumerationGuardError, Instance, Matching

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_EDGES = 36

_UNMATCHED_RANK = 30000


def enumerate_matchings(
    inst: Instance, max_edges: Optional[int] = None, limit: Optional[int] = None
) -> List[Matching]:
    """All matchings of the instance, including the empty one, in
    lexicographic order of their sorted pair lists.  Raises
    EnumerationGuardError past `max_edges` edges, or as soon as it would
    hold more than `limit` matchings (no limit by default)."""
    max_edges = DEFAULT_MAX_EDGES if max_edges is None else max_edges
    count = inst.first[len(inst.men)]  # refused before any edge is named
    if count > max_edges:
        raise EnumerationGuardError(f"{count} edges exceed the enumeration guard of {max_edges}")
    edges = sorted(inst.edges)
    # each matching as a bitmask of its edges, so that a family refused
    # at the guard has not filled memory first
    out = [0]
    mask = 0
    used: Set[str] = set()
    # a depth-first search with an explicit stack: stack[d] is the first
    # edge to try as the (d+1)-th pair of `mask`
    stack = [0]
    while stack:
        i = stack.pop()
        while i < len(edges) and not used.isdisjoint(edges[i]):
            i += 1
        if i < len(edges):
            stack += (i + 1, i + 1)
            if limit is not None and len(out) >= limit:
                raise EnumerationGuardError(f"more than {limit} matchings")
            used.update(edges[i])
            mask |= 1 << i
            out.append(mask)
        elif mask:
            # the pair chosen last is the highest edge of the matching
            i = mask.bit_length() - 1
            used.difference_update(edges[i])
            mask ^= 1 << i
    # a preorder that tries edges in sorted order lists the matchings in
    # lexicographic order of their sorted pair lists
    return [Matching(e for j, e in enumerate(edges) if bits >> j & 1) for bits in out]


def _partner_ranks(inst: Instance, family: List[Matching]) -> np.ndarray:
    """Rank-of-partner array, one row per matching, one column per vertex;
    unmatched vertices get a sentinel worse than any rank."""
    import numpy as np

    index = inst.index
    pr = np.full((len(family), len(index)), _UNMATCHED_RANK, dtype=np.int16)
    for i, matching in enumerate(family):
        for m, w in matching.pairs:
            pr[i, index[m]] = inst.rank[m][w]
            pr[i, index[w]] = inst.rank[w][m]
    return pr


class OracleReport(NamedTuple):
    """Definition-level classification of every matching of an instance."""

    family: List[Matching]
    popular: List[bool]
    dominant: List[bool]
    stable: List[bool]

    def popular_set(self) -> List[Matching]:
        return [m for m, ok in zip(self.family, self.popular) if ok]

    def dominant_set(self) -> List[Matching]:
        return [m for m, ok in zip(self.family, self.dominant) if ok]

    def stable_set(self) -> List[Matching]:
        return [m for m, ok in zip(self.family, self.stable) if ok]


def classify(inst: Instance, max_edges: Optional[int] = None) -> OracleReport:
    """Run every pairwise election among all matchings and mark the
    popular (never beaten) and dominant (never defeated) ones."""
    import numpy as np

    family = enumerate_matchings(inst, max_edges)
    k = len(family)
    pr = _partner_ranks(inst, family)
    sizes = np.array([len(m) for m in family], dtype=np.int16)
    popular = np.ones(k, dtype=bool)
    dominant = np.ones(k, dtype=bool)
    chunk = max(1, (1 << 24) // max(1, k * max(1, pr.shape[1])))
    for lo in range(0, k, chunk):
        hi = min(k, lo + chunk)
        # deficit[i, j] = (#vertices preferring j) - (#vertices preferring i):
        # a vertex prefers the matching ranking its partner lower (better).
        diff = pr[lo:hi, None, :] - pr[None, :, :]
        deficit = np.sign(diff, out=diff).sum(axis=2, dtype=np.int16)
        popular[lo:hi] = (deficit <= 0).all(axis=1)
        defeated = (deficit > 0) | (
            (deficit == 0) & (sizes[None, :] > sizes[lo:hi, None])
        )
        dominant[lo:hi] = ~defeated.any(axis=1)
    stable = [_is_stable_by_definition(inst, m) for m in family]
    return OracleReport(
        family=family,
        popular=list(popular),
        dominant=list(dominant),
        stable=stable,
    )


def _is_stable_by_definition(inst: Instance, matching: Matching) -> bool:
    for a, b in inst.edges:
        if (a, b) in matching.pairs:
            continue
        pa = matching.partner_of(a)
        pb = matching.partner_of(b)
        if (pa is None or inst.rank[a][b] < inst.rank[a][pa]) and (
            pb is None or inst.rank[b][a] < inst.rank[b][pb]
        ):
            return False
    return True


def popular_set(inst: Instance, max_edges: Optional[int] = None) -> List[Matching]:
    """Matchings that never lose a pairwise election."""
    return classify(inst, max_edges).popular_set()


def dominant_set(inst: Instance, max_edges: Optional[int] = None) -> List[Matching]:
    """Matchings never defeated (beaten outright, or tied by something larger)."""
    return classify(inst, max_edges).dominant_set()


def stable_set(inst: Instance, max_edges: Optional[int] = None) -> List[Matching]:
    """Matchings with no blocking pair, by direct edge scan."""
    return [
        m
        for m in enumerate_matchings(inst, max_edges)
        if _is_stable_by_definition(inst, m)
    ]


def popular_edges(inst: Instance, max_edges: Optional[int] = None) -> Set[Tuple[str, str]]:
    """Edges contained in at least one popular matching."""
    out: Set[Tuple[str, str]] = set()
    for matching in popular_set(inst, max_edges):
        out.update(matching.pairs)
    return out


def maximum_matching_size(inst: Instance) -> int:
    """Size of a maximum matching, by alternating-path augmentation (a
    depth-first search with an explicit stack)."""
    match: dict = {}
    size = 0
    for root in inst.names[: len(inst.men)]:
        seen: Set[str] = set()
        # stack[i] is the i-th man on the search path with his untried
        # women; path[i] is the woman he tries, held by stack[i + 1]
        stack = [(root, iter(inst.pref[root]))]
        path: List[str] = []
        while stack:
            m, untried = stack[-1]
            for w in untried:
                if w in seen:
                    continue
                seen.add(w)
                path.append(w)
                if w not in match:
                    for (man, _), woman in zip(stack, path):
                        match[woman] = man
                    size += 1
                    stack = []
                else:
                    stack.append((match[w], iter(inst.pref[match[w]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
    return size
