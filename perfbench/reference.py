"""Reference answers for popular-edge queries, computed independently
of the library's forced-edge proposal runs.

An edge is popular iff it is a stable pair of G or the projection of a
stable pair of the two-copy instance G' (dominant matchings are exactly
the projections of the stable matchings of G').  The stable pairs of an
instance are the pairs of its men-optimal matching plus the pairs that
some rotation produces, and every rotation is eliminated on any maximal
chain from the men-optimal to the women-optimal matching.  So walking
one such chain, eliminating every exposed rotation at each step, visits
every stable pair.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Sequence, Set, Tuple

Pref = Dict[Hashable, Sequence[Hashable]]


def _men_optimal(men: Sequence[Hashable], pref: Pref, rank) -> Dict[Hashable, Hashable]:
    holder: Dict[Hashable, Hashable] = {}
    nxt = {m: 0 for m in men}
    free = deque(men)
    while free:
        m = free.popleft()
        lst = pref[m]
        while nxt[m] < len(lst):
            w = lst[nxt[m]]
            nxt[m] += 1
            cur = holder.get(w)
            if cur is None:
                holder[w] = m
                break
            if rank[w][m] < rank[w][cur]:
                holder[w] = m
                free.append(cur)
                break
    return {m: w for w, m in holder.items()}


def _exposed_rotations(men, pref, rank, wife, husband) -> List[List[Hashable]]:
    succ = {}
    for m in men:
        w = wife.get(m)
        if w is None:
            continue
        for cand in pref[m][rank[m][w] + 1 :]:
            h = husband.get(cand)
            if h is None:
                # cand is unmatched in every stable matching, so m can
                # never be moved below her.
                break
            if rank[cand][m] < rank[cand][h]:
                succ[m] = h
                break
    cycles = []
    state: Dict[Hashable, int] = {}
    for m in succ:
        path = []
        cur = m
        while cur in succ and cur not in state:
            state[cur] = 1
            path.append(cur)
            cur = succ[cur]
        if state.get(cur) == 1:
            cycles.append(path[path.index(cur) :])
        for v in path:
            state[v] = 2
    return cycles


def stable_pairs(men: Sequence[Hashable], pref: Pref) -> Set[Tuple[Hashable, Hashable]]:
    """Every pair that lies in some stable matching."""
    rank = {v: {x: i for i, x in enumerate(lst)} for v, lst in pref.items()}
    wife = _men_optimal(men, pref, rank)
    found = set(wife.items())
    while True:
        husband = {w: m for m, w in wife.items()}
        cycles = _exposed_rotations(men, pref, rank, wife, husband)
        if not cycles:
            return found
        for cycle in cycles:
            old = [wife[m] for m in cycle]
            for i, m in enumerate(cycle):
                wife[m] = old[(i + 1) % len(cycle)]
                found.add((m, wife[m]))


def popular_edges(inst) -> Set[Tuple[str, str]]:
    """All popular edges of a popmatch Instance."""
    pref: Pref = {v: inst.pref[v] for v in inst.men + inst.women}
    out = stable_pairs(inst.men, pref)

    aux: Pref = {}
    aux_men = []
    for a in inst.men:
        d = ("dummy", a)
        aux_men += [(a, 0), (a, 1)]
        aux[(a, 0)] = tuple(inst.pref[a]) + (d,)
        aux[(a, 1)] = (d,) + tuple(inst.pref[a])
        aux[d] = ((a, 0), (a, 1))
    for b in inst.women:
        lst = inst.pref[b]
        aux[b] = tuple((m, 1) for m in lst) + tuple((m, 0) for m in lst)
    for (a, _level), w in stable_pairs(aux_men, aux):
        if not isinstance(w, tuple):
            out.add((a, w))
    return out
