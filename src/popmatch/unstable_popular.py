"""Deciding whether every popular matching is stable.

If any popular matching is unstable then some dominant matching is, and
the dominant matchings are the projections of the stable matchings of
the two-copy instance G' (see `level_graph`): the closed sets of its
rotation poset.  `exists_unstable_popular` builds that poset once with
`min_cost.rotation_poset`, in O(m log m) on m edges, then answers each
edge with binary searches in two vertices' sequences of moves and at
most two searches back over precedence, pruned at the rotation sought.
`unstable_via_pair` probes a single pair of edges with the engine's
forced-edge query.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Tuple

from . import gale_shapley
from .instance import Instance, InstanceError, Matching
from .min_cost import rotation_poset

Edge = Tuple[str, str]


def unstable_via_pair(inst: Instance, e1: Edge, e2: Edge) -> Optional[Matching]:
    """A dominant matching containing e1 = (a,v) and e2's woman side
    (u,b) with (a,b) blocking it, if one exists.

    Probes G' for a stable matching in which v holds a at level 0 and b
    holds u at level 1.
    """
    a, v = e1
    u, b = e2
    for e in (e1, e2):
        if not inst.has_edge(*e):
            raise InstanceError(f"({e[0]},{e[1]}) is not an edge of the instance")
    if len({a, v, u, b}) < 4:
        return None
    if not inst.has_edge(a, b):
        raise InstanceError(f"({a},{b}) is not an edge, so it cannot block")
    if not (inst.prefers(a, b, v) and inst.prefers(b, a, u)):
        raise InstanceError(f"({a},{b}) does not mutually improve on ({a},{v}), ({u},{b})")
    return gale_shapley.forced(inst, {v: (a, 0), b: (u, 1)}, 2)


def exists_unstable_popular(inst: Instance) -> Optional[Tuple[Matching, Edge]]:
    """The least edge in id order that blocks some dominant matching, with
    the men-best dominant matching it blocks, or None if every popular
    matching is stable.

    For an edge (a, b), with b k-th on a's list and a r-th on b's, these
    rotations of G' are found in the moves of a's level-0 copy a0 and in
    b's partners, a rank in G' putting level 1 first:
      - A moves a0 past b, beyond position k;
      - B gives b her first level-1 partner, of rank below |b's list|;
      - C gives b a partner of rank r or better, at or above a1;
      - D moves a0 to his dummy.
    (a, b) blocks the matching a closed set leaves iff the set holds A
    and B and neither C nor D.  A condition that holds from the start
    needs no rotation, and one that never holds settles the edge, so the
    answer is whether C and D lie outside the down-set of A and B, and
    that down-set is the witness.  A and D share a0's chain of moves and
    B and C share b's, so those pairs compare by chain index; C below A
    and D below B need a search back over `preds`.

    Costs O(m log m) for the poset on m edges, then per edge four binary
    searches and at most two searches back over precedence that enter no
    rotation earlier on the chain than the one sought; nothing of R² bits
    is built for the R rotations.
    """
    poset = rotation_poset(inst, 2)
    adj, back, names = inst.adj, inst.back, inst.names
    preds = poset.preds
    # per woman minus her ranks of her partners in G', per man his
    # level-0 copy's positions, each ascending, with the rotation that
    # brought it (-1: the start)
    steps = dict(poset.held)
    for (m, lvl), k in poset.start.items():
        if lvl == 0:
            steps[m] = ([k], [-1])
    for r, rot in enumerate(poset.rotations):
        for m, lvl, _, to in rot:
            if lvl == 0:
                steps[m][0].append(to)
                steps[m][1].append(r)

    def reached(v: int, key: int) -> Optional[int]:
        # the rotation after which v's key first exceeds `key`
        keys, rots = steps.get(v, ((), ()))
        i = bisect_right(keys, key)
        return rots[i] if i < len(rots) else None

    def precedes(x: int, y: int) -> bool:
        # x <= y in the poset; preds lie earlier on the chain, so no
        # rotation before x can lead back to x
        if x >= y:
            return x == y
        stack, seen = [y], {y}
        while stack:
            for p in preds[stack.pop()]:
                if p == x:
                    return True
                if p > x and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return False

    for a in sorted(range(len(inst.men)), key=names.__getitem__):
        lst = adj[a]
        rd = reached(a, len(lst) - 1)
        if rd == -1:
            continue  # a starts at level 1 and stays there
        for k in sorted(range(len(lst)), key=lambda k: names[lst[k]]):
            b = lst[k]
            ra, rb = reached(a, k), reached(b, -len(adj[b]))
            rc = reached(b, -back[a][k] - 1)
            if ra is None or rb is None or rc == -1:
                continue
            if rd is not None and (rd <= ra or rb >= 0 and precedes(rd, rb)):
                continue
            if rc is not None and (rc <= rb or ra >= 0 and precedes(rc, ra)):
                continue
            closed = {r for r in (ra, rb) if r >= 0}
            stack = list(closed)
            while stack:
                for p in preds[stack.pop()]:
                    if p not in closed:
                        closed.add(p)
                        stack.append(p)
            return poset.matching(closed), (names[a], names[b])
    return None
