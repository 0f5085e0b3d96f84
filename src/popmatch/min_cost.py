"""Minimum-cost dominant matchings with exact rational arithmetic.

Dominant matchings are the projections of the stable matchings of the
two-copy instance G' (see `level_graph`), and a G' matching costs what
its projection costs when copy edges inherit the base cost and dummy
edges cost nothing.  So the problem is min-cost stable matching in G',
which Irving, Leather and Gusfield (J. ACM 1987) solve on the rotation
poset: the stable matchings are the proposer-optimal matching with the
rotations of a closed set eliminated, each rotation changes the cost by
a fixed amount, and the cheapest closed set is one minimum cut (Picard
1976).  `rotation_poset` finds every rotation on one maximal chain of
the lattice by one pointer walk and their precedence by Gusfield-Irving
pair labelling, in O(m log m) on m edges; it runs on levelled
proposers, as `gale_shapley.run` does, so G' is never built.
`stable_matchings` lists the closed sets of that poset instead, each
stable matching once, up to a count guard, and `stable_pairs` the
pairs they hold; `enumerate --what stable|dominant|popular-edges`
prints these.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from . import gale_shapley
from .gale_shapley import LevelledMatching
from .instance import EnumerationGuardError, Instance, InstanceError, ParseError

Edge = Tuple[str, str]
Copy = Tuple[int, int]  # a man, by number, at a level: his copy of that level in G'
CostFunction = Dict[Edge, "Fraction"]

DEFAULT_MAX_STABLE = 100_000


def parse_costs(text: str, inst: Instance) -> CostFunction:
    """Parse '<man> <woman> <cost>' lines; costs may be integers,
    decimals, or p/q fractions, all kept exact.  A cost of more digits
    than Python prints (`sys.get_int_max_str_digits()`) is an error, its
    exponent checked first: expanding 1e999999999 would not finish."""
    from fractions import Fraction

    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bound = 10**digits
    costs: CostFunction = {}
    index, n = inst.index, len(inst.men)
    listed: Dict[int, frozenset] = {}  # a man's women, numbered, on first use
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected '<man> <woman> <cost>'", lineno)
        m, w, val = parts
        i = index.get(m, n)
        if i < n and i not in listed:
            listed[i] = frozenset(inst.adj[i])
        if i >= n or index.get(w) not in listed[i]:
            raise ParseError(f"pair ({m},{w}) is not an edge of the instance", lineno)
        if (m, w) in costs:
            raise ParseError(f"duplicate cost for ({m},{w})", lineno)
        exp = val.lower().partition("e")[2]
        try:
            cost = Fraction(val) if not exp or abs(int(exp)) <= digits else None
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid cost {val!r}", lineno)
        if cost is None or abs(cost.numerator) >= bound or cost.denominator >= bound:
            raise ParseError(f"cost {val!r} exceeds {digits} digits", lineno)
        costs[(m, w)] = cost
    return costs


class RotationPoset(NamedTuple):
    """The rotations of G (of the implicit G' with levels=2) and their
    precedence.

    Proposer (m, l) is man m's copy at level l.  His position is an
    index into m's list, or len(list) for the dummy at the bottom of a
    level-0 copy's list, -1 for the dummy at the top of a level-1 copy's
    list, and None when he holds no one.  `start` gives every proposer's
    position in the proposer-optimal stable matching, and each rotation
    is its moves (m, l, from, to), in the order of one maximal chain.
    `preds[r]` holds rotations that precede r, all earlier on the chain;
    the order is their transitive closure.  A closed set holds the preds
    of each member, and the closed sets are the stable matchings.
    `held[w]` lists, ascending, minus woman w's ranks in G' (level 1
    first) of the proposers she holds along the chain, beside the
    rotation that brought each (-1: the start).
    """

    inst: Instance
    start: Dict[Copy, Optional[int]]
    rotations: List[List[Tuple[int, int, int, int]]]
    preds: List[Set[int]]
    held: Dict[int, Tuple[List[int], List[int]]]

    def matching(self, chosen: Iterable[int]) -> LevelledMatching:
        """The stable matching that eliminating a closed set leaves."""
        at = dict(self.start)
        for r in sorted(chosen):
            for m, lvl, _, to in self.rotations[r]:
                at[m, lvl] = to
        adj, names = self.inst.adj, self.inst.names
        pairs = [
            (names[m], names[adj[m][k]])
            for (m, _), k in at.items()
            if k is not None and 0 <= k < len(adj[m])
        ]
        level = {names[m]: int(at[m, 0] == len(adj[m])) for m in range(len(self.inst.men))}
        return LevelledMatching(pairs, level)

    def stable_pairs(self) -> Set[Tuple[int, int]]:
        """The (man, position) pairs its stable matchings hold, real women
        only: the start pairs and those rotations move onto."""
        adj = self.inst.adj
        pairs = {(m, k) for (m, _), k in self.start.items() if k is not None}
        pairs.update((m, to) for rot in self.rotations for m, _, _, to in rot)
        return {(m, k) for m, k in pairs if 0 <= k < len(adj[m])}


def rotation_poset(inst: Instance, levels: int = 1) -> RotationPoset:
    """Every rotation and their precedence (Gusfield-Irving, ch. 3).

    The rotations are found on one maximal chain from the
    proposer-optimal matching of `gale_shapley.run`, by one walk with a
    scan pointer per proposer (Gusfield 1987; Gusfield-Irving 3.3).  A
    proposer's successor is the holder of the first woman from his
    pointer on who strictly prefers him, or his own level-1 copy, which
    holds the dummy his level-0 copy reaches at the end of his list.
    Women only gain, so a woman who refuses him refuses him for good and
    the pointer only advances.  The walk follows successors on a stack;
    a proposer met again closes a rotation, which is eliminated, and the
    walk resumes from the proposer below it.  A proposer with no
    successor (his list ends, or the next woman is unmatched, so in
    every stable matching) never moves again, and neither does any
    proposer whose successor never moves, so a stack that reaches one
    is dead.

    A rotation precedes another when it gives a proposer the woman the
    other takes from him (type 1), or when it moves a woman above a
    proposer whom the other moves past her (type 2), found by a binary
    search in her `held` ranks.  O(m) for the walk and O(m log m) for
    the labelling, for m edges.
    """
    adj, back = inst.adj, inst.back
    top = levels - 1
    cur = gale_shapley.run(inst, levels=levels)
    mate, pos = inst.mates(cur)
    at: Dict[Copy, Optional[int]] = {}
    for m, lvl in enumerate(map(cur.level.__getitem__, inst.men)):
        at[m, lvl] = pos[m] if mate[m] >= 0 else None
        if levels == 2:
            at[m, 1 - lvl] = len(adj[m]) if lvl else -1
    start = dict(at)

    def her_rank(m: int, lvl: int, k: int) -> int:
        # woman adj[m][k]'s rank of (m, lvl) in G': level 1 first
        return back[m][k] + (top - lvl) * len(adj[adj[m][k]])

    holder: Dict[int, Copy] = {}
    held: Dict[int, Tuple[List[int], List[int]]] = {}
    for (m, lvl), k in at.items():
        if k is not None and 0 <= k < len(adj[m]):
            holder[adj[m][k]] = (m, lvl)
            held[adj[m][k]] = ([-her_rank(m, lvl, k)], [-1])
    # a proposer who holds no one, or a level-0 copy on his dummy, scans
    # past his list's end and so has no successor
    scan = {c: (len(adj[c[0]]) if k is None else k) + 1 for c, k in at.items()}

    def successor(c: Copy) -> Optional[Copy]:
        m, lvl = c
        lst = adj[m]
        k = scan[c]
        while k < len(lst):
            h = holder.get(lst[k])
            if h is None or her_rank(m, lvl, k) < -held[lst[k]][0][-1]:
                scan[c] = k
                return h
            k += 1
        scan[c] = k
        return (m, lvl + 1) if lvl < top and k == len(lst) else None

    rotations: List[List[Tuple[int, int, int, int]]] = []
    preds: List[Set[int]] = []
    last: Dict[Copy, int] = {}

    def eliminate(cycle: List[Copy]) -> None:
        # each proposer takes the woman at his scan pointer, held by the next
        r = len(rotations)
        moves = [(m, lvl, at[m, lvl], scan[m, lvl]) for m, lvl in cycle]
        before = set()
        for m, lvl, frm, to in moves:
            if (m, lvl) in last:
                before.add(last[m, lvl])
            for k in range(frm + 1, to):
                ranks, rots = held[adj[m][k]]
                i = bisect_right(ranks, -her_rank(m, lvl, k))
                if i:
                    before.add(rots[i])
        for m, lvl, _, to in moves:
            at[m, lvl] = to
            scan[m, lvl] = to + 1
            last[m, lvl] = r
            if to < len(adj[m]):
                holder[adj[m][to]] = (m, lvl)
                ranks, rots = held[adj[m][to]]
                ranks.append(-her_rank(m, lvl, to))
                rots.append(r)
        rotations.append(moves)
        preds.append(before)

    dead: Set[Copy] = set()
    stack: List[Copy] = []
    place: Dict[Copy, int] = {}  # a proposer's index on the stack
    for first in start:
        while first not in dead:
            if not stack:
                place[first] = 0
                stack.append(first)
            c = successor(stack[-1])
            if c is None or c in dead:
                dead.update(stack)
                stack.clear()
                place.clear()
            elif c in place:
                cycle = stack[place[c] :]
                del stack[place[c] :]
                for x in cycle:
                    del place[x]
                eliminate(cycle)
            else:
                place[c] = len(stack)
                stack.append(c)
    return RotationPoset(inst, start, rotations, preds, held)


def stable_matchings(
    inst: Instance, limit: Optional[int] = None, levels: int = 1
) -> List[LevelledMatching]:
    """All stable matchings: the closed sets of `rotation_poset`, each
    listed once.  Guarded by a count limit.

    With levels=2 these are the stable matchings of G', each given by its
    pairs and the level every man ends on.  Two of them may share their
    pairs, so they are told apart by both.  Sorted by pairs, then levels.
    """
    cap = DEFAULT_MAX_STABLE if limit is None else limit
    poset = rotation_poset(inst, levels)
    # the first r rotations on the chain form a down-set, so each closed
    # set of theirs is one of the poset, and extending them one rotation
    # at a time meets each closed set once
    sets: List[Set[int]] = [set()]
    for r, before in enumerate(poset.preds):
        for i in range(len(sets)):
            if before <= sets[i]:
                if len(sets) >= cap:
                    raise EnumerationGuardError(f"more than {cap} stable matchings")
                sets.append(sets[i] | {r})
    found = map(poset.matching, sets)
    return sorted(found, key=lambda m: (m.sorted_pairs(), tuple(m.level.values())))


def _min_closure(weights: List[int], preds: List[Set[int]]) -> Set[int]:
    """The closed set (one holding the preds of each member) of least
    total weight, by one minimum cut (Picard 1976).  The source feeds
    every member of negative weight, every one of positive weight feeds
    the sink, and each member feeds its preds past any cut's capacity.
    The max flow is Dinic's; the set is what the residual graph reaches
    from the source, the least of the cheapest closed sets."""
    size = len(weights)
    source, sink = size, size + 1
    out: List[List[int]] = [[] for _ in range(size + 2)]  # node -> arc ids
    head: List[int] = []
    cap: List[int] = []

    def arc(u: int, v: int, c: int) -> None:
        # arc e and its reverse e ^ 1
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)

    unbounded = 1 + sum(map(abs, weights))
    for x, w in enumerate(weights):
        if w < 0:
            arc(source, x, -w)
        elif w > 0:
            arc(x, sink, w)
        for y in preds[x]:
            arc(x, y, unbounded)
    while True:
        depth = [-1] * (size + 2)
        depth[source] = 0
        queue = [source]
        for u in queue:
            for e in out[u]:
                if cap[e] and depth[head[e]] < 0:
                    depth[head[e]] = depth[u] + 1
                    queue.append(head[e])
        if depth[sink] < 0:
            return {x for x in range(size) if depth[x] >= 0}
        # a blocking flow along shortest paths, one path at a time
        nxt = [0] * (size + 2)
        path: List[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                path.clear()
                u = source
            arcs = out[u]
            while nxt[u] < len(arcs):
                e = arcs[nxt[u]]
                if cap[e] and depth[head[e]] == depth[u] + 1:
                    path.append(e)
                    u = head[e]
                    break
                nxt[u] += 1
            else:
                if u == source:
                    break
                u = head[path.pop() ^ 1]
                nxt[u] += 1


def min_cost_dominant(inst: Instance, costs: CostFunction) -> Tuple[LevelledMatching, "Fraction"]:
    """A minimum-cost dominant matching and its exact cost: the cheapest
    stable matching of G', costed by its own pairs.

    Each rotation of G' gets an exact integer weight, its cost change
    with the costs scaled by the least common multiple of the
    denominators of the pairs any stable matching of G' can hold (the
    start pairs and those rotations move onto), and `_min_closure` picks
    the cheapest closed set with one minimum cut.  Ties go to the least `sorted_pairs()`: every
    dominant matching matches the same men, so that is the least vector
    of partners read in men's name order, and each man who moves adds a
    digit for his partner below the cost, in base |women| + 1.  Then they
    go to the least levels in declared man order: levels only rise as
    rotations are added, and the cut returns the least of the cheapest
    closed sets.  Costs O(m log m) for the R rotations of G' on m edges,
    then one max flow on R + 2 nodes whose capacities have O(n log n)
    bits for n men.
    """
    from fractions import Fraction

    names, adj = inst.names, inst.adj
    n = len(inst.men)
    for m in range(n):
        for w in adj[m]:
            if (names[m], names[w]) not in costs:
                raise InstanceError(f"missing cost for edge ({names[m]},{names[w]})")

    poset = rotation_poset(inst, levels=2)
    # only the pairs a stable matching of G' can hold are priced; dummy
    # positions are not, and cost nothing
    priced = {(m, k): costs[names[m], names[adj[m][k]]] for m, k in poset.stable_pairs()}
    scale = lcm(*{c.denominator for c in priced.values()})
    price = {e: c.numerator * (scale // c.denominator) for e, c in priced.items()}
    by_name = sorted(range(n, len(names)), key=names.__getitem__)
    value = {w: v for v, w in enumerate(by_name)}
    partner = {m: adj[m][k] for (m, _), k in poset.start.items()
               if k is not None and 0 <= k < len(adj[m])}
    # per rotation its cost change, and per man the change each of his
    # rotations makes to his partner's place in name order
    gains = [0] * len(poset.rotations)
    digits: Dict[int, List[Tuple[int, int]]] = {}
    for r, rot in enumerate(poset.rotations):
        for m, _, frm, to in rot:
            # m's real partner is the one his copy that does not move to
            # the dummy takes
            gains[r] += price.get((m, to), 0) - price.get((m, frm), 0)
            if to < len(adj[m]):
                w = adj[m][to]
                digits.setdefault(m, []).append((r, value[w] - value[partner[m]]))
                partner[m] = w
    weights = [0] * len(gains)
    unit = 1
    for m in sorted(digits, key=names.__getitem__, reverse=True):
        for r, d in digits[m]:
            weights[r] += d * unit
        unit *= len(by_name) + 1
    weights = [w + gain * unit for w, gain in zip(weights, gains)]
    best = poset.matching(_min_closure(weights, poset.preds))
    return best, sum((costs[e] for e in best.pairs), Fraction(0))
