"""Minimum-cost dominant matchings with exact rational arithmetic.

Dominant matchings are the projections of the stable matchings of the
two-copy instance G' (see `gale_shapley`), and a stable matching of G'
costs what its projection costs.  So the problem is min-cost stable matching in G',
which Irving, Leather and Gusfield (J. ACM 1987) solve on the rotation
poset of `rotations.rotation_poset`: the stable matchings are the
proposer-optimal matching with the rotations of a closed set
eliminated, each rotation changes the cost by a fixed amount, and the
cheapest closed set is one minimum cut (Picard 1976).
"""

from __future__ import annotations

import sys
from math import lcm
from typing import Dict, Iterable, List, Set, Tuple, Union

from .instance import Instance, InstanceError, LevelledMatching, ParseError, _records
from .rotations import rotation_poset

Edge = Tuple[str, str]
CostFunction = Dict[Edge, "Fraction"]


def parse_costs(source: Union[str, Iterable[str]], inst: Instance) -> CostFunction:
    """Parse '<man> <woman> <cost>' lines, the text or its lines as
    `str.splitlines` gives them; costs may be integers, decimals, or p/q
    fractions, all kept exact.  A cost of more digits
    than Python prints (`sys.get_int_max_str_digits()`) is an error, its
    exponent checked first: expanding 1e999999999 would not finish."""
    from fractions import Fraction

    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bound = 10**digits
    costs: CostFunction = {}
    index, n = inst.index, len(inst.men)
    listed: Dict[int, frozenset] = {}  # a man's women, numbered, on first use
    for lineno, line in _records(source):
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
    of partners read in men's id order, and each man who moves adds a
    digit for his partner below the cost, in base |women| + 1.  Then they
    go to the least levels in men's id order: levels only rise as
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
    partners = [poset.partners(m) for m in range(n)]
    # only the pairs a stable matching of G' can hold are priced
    priced = {(m, k): costs[names[m], names[adj[m][k]]] for m in range(n) for k, _, _ in partners[m]}
    scale = lcm(*{c.denominator for c in priced.values()})
    price = {e: c.numerator * (scale // c.denominator) for e, c in priced.items()}
    # per rotation its cost change, and the change each of its moves
    # makes to a partner's number, one digit per man who moves, the first
    # in id order the most significant
    gains = [0] * len(poset.preds)
    weights = [0] * len(gains)
    unit = 1
    for m in reversed(range(n)):
        for (was, _, _), (k, r, _) in zip(partners[m], partners[m][1:]):
            gains[r] += price[m, k] - price[m, was]
            weights[r] += (adj[m][k] - adj[m][was]) * unit
        if len(partners[m]) > 1:
            unit *= len(inst.women) + 1
    weights = [w + gain * unit for w, gain in zip(weights, gains)]
    best = poset.matching(sum(1 << r for r in _min_closure(weights, poset.preds)))
    held = ((m, k) for m, k in enumerate(best.pos) if k < len(adj[m]))
    return best, sum(map(priced.__getitem__, held), Fraction(0))
