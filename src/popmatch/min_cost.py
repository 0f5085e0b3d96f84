"""Minimum-cost dominant matchings with exact rational arithmetic.

Dominant matchings are the projections of the stable matchings of the
two-copy instance G' (see `level_graph`), and a G' matching costs what
its projection costs when copy edges inherit the base cost and dummy
edges cost nothing.  So the problem reduces to min-cost stable matching
in G', solved here by walking the stable-matching lattice from the
proposer-optimal matching through exposed rotations.  The walk runs on
levelled proposers, as `gale_shapley.run` does, so G' is never built.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import gale_shapley
from .gale_shapley import LevelledMatching
from .instance import Instance, InstanceError, ParseError
from .oracles import EnumerationGuardError

Edge = Tuple[str, str]
Proposer = Tuple[str, int]  # a man at a level: his copy of that level in G'
CostFunction = Dict[Edge, Fraction]

DEFAULT_MAX_STABLE = 100_000


def parse_costs(text: str, inst: Instance) -> CostFunction:
    """Parse '<man> <woman> <cost>' lines; costs may be integers,
    decimals, or p/q fractions, all kept exact.  A cost of more digits
    than Python prints (`sys.get_int_max_str_digits()`) is an error, its
    exponent checked first: expanding 1e999999999 would not finish."""
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


def _exposed_rotations(
    inst: Instance, matching: LevelledMatching, levels: int
) -> List[List[Proposer]]:
    """Cycles of the successor map on proposers: the proposer holding w
    points at the holder of the first woman below w who strictly prefers
    him (an unmatched such woman ends the chain: moving past her would
    create a blocking pair).

    A man at level l is the proposer (m, l) holding his partner.  With
    two levels, a man at level 0 also has the proposer (m, 1), which
    holds his dummy and scans his whole list at level-1 positions, and
    (m, 0) points at (m, 1) when no woman below his partner will have
    him: his level-0 copy takes the dummy instead.
    """
    top = levels - 1
    adj, back, names = inst.adj, inst.back, inst.names
    level = list(map(matching.level.__getitem__, inst.men))
    mate, pos = inst.mates(matching)

    def successor(m: int, lvl: int, start: int) -> Optional[Tuple[int, int]]:
        for w, p in zip(adj[m][start:], back[m][start:]):
            h = mate[w]
            if h < 0:
                return None
            # her positions for m at lvl and for h at his level
            if p - lvl * len(adj[w]) < pos[w] - level[h] * len(adj[w]):
                return (h, level[h])
        return (m, lvl + 1) if lvl < top else None

    nxt: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for m, lvl in enumerate(level):
        if mate[m] >= 0:
            s = successor(m, lvl, pos[m] + 1)
            if s is not None:
                nxt[(m, lvl)] = s
        if lvl < top:
            s = successor(m, top, 0)
            if s is not None:
                nxt[(m, top)] = s
    cycles: List[List[Proposer]] = []
    color: Dict[Tuple[int, int], int] = {}
    for x in nxt:
        path = []
        cur = x
        while cur in nxt and cur not in color:
            color[cur] = 1
            path.append(cur)
            cur = nxt[cur]
        if color.get(cur) == 1:
            cycles.append([(names[m], lvl) for m, lvl in path[path.index(cur) :]])
        for v in path:
            color[v] = 2
    return cycles


def _eliminate(matching: LevelledMatching, cycle: List[Proposer]) -> LevelledMatching:
    """Rotate the cycle: each proposer takes the next one's partner.  A
    proposer holds his man's partner when at his man's level and the
    dummy otherwise; a level-0 proposer taking the dummy moves his man up
    a level, and the man's level-1 proposer, also on the cycle, brings
    his new partner."""
    pairs = dict(matching.pairs)
    level = dict(matching.level)
    held = [pairs[m] if level[m] == lvl else None for m, lvl in cycle]
    for (m, lvl), w in zip(cycle, held[1:] + held[:1]):
        if w is None:
            level[m] = lvl + 1
        else:
            pairs[m] = w
            level[m] = lvl
    return LevelledMatching(pairs.items(), level)


def stable_matchings(
    inst: Instance, limit: Optional[int] = None, levels: int = 1
) -> List[LevelledMatching]:
    """All stable matchings, by closing the proposer-optimal matching
    under exposed-rotation elimination.  Guarded by a count limit.

    With levels=2 these are the stable matchings of G', each given by its
    pairs and the level every man ends on.  Two of them may share their
    pairs, so they are told apart by both.  Sorted by pairs, then levels.
    """
    cap = DEFAULT_MAX_STABLE if limit is None else limit

    def key(m: LevelledMatching) -> tuple:
        return m.pairs, tuple(m.level.values())

    start = gale_shapley.run(inst, levels=levels)
    seen = {key(start): start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for cycle in _exposed_rotations(inst, cur, levels):
            new = _eliminate(cur, cycle)
            k = key(new)
            if k not in seen:
                if len(seen) >= cap:
                    raise EnumerationGuardError(
                        f"more than {cap} stable matchings; raise the guard"
                    )
                seen[k] = new
                stack.append(new)
    return sorted(seen.values(), key=lambda m: (m.sorted_pairs(), tuple(m.level.values())))


def min_cost_dominant(
    inst: Instance, costs: CostFunction, limit: Optional[int] = None
) -> Tuple[LevelledMatching, Fraction]:
    """A minimum-cost dominant matching and its exact cost: the cheapest
    stable matching of G', costed by its own pairs.

    Ties broken toward the lexicographically least matching, so the
    result is deterministic.
    """
    names = inst.names
    for a, b in ((names[m], names[w]) for m in range(len(inst.men)) for w in inst.adj[m]):
        if (a, b) not in costs:
            raise InstanceError(f"missing cost for edge ({a},{b})")
    total, _, best = min(
        (
            (sum((costs[e] for e in m.pairs), Fraction(0)), m.sorted_pairs(), m)
            for m in stable_matchings(inst, limit, levels=2)
        ),
        key=lambda t: t[:2],
    )
    return best, total
