"""Minimum-cost dominant matchings with exact rational arithmetic.

Dominant matchings are the projections of the stable matchings of the
two-copy auxiliary instance, and projection preserves cost when copy
edges inherit the base cost and dummy edges cost nothing.  So the
problem reduces to min-cost stable matching there, solved here by
walking the stable-matching lattice from the proposer-optimal matching
through exposed rotations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import gale_shapley, level_graph
from .instance import Instance, InstanceError, Matching, ParseError
from .level_graph import LevelInstance
from .oracles import EnumerationGuardError

Edge = Tuple[str, str]
CostFunction = Dict[Edge, Fraction]

DEFAULT_MAX_STABLE = 100_000


def parse_costs(text: str, inst: Instance) -> CostFunction:
    """Parse '<man> <woman> <cost>' lines; costs may be integers,
    decimals, or p/q fractions, all kept exact."""
    costs: CostFunction = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected '<man> <woman> <cost>'", lineno)
        m, w, val = parts
        if not inst.has_edge(m, w):
            raise ParseError(f"pair ({m},{w}) is not an edge of the instance", lineno)
        if (m, w) in costs:
            raise ParseError(f"duplicate cost for ({m},{w})", lineno)
        try:
            costs[(m, w)] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid cost {val!r}", lineno)
    return costs


def extend_costs(
    inst: Union[Instance, LevelInstance], costs: CostFunction
) -> CostFunction:
    """Push a base cost function up to the auxiliary instance: both
    copies of an edge inherit its cost, dummy edges cost zero."""
    level = inst if isinstance(inst, LevelInstance) else level_graph.build_level_graph(inst)
    base = level.base
    out: CostFunction = {}
    for a in base.men:
        a0, a1 = level.copies[a]
        for b in base.pref[a]:
            if (a, b) not in costs:
                raise InstanceError(f"missing cost for edge ({a},{b})")
            out[(a0, b)] = costs[(a, b)]
            out[(a1, b)] = costs[(a, b)]
        out[(a0, level.dummy[a])] = Fraction(0)
        out[(a1, level.dummy[a])] = Fraction(0)
    return out


def _exposed_rotations(inst: Instance, matching: Matching) -> List[List[str]]:
    """Cycles of the successor map m -> partner of the first woman below
    m's partner who strictly prefers m (an unmatched such woman ends the
    chain: moving m past her would create a blocking pair)."""
    nxt: Dict[str, str] = {}
    for m in inst.men:
        w = matching.partner_of(m)
        if w is None:
            continue
        for cand in inst.pref[m][inst.rank[m][w] + 1 :]:
            p = matching.partner_of(cand)
            if p is None:
                break
            if inst.rank[cand][m] < inst.rank[cand][p]:
                nxt[m] = p
                break
    cycles: List[List[str]] = []
    color: Dict[str, int] = {}
    for m in inst.men:
        if m in color:
            continue
        path = []
        cur = m
        while cur in nxt and cur not in color:
            color[cur] = 1
            path.append(cur)
            cur = nxt[cur]
        if cur in color and color[cur] == 1 and cur in nxt:
            cycles.append(path[path.index(cur) :])
        for v in path:
            color[v] = 2
        color.setdefault(cur, 2)
    return cycles


def _eliminate(matching: Matching, cycle: List[str]) -> Matching:
    """Rotate the cycle: each man takes the next man's current partner."""
    pairs = dict(matching.sorted_pairs())
    old = [pairs[m] for m in cycle]
    for i, m in enumerate(cycle):
        pairs[m] = old[(i + 1) % len(cycle)]
    return Matching(pairs.items())


def stable_matchings(
    inst: Instance, limit: Optional[int] = None
) -> List[Matching]:
    """All stable matchings, by closing the proposer-optimal matching
    under exposed-rotation elimination.  Guarded by a count limit."""
    cap = DEFAULT_MAX_STABLE if limit is None else limit
    start = gale_shapley.run(inst)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for cycle in _exposed_rotations(inst, cur):
            new = _eliminate(cur, cycle)
            if new not in seen:
                if len(seen) >= cap:
                    raise EnumerationGuardError(
                        f"more than {cap} stable matchings; raise the guard"
                    )
                seen.add(new)
                stack.append(new)
    return sorted(seen, key=lambda m: m.sorted_pairs())


def min_cost_dominant(
    inst: Instance, costs: CostFunction, limit: Optional[int] = None
) -> Tuple[Matching, Fraction]:
    """A minimum-cost dominant matching and its exact cost.

    Ties broken toward the lexicographically least projected matching,
    so the result is deterministic.
    """
    level = level_graph.build_level_graph(inst)
    lifted_costs = extend_costs(level, costs)
    best: Optional[Tuple[Fraction, Tuple[Edge, ...], Matching]] = None
    for aux in stable_matchings(level.graph, limit):
        total = sum(
            (lifted_costs[e] for e in aux.pairs), start=Fraction(0)
        )
        projected = level_graph.map_T(level, aux)
        key = (total, projected.sorted_pairs())
        if best is None or key < (best[0], best[1]):
            best = (total, projected.sorted_pairs(), projected)
    assert best is not None  # the proposer-optimal matching always exists
    return best[2], best[0]
