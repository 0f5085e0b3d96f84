"""Deciding whether every popular matching is stable.

If any popular matching is unstable then some dominant matching is
unstable, so the search runs over forced-blocking-pair probes on the
two-copy auxiliary instance: a quadratic per-edge scan (default) and a
cubic per-edge-pair scan kept as a cross-check.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import gale_shapley, level_graph
from .gale_shapley import ProposalRules
from .instance import Instance, InstanceError, Matching

Edge = Tuple[str, str]


def unstable_via_pair(inst: Instance, e1: Edge, e2: Edge) -> Optional[Matching]:
    """A dominant matching containing e1 = (a,v) and e2's woman side
    (u,b) with (a,b) blocking it, if one exists.

    Probes the auxiliary instance for a stable matching containing
    (a-level-0, v) and (u-level-1, b) via two acceptance floors.
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
    return _probe_pair(level_graph.build_level_graph(inst), e1, e2)


def _probe_pair(
    level: "level_graph.LevelInstance", e1: Edge, e2: Edge
) -> Optional[Matching]:
    a, v = e1
    u, b = e2
    a0 = level.copies[a][0]
    u1 = level.copies[u][1]
    result = gale_shapley.run(
        level.graph, ProposalRules(acceptance_floor={v: a0, b: u1})
    )
    if (
        (a0, v) in result.pairs
        and (u1, b) in result.pairs
        and gale_shapley.is_stable(level.graph, result)[0]
    ):
        return level_graph.map_T(level, result)
    return None


def _probe_edge(
    inst: Instance, level: "level_graph.LevelInstance", a: str, b: str
) -> Optional[Matching]:
    """The per-edge probe: force (a,b) to block the projected matching."""
    a0, a1 = level.copies[a]
    cut = inst.rank[a][b]
    # b's auxiliary list ranks every level-1 copy above every level-0
    # copy, so a floor at the level-1 copy of her last man admits only
    # level-1 proposers.
    rules = ProposalRules(
        acceptance_floor={b: level.copies[inst.pref[b][-1]][1]},
        forced_rejections=frozenset((a0, w) for w in inst.pref[a][:cut]),
    )
    result = gale_shapley.run(level.graph, rules)
    if not gale_shapley.is_stable(level.graph, result)[0]:
        return None
    if result.partner_of(a0) == level.dummy[a]:
        return None
    pb = result.partner_of(b)
    if pb is None or level.graph.rank[b][pb] < level.graph.rank[b][a1]:
        return None
    return level_graph.map_T(level, result)


def exists_unstable_popular(
    inst: Instance, cubic: bool = False
) -> Optional[Tuple[Matching, Edge]]:
    """An unstable popular matching with a pair blocking it, or None if
    every popular matching is stable.

    Scans edges in id order and returns the first successful probe; any
    returned matching is in fact dominant.  cubic switches to the
    edge-pair scan, which must agree.
    """
    level = level_graph.build_level_graph(inst)
    if cubic:
        for a, b in sorted(inst.edges):
            for v in inst.pref[a]:
                if not inst.prefers(a, b, v):
                    continue
                for u in inst.pref[b]:
                    if u == a or not inst.prefers(b, a, u):
                        continue
                    got = _probe_pair(level, (a, v), (u, b))
                    if got is not None:
                        return got, (a, b)
        return None
    for a, b in sorted(inst.edges):
        got = _probe_edge(inst, level, a, b)
        if got is not None:
            return got, (a, b)
    return None
