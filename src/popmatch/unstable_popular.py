"""Deciding whether every popular matching is stable.

If any popular matching is unstable then some dominant matching is
unstable, so the search runs over forced-blocking-pair probes: two-level
runs of the engine, which run on the two-copy instance G' without
building it, each checked by `gale_shapley.is_stable` with levels=2.
One probe per edge makes the scan quadratic; `unstable_via_pair` probes
a single pair of edges with the engine's forced-edge query.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import gale_shapley
from .gale_shapley import ProposalRules
from .instance import Instance, InstanceError, Matching

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


def _probe_edge(inst: Instance, a: str, b: str) -> Optional[Matching]:
    """The per-edge probe: force (a,b) to block the projected matching.

    b accepts only level-1 proposers (a floor at her last man at level
    1), and a at level 0 is refused by every woman he prefers to b.
    """
    names = inst.names
    i, j, k = inst.slot(a, b)
    rules = ProposalRules(
        acceptance_floor={b: (names[inst.adj[j][-1]], 1)},
        forced_rejections=frozenset((a, names[w]) for w in inst.adj[i][:k]),
    )
    result = gale_shapley.run(inst, rules, levels=2)
    if result.level[a]:
        return None
    pb = result.partner_of(b)
    # b holds only level-1 men, so she must not hold one she ranks above a
    if pb is None or inst.prefers(b, pb, a):
        return None
    if not gale_shapley.is_stable(inst, result, 2)[0]:
        return None
    return result


def exists_unstable_popular(inst: Instance) -> Optional[Tuple[Matching, Edge]]:
    """An unstable popular matching with a pair blocking it, or None if
    every popular matching is stable.

    Scans edges in id order and returns the first successful probe; any
    returned matching is in fact dominant.
    """
    names, adj = inst.names, inst.adj
    for a, b in sorted((names[m], names[w]) for m in range(len(inst.men)) for w in adj[m]):
        got = _probe_edge(inst, a, b)
        if got is not None:
            return got, (a, b)
    return None
