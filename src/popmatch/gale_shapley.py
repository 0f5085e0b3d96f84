"""A deterministic men-proposing engine with rule hooks.

One proposal loop covers plain deferred acceptance, forced-edge runs
(via per-woman acceptance floors), forced rejections, and warm starts
from a partial matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from .instance import Instance, InstanceError, Matching


class InvalidStartState(ValueError):
    """The warm-start matching admits a blocking pair it cannot resolve."""


@dataclass(frozen=True, eq=False)
class ProposalRules:
    """Restrictions a woman applies before considering a proposal.

    acceptance_floor: woman -> man; she rejects proposers she ranks
    strictly below him.  forced_rejections: (man, woman) pairs she
    always rejects.  A rejected proposer simply moves on to his next
    choice.
    """

    acceptance_floor: Mapping[str, str] = field(default_factory=dict)
    forced_rejections: frozenset = frozenset()

    def allows(self, inst: Instance, man: str, woman: str) -> bool:
        if (man, woman) in self.forced_rejections:
            return False
        floor = self.acceptance_floor.get(woman)
        return floor is None or inst.rank[woman][man] <= inst.rank[woman][floor]

    def is_empty(self) -> bool:
        return not (self.acceptance_floor or self.forced_rejections)


EMPTY_RULES = ProposalRules()


@dataclass(frozen=True, eq=False)
class StartState:
    """Initial matching plus the queue of initially free proposers.

    free=None means all unmatched men in id order.  Matched men resume
    proposing below their current partner if freed later, so the start
    matching must not admit a blocking pair whose man is matched.
    """

    matching: Matching = field(default_factory=Matching)
    free: Optional[Tuple[str, ...]] = None


def _check_start(inst: Instance, rules: ProposalRules, start: StartState) -> None:
    matching = start.matching
    for m, w in matching.pairs:
        if not inst.has_edge(m, w):
            raise InvalidStartState(f"start pair ({m},{w}) is not an edge")
    for m, w in matching.pairs:
        # Women above m's current partner must already hold someone they
        # prefer, otherwise resuming below the partner skips a proposal
        # that should have happened.
        cutoff = inst.rank[m][w]
        for other in inst.pref[m][:cutoff]:
            if not rules.allows(inst, m, other):
                continue
            holder = matching.partner_of(other)
            if holder is None or inst.rank[other][m] < inst.rank[other][holder]:
                raise InvalidStartState(
                    f"start matching admits blocking pair ({m},{other})"
                )
    if start.free is not None:
        for m in start.free:
            if m not in inst.rank or not inst.is_man(m):
                raise InvalidStartState(f"free proposer {m!r} is not a man")
            if matching.is_matched(m):
                raise InvalidStartState(f"free proposer {m!r} is matched in the start")


def run(
    inst: Instance,
    rules: Optional[ProposalRules] = None,
    start: Optional[StartState] = None,
) -> Matching:
    """Men-proposing deferred acceptance under the given rules.

    Free men propose in FIFO order down their lists, skipping targets
    the rules forbid; each woman holds the best acceptable proposer seen
    so far.  Deterministic for fixed inputs.
    """
    if rules is None:
        rules = EMPTY_RULES
    if start is None:
        start = StartState()
    _check_start(inst, rules, start)

    unrestricted = rules.is_empty()
    rank = inst.rank
    pref = inst.pref
    holds: dict = {}
    next_ix: dict = {}
    for m in inst.men:
        w = start.matching.partner_of(m)
        if w is None:
            next_ix[m] = 0
        else:
            holds[w] = m
            next_ix[m] = rank[m][w] + 1
    if start.free is not None:
        queue = deque(start.free)
    else:
        queue = deque(sorted(m for m in inst.men if not start.matching.is_matched(m)))

    while queue:
        m = queue.popleft()
        lst = pref[m]
        i = next_ix[m]
        while i < len(lst):
            w = lst[i]
            i += 1
            if not unrestricted and not rules.allows(inst, m, w):
                continue
            holder = holds.get(w)
            if holder is None:
                holds[w] = m
                break
            rw = rank[w]
            if rw[m] < rw[holder]:
                holds[w] = m
                queue.append(holder)
                break
        next_ix[m] = i
    return Matching((m, w) for w, m in holds.items())


def is_stable(
    inst: Instance, matching: Matching
) -> Tuple[bool, Optional[Tuple[str, str]]]:
    """Verdict plus the lexicographically least blocking pair, if any."""
    best: Optional[Tuple[str, str]] = None
    rank = inst.rank
    for m in inst.men:
        pm = matching.partner_of(m)
        cut = len(inst.pref[m]) if pm is None else rank[m][pm]
        for w in inst.pref[m][:cut]:
            pw = matching.partner_of(w)
            if pw is None or rank[w][m] < rank[w][pw]:
                pair = (m, w)
                if best is None or pair < best:
                    best = pair
    return (best is None, best)


def stable_with_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[Matching]:
    """The men-optimal stable matching containing the edge, if one exists.

    Runs the engine with the woman refusing anyone worse than the forced
    man, then accepts the result only if it contains the edge and is
    stable in the unmodified instance.
    """
    u, v = edge
    if not inst.has_edge(u, v):
        raise InstanceError(f"({u},{v}) is not an edge of the instance")
    result = run(inst, ProposalRules(acceptance_floor={v: u}))
    if (u, v) in result.pairs and is_stable(inst, result)[0]:
        return result
    return None
