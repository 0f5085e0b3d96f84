"""A deterministic men-proposing engine with rule hooks.

One proposal loop covers plain deferred acceptance, forced-edge runs
(via per-woman acceptance floors), forced rejections, warm starts from a
partial matching, and levelled proposers.  With two levels it runs
deferred acceptance on the two-copy instance G' of `level_graph`
without building G'.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple

from .instance import Instance, InstanceError, Matching


class InvalidStartState(ValueError):
    """The warm-start matching admits a blocking pair it cannot resolve."""


@dataclass(frozen=True, eq=False)
class ProposalRules:
    """Restrictions a woman applies before considering a proposal.

    acceptance_floor: woman -> (man, level); she rejects proposers she
    ranks strictly below that man at that level.  forced_rejections:
    (man, woman) pairs she always rejects at level 0.  A rejected
    proposer simply moves on to his next choice.
    """

    acceptance_floor: Mapping[str, Tuple[str, int]] = field(default_factory=dict)
    forced_rejections: frozenset = frozenset()


@dataclass(frozen=True, eq=False)
class StartState:
    """Initial matching plus the queue of initially free proposers.

    free=None means all unmatched men in id order.  Start pairs are held
    at level 0, and free men propose from level 0.  Matched men resume
    proposing below their current partner if freed later, so the start
    matching must not admit a blocking pair whose man is matched.
    """

    matching: Matching = field(default_factory=Matching)
    free: Optional[Tuple[str, ...]] = None


class LevelledMatching(Matching):
    """A matching plus `level`: man -> the level he ended on.  With two
    levels it stands for a matching of G' (see `level_graph`).  Equality
    compares the pairs only."""

    __slots__ = ("level",)

    def __init__(self, pairs: Iterable[tuple], level: Mapping[str, int]):
        super().__init__(pairs)
        self.level = level


def _position(inst: Instance, w: str, m: str, level: int) -> int:
    """w's position for m proposing at the given level: lower is better,
    and every level-1 position lies below every level-0 one."""
    return inst.rank[w][m] - level * len(inst.pref[w])


def _check_start(inst: Instance, start: StartState, refuses) -> None:
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
            if refuses(m, 0, other, inst.rank[other][m]):
                continue
            holder = matching.partner_of(other)
            if holder is None or inst.prefers(other, m, holder):
                raise InvalidStartState(
                    f"start matching admits blocking pair ({m},{other})"
                )
    seen = set()
    for m in start.free or ():
        if m not in inst.rank or not inst.is_man(m):
            raise InvalidStartState(f"free proposer {m!r} is not a man")
        if matching.is_matched(m):
            raise InvalidStartState(f"free proposer {m!r} is matched in the start")
        if m in seen:
            raise InvalidStartState(f"free proposer {m!r} listed twice")
        seen.add(m)


def run(
    inst: Instance,
    rules: ProposalRules = ProposalRules(),
    start: StartState = StartState(),
    levels: int = 1,
) -> LevelledMatching:
    """Men-proposing deferred acceptance under the given rules.

    A proposer is a man at a level.  Free men propose in FIFO order down
    their lists, skipping targets the rules forbid, and a man whose list
    runs out below the top level starts it again one level up.  Each
    woman holds the best acceptable proposer seen so far: any of a
    higher level beats any of a lower one, and her own ranking decides
    within a level.  Deterministic for fixed inputs.
    """
    for w, (m, _) in rules.acceptance_floor.items():
        if not inst.has_edge(m, w):
            raise InstanceError(f"acceptance floor ({m},{w}) is not an edge")
    floor = {w: _position(inst, w, *f) for w, f in rules.acceptance_floor.items()}
    forced = rules.forced_rejections

    def refuses(m: str, lvl: int, w: str, p: int) -> bool:
        return p > floor.get(w, p) or (lvl == 0 and (m, w) in forced)

    _check_start(inst, start, refuses)

    restricted = bool(floor or forced)
    top = levels - 1
    rank = inst.rank
    pref = inst.pref
    holds: dict = {}
    pos: dict = {}  # woman -> her position for the proposer she holds
    next_ix: dict = {}
    level = dict.fromkeys(inst.men, 0)
    for m in inst.men:
        w = start.matching.partner_of(m)
        if w is None:
            next_ix[m] = 0
        else:
            holds[w] = m
            pos[w] = rank[w][m]
            next_ix[m] = rank[m][w] + 1
    if start.free is not None:
        queue = deque(start.free)
    else:
        queue = deque(sorted(m for m in inst.men if not start.matching.is_matched(m)))

    while queue:
        m = queue.popleft()
        lst = pref[m]
        i = next_ix[m]
        lvl = level[m]
        while True:
            if i == len(lst):
                if lvl == top:
                    break
                lvl += 1
                i = 0
                continue
            w = lst[i]
            i += 1
            p = rank[w][m]  # _position(inst, w, m, lvl), inlined in the hot loop
            if lvl:
                p -= lvl * len(pref[w])
            if restricted and refuses(m, lvl, w, p):
                continue
            held = pos.get(w)
            if held is None or p < held:
                if held is not None:
                    queue.append(holds[w])
                holds[w] = m
                pos[w] = p
                break
        next_ix[m] = i
        level[m] = lvl
    return LevelledMatching(((m, w) for w, m in holds.items()), level)


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


def is_stable_two_level(inst: Instance, result: LevelledMatching) -> bool:
    """Whether a two-level run's result is stable in G', without building it.

    A man at level l holding w stands for his level-l copy holding w and
    his other copy holding his dummy, so a dummy pair blocks only when a
    man at level 0 is unmatched.  Of the real edges, he scans the women
    above w at level l and, at level 1, those below w at level 0, where
    his level-0 copy holds the dummy at the bottom of its list.
    """
    pref, level = inst.pref, result.level

    def blocks(m: str, lvl: int, w: str) -> bool:
        holder = result.partner_of(w)
        return holder is None or _position(inst, w, m, lvl) < _position(
            inst, w, holder, level[holder]
        )

    for m in inst.men:
        w = result.partner_of(m)
        if w is None and level[m] == 0:
            return False
        cut = len(pref[m]) if w is None else inst.rank[m][w]
        if any(blocks(m, level[m], x) for x in pref[m][:cut]):
            return False
        if level[m] and any(blocks(m, 0, x) for x in pref[m][cut + 1 :]):
            return False
    return True


def stable_with_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[Matching]:
    """The men-optimal stable matching containing the edge, if one exists.

    Runs the engine with the woman refusing anyone worse than the forced
    man, then accepts the result only if it contains the edge and is
    stable in the unmodified instance.
    """
    u, v = edge
    if not inst.has_edge(u, v):
        raise InstanceError(f"({u},{v}) is not an edge of the instance")
    result = run(inst, ProposalRules({v: (u, 0)}))
    if (u, v) in result.pairs and is_stable(inst, result)[0]:
        return result
    return None
