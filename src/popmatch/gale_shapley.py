"""A deterministic men-proposing engine with rule hooks.

One proposal loop covers plain deferred acceptance, forced-edge runs
(via per-woman acceptance floors), forced rejections, warm starts from a
partial matching, and levelled proposers.  With two levels it runs
deferred acceptance on the two-copy instance G' of `level_graph`
without building G'.  The blocking-pair scan `is_stable` and the
forced-edge query `forced` take the same `levels`, so one of each
serves both G and G'.
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


def _check_start(inst: Instance, start: Matching, refuses) -> None:
    for m, w in start.pairs:
        if not inst.has_edge(m, w):
            raise InvalidStartState(f"start pair ({m},{w}) is not an edge")
    for m, w in start.pairs:
        # Women above m's current partner must already hold someone they
        # prefer, otherwise resuming below the partner skips a proposal
        # that should have happened.
        cutoff = inst.rank[m][w]
        for other in inst.pref[m][:cutoff]:
            if refuses(m, 0, other, inst.rank[other][m]):
                continue
            holder = start.partner_of(other)
            if holder is None or inst.prefers(other, m, holder):
                raise InvalidStartState(
                    f"start matching admits blocking pair ({m},{other})"
                )


def run(
    inst: Instance,
    rules: ProposalRules = ProposalRules(),
    start: Matching = Matching(),
    levels: int = 1,
) -> LevelledMatching:
    """Men-proposing deferred acceptance under the given rules.

    A proposer is a man at a level.  Free men propose in FIFO order down
    their lists, skipping targets the rules forbid, and a man whose list
    runs out below the top level starts it again one level up.  Each
    woman holds the best acceptable proposer seen so far: any of a
    higher level beats any of a lower one, and her own ranking decides
    within a level.  Deterministic for fixed inputs.

    A warm start holds its pairs at level 0, and the men it leaves
    unmatched start proposing, in id order, from level 0.  A matched man
    resumes below his start partner if freed, so the start must not
    admit a blocking pair whose man is matched (InvalidStartState).
    """
    for w, (m, _) in rules.acceptance_floor.items():
        if not inst.has_edge(m, w):
            raise InstanceError(f"acceptance floor ({m},{w}) is not an edge")
    floor = {w: _position(inst, w, *f) for w, f in rules.acceptance_floor.items()}
    rejected = rules.forced_rejections

    def refuses(m: str, lvl: int, w: str, p: int) -> bool:
        return p > floor.get(w, p) or (lvl == 0 and (m, w) in rejected)

    _check_start(inst, start, refuses)

    restricted = bool(floor or rejected)
    top = levels - 1
    rank = inst.rank
    pref = inst.pref
    holds: dict = {}
    pos: dict = {}  # woman -> her position for the proposer she holds
    next_ix: dict = {}
    level = dict.fromkeys(inst.men, 0)
    for m in inst.men:
        w = start.partner_of(m)
        if w is None:
            next_ix[m] = 0
        else:
            holds[w] = m
            pos[w] = rank[w][m]
            next_ix[m] = rank[m][w] + 1
    queue = deque(sorted(m for m in inst.men if not start.is_matched(m)))

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
    inst: Instance, matching: Matching, levels: int = 1
) -> Tuple[bool, Optional[Tuple[str, Optional[str]]]]:
    """Verdict plus the lexicographically least blocking pair, if any.

    With levels=2 the matching is a `LevelledMatching` and the test is
    against G', without building it.  A man at level l holding w stands
    for his level-l copy holding w and his other copy holding his dummy,
    so a dummy pair blocks only when a man at level 0 is unmatched, and
    that man is named by his dummy pair (m, None) alone.  Of the real
    edges, he scans the women above w at level l and, at level 1, those
    below w at level 0, where his level-0 copy holds the dummy at the
    bottom of its list.  A woman prefers any man of a higher level, and
    her own ranking decides within a level.
    """
    best: Optional[Tuple[str, Optional[str]]] = None
    rank, pref = inst.rank, inst.pref
    partner = matching.partner_of
    level = matching.level if levels > 1 else None
    for m in inst.men:
        pm = partner(m)
        lst = pref[m]
        lvl = 0 if level is None else level[m]
        if pm is None and level is not None and lvl == 0:
            if best is None or m < best[0]:
                best = (m, None)
            continue
        cut = len(lst) if pm is None else rank[m][pm]
        scans = ((lst[:cut], lvl), (lst[cut + 1 :], 0)) if lvl else ((lst[:cut], 0),)
        for women, lv in scans:
            for w in women:
                pw = partner(w)
                if pw is None or (
                    rank[w][m] < rank[w][pw]
                    if level is None or lv == level[pw]
                    else lv > level[pw]
                ):
                    pair = (m, w)
                    if best is None or pair < best:
                        best = pair
    return (best is None, best)


def forced(
    inst: Instance, held: Mapping[str, Tuple[str, int]], levels: int = 1
) -> Optional[LevelledMatching]:
    """The men-optimal stable matching (of G' with levels=2) in which each
    woman w of `held` holds the man at the level held[w], if one exists.

    Each such woman refuses anyone below her man at his level, and the
    result counts only if she holds him there and it passes `is_stable`.
    """
    for w, (m, _) in held.items():
        if not inst.has_edge(m, w):
            raise InstanceError(f"({m},{w}) is not an edge of the instance")
    got = run(inst, ProposalRules(held), levels=levels)
    for w, (m, lvl) in held.items():
        if got.partner_of(w) != m or got.level[m] != lvl:
            return None
    return got if is_stable(inst, got, levels)[0] else None


def stable_with_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[Matching]:
    """The men-optimal stable matching containing the edge, if one exists."""
    u, v = edge
    return forced(inst, {v: (u, 0)})
