"""A deterministic men-proposing engine with rule hooks.

One proposal loop covers plain deferred acceptance, forced-edge runs
(via per-woman acceptance floors), warm starts from a partial matching,
and levelled proposers.  With two levels it runs
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
    ranks strictly below that man at that level.  A rejected proposer
    simply moves on to his next choice.
    """

    acceptance_floor: Mapping[str, Tuple[str, int]] = field(default_factory=dict)


class LevelledMatching(Matching):
    """A matching plus `level`: man -> the level he ended on.  With two
    levels it stands for a matching of G' (see `level_graph`).  Equality
    compares the pairs only."""

    __slots__ = ("level",)

    def __init__(self, pairs: Iterable[tuple], level: Mapping[str, int]):
        super().__init__(pairs)
        self.level = level


def _check_start(inst: Instance, start: Matching, floor: dict) -> Tuple[list, list]:
    """`Instance.mates` of a start that passes the checks, under `run`'s
    acceptance floors."""
    for m, w in start.pairs:
        if not inst.has_edge(m, w):
            raise InvalidStartState(f"start pair ({m},{w}) is not an edge")
    mate, pos = inst.mates(start)
    adj, back, names = inst.adj, inst.back, inst.names
    for m in range(len(inst.men)):
        if mate[m] < 0:
            continue
        # Women above m's current partner must already hold someone they
        # prefer, otherwise resuming below the partner skips a proposal
        # that should have happened.
        for other, p in zip(adj[m][: pos[m]], back[m]):
            if p <= floor.get(other, p) and p < pos[other]:
                raise InvalidStartState(
                    f"start matching admits blocking pair ({names[m]},{names[other]})"
                )
    return mate, pos


def run(
    inst: Instance,
    rules: ProposalRules = ProposalRules(),
    start: Matching = Matching(),
    levels: int = 1,
) -> LevelledMatching:
    """Men-proposing deferred acceptance under the given rules.

    A proposer is a man at a level, and levels is 1 or 2.  Free men
    propose in FIFO order down their lists, skipping targets the rules
    forbid, and a man whose list runs out below the top level starts it
    again one level up.  Each woman holds the best acceptable proposer
    seen so far: any of a higher level beats any of a lower one, and her
    own ranking decides within a level.  Deterministic for fixed inputs.

    A warm start holds its pairs at level 0, and the men it leaves
    unmatched start proposing, in id order, from level 0.  A matched man
    resumes below his start partner if freed, so the start must not
    admit a blocking pair whose man is matched (InvalidStartState).
    """
    if levels not in (1, 2):
        raise ValueError(f"levels must be 1 or 2, got {levels!r}")
    adj, back, names = inst.adj, inst.back, inst.names
    # her position for a proposer: her rank of him less her list length
    # per level he is on, so lower is better
    floor = {}
    for w, (m, lvl) in rules.acceptance_floor.items():
        s = inst.slot(m, w)
        if s is None:
            raise InstanceError(f"acceptance floor ({m},{w}) is not an edge")
        if lvl not in range(levels):
            raise ValueError(f"acceptance floor ({m},{w}) at level {lvl!r} of {levels}")
        i, j, k = s
        floor[j] = back[i][k] - lvl * len(adj[j])
    mate, pos = _check_start(inst, start, floor)
    top = levels - 1
    n = len(inst.men)
    # holds[w], pos[w]: the proposer woman w holds and her position for
    # him; a woman who holds no one ranks him at her list length
    holds = mate
    next_ix = [pos[m] + 1 if mate[m] >= 0 else 0 for m in range(n)]
    level = [0] * n
    queue = deque(sorted((m for m in range(n) if mate[m] < 0), key=names.__getitem__))

    while queue:
        m = queue.popleft()
        lst, ranks = adj[m], back[m]
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
            p = ranks[i]
            i += 1
            if lvl:
                p -= lvl * len(adj[w])
            if floor and p > floor.get(w, p):
                continue
            if p < pos[w]:
                if holds[w] >= 0:
                    queue.append(holds[w])
                holds[w] = m
                pos[w] = p
                break
        next_ix[m] = i
        level[m] = lvl
    pairs = ((names[holds[w]], names[w]) for w in range(n, len(names)) if holds[w] >= 0)
    return LevelledMatching(pairs, dict(zip(inst.men, level)))


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
    if levels not in (1, 2):
        raise ValueError(f"levels must be 1 or 2, got {levels!r}")
    adj, back, names = inst.adj, inst.back, inst.names
    mate, pos = inst.mates(matching)
    n = len(inst.men)
    level = [0] * n if levels == 1 else list(map(matching.level.__getitem__, inst.men))

    def blocking_pairs():
        for m in range(n):
            lvl = level[m]
            if mate[m] < 0 and levels == 2 and lvl == 0:
                yield (names[m], None)
                continue
            lst, ranks, cut = adj[m], back[m], pos[m]
            scans = [(lst[:cut], ranks[:cut], lvl)]
            if lvl:
                scans.append((lst[cut + 1 :], ranks[cut + 1 :], 0))
            for women, their_ranks, lv in scans:
                for w, p in zip(women, their_ranks):
                    pw = mate[w]
                    if pw < 0 or (p < pos[w] if lv == level[pw] else lv > level[pw]):
                        yield (names[m], names[w])

    best = min(blocking_pairs(), default=None)
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
