"""A deterministic men-proposing engine.

One proposal loop covers plain deferred acceptance, forced-edge runs
(via per-woman acceptance floors) and levelled proposers.  With two
levels it runs deferred acceptance on the two-copy instance G' without
building G'.  The instance keeps the unforced run's final state per
level, the level-2 one climbed on from the level-1 one, and beside it
one pair of empty overlays of its `at` and `level`.  A floored run,
such as the forced-edge query `forced`, resumes from it: when a floored
woman holds a man below her floor there, through private overlays that
copy none of it, and else with no proposal at all, its result then a
new witness bound to that shared pair (`_unmoved`), which is all a
`popular_edge` "yes" on a pair the kept matching holds costs.  The
rotation posets walk on from copies of it too.  `is_stable` is the
blocking-pair scan of G.
A result is a `LevelledMatching` in the numbers the loop keeps: each
man's position on his list and his level, named only when read by id.

G' splits each man a of the base instance into a level-0 copy and a
level-1 copy sharing a private dummy woman d(a); base women rank every
level-1 copy above every level-0 copy.  Stable matchings of G' project
exactly onto the dominant matchings of the base instance.  A stable
matching of G' is a levelled matching of the base instance, in which a
man at level l stands for his level-l copy holding his partner (or
nothing) and his other copy holding d(a).  Neither this engine nor
`rotations.rotation_poset` models the copies: both walk a man, his
list once per level, level 0 first, and his move from the end of his
level-0 list to his level-1 list is the move of his level-0 copy onto
d(a), which always takes it, and of his level-1 copy off it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Mapping, Optional, Tuple

from .instance import Instance, InstanceError, LevelledMatching, Matching


def run(
    inst: Instance,
    floors: Optional[Mapping[str, Tuple[str, int]]] = None,
    levels: int = 1,
) -> LevelledMatching:
    """Men-proposing deferred acceptance with per-woman acceptance floors.

    A proposer is a man at a level, and levels is 1 or 2.  `floors` maps
    a woman to (man, level): she refuses every proposer she ranks below
    that man at that level, and a refused proposer moves on to his next
    choice, so the run is deferred acceptance with her list cut there.
    Free men propose in FIFO order down their lists, and a man whose
    list runs out below the top level starts it again one level up.
    Each woman holds the best acceptable proposer seen so far: any of a
    higher level beats any of a lower one, and her own ranking decides
    within a level.  Every man starts free at level 0, queued in id
    order: the order of proposals does not change the result
    (Gusfield-Irving 1989, ch. 1), so a floored run resumes (`_floored`).
    """
    if not floors:
        return LevelledMatching(inst, *_propose(inst, levels)[3:])
    held = _held(inst, floors, levels, "acceptance floor ({},{}) is not an edge")
    return _floored(inst, held, levels)


def _held(
    inst: Instance, floors: Mapping[str, Tuple[str, int]], levels: int, not_edge: str
) -> List[Tuple[int, int, int]]:
    """`floors` by number, as `_floored` takes them, each floor's edge
    looked up once.  An InstanceError names the first floor that is not
    an edge (`not_edge` formatted with its man and woman), then a
    ValueError a `levels` other than 1 or 2, then one a floor's level
    not below it."""
    held = []
    for w, (m, lvl) in floors.items():
        s = inst.slot(m, w)
        if s is None:
            raise InstanceError(not_edge.format(m, w))
        held.append((s[0], s[2], lvl))
    if levels not in (1, 2):
        raise ValueError(f"levels must be 1 or 2, got {levels!r}")
    for w, (m, lvl) in floors.items():
        if lvl not in range(levels):
            raise ValueError(f"acceptance floor ({m},{w}) at level {lvl!r} of {levels}")
    return held


class _Overlay(dict):
    """A private write layer over the kept list `kept`: a read of an
    entry not written here reads the list, and the list is never
    written.  A floored run's result reads two (`instance._merged`).
    Made as `_Overlay()` with `kept` set after: no `__init__` frame."""

    __slots__ = ("kept",)

    def __missing__(self, i: int) -> int:
        return self.kept[i]


# the instance attributes that keep the unforced state and the empty
# overlays of its `at` and `level` that `_unmoved` shares, by `levels`
_KEPT = {1: "unforced_state_1", 2: "unforced_state_2"}
_UNMOVED = {1: "unforced_overlays_1", 2: "unforced_overlays_2"}


def _unforced(inst: Instance, levels: int) -> List[List[int]]:
    """The unforced final state of `_propose` at `levels`, kept on the
    instance from the first call on and never written after.  Level 1
    is one run from empty arrays.  Level 2 climbs on from a copy of the
    kept level-1 state, each man whose level-0 list ran out queued to
    start it again at level 1: the proposals of the level-1 run are the
    first ones of the level-2 run, in an order that does not change its
    end (McVitie-Wilson 1971).  Beside it goes one pair of empty
    overlays of its `at` and `level`, which `_unmoved` shares."""
    state = vars(inst).get(_KEPT[levels])
    if state is None:
        if levels == 1:
            state = _propose(inst, 1)
        else:
            state = [a.copy() for a in _unforced(inst, 1)]
            adj, at = inst.adj, state[3]
            ran_out = [m for m, i in enumerate(at) if i == len(adj[m])]
            state = _propose(inst, 2, (), state, ran_out)
        vars(inst)[_KEPT[levels]] = state
        at, level = _Overlay(), _Overlay()
        at.kept, level.kept = state[3], state[4]
        vars(inst)[_UNMOVED[levels]] = at, level
    return state


def _unmoved(inst: Instance, levels: int) -> LevelledMatching:
    """The kept unforced matching at `levels` as a new witness, bound
    through the shared empty overlays, which nothing writes (a witness
    builds its own lists on first read), and made without running
    `LevelledMatching.__init__`."""
    got = object.__new__(LevelledMatching)
    got.inst = inst
    got._runs = getattr(inst, _UNMOVED[levels])
    return got


def _floored(inst: Instance, held: List[tuple], levels: int) -> LevelledMatching:
    """`run` with floors by number: for each (m, k, l) of `held`, the k-th
    woman on man m's list refuses every proposer she ranks below m at
    level l.  Cutting lists only adds refusals and the order of proposals
    does not matter (McVitie-Wilson 1971), so it resumes from the
    unforced final state (`_unforced`).  Only a floored woman who holds
    a man below her floor there starts proposals: if none does, the
    result is the unforced matching, `_unmoved`'s witness on the shared
    empty overlays, and no overlay is made and `_propose` not entered.
    Else the run writes all five lists to private overlays of the kept
    ones and copies none.  Either way the result is bound to overlays
    of `at` and `level` and builds its `pos` and `lvl` on first read.
    A run costs the proposals made beyond the unforced matching, and
    its overlays hold an entry for each man and woman they touch.
    `popular_edge` skips the call where its route table marks the pair
    as held by the unforced matching."""
    # read inline: on a forced query that proposes nothing, the call to
    # `_unforced` added about 15% to its cost
    state = getattr(inst, _KEPT[levels], None) or _unforced(inst, levels)
    holds, pos = state[0], state[1]
    adj, back, first = inst.adj, inst.back, inst.first
    for m, k, lvl in held:
        w = adj[m][k]
        if holds[w] >= 0 and pos[w] > back[first[m] + k] - lvl * len(adj[w]):
            break
    else:
        return _unmoved(inst, levels)
    overlays = []
    for kept in state:
        overlay = _Overlay()
        overlay.kept = kept
        overlays.append(overlay)
    return LevelledMatching(inst, *_propose(inst, levels, held, overlays)[3:])


def _propose(
    inst: Instance, levels: int, held=(), state=None, free=()
) -> List[List[int]]:
    """The loop of `run`, on numbers: [holds, pos, next_ix, at, level],
    where woman w holds man holds[w] (-1: no one) at her position pos[w]
    and man m the woman before next_ix[m] on his list at level[m], at
    position at[m] (its length: he ran out of it at the top level).  It
    starts from empty arrays with every man free, or goes on from
    `state`, which it changes, with the men of `free` and those `held`'s
    women refuse free.  `rotations` walks on from its final state."""
    adj, back, first, n = inst.adj, inst.back, inst.first, len(inst.men)
    queue = deque(range(n) if state is None else free)
    if state is None:
        if levels not in (1, 2):
            raise ValueError(f"levels must be 1 or 2, got {levels!r}")
        # her position for a proposer: her rank of him less her list length
        # per level he is on (lower is better); her list length for no one
        state = [[-1] * len(adj), list(map(len, adj)), [0] * n, [0] * n, [0] * n]
    holds, pos, next_ix, at, level = state
    floor = {}  # the worst position each floored woman accepts
    for m, k, lvl in held:
        w = adj[m][k]
        floor[w] = back[first[m] + k] - lvl * len(adj[w])
        if holds[w] >= 0 and pos[w] > floor[w]:
            queue.append(holds[w])
            holds[w], pos[w] = -1, len(adj[w])
    top = levels - 1

    while queue:
        m = queue.popleft()
        lst, f = adj[m], first[m]
        i = next_ix[m]
        lvl = level[m]
        while True:
            if i == len(lst):
                if lvl == top:
                    at[m] = i
                    break
                lvl += 1
                i = 0
                continue
            w = lst[i]
            p = back[f + i]
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
                at[m] = i - 1
                break
        next_ix[m] = i
        level[m] = lvl
    return state


def dominant_two_level(inst: Instance) -> LevelledMatching:
    """A dominant matching: the two-level run, which is deferred
    acceptance on G' without building it."""
    return run(inst, levels=2)


def is_stable(inst: Instance, matching: Matching) -> Tuple[bool, Optional[Tuple[str, str]]]:
    """Verdict plus the lexicographically least blocking pair, if any:
    the least by number, which is id order."""
    for m, blocking in _blocking(inst, inst.mates(matching)[1]):
        return False, (inst.names[m], inst.names[min(blocking)])
    return True, None


def _blocking(inst: Instance, pos: List[int]) -> Iterator[Tuple[int, List[int]]]:
    """The blocking pairs of the matching whose partner ranks are `pos`
    (`Instance.mates`), read as far as asked: each man who is in one, in
    number order, and the women he blocks with, in his list's order.
    A blocking pair is exactly a (+,+) edge, which `verify` lists here."""
    adj, back, first = inst.adj, inst.back, inst.first
    for m in range(len(inst.men)):
        # an unmatched woman's position is her list length, below every man
        blocking = [w for i, w in enumerate(adj[m][: pos[m]], first[m]) if back[i] < pos[w]]
        if blocking:
            yield m, blocking


def forced(
    inst: Instance, held: Mapping[str, Tuple[str, int]], levels: int = 1
) -> Optional[LevelledMatching]:
    """The men-optimal stable matching (of G' with levels=2) in which each
    woman w of `held` holds the man at the level held[w], if one exists.

    One floored `run` in which each such woman refuses anyone below her
    man at his level, which is deferred acceptance on the instance with
    her list cut below him, resumed from the kept unforced state.  If
    she holds him there, no cut pair blocks the result, since she ranks
    every cut man below him.  A stable matching holding all the pairs is
    stable in the cut instance, where the run's result is the worst for
    every woman and matches the same women (Gusfield-Irving 1989), so
    each of them holds her man in it too.
    """
    by_number = _held(inst, held, levels, "({},{}) is not an edge of the instance")
    got = _floored(inst, by_number, levels)
    at, level = got._runs  # the overlays: no list built
    for m, k, lvl in by_number:
        if at[m] != k or level[m] != lvl:
            return None
    return got


def stable_with_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[LevelledMatching]:
    """The men-optimal stable matching containing the edge, if one exists."""
    u, v = edge
    return forced(inst, {v: (u, 0)})
