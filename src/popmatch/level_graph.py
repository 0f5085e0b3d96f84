"""The two-copy auxiliary instance G' and dominant-matching routines.

Each man a of the base instance is split into a level-0 copy and a
level-1 copy sharing a private dummy woman d(a); base women rank every
level-1 copy above every level-0 copy.  Stable matchings of G' project
exactly onto the dominant matchings of the base instance, and the
projection is inverted here via the alternating-reachability partition.
The engine's two-level run is deferred acceptance on G' without
building it; the explicit G' is the reference route and the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from . import gale_shapley, verify
from .gale_shapley import LevelledMatching
from .instance import Instance, InstanceError, Matching
from .verify import Certificate

FValues = Dict[str, int]


class NotDominantError(InstanceError):
    """The inverse projection was asked for a non-dominant matching."""

    def __init__(self, message: str, certificate: Optional[Certificate] = None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(eq=False)
class LevelInstance:
    """The auxiliary instance plus provenance maps.

    graph: the auxiliary Instance itself.  copies: base man -> (level-0
    id, level-1 id).  dummy: base man -> his dummy woman's id.  origin:
    copy id -> (base man, level).  dummy_base: dummy id -> base man.
    """

    base: Instance
    graph: Instance
    copies: Mapping[str, Tuple[str, str]]
    dummy: Mapping[str, str]
    origin: Mapping[str, Tuple[str, int]]
    dummy_base: Mapping[str, str]


def build_level_graph(inst: Instance) -> LevelInstance:
    """Split every man into two leveled copies with a shared dummy woman.

    Copy ids live in a reserved namespace derived from the base id; the
    separator grows until it collides with no existing vertex id.
    """
    vertices = set(inst.men) | set(inst.women)
    sep = "#"
    while any(
        f"{a}{sep}{tag}" in vertices for a in inst.men for tag in ("0", "1", "d")
    ):
        sep += "#"
    copies = {a: (f"{a}{sep}0", f"{a}{sep}1") for a in inst.men}
    dummy = {a: f"{a}{sep}d" for a in inst.men}

    men = []
    pref: dict = {}
    origin = {}
    for a in inst.men:
        a0, a1 = copies[a]
        men.extend((a0, a1))
        origin[a0] = (a, 0)
        origin[a1] = (a, 1)
        pref[a0] = inst.pref[a] + (dummy[a],)
        pref[a1] = (dummy[a],) + inst.pref[a]
    women = list(inst.women) + [dummy[a] for a in inst.men]
    for b in inst.women:
        lst = inst.pref[b]
        pref[b] = tuple(copies[m][1] for m in lst) + tuple(copies[m][0] for m in lst)
    for a in inst.men:
        pref[dummy[a]] = copies[a]
    graph = Instance(men, women, pref, check=False)
    return LevelInstance(
        base=inst,
        graph=graph,
        copies=copies,
        dummy=dummy,
        origin=origin,
        dummy_base={d: a for a, d in dummy.items()},
    )


def map_T(level: LevelInstance, matching: Matching) -> Matching:
    """Project an auxiliary matching down: drop dummy edges, then merge
    the two copies of each man back into one vertex."""
    pairs: Dict[str, str] = {}
    for x, y in sorted(matching.pairs):
        if x not in level.origin:
            raise InstanceError(f"{x!r} is not a copy vertex of the auxiliary instance")
        if y in level.dummy_base:
            continue
        base = level.origin[x][0]
        if base in pairs:
            raise InstanceError(
                f"cannot collapse: both copies of {base!r} are matched to base women"
            )
        pairs[base] = y
    return Matching(pairs.items())


def f_values(level: LevelInstance, matching: Matching) -> FValues:
    """The level each base vertex ends up on under an auxiliary matching:
    a man is level 0 exactly when his level-1 copy took the dummy; a
    woman is level 1 exactly when matched to a level-1 copy."""
    f: FValues = {}
    for a in level.base.men:
        _, a1 = level.copies[a]
        f[a] = 0 if matching.partner_of(a1) == level.dummy[a] else 1
    for b in level.base.women:
        p = matching.partner_of(b)
        f[b] = 1 if p is not None and level.origin[p][1] == 1 else 0
    return f


def dominant_via_level_graph(inst: Instance) -> Matching:
    """A dominant matching: deferred acceptance on the auxiliary
    instance, projected down."""
    level = build_level_graph(inst)
    return map_T(level, gale_shapley.run(level.graph))


def dominant_two_level(inst: Instance) -> Matching:
    """A dominant matching: the engine's two-level run, which is deferred
    acceptance on G' without building it."""
    return gale_shapley.run(inst, levels=2)


def forced_two_level(
    inst: Instance, held: Mapping[str, Tuple[str, int]]
) -> Optional[LevelledMatching]:
    """The men-optimal stable matching of G' in which each woman w of
    `held` holds the man at the level held[w], if one exists: she refuses
    anyone below him, and the result must be stable in G'."""
    got = gale_shapley.run(inst, gale_shapley.ProposalRules(held), levels=2)
    for w, (m, lvl) in held.items():
        if got.partner_of(w) != m or got.level[m] != lvl:
            return None
    return got if gale_shapley.is_stable_two_level(inst, got) else None


def inverse_map(
    inst: Union[Instance, LevelInstance], matching: Matching
) -> Matching:
    """Lift a dominant matching to a stable matching of the auxiliary
    instance that projects back onto it.

    Raises NotDominantError (carrying the verifier's certificate) when
    the input is not dominant; the lift is meaningless otherwise.
    """
    level = inst if isinstance(inst, LevelInstance) else build_level_graph(inst)
    base = level.base
    cert, part = verify.checked_partition(base, matching, dominant=True)
    if cert is not None:
        raise NotDominantError(f"matching is not dominant: {cert.kind}", cert)
    overlap = part.a0 & part.a1
    if overlap:
        raise NotDominantError(
            "matching is not dominant: reachability sides overlap",
            Certificate("partition-overlap", tuple(sorted(overlap))),
        )
    pairs = []
    for a in base.men:
        a0, a1 = level.copies[a]
        if a in part.a1:
            pairs.append((a0, level.dummy[a]))
            w = matching.partner_of(a)
            if w is not None:
                pairs.append((a1, w))
        else:
            # Unmatched men are seeded into the level-1 side, so here a
            # is matched.
            pairs.append((a0, matching.partner_of(a)))
            pairs.append((a1, level.dummy[a]))
    return Matching(pairs)
