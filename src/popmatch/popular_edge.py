"""Deciding which edges lie in some popular matching.

An edge lies in a popular matching iff it lies in a stable matching or
in a dominant one, so the engine's forced-edge query on the instance
and on its implicit G' (see `gale_shapley`) settles the question;
`popular_edge` reads which of those queries succeeds off the rotation
posets once per instance.
`decompose` splits a popular matching into a dominant core m0 and a
stable remainder m1; `lift_to_dominant` and `lower_to_stable` push the
whole matching to a dominant or a stable one keeping m0 or m1, each by
one floored run of the engine on the whole instance.  `inverse_map`
lifts a dominant matching to G'.  `rotations.popular_edges` lists every
popular edge at once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from . import gale_shapley
from .instance import Instance, InstanceError, LevelledMatching, Matching


class NotDominantError(InstanceError):
    """The inverse projection was asked for a non-dominant matching;
    `certificate` is the verifier's."""

    def __init__(self, message: str, certificate: Optional["verify.Certificate"] = None):
        super().__init__(message)
        self.certificate = certificate


class NotPopularError(NotDominantError):
    """A transformation that requires a popular input got a non-popular
    one, which is not dominant either."""


class Decomposition(NamedTuple):
    """A popular matching split along the blocking-pair closure.

    m0 covers the closure side (all of it matched, dominant there); m1
    is the untouched remainder (stable on the rest).  y and z are the
    men and women outside the closure, in id order.
    """

    m0: LevelledMatching
    m1: LevelledMatching
    partition: "verify.Partition"
    y: Tuple[str, ...]
    z: Tuple[str, ...]


def decompose(inst: Instance, matching: Matching) -> Decomposition:
    """Split a popular matching into its blocking-pair closure part and
    the remainder."""
    from . import verify

    cert, part, pos = verify.checked_partition(inst, matching, dominant=False)
    if cert is not None:
        raise NotPopularError(f"matching is not popular: {cert.kind}", cert)
    a_side, b_side = part.a0 | part.a1, part.b0 | part.b1
    adj, n, names = inst.adj, len(inst.men), inst.names
    inside = [a in a_side for a in names[:n]]
    m0, m1 = (
        LevelledMatching(
            inst, [pos[m] if inside[m] == own else len(adj[m]) for m in range(n)], [0] * n
        )
        for own in (True, False)
    )
    return Decomposition(
        m0=m0,
        m1=m1,
        partition=part,
        y=tuple(m for m in names[:n] if m not in a_side),
        z=tuple(w for w in names[n:] if w not in b_side),
    )


def inverse_map(inst: Instance, matching: Matching) -> LevelledMatching:
    """Lift a dominant matching to the stable matching of G' that
    projects back onto it: the same pairs, with the men on the level-1
    side of the reachability partition at level 1 and the rest at 0.

    Raises NotDominantError (carrying the verifier's certificate) when
    the input is not dominant; the lift is meaningless otherwise.
    """
    from . import verify

    cert, part, pos = verify.checked_partition(inst, matching, dominant=True)
    if cert is not None:
        raise NotDominantError(f"matching is not dominant: {cert.kind}", cert)
    # The sides are disjoint: an overlap would join two alternating paths
    # into one that the check above rejects.  Unmatched men are seeded
    # into the level-1 side, so every man at level 0 is matched.
    men = inst.names[: len(inst.men)]
    return LevelledMatching(inst, pos[: len(men)], [int(a in part.a1) for a in men])


def lift_to_dominant(inst: Instance, matching: Matching) -> LevelledMatching:
    """Transform a popular matching into a dominant one that keeps the
    closure part m0 intact.

    One floored two-level run of the engine on the whole instance
    (deferred acceptance on its implicit G'): each m0 woman refuses
    anyone below her man at his side's level (1 on the a1 side, else 0)
    and each m1 woman anyone below her partner at level 0.  That is
    deferred acceptance on G' with those lists cut, and a cut pair
    cannot block where its woman holds someone, so when every floored
    woman ends matched the result is stable in G' and its pairs are
    dominant.  That she does, and that m0 is kept, is pinned against
    the oracle by `test_criterion_5_decomposition`; the pairs and levels
    against deferred acceptance on the explicit G' by
    `test_lift_matches_explicit`.
    """
    dec, adj = decompose(inst, matching), inst.adj
    a1 = dec.partition.a1  # no man of m1 is on the a1 side
    pos = enumerate(map(min, dec.m0.pos, dec.m1.pos))  # m0 and m1 split the matching
    held = [(m, k, int(inst.names[m] in a1)) for m, k in pos if k < len(adj[m])]
    return gale_shapley._floored(inst, held, 2)


def lower_to_stable(inst: Instance, matching: Matching) -> LevelledMatching:
    """Transform a popular matching into a stable one that keeps the
    remainder part m1 intact: the men-optimal stable matching holding
    m1, by one run with m1's women floored as in `gale_shapley.forced`,
    which keeps m1 as m1 extends to a stable matching (the paper's
    decomposition).  The oracle check that this is the men-best stable
    matching containing m1 is `test_lower_to_stable`.
    """
    adj = inst.adj
    held = [(m, k, 0) for m, k in enumerate(decompose(inst, matching).m1.pos) if k < len(adj[m])]
    return gale_shapley._floored(inst, held, 1)


def dominant_with_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[LevelledMatching]:
    """A dominant matching containing the edge, if any: force the edge
    onto the man at level 0, then at level 1, in G'."""
    u, v = edge
    for lvl in (0, 1):
        got = gale_shapley.forced(inst, {v: (u, lvl)}, 2)
        if got is not None:
            return got
    return None


def popular_edge(inst: Instance, edge: Tuple[str, str]) -> Optional[LevelledMatching]:
    """A popular matching containing the edge, if any.

    The witness is that of `stable_with_edge` if there is one (smaller
    and blocking-pair-free), else that of `dominant_with_edge`.  The
    first call on an instance keeps on it the engine's unforced state at
    both levels (`gale_shapley._unforced`: one run from empty arrays and
    one climb), then reads which of those routes finds a witness for
    each edge off the rotation posets of G and G', walked on from copies
    of that state (`rotations.popular_routes`: O(m) time, one byte per
    edge, kept too).  After it, a "no" is one lookup.  A "yes" on a
    pair the kept unforced matching holds at its route's level, which
    the table marks, is one lookup too: the witness is a new one bound
    to the kept lists through empty overlays (`gale_shapley._unmoved`).
    Any other "yes" is one floored run on the known route
    (`gale_shapley._floored`), resumed from the kept state through
    private overlays, which always proposes: the unforced matching at
    that level is the worst stable one for every woman, so the floored
    woman holds a man below her floor there.  It makes the proposals
    beyond the unforced matching and copies no list; the witness holds
    the entries that run changed, and builds its positions only when
    they are read.
    """
    u, v = edge
    s = inst.slot(u, v)
    if s is None:
        raise InstanceError(f"({u},{v}) is not an edge of the instance")
    m, _, k = s
    try:  # an attribute read costs less than `vars(inst).get`
        table = inst.popular_routes
    except AttributeError:
        from .rotations import popular_routes

        gale_shapley._unforced(inst, 2)  # kept at both levels: the posets walk on
        table = vars(inst)["popular_routes"] = popular_routes(inst)
    route = table[inst.first[m] + k]
    if not route:
        return None
    levels = 1 + (route & 3 > 1)
    if route & 4:
        return gale_shapley._unmoved(inst, levels)
    return gale_shapley._floored(inst, [(m, k, (route & 3) - levels)], levels)
