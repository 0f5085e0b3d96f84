"""The rotation poset of an instance, or of its two-copy instance G'.

The stable matchings are the proposer-optimal matching with the
rotations of a closed set eliminated (Irving, Leather and Gusfield,
J. ACM 1987; Gusfield-Irving 1989, ch. 3), and the dominant matchings
are the projections of the stable matchings of G' (see
`gale_shapley`).  `rotation_poset` finds every rotation on one maximal
chain of the lattice by one pointer walk, in O(m) on m edges; it walks
each man once per level, on from where `gale_shapley.run` stops, so G'
is never built, and from a copy of the engine's kept state where the
instance keeps one.  Their precedence, `RotationPoset.preds`, is
labelled from the walk's chains on first read, in O(m log m).
Its readers are here too: `stable_matchings` and
`RotationPoset.distinct_pairs` list the closed sets through one decoder,
each matching once, up to a count guard; `popular_routes` marks the
popular edges and `popular_edges` lists them; `exists_unstable_popular`
decides whether every popular matching is stable.
`min_cost.min_cost_dominant` reads the poset through `partners`,
`matching` and `preds`, not through its encoding.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import count
from operator import itemgetter
from typing import List, Optional, Set, Tuple

from . import gale_shapley
from .instance import MAX_LISTED, EnumerationGuardError, Instance, LevelledMatching

# (key, the rotation that brought it) along the chain, keys ascending;
# rotation -1 is the proposer-optimal matching
Chain = List[Tuple[int, int]]
_key = itemgetter(0)


class RotationPoset:
    """The rotations of G (of the implicit G' with levels=2) and their
    precedence.

    Man m's index l * deg(m) + k stands for the k-th woman of his list
    at level l, and levels * deg(m) for no one; it only rises as he
    moves, as his proposals in `gale_shapley.run` do.  Rotation r is the
    r-th on one maximal chain of the lattice.  Along the chain,
    `chains[m]` lists man m's indices, and `held[w]` the men woman w
    holds, each as a `Chain` keyed by levels * |w's list| minus her
    rank of him in G' (level 1 first), which rises as she gains; a
    man's `held` is empty.
    """

    def __init__(self, inst: Instance, levels: int, chains: List[Chain], held: List[Chain]):
        self.inst, self.levels, self.chains, self.held = inst, levels, chains, held

    @cached_property
    def preds(self) -> List[Set[int]]:
        """`preds[r]` holds rotations that precede rotation r, all earlier
        on the chain; the order is their transitive closure, and the
        closed sets, each holding the preds of its members, are the
        stable matchings.  Labelled off the chains on first read, in
        O(m log m) for m edges (Gusfield-Irving 1989, ch. 3): p precedes
        r when r takes from a man the woman p gave him (type 1: the
        entry before on his chain), or when r moves a man past a woman p
        moved above him (type 2: the first entry of her `held` whose key
        beats his, by a binary search; her keys only rise)."""
        adj, back, first, held = self.inst.adj, self.inst.back, self.inst.first, self.held
        deg = list(map(len, adj))
        preds = [set() for _ in range(1 + max((c[-1][1] for c in self.chains), default=-1))]
        for m, chain in enumerate(self.chains):
            if len(chain) < 2:
                continue  # he never moves
            lst, f = adj[m], first[m]
            for (frm, last), (to, r) in zip(chain, chain[1:]):
                before = preds[r]
                if last >= 0:
                    before.add(last)
                for i in range(frm + 1, to):
                    lvl, k = divmod(i, deg[m])
                    hers = held[lst[k]]
                    key = (lvl + 1) * deg[lst[k]] - back[f + k]
                    if key > hers[0][0]:  # else the entry is her start, rotation -1
                        before.add(hers[bisect_right(hers, key, key=_key)][1])
        return preds

    def matching(self, closed: int) -> LevelledMatching:
        """The stable matching that eliminating a closed set, given as a
        bitmask of its rotations, leaves.  The rotations moving one
        man form a chain, each a pred of the next, so the set holds
        a prefix of them, and he ends where the last of those puts him.
        That prefix is read by walking each chain to its first rotation
        outside the set.  The listings' decoder `_listed` counts it
        through a bitmask and a table per man instead, which pay only
        over many sets: for one set of the acceptance instance's G' (908
        rotations) they peak at 13.1 MB against 2.3 MB for this walk
        (tracemalloc), and the masks grow as men times rotations."""
        adj, levels = self.inst.adj, self.levels
        pos, level = [], []
        for m, chain in enumerate(self.chains):
            i = 1
            while i < len(chain) and closed >> chain[i][1] & 1:
                i += 1
            deg, at = len(adj[m]), chain[i - 1][0]
            # at levels * deg he holds no one, having run out of his list
            lvl, k = divmod(at, deg) if at < levels * deg else (levels - 1, deg)
            pos.append(k)
            level.append(lvl)
        return LevelledMatching(self.inst, pos, level)

    def partners(self, m: int) -> List[Tuple[int, int, int]]:
        """Man m's partners along the chain, each as (its position in his
        list, the rotation that brought it (-1: the start), his level):
        the indices of his chain that stand for a woman."""
        deg = len(self.inst.adj[m])
        return [(i % deg, r, i // deg) for i, r in self.chains[m] if i < self.levels * deg]

    def closed_sets(self, limit: int = MAX_LISTED) -> List[int]:
        """Every closed set once, as a bitmask of its rotations.  Raises
        EnumerationGuardError past `limit` sets."""
        # the first r rotations on the chain form a down-set, so each closed
        # set of theirs is one of the poset, and extending them one rotation
        # at a time meets each closed set once
        sets = [0]
        for r, before in enumerate(self.preds):
            need = sum(1 << p for p in before)
            for i in range(len(sets)):
                if sets[i] & need == need:
                    if len(sets) >= limit:
                        raise EnumerationGuardError(f"more than {limit} stable matchings")
                    sets.append(sets[i] | 1 << r)
        return sets

    def distinct_pairs(self) -> List[LevelledMatching]:
        """The pairs of its stable matchings, each set of pairs once (two
        stable matchings of G' may share theirs), sorted."""
        return self._listed(False, MAX_LISTED)

    def _listed(self, levelled: bool, limit: int) -> List[LevelledMatching]:
        """The one decoder of the listings: its stable matchings, sorted by
        pairs then levels, or else their distinct pairs, sorted, each a
        matching of the instance itself, at level 0.

        A closed set holds a prefix of each man's moves (Gusfield-Irving
        1989, ch. 3), so their count gives his partner and level.  A set
        is read into one bytes key: per man who moves, in number order,
        which is id order, his partner's place among his women in id
        order as a big-endian field of one width for all (one byte unless
        a man has more than 256 women), then if `levelled` his level.
        Every stable matching matches the same men, so the keys sort as
        the matchings do, and each matching is built once from its key.
        (An int built field by field would copy the whole key once per
        man.)
        """
        sets = self.closed_sets(limit)  # refused before anything is built
        inst, adj = self.inst, self.inst.adj
        pos, level = [], []  # each man's at the start
        movers = []  # (man, his partners)
        for m in range(len(inst.men)):
            held = self.partners(m)
            pos.append(held[0][0] if held else len(adj[m]))
            level.append(held[0][2] if held else self.levels - 1)
            if len(held) > 1:
                movers.append((m, held))
        # each mover's positions of his women, in id order of the women
        women = [sorted({k for k, _, _ in held}, key=adj[m].__getitem__) for m, held in movers]
        moves = [sum(1 << r for _, r, _ in held[1:]) for _, held in movers]
        most = max(map(len, women), default=1)
        width = max(1, ((most - 1).bit_length() + 7) // 8)
        code = [i.to_bytes(width, "big") for i in range(most)]
        # per mover: his moves, and his field and his level by their count
        fields, ups = [], []
        for mask, (_, held), ks in zip(moves, movers, women):
            byte = dict(zip(ks, code))
            fields.append((mask, [byte[k] for k, _, _ in held]))
            if levelled:
                ups.append((mask, [lvl for _, _, lvl in held]))
        level = level if levelled else [0] * len(level)
        keys = {
            b"".join([field[(s & mask).bit_count()] for mask, field in fields])
            + bytes([up[(s & mask).bit_count()] for mask, up in ups])
            for s in sets
        }
        del sets
        at = width * len(movers)
        listed = []
        for key in sorted(keys):
            # a one-byte field is read by iterating the key
            places = key if width == 1 else [
                int.from_bytes(key[i : i + width], "big") for i in range(0, at, width)
            ]
            got, lvl = pos.copy(), level.copy()
            for (m, _), ks, i in zip(movers, women, places):
                got[m] = ks[i]
            for (m, _), up in zip(movers, key[at:]):
                lvl[m] = up
            listed.append(LevelledMatching(inst, got, lvl))
        return listed


def rotation_poset(inst: Instance, levels: int = 1) -> RotationPoset:
    """Every rotation and their precedence (Gusfield-Irving, ch. 3).

    The rotations are found on one maximal chain from the
    proposer-optimal matching, by one walk with a scan pointer per man
    (Gusfield 1987; Gusfield-Irving 3.3) that goes on from where the
    proposals of `gale_shapley.run` stopped: from copies of the unforced
    state the instance keeps (`gale_shapley._unforced`), which the walk
    leaves as it was, or else, for a one-shot poset, from a run of its
    own that nothing keeps.  A man's successor is the
    holder of the first woman from his pointer on who strictly prefers
    him, his list scanned once per level as in `run`, so at levels=2 he
    may be his own successor: one level up, his woman prefers him.
    Women only gain, so a woman who refuses him refuses him for good and
    the pointer only advances.  The walk follows successors on a stack;
    a man met again closes a rotation, which is eliminated, and the walk
    resumes from the man below it.  A man with no successor (his list
    ends at the top level, or the next woman is unmatched, so in every
    stable matching) never moves again, and neither does any man whose
    successor never moves, so a stack that reaches one is dead.  O(m)
    for m edges; the precedence is labelled when `preds` is first read.
    """
    adj, back, first = inst.adj, inst.back, inst.first
    deg = list(map(len, adj))
    n = len(inst.men)
    kept = vars(inst).get(gale_shapley._KEPT.get(levels))  # a bad `levels`: none
    if kept is None:
        holder, _, scan, _, level = gale_shapley._propose(inst, levels)
    else:  # the walk writes `holder` and `scan` and only reads `level`
        holder, scan, level = kept[0].copy(), kept[2].copy(), kept[4]
    # woman w keys man m at level l on his k-th woman by levels * deg[w]
    # minus her rank of him in G', that is (l + 1) * deg[w] - back[first[m] + k]
    held: List[Chain] = [()] * len(adj)
    # a chain's first entry, one tuple per index
    begins = [(i, -1) for i in range(levels * max(deg[:n], default=0) + 1)]
    chains: List[Chain] = []
    for m, lvl in enumerate(level):
        # he holds the woman before his pointer at his level, or, having
        # run out of his list, no one; the pointer becomes an index
        k = scan[m] - 1
        i = scan[m] = lvl * deg[m] + scan[m]
        if k >= 0 and holder[adj[m][k]] == m:
            w = adj[m][k]
            held[w] = [((lvl + 1) * deg[w] - back[first[m] + k], -1)]
            i -= 1
        chains.append([begins[i]])

    def successor(m: int) -> int:  # or -1 for none
        lst, f, size = adj[m], first[m], deg[m]
        lvl, k = divmod(scan[m], size) if size else (levels, 0)
        while lvl < levels:
            while k < size:
                w = lst[k]
                h = holder[w]
                if h < 0 or (lvl + 1) * deg[w] - back[f + k] > held[w][-1][0]:
                    scan[m] = lvl * size + k
                    return h
                k += 1
            lvl, k = lvl + 1, 0
        scan[m] = levels * size
        return -1

    numbers = count()

    def eliminate(cycle: List[int]) -> None:
        # each man takes the woman at his scan pointer, held by the next
        r = next(numbers)
        for m in cycle:
            i = scan[m]
            chains[m].append((i, r))
            scan[m] = i + 1
            lvl, k = divmod(i, deg[m])
            w = adj[m][k]
            holder[w] = m
            held[w].append(((lvl + 1) * deg[w] - back[first[m] + k], r))

    dead = bytearray(n)
    stack: List[int] = []
    depth = [-1] * n  # a man's index on the stack, or -1
    for top in range(n):
        while not dead[top]:
            if not stack:
                depth[top] = 0
                stack.append(top)
            m = successor(stack[-1])
            if m < 0 or dead[m]:
                for x in stack:  # a dead man's depth is never read again
                    dead[x] = 1
                stack.clear()
            elif depth[m] >= 0:
                cycle = stack[depth[m] :]
                del stack[depth[m] :]
                for x in cycle:
                    depth[x] = -1
                eliminate(cycle)
            else:
                depth[m] = len(stack)
                stack.append(m)
    return RotationPoset(inst, levels, chains, held)


def popular_routes(inst: Instance) -> bytearray:
    """For each edge, which forced run finds a popular matching holding
    it: man m's k-th edge has the byte at `inst.first[m] + k`.

    An edge is popular iff a stable matching of G or of G' holds it (the
    paper), that is iff it is a stable pair of one of them: a start pair
    or a pair some rotation moves onto (Gusfield-Irving 1989, ch. 3), as
    the posets' chains list them.  A byte's low two bits give the route:
    1 for a stable pair of G and 2 + l for one of G' with the man at
    level l; an edge that is several keeps the least, the first forced
    run `popular_edge` would try, and 0 means no popular matching holds
    it.  Each poset writes its routes as read, G' first, so that G's
    route 1 overwrites: a pair listed at both levels of G' has been a
    stable pair of G on every instance tried (a test checks the random
    and hard families).  Bit 2 (value 4) is set when that route's poset
    starts the man's chain with the pair, that is, when the unforced
    state kept at that level already holds it, so that `popular_edge`
    answers with no forced run; a route with it clear is a pair that
    state does not hold, whose forced run proposes.  The bytes are thus
    0, 1, 2, 3, 5, 6 and 7.  O(m) for the two posets' walks, each
    dropped once its chains are read; the table keeps one byte per
    edge.  Each poset walks on from the unforced state the instance
    keeps at its level, if it keeps one (`popular_edge` has it keep
    both first), and else from a run of its own.
    """
    first = inst.first
    table = bytearray(first[-1])
    for levels in (2, 1):
        poset = rotation_poset(inst, levels)
        for m in range(len(inst.men)):
            for k, r, lvl in poset.partners(m):
                # rotation -1 is the start
                table[first[m] + k] = levels + lvl | (r < 0) << 2
        del poset
    return table


def popular_edges(inst: Instance) -> Set[Tuple[str, str]]:
    """The popular edges, those some popular matching holds: the edges
    `popular_routes` marks, in O(m).  `oracles.popular_edges` is
    the exhaustive reference."""
    names = inst.names
    marks = iter(popular_routes(inst))  # one byte per edge, man by man
    return {(names[m], names[w]) for m in range(len(inst.men)) for w in inst.adj[m] if next(marks)}


def stable_matchings(
    inst: Instance, limit: int = MAX_LISTED, levels: int = 1
) -> List[LevelledMatching]:
    """All stable matchings: the closed sets of `rotation_poset`, each
    listed once.  Guarded by a count limit.

    With levels=2 these are the stable matchings of G', each given by its
    pairs and the level every man ends on.  Two of them may share their
    pairs, so they are told apart by both.  Sorted by pairs, then levels.
    """
    return rotation_poset(inst, levels)._listed(True, limit)


def exists_unstable_popular(
    inst: Instance,
) -> Optional[Tuple[LevelledMatching, Tuple[str, str]]]:
    """The least edge in id order that blocks some dominant matching, with
    the men-best dominant matching it blocks, or None if every popular
    matching is stable.

    If any popular matching is unstable then some dominant matching is,
    and the dominant matchings are the closed sets of G''s poset.  For
    an edge (a, b), with b k-th on a's list and a r-th on b's, these
    rotations of G' are found on a's chain, by his index, and on b's,
    by a rank in G' putting level 1 first:
      - A moves a past b, beyond index k;
      - B gives b her first level-1 partner, of rank below |b's list|;
      - C gives b a partner of rank r or better, at or above a at level 1;
      - D lifts a to level 1, to an index of |a's list| or more.
    (a, b) blocks the matching a closed set leaves iff the set holds A
    and B and neither C nor D.  A condition that holds from the start
    needs no rotation, and one that never holds settles the edge, so the
    answer is whether C and D lie outside the down-set of A and B, and
    that down-set is the witness.  A and D share a's chain and B and C
    share b's, so those pairs compare by chain index; C below A and D
    below B need a search back over `preds`.

    Costs O(m log m) for the poset and its `preds` on m edges, then a
    binary search per woman for B, and per edge two for A and C and at
    most two searches back over precedence that enter no rotation
    earlier on the chain than the one sought; nothing of R² bits is
    built for the R rotations.
    """
    poset = rotation_poset(inst, 2)
    adj, back, first, names = inst.adj, inst.back, inst.first, inst.names
    preds, chains, held = poset.preds, poset.chains, poset.held

    def reached(chain: Chain, key: int) -> Optional[int]:
        # the rotation after which the chain's key first exceeds `key`
        i = bisect_right(chain, key, key=_key)
        return chain[i][1] if i < len(chain) else None

    def precedes(x: int, y: int) -> bool:
        # x <= y in the poset, never for y = -1, the start; preds lie
        # earlier on the chain, so no rotation before x can lead back to x
        if x >= y:
            return x == y
        stack, seen = [y], {y}
        while stack:
            for p in preds[stack.pop()]:
                if p == x:
                    return True
                if p > x and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return False

    firsts = {}  # B, which depends on the woman alone, once per woman met
    for a in range(len(inst.men)):
        lst = adj[a]
        rd = reached(chains[a], len(lst) - 1)
        if rd == -1:
            continue  # a starts at level 1 and stays there
        for k in sorted(range(len(lst)), key=lst.__getitem__):
            b = lst[k]
            if b not in firsts:
                firsts[b] = reached(held[b], len(adj[b]))
            ra, rb = reached(chains[a], k), firsts[b]
            rc = reached(held[b], 2 * len(adj[b]) - back[first[a] + k] - 1)
            if ra is None or rb is None or rc == -1:
                continue
            if rd is not None and (rd <= ra or precedes(rd, rb)):
                continue
            if rc is not None and (rc <= rb or precedes(rc, ra)):
                continue
            closed = 0
            stack = [r for r in (ra, rb) if r >= 0]
            while stack:
                r = stack.pop()
                if not closed >> r & 1:
                    closed |= 1 << r
                    stack += preds[r]
            return poset.matching(closed), (names[a], names[b])
    return None
