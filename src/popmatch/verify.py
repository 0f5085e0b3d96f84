"""Certificate-producing verifiers for popularity and dominance.

Every question here is one of alternating reachability in the pruned
subgraph G_M, asked of one digraph over both sides with an arc x -> M(y)
for each non-matching G_M edge (x, y) whose y is matched; no arc joins
the men's part to the women's.  A matching is unpopular (Huang and
Kavitha) exactly when some (+,+) edge sits on an alternating path from
an unmatched vertex, on an alternating cycle, or on an alternating path
with a second (+,+) edge.  The first condition is one search from the
unmatched vertices.  For the other two, mark the arcs of (+,+) edges in
the men's part: a marked arc inside a strongly connected component
closes a cycle, and a marked head that reaches another marked tail
gives a two-edge path.  The check takes O(|V| + |E|) time, nothing in
it recurses, and witnesses are reported in that order.  Dominance also
requires the absence of an augmenting path, and the partition is the
closure of the blocking edges (and optionally the unmatched vertices)
under the same arcs.  Every negative verdict carries a replayable
certificate.

Vertices are numbered in id order (`Instance`), and every search and
tie-break here follows the numbers, so a certificate, like the
verdict, is a function of the ids, not of the order they are declared.

The digraph is held flat, in vertex numbers: one list of arcs with an
offset per vertex, the (+,+) edges as number pairs, named only when a
certificate is built, and the search state in lists of ints (Tarjan's
frames keep a vertex and an arc index).  Beside the instance, a check
holds O(|V|) ints and one int per arc; a matching numbered on the
instance, as `parse_matching` reads one, is never named.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .elections import LabeledGraph, label_edges
from .instance import Instance, Matching

Edge = Tuple[str, str]


class Certificate(NamedTuple):
    """A replayable witness of a popularity or dominance violation.

    kind: blocking-pair | pp-cycle | pp-path-from-unmatched |
    two-pp-path | augmenting-path.  path is the
    vertex sequence of the witness walk (first == last for a cycle);
    pp_edges names the (+,+) edges the walk uses.
    """

    kind: str
    path: Tuple[str, ...]
    pp_edges: Tuple[Edge, ...] = ()


class Partition(NamedTuple):
    """The alternating-reachability closure seeded by blocking pairs
    (and optionally by unmatched vertices)."""

    a0: FrozenSet[str]
    a1: FrozenSet[str]
    b0: FrozenSet[str]
    b1: FrozenSet[str]


def _bfs(
    arcs: List[int], start: Sequence[int], sources: Iterable[int]
) -> Tuple[List[int], List[int]]:
    """Parent pointers of a BFS over a digraph whose arcs out of v are
    arcs[start[v]:start[v + 1]] (-1 at a source, -2 where unreached) and
    the order it visited vertices in."""
    parent = [-2] * (len(start) - 1)
    queue = []
    for s in sources:
        if parent[s] == -2:
            parent[s] = -1
            queue.append(s)
    for v in queue:
        for w in arcs[start[v] : start[v + 1]]:
            if parent[w] == -2:
                parent[w] = v
                queue.append(w)
    return parent, queue


def _components(arcs: List[int], start: Sequence[int], size: int) -> List[int]:
    """A strongly-connected-component label for each of the first `size`
    vertices, whose arcs stay among them (Tarjan's algorithm with an
    explicit call stack, each frame a vertex and its next arc)."""
    index = [-1] * size
    low = [0] * size
    comp = [-1] * size
    stack: List[int] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls, at = [root], [start[root]]
        while calls:
            v = calls[-1]
            i, end, lv = at[-1], start[v + 1], low[v]
            while i < end:
                w = arcs[i]
                i += 1
                if index[w] < 0:
                    at[-1], low[v] = i, lv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append(w)
                    at.append(start[w])
                    break
                # a visited vertex without a component is still on the stack
                if index[w] < lv and comp[w] < 0:
                    lv = index[w]
            else:
                low[v] = lv
                calls.pop()
                at.pop()
                if calls and lv < low[calls[-1]]:
                    low[calls[-1]] = lv
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


def _reverse(arcs: List[int], start: Sequence[int], size: int) -> Tuple[List[int], Sequence[int]]:
    """The arcs among the first `size` vertices reversed, as (arcs,
    start) again; the arcs into a vertex keep the order of their tails."""
    offsets = [0] * (size + 1)
    for y in arcs[: start[size]]:
        offsets[y + 1] += 1
    offsets = array("q", accumulate(offsets))
    tails = [0] * offsets[-1]
    free = offsets[:size]  # the next slot of each vertex
    for x in range(size):
        for y in arcs[start[x] : start[x + 1]]:
            tails[free[y]] = x
            free[y] += 1
    return tails, offsets


class _Graph:
    """The alternating digraph of a matching, in flat arrays.

    Vertices are numbered as in `Instance`, the men first; mate[v] is
    v's partner or -1.  The arcs out of v are arcs[start[v]:start[v + 1]]:
    M(y) for each non-matching G_M edge (x, y) whose y is matched, in the
    order of y; the offsets are an array of machine ints, with no int
    object apiece.  pp holds the (+,+) edges as (man, woman) numbers,
    sorted; they are named only in a certificate.  An unmatched woman
    votes for every edge, so a man's unmatched neighbours, all in G_M,
    are read off his list.

    One pass of `LabeledGraph.rows` over the men lays out their arcs
    and lists each matched man's other G_M women; a counting sort of
    those lists, the men taken in order, lays out the women's."""

    def __init__(self, labeled: LabeledGraph):
        inst = labeled.inst
        self.names, self.adj, self.n_men = inst.names, inst.adj, len(inst.men)
        self.mate = mate = labeled.mate
        n, size = self.n_men, len(mate)
        arcs: List[int] = []
        start = array("q", [0]) * (size + 1)
        pp: List[Tuple[int, int]] = []
        # per matched man, his G_M women but his partner: a woman's arcs
        others: List[int] = []
        ends = array("q", [0]) * (n + 1)
        for x, row, both in labeled.rows():
            y = mate[x]
            arcs += [mate[w] for w in row if w != y and mate[w] >= 0]
            start[x + 1] = len(arcs)
            if y >= 0:
                others += [w for w in row if w != y]
            ends[x + 1] = len(others)
            pp += [(x, w) for w in both]
        fan = [0] * size
        for w in others:
            fan[w] += 1
        start[n:] = array("q", accumulate(fan[n:], initial=start[n]))
        arcs += [0] * (start[size] - start[n])
        free = start[:size]  # the next slot of each woman
        for x in range(n):
            y = mate[x]
            for w in others[ends[x] : ends[x + 1]]:
                arcs[free[w]] = y
                free[w] += 1
        self.arcs, self.start, self.pp = arcs, start, pp

    def unmatched(self, x: int) -> List[int]:
        """Man x's unmatched neighbours, in his list's order."""
        mate = self.mate
        return [w for w in self.adj[x] if mate[w] < 0]

    @cached_property
    def reach(self) -> Tuple[List[int], List[int]]:
        """`_bfs` from every unmatched vertex."""
        return _bfs(self.arcs, self.start, [v for v, p in enumerate(self.mate) if p < 0])

    def edge(self, e: Tuple[int, int]) -> Edge:
        return self.names[e[0]], self.names[e[1]]

    def walk(self, ids: List[int]) -> Tuple[str, ...]:
        """Vertices x0 -> ... -> xk as the alternating path x0, M(x1), x1, ..., xk."""
        names, mate = self.names, self.mate
        out = [names[ids[0]]]
        for v in ids[1:]:
            out += (names[mate[v]], names[v])
        return tuple(out)

    def path(self, parent: List[int], v: int) -> Tuple[str, ...]:
        """The alternating path from a BFS source to v."""
        ids = [v]
        while parent[ids[-1]] >= 0:
            ids.append(parent[ids[-1]])
        return self.walk(ids[::-1])


def _violation(g: _Graph) -> Optional[Certificate]:
    """The certificate `is_popular` reports, or None if the matching is
    popular."""
    if not g.pp:
        return None
    names, mate = g.names, g.mate
    for e in g.pp:
        for x, y in (e, e[::-1]):
            if mate[x] < 0:
                return Certificate("pp-path-from-unmatched", (names[x], names[y]), (g.edge(e),))

    parent = g.reach[0]
    for e in g.pp:
        for x, y in (e, e[::-1]):
            if parent[x] == -2:
                continue
            chain, y = g.path(parent, x), names[y]
            if y in chain:
                # the walk closes on itself: the suffix from y is an
                # alternating cycle through the (+,+) edge
                cycle = chain[chain.index(y) :] + (y,)
                return Certificate("pp-cycle", cycle, (g.edge(e),))
            return Certificate("pp-path-from-unmatched", chain + (y,), (g.edge(e),))

    # Every (+,+) edge now has both ends matched and marks the arc
    # a -> M(b) of the men's part; the woman an arc crosses is the
    # partner of its head.
    arcs, start, n = g.arcs, g.start, g.n_men
    comp = _components(arcs, start, n)
    for e in g.pp:
        if comp[e[0]] == comp[mate[e[1]]]:
            # Every path from M(b) to a stays inside their component.
            cycle = g.path(_bfs(arcs, start, [mate[e[1]]])[0], e[0])
            b = names[e[1]]
            return Certificate("pp-cycle", (b,) + cycle + (b,), (g.edge(e),))

    # No marked arc lies on a cycle, so a head never reaches its own
    # tail and every path found below is simple.
    first_pp: Dict[int, Tuple[int, int]] = {}
    for e in g.pp:
        first_pp.setdefault(e[0], e)
    toward = _bfs(*_reverse(arcs, start, n), first_pp)[0]
    for e in g.pp:
        if toward[mate[e[1]]] != -2:
            ids = [mate[e[1]]]
            while toward[ids[-1]] != -1:
                ids.append(toward[ids[-1]])
            first, second = g.edge(e), g.edge(first_pp[ids[-1]])
            return Certificate("two-pp-path", first + g.walk(ids) + second[1:], (first, second))
    return None


def _dominance_violation(g: _Graph) -> Optional[Certificate]:
    """The certificate `is_dominant` reports, or None if the matching is
    dominant: a popularity violation, else an augmenting path from the
    first man in BFS order with an unmatched neighbour, to the first of
    them in id order."""
    cert = _violation(g)
    if cert is not None:
        return cert
    parent, order = g.reach
    for x in order:
        if x < g.n_men:
            free = g.unmatched(x)
            if free:
                w = min(free)
                return Certificate("augmenting-path", g.path(parent, x) + (g.names[w],))
    return None


def _partition(g: _Graph, seed_unmatched: bool) -> Partition:
    """One `_bfs` from the seeds: a1 and b0 are the men and women it
    reaches, and a0 and b1 the (+,+) edges' ends and the partners of
    what it reaches."""
    names, mate = g.names, g.mate
    sources = [mate[v] for e in g.pp for v in e]
    if seed_unmatched:
        sources += [v for v, p in enumerate(mate) if p < 0]
    a0 = {names[y] for y, _ in g.pp}
    b1 = {names[z] for _, z in g.pp}
    a1: Set[str] = set()
    b0: Set[str] = set()
    for v, p in enumerate(_bfs(g.arcs, g.start, [v for v in sources if v >= 0])[0]):
        if p != -2:
            (a1 if v < g.n_men else b0).add(names[v])
            if mate[v] >= 0:
                (b1 if v < g.n_men else a0).add(names[mate[v]])
    return Partition(*map(frozenset, (a0, a1, b0, b1)))


def partition(inst: Instance, matching: Matching, seed_unmatched: bool) -> Partition:
    """Seed the four sets and close them under adjacency in the pruned
    subgraph: a matched vertex next to a b0 woman or an a1 man joins a0
    or b1, and its partner joins b0 or a1."""
    g = _Graph(label_edges(inst, matching))
    return _partition(g, seed_unmatched)


def checked_partition(
    inst: Instance, matching: Matching, dominant: bool
) -> Tuple[Optional[Certificate], Optional[Partition], List[int]]:
    """The certificate of `is_popular` (of `is_dominant` if dominant)
    and, when there is none, the `partition` seeded by the unmatched
    vertices exactly when dominant, from one labelling; and the
    matching's partner ranks as `Instance.mates` gives them, read once."""
    labeled = label_edges(inst, matching)
    g = _Graph(labeled)
    cert = _dominance_violation(g) if dominant else _violation(g)
    part = None if cert is not None else _partition(g, seed_unmatched=dominant)
    return cert, part, labeled.pos


def is_popular(inst: Instance, matching: Matching) -> Tuple[bool, Optional[Certificate]]:
    """Check the three alternating-walk conditions in the pruned
    subgraph in O(|V| + |E|) time; on failure return the first
    certificate found, preferring unmatched-path, then cycle, then
    two-edge-path witnesses and taking (+,+) edges in lexicographic
    order within each kind."""
    cert = _violation(_Graph(label_edges(inst, matching)))
    return cert is None, cert


def is_dominant(inst: Instance, matching: Matching) -> Tuple[bool, Optional[Certificate]]:
    """Popularity plus the absence of an augmenting path in the pruned
    subgraph."""
    cert = _dominance_violation(_Graph(label_edges(inst, matching)))
    return cert is None, cert
