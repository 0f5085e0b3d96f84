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
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .elections import LabeledGraph, label_edges
from .instance import Instance, Matching

Edge = Tuple[str, str]


class Certificate(NamedTuple):
    """A replayable witness of a popularity or dominance violation.

    kind: blocking-pair | pp-cycle | pp-path-from-unmatched |
    two-pp-path | augmenting-path | partition-overlap.  path is the
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


def _bfs(adj: List[List[int]], sources: List[int]) -> Tuple[List[int], List[int]]:
    """Parent pointers of a BFS over an int-indexed digraph (-1 at a
    source, -2 where unreached) and the order it visited vertices in."""
    parent = [-2] * len(adj)
    queue = []
    for s in sources:
        if parent[s] == -2:
            parent[s] = -1
            queue.append(s)
    for v in queue:
        for w in adj[v]:
            if parent[w] == -2:
                parent[w] = v
                queue.append(w)
    return parent, queue


def _components(adj: List[List[int]], roots: int) -> List[int]:
    """A strongly-connected-component label for every vertex reachable
    from the first `roots` vertices, -1 elsewhere (Tarjan's algorithm
    with an explicit call stack)."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    comp = [-1] * len(adj)
    stack: List[int] = []
    counter = 0
    for root in range(roots):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [(root, iter(adj[root]))]
        while calls:
            v, arcs = calls[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append((w, iter(adj[w])))
                    break
                # a visited vertex without a component is still on the stack
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


class _Graph:
    """The alternating digraph of a matching: vertex ids are the men,
    then the women (`Instance` numbering); mate[v] is v's partner or
    -1; succ[x] lists M(y) for each non-matching G_M edge (x, y) whose y
    is matched, in the name order of y; free[x] lists man x's unmatched
    neighbours (all in G_M) in name order; pp holds the (+,+) edges in
    lexicographic order.  All four come from one pass of
    `LabeledGraph.rows` over the men in name order, so a woman's row
    fills in the name order of the men."""

    def __init__(self, labeled: LabeledGraph):
        inst = labeled.inst
        self.names, self.index, self.n_men = inst.names, inst.index, len(inst.men)
        self.mate = mate = labeled.mate
        names = self.names
        self.succ: List[List[int]] = [[] for _ in names]
        self.free: List[List[int]] = [[] for _ in range(self.n_men)]
        self.pp: List[Edge] = []
        for x, row, both in labeled.rows():
            y = mate[x]
            self.succ[x] = [mate[w] for w in row if w != y and mate[w] >= 0]
            self.free[x] = [w for w in row if mate[w] < 0]
            if y >= 0:
                for w in row:
                    if w != y:
                        self.succ[w].append(y)
            self.pp += [(names[x], names[w]) for w in both]

    @cached_property
    def reach(self) -> Tuple[List[int], List[int]]:
        """`_bfs` from every unmatched vertex."""
        return _bfs(self.succ, [v for v, p in enumerate(self.mate) if p < 0])

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
    for a, b in g.pp:
        for x, y in ((a, b), (b, a)):
            if g.mate[g.index[x]] < 0:
                return Certificate("pp-path-from-unmatched", (x, y), ((a, b),))

    parent = g.reach[0]
    for a, b in g.pp:
        for x, y in ((a, b), (b, a)):
            if parent[g.index[x]] == -2:
                continue
            chain = g.path(parent, g.index[x])
            if y in chain:
                # the walk closes on itself: the suffix from y is an
                # alternating cycle through the (+,+) edge
                cycle = chain[chain.index(y) :] + (y,)
                return Certificate("pp-cycle", cycle, ((a, b),))
            return Certificate("pp-path-from-unmatched", chain + (y,), ((a, b),))

    # Every (+,+) edge now has both ends matched and marks the arc
    # a -> M(b) of the men's part; the woman an arc crosses is the
    # partner of its head.
    succ, men = g.succ, range(g.n_men)
    marked = [(g.index[a], g.mate[g.index[b]]) for a, b in g.pp]
    comp = _components(succ, g.n_men)
    for (a, b), (u, v) in zip(g.pp, marked):
        if comp[u] == comp[v]:
            # Every path from v to u stays inside their component.
            cycle = g.path(_bfs(succ, [v])[0], u)
            return Certificate("pp-cycle", (b,) + cycle + (b,), ((a, b),))

    # No marked arc lies on a cycle, so a head never reaches its own
    # tail and every path found below is simple.
    pred: List[List[int]] = [[] for _ in men]
    for x in men:
        for y in succ[x]:
            pred[y].append(x)
    first_pp: Dict[int, Edge] = {}
    for e, (u, _) in zip(g.pp, marked):
        first_pp.setdefault(u, e)
    toward = _bfs(pred, list(first_pp))[0]
    for (a, b), (u, v) in zip(g.pp, marked):
        if toward[v] != -2:
            ids = [v]
            while toward[ids[-1]] != -1:
                ids.append(toward[ids[-1]])
            second = first_pp[ids[-1]]
            return Certificate(
                "two-pp-path", (a, b) + g.walk(ids) + (second[1],), ((a, b), second)
            )
    return None


def _dominance_violation(g: _Graph) -> Optional[Certificate]:
    """The certificate `is_dominant` reports, or None if the matching is
    dominant: a popularity violation, else an augmenting path from the
    first man in BFS order with an unmatched G_M neighbour."""
    cert = _violation(g)
    if cert is not None:
        return cert
    parent, order = g.reach
    for x in order:
        if x < g.n_men and g.free[x]:
            w = g.names[g.free[x][0]]
            return Certificate("augmenting-path", g.path(parent, x) + (w,))
    return None


def _partition(g: _Graph, seed_unmatched: bool) -> Partition:
    """One `_bfs` from the seeds: a1 and b0 are the men and women it
    reaches, and a0 and b1 the (+,+) edges' ends and the partners of
    what it reaches."""
    names, mate = g.names, g.mate
    sources = [mate[g.index[v]] for e in g.pp for v in e]
    if seed_unmatched:
        sources += [v for v, p in enumerate(mate) if p < 0]
    a0 = {y for y, _ in g.pp}
    b1 = {z for _, z in g.pp}
    a1: Set[str] = set()
    b0: Set[str] = set()
    for v, p in enumerate(_bfs(g.succ, [v for v in sources if v >= 0])[0]):
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
) -> Tuple[Optional[Certificate], Optional[Partition]]:
    """The certificate of `is_popular` (of `is_dominant` if dominant)
    and, when there is none, the `partition` seeded by the unmatched
    vertices exactly when dominant, from one labelling."""
    g = _Graph(label_edges(inst, matching))
    cert = _dominance_violation(g) if dominant else _violation(g)
    if cert is not None:
        return cert, None
    return None, _partition(g, seed_unmatched=dominant)


def is_popular(
    inst: Instance, matching: Matching
) -> Tuple[bool, Optional[Certificate]]:
    """Check the three alternating-walk conditions in the pruned
    subgraph in O(|V| + |E|) time; on failure return the first
    certificate found, preferring unmatched-path, then cycle, then
    two-edge-path witnesses and taking (+,+) edges in lexicographic
    order within each kind."""
    cert = _violation(_Graph(label_edges(inst, matching)))
    return cert is None, cert


def is_dominant(
    inst: Instance, matching: Matching
) -> Tuple[bool, Optional[Certificate]]:
    """Popularity plus the absence of an augmenting path in the pruned
    subgraph."""
    cert = _dominance_violation(_Graph(label_edges(inst, matching)))
    return cert is None, cert
