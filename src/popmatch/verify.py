"""Certificate-producing verifiers for popularity and dominance.

Every question here is one of alternating reachability in the pruned
subgraph G_M, asked of one digraph over both sides with an arc x -> M(y)
for each non-matching G_M edge (x, y) whose y is matched; no arc joins
the men's part to the women's.  A matching is unpopular (Huang and
Kavitha) exactly when some (+,+) edge sits on an alternating path from
an unmatched vertex, on an alternating cycle, or on an alternating path
with a second (+,+) edge.  A (+,+) edge is a blocking pair, so every
check starts from the blocking-pair scan of `gale_shapley.is_stable`:
with no (+,+) edge the matching is popular, as every stable matching
is, and an edge with an unmatched end is a witness by itself.  The
first condition is then a search from the unmatched vertices, one per
side.  For the other two, mark the arcs of (+,+) edges in the men's
part: they hold exactly when a marked head reaches a marked tail, which
one search from the heads decides.  Only then is the witness named: a
marked arc inside a strongly connected component closes a cycle, and a
marked head that reaches another marked tail gives a two-edge path,
found by one search of the women's part, which is the men's reversed
under M.  Dominance also requires the absence of an augmenting path:
no man reached from the unmatched men has an unmatched neighbour.  The
partition is the closure of the blocking edges (and optionally the
unmatched vertices) under the same arcs.  The check takes O(|V| + |E|)
time, nothing in it recurses, and witnesses are reported in that
order.  Every negative verdict carries a replayable certificate.

Vertices are numbered in id order (`Instance`), and every search and
tie-break here follows the numbers, so a certificate, like the
verdict, is a function of the ids, not of the order they are declared.

A check computes only what its answer reads, and each search stops once
its answer is fixed.  A vertex's arcs are computed when a search first
expands it, from its `LabeledGraph.row`, and kept for any later search
that expands it again: a man reads each woman's vote off `back`, a
woman looks for herself among the women each man below her partner
ranks above his own, and an unmatched vertex, which votes for every
edge, keeps its whole list.  So a popular matching with (+,+) edges
costs the searches from the unmatched vertices and one search of the
men's part from the marked heads: no component pass and no search from
the marked tails.  The (+,+) edges are number pairs, named only when a
certificate is built, and the search state is lists of ints (Tarjan's
frames keep a vertex and an iterator over its arcs).  Beside the
instance, a check holds O(|V|) ints and a tuple of arcs per vertex its
searches expand; a matching numbered on the instance, as
`parse_matching` reads one, is never named.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .elections import LabeledGraph, label_edges
from .gale_shapley import _blocking
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


class _Search:
    """A breadth-first search of the digraph of `g` from `sources`, run
    only as far as it is read.  Iterating it yields the vertices in the
    order the search visits them, each before its arcs are read, from
    the first on, and reads on where an earlier iteration stopped.
    parent[v] is the vertex v was found from: -1 at a source, -2 while
    v is unfound; searches of the two sides can share one list."""

    def __init__(self, g: "_Graph", sources: Iterable[int], parent: Optional[List[int]] = None):
        self.out = g.out
        self.parent = parent = [-2] * len(g.mate) if parent is None else parent
        self.queue = queue = []
        for s in sources:
            if parent[s] == -2:
                parent[s] = -1
                queue.append(s)
        self.expanded = 0  # the vertices whose arcs are read

    def __iter__(self) -> Iterator[int]:
        queue, parent, out = self.queue, self.parent, self.out
        for i, v in enumerate(queue):  # the queue grows as it is read
            yield v
            if i == self.expanded:
                self.expanded += 1
                for w in out(v):
                    if parent[w] == -2:
                        parent[w] = v
                        queue.append(w)

    def finds(self, v: int) -> bool:
        """Whether the search reaches v, read on until it does."""
        parent = self.parent
        if parent[v] == -2 and self.expanded < len(self.queue):
            for _ in self:
                if parent[v] != -2:
                    break
        return parent[v] != -2


def _components(out: Callable[[int], Tuple[int, ...]], size: int) -> List[int]:
    """A strongly-connected-component label for each of the first `size`
    vertices, whose arcs `out` gives and stay among them (Tarjan's
    algorithm with an explicit call stack, each frame a vertex and an
    iterator over its arcs)."""
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
        calls, arcs = [root], [iter(out(root))]
        while calls:
            v = calls[-1]
            lv = low[v]
            for w in arcs[-1]:
                if index[w] < 0:
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    calls.append(w)
                    arcs.append(iter(out(w)))
                    break
                # a visited vertex without a component is still on the stack
                if index[w] < lv and comp[w] < 0:
                    lv = index[w]
            else:
                low[v] = lv
                calls.pop()
                arcs.pop()
                if calls and lv < low[calls[-1]]:
                    low[calls[-1]] = lv
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


class _Graph:
    """The alternating digraph of a matching, a vertex's arcs computed
    when a search first expands it.

    Vertices are numbered as in `Instance`, the men first; mate[v] is
    v's partner or -1.  `out(v)` gives the arcs out of v: M(y) for each
    y of `LabeledGraph.row(v)` that is matched, so in the order of y,
    kept once computed for every later search that expands v.  pp holds
    the (+,+) edges as (man, woman) numbers, sorted, from the
    blocking-pair scan; they are named only in a certificate."""

    def __init__(self, labeled: LabeledGraph):
        inst = labeled.inst
        self.row = labeled.row
        self.names, self.adj, self.n_men = inst.names, inst.adj, len(inst.men)
        self.mate = labeled.mate
        self.arcs: List[Optional[Tuple[int, ...]]] = [None] * len(self.mate)
        self.pp = [(x, w) for x, row in _blocking(inst, labeled.pos) for w in sorted(row)]

    def out(self, v: int) -> Tuple[int, ...]:
        arcs = self.arcs[v]
        if arcs is None:
            mate = self.mate
            arcs = self.arcs[v] = tuple([mate[y] for y in self.row(v) if mate[y] >= 0])
        return arcs

    @cached_property
    def reach(self) -> Tuple[_Search, _Search]:
        """The searches from the unmatched men and from the unmatched
        women.  No arc joins the sides, so together they are the search
        from every unmatched vertex: the same parents, and each side
        visited in the same order."""
        free = [v for v, p in enumerate(self.mate) if p < 0]
        n, parent = self.n_men, [-2] * len(self.mate)
        men = _Search(self, [v for v in free if v < n], parent)
        return men, _Search(self, [v for v in free if v >= n], parent)

    def unmatched(self, x: int) -> List[int]:
        """Man x's unmatched neighbours, in his list's order."""
        mate = self.mate
        return [w for w in self.adj[x] if mate[w] < 0]

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
        """The alternating path from a search's source to v."""
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

    # The first (+,+) edge with an end reached from an unmatched vertex,
    # its man first: each side's search stops at the first edge's end or
    # runs to its own end.
    for e in g.pp:
        for search, (x, y) in zip(g.reach, (e, e[::-1])):
            if not search.finds(x):
                continue
            chain, y = g.path(search.parent, x), names[y]
            if y in chain:
                # the walk closes on itself: the suffix from y is an
                # alternating cycle through the (+,+) edge
                cycle = chain[chain.index(y) :] + (y,)
                return Certificate("pp-cycle", cycle, (g.edge(e),))
            return Certificate("pp-path-from-unmatched", chain + (y,), (g.edge(e),))

    # Every (+,+) edge now has both ends matched and marks the arc
    # a -> M(b) of the men's part; the woman an arc crosses is the
    # partner of its head.  A marked arc closes a cycle iff its head
    # reaches its own tail, and starts a two-edge path iff its head
    # reaches another tail, so with no tail reached from a head the
    # matching is popular; only a violation is named below.
    tails = {a for a, _ in g.pp}
    if not any(v in tails for v in _Search(g, [mate[b] for _, b in g.pp])):
        return None
    comp = _components(g.out, g.n_men)
    for e in g.pp:
        if comp[e[0]] == comp[mate[e[1]]]:
            # Every path from M(b) to a stays inside their component.
            search = _Search(g, [mate[e[1]]])
            search.finds(e[0])
            b = names[e[1]]
            return Certificate("pp-cycle", (b,) + g.path(search.parent, e[0]) + (b,), (g.edge(e),))

    # No marked arc lies on a cycle, so a head never reaches its own
    # tail and every path found below is simple.  A man reaches a marked
    # tail x in the men's part iff his partner is reached from M(x) in
    # the women's, its transpose under M.
    first_pp: Dict[int, Tuple[int, int]] = {}
    for e in g.pp:
        first_pp.setdefault(e[0], e)
    toward = _Search(g, [mate[x] for x in first_pp])
    for e in g.pp:
        if toward.finds(e[1]):
            ids = [e[1]]
            while toward.parent[ids[-1]] != -1:
                ids.append(toward.parent[ids[-1]])
            ids = [mate[w] for w in ids]  # M(b) to the marked tail
            first, second = g.edge(e), g.edge(first_pp[ids[-1]])
            return Certificate("two-pp-path", first + g.walk(ids) + second[1:], (first, second))
    return None


def _dominance_violation(g: _Graph) -> Optional[Certificate]:
    """The certificate `is_dominant` reports, or None if the matching is
    dominant: a popularity violation, else an augmenting path from the
    first man, in the order of the search from the unmatched men, with
    an unmatched neighbour, to the first of them in id order."""
    cert = _violation(g)
    if cert is not None:
        return cert
    search = g.reach[0]
    for x in search:
        free = g.unmatched(x)
        if free:
            return Certificate("augmenting-path", g.path(search.parent, x) + (g.names[min(free)],))
    return None


def _partition(g: _Graph, seed_unmatched: bool) -> Partition:
    """One search from the seeds: a1 and b0 are the men and women it
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
    search = _Search(g, [v for v in sources if v >= 0])
    for _ in search:  # to its end
        pass
    for v, p in enumerate(search.parent):
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
