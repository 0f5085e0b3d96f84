"""Certificate-producing verifiers for popularity and dominance.

Popularity is checked in the pruned subgraph G_M (Huang and Kavitha): a
matching fails exactly when some (+,+) edge sits on an alternating path
from an unmatched vertex, on an alternating cycle, or on an alternating
path together with a second (+,+) edge.  The first condition is one
alternating-walk search from the unmatched men and one from the
unmatched women.  The other two are questions about the digraph D over
men with an arc x -> M(w) for each non-matching G_M edge (x, w) whose
woman w is matched, where the arcs of (+,+) edges are marked: a marked
arc inside a strongly connected component closes a cycle, and a marked
arc whose head reaches the tail of another marked arc gives a two-edge
path.  One SCC pass and one reverse search answer both, so the whole
check takes O(|V| + |E|) time and nothing in it recurses.  Witnesses
are reported in that order: unmatched path, then cycle, then two-edge
path.  Dominance additionally requires the absence of an augmenting
path in the pruned subgraph.  Every negative verdict carries a
replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .elections import PLUS, LabeledGraph, label_edges
from .instance import Instance, Matching

Edge = Tuple[str, str]
Reach = Tuple[Dict[str, Optional[Tuple[str, str]]], List[str]]


@dataclass(frozen=True)
class Certificate:
    """A replayable witness of a popularity or dominance violation.

    kind: blocking-pair | pp-cycle | pp-path-from-unmatched |
    two-pp-path | augmenting-path | partition-overlap.  path is the
    vertex sequence of the witness walk (first == last for a cycle);
    pp_edges names the (+,+) edges the walk uses.
    """

    kind: str
    path: Tuple[str, ...]
    pp_edges: Tuple[Edge, ...] = ()


@dataclass(frozen=True)
class Partition:
    """The alternating-reachability closure seeded by blocking pairs
    (and optionally by unmatched vertices).

    via_unmatched holds the vertices reached from the unmatched seeds and
    via_blocking those reached from the blocking seeds; a vertex reached
    from both is in both."""

    a0: FrozenSet[str]
    a1: FrozenSet[str]
    b0: FrozenSet[str]
    b1: FrozenSet[str]
    via_unmatched: FrozenSet[str]
    via_blocking: FrozenSet[str]


def _closure(
    matching: Matching, adj, a0: Set[str], a1: Set[str], b0: Set[str], b1: Set[str]
) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
    """Close the four sets in place under the rules of `partition`: a
    matched vertex next to a b0 woman or an a1 man in the pruned subgraph
    joins a0 or b1, and its partner joins b0 or a1."""
    for entered, left in ((a0, b0), (b1, a1)):
        queue = list(left)
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for u in adj[v]:
                p = matching.partner_of(u)
                if p is None or u in entered:
                    continue
                entered.add(u)
                if p not in left:
                    left.add(p)
                    queue.append(p)
    return a0, a1, b0, b1


def partition(inst: Instance, matching: Matching, seed_unmatched: bool) -> Partition:
    """Seed the four sets and close them under adjacency in the pruned
    subgraph.  The sets are least fixpoints, so each is the union of one
    worklist search from the unmatched seeds and one from the blocking
    seeds."""
    labeled = label_edges(inst, matching)
    unmatched_men: Set[str] = set()
    unmatched_women: Set[str] = set()
    if seed_unmatched:
        unmatched_men.update(m for m in inst.men if not matching.is_matched(m))
        unmatched_women.update(w for w in inst.women if not matching.is_matched(w))
    a0: Set[str] = set()
    a1: Set[str] = set()
    b0: Set[str] = set()
    b1: Set[str] = set()
    for (y, z), lab in labeled.label.items():
        if lab != (PLUS, PLUS):
            continue
        a0.add(y)
        b1.add(z)
        py = matching.partner_of(y)
        if py is not None:
            b0.add(py)
        pz = matching.partner_of(z)
        if pz is not None:
            a1.add(pz)

    adj = labeled.gm_adj
    from_unmatched = _closure(matching, adj, set(), unmatched_men, unmatched_women, set())
    from_blocking = _closure(matching, adj, a0, a1, b0, b1)
    a0, a1, b0, b1 = (x | y for x, y in zip(from_unmatched, from_blocking))
    return Partition(
        a0=frozenset(a0),
        a1=frozenset(a1),
        b0=frozenset(b0),
        b1=frozenset(b1),
        via_unmatched=frozenset().union(*from_unmatched),
        via_blocking=frozenset().union(*from_blocking),
    )


def _reach(matching: Matching, labeled: LabeledGraph, sources: List[str]) -> Reach:
    """Vertices reachable by an alternating walk that is ready to leave
    along a non-matching edge: from a man the walk crosses to a woman
    and on to her partner, and from a woman the other way round.
    Returns parent links (vertex -> (previous vertex on the same side,
    vertex crossed)) and the BFS order."""
    parent: Dict[str, Optional[Tuple[str, str]]] = {}
    order: List[str] = []
    for s in sources:
        if s not in parent:
            parent[s] = None
            order.append(s)
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for w in labeled.gm_adj[x]:
            if matching.partner_of(x) == w:
                continue
            nxt = matching.partner_of(w)
            if nxt is None or nxt in parent:
                continue
            parent[nxt] = (x, w)
            order.append(nxt)
    return parent, order


def _chain_to(parent: Dict[str, Optional[Tuple[str, str]]], target: str) -> List[str]:
    """Unwind parent links into the vertex sequence source ... target."""
    out: List[str] = [target]
    cur = target
    while parent[cur] is not None:
        prev, via = parent[cur]
        out.append(via)
        out.append(prev)
        cur = prev
    out.reverse()
    return out


def _bfs(adj: List[List[int]], sources: List[int]) -> List[int]:
    """Parent pointers of a BFS over an int-indexed digraph: -1 at a
    source, -2 where unreached."""
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
    return parent


def _components(adj: List[List[int]]) -> List[int]:
    """A strongly-connected-component label for every vertex (Tarjan's
    algorithm with an explicit call stack)."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    comp = [-1] * len(adj)
    stack: List[int] = []
    counter = 0
    for root in range(len(adj)):
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


def _violation(
    inst: Instance,
    matching: Matching,
    labeled: LabeledGraph,
    men_reach: Optional[Reach] = None,
) -> Optional[Certificate]:
    """The certificate `is_popular` reports, or None if the matching is
    popular.  men_reach is the alternating reach of the unmatched men,
    if the caller already has it."""
    pp = sorted(e for e, lab in labeled.label.items() if lab == (PLUS, PLUS))
    if not pp:
        return None

    for a, b in pp:
        for x, y in ((a, b), (b, a)):
            if not matching.is_matched(x):
                return Certificate("pp-path-from-unmatched", (x, y), ((a, b),))

    if men_reach is None:
        unmatched_men = [m for m in inst.men if not matching.is_matched(m)]
        men_reach = _reach(matching, labeled, unmatched_men)
    unmatched_women = [w for w in inst.women if not matching.is_matched(w)]
    women_parent = _reach(matching, labeled, unmatched_women)[0]
    for a, b in pp:
        for x, y, parent in ((a, b, men_reach[0]), (b, a, women_parent)):
            if x not in parent:
                continue
            chain = _chain_to(parent, x)
            if y in chain:
                # the walk closes on itself: the suffix from y is an
                # alternating cycle through the (+,+) edge
                cycle = tuple(chain[chain.index(y) :]) + (y,)
                return Certificate("pp-cycle", cycle, ((a, b),))
            path = tuple(chain) + (y,)
            return Certificate("pp-path-from-unmatched", path, ((a, b),))

    # Every (+,+) edge now has both ends matched.  D: man x -> M(w) for
    # each non-matching pruned edge (x, w) with w matched; the woman an
    # arc crosses is the partner of its head.
    men = inst.men
    partner = matching.partner_of
    index = {m: i for i, m in enumerate(men)}
    succ = [
        [index[y] for y in map(partner, labeled.gm_adj[x]) if y is not None and y != x]
        for x in men
    ]
    marked = [(index[a], index[partner(b)]) for a, b in pp]

    def walk(path: List[int]) -> Tuple[str, ...]:
        """Men x0 -> ... -> xk of D as the alternating path x0, M(x1), x1, ..., xk."""
        out = [men[path[0]]]
        for i in path[1:]:
            out += (partner(men[i]), men[i])
        return tuple(out)

    comp = _components(succ)
    for (a, b), (u, v) in zip(pp, marked):
        if comp[u] == comp[v]:
            # Every path from v to u stays inside their component.
            parent = _bfs(succ, [v])
            path = [u]
            while path[-1] != v:
                path.append(parent[path[-1]])
            return Certificate("pp-cycle", (b,) + walk(path[::-1]) + (b,), ((a, b),))

    # No marked arc lies on a cycle, so a head never reaches its own
    # tail and every path found below is simple.
    pred: List[List[int]] = [[] for _ in men]
    for x, heads in enumerate(succ):
        for y in heads:
            pred[y].append(x)
    first_pp: Dict[int, Edge] = {}
    for e, (u, _) in zip(pp, marked):
        first_pp.setdefault(u, e)
    toward = _bfs(pred, list(first_pp))
    for (a, b), (u, v) in zip(pp, marked):
        if toward[v] != -2:
            path = [v]
            while toward[path[-1]] != -1:
                path.append(toward[path[-1]])
            second = first_pp[path[-1]]
            return Certificate(
                "two-pp-path", (a, b) + walk(path) + (second[1],), ((a, b), second)
            )
    return None


def is_popular(
    inst: Instance, matching: Matching
) -> Tuple[bool, Optional[Certificate]]:
    """Check the three alternating-walk conditions in the pruned
    subgraph in O(|V| + |E|) time; on failure return the first
    certificate found, preferring unmatched-path, then cycle, then
    two-edge-path witnesses and taking (+,+) edges in lexicographic
    order within each kind."""
    cert = _violation(inst, matching, label_edges(inst, matching))
    return cert is None, cert


def is_dominant(
    inst: Instance, matching: Matching
) -> Tuple[bool, Optional[Certificate]]:
    """Popularity plus the absence of an augmenting path in the pruned
    subgraph."""
    labeled = label_edges(inst, matching)
    unmatched_men = [m for m in inst.men if not matching.is_matched(m)]
    parent, order = men_reach = _reach(matching, labeled, unmatched_men)
    cert = _violation(inst, matching, labeled, men_reach)
    if cert is not None:
        return False, cert
    for x in order:
        for w in labeled.gm_adj[x]:
            if matching.partner_of(w) is None and matching.partner_of(x) != w:
                path = tuple(_chain_to(parent, x)) + (w,)
                return False, Certificate("augmenting-path", path)
    return True, None
