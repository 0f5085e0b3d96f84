"""Output checks, run outside the timed region.  Each raises CheckFailed.

They read only the instance's preference data; the blocking-pair scan
and the matching parser are the benchmark's own.  The certificate
replay is a copy of the test suite's `assert_certificate_replays`, with
explicit checks instead of `assert` so that it also holds under -O.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from popmatch import Certificate, Instance, Matching
from popmatch.elections import PLUS, label_edges

Edge = Tuple[str, str]


class CheckFailed(Exception):
    """A program output that is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def matching_from_pairs(inst: Instance, pairs) -> Matching:
    """A Matching of inst from (man, woman) pairs, checked here."""
    seen = set()
    out = []
    for m, w in pairs:
        require(inst.is_man(m) and w in inst.rank[m], f"({m},{w}) is not an edge")
        require(m not in seen and w not in seen, f"({m},{w}) reuses a vertex")
        seen.update((m, w))
        out.append((m, w))
    return Matching(out)


def matching_from_text(inst: Instance, text: str) -> Matching:
    """Parse the CLI's text matching output: one '<man> <woman>' per line."""
    lines = text.splitlines()
    if lines == ["{}"]:
        return Matching()
    pairs = []
    for line in lines:
        parts = line.split()
        require(len(parts) == 2, f"bad matching line {line!r}")
        pairs.append((parts[0], parts[1]))
    return matching_from_pairs(inst, pairs)


def blocking_pair(inst: Instance, matching: Matching) -> Optional[Edge]:
    """Some pair blocking the matching, or None if it is stable."""
    rank = inst.rank
    for m in inst.men:
        pm = matching.partner_of(m)
        for w in inst.pref[m]:
            if w == pm:
                break
            pw = matching.partner_of(w)
            if pw is None or rank[w][m] < rank[w][pw]:
                return (m, w)
    return None


def _scc_ids(n: int, succ) -> list:
    """Strongly connected component id per node (iterative Kosaraju)."""
    order: list = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    pred: list = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    comp = [-1] * n
    count = 0
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            u = stack.pop()
            for v in pred[u]:
                if comp[v] < 0:
                    comp[v] = count
                    stack.append(v)
        count += 1
    return comp


def popularity_violation(inst: Instance, matching: Matching) -> Optional[str]:
    """Why the matching is not popular, or None if it is.

    The benchmark's own linear-time test, independent of the library's
    verifier.  Work on the digraph D over men with an arc x -> M(w) for
    every non-matching edge (x, w) of the pruned subgraph with w
    matched; arcs from (+,+) edges are marked.  Alternating walks are
    walks in D, so the matching is unpopular exactly when a (+,+) edge
    has an unmatched end, a marked arc is reachable from an unmatched man
    or reaches a man adjacent to an unmatched woman, a marked arc lies
    in a strongly connected component, or one marked arc reaches another.
    """
    rank = inst.rank
    partner = matching.partner_of
    index = {m: i for i, m in enumerate(inst.men)}
    n = len(inst.men)
    succ: list = [[] for _ in range(n)]
    marked = []
    exits = set()
    for x in inst.men:
        px = partner(x)
        for w in inst.pref[x]:
            if w == px:
                continue
            pw = partner(w)
            vx = px is None or rank[x][w] < rank[x][px]
            vw = pw is None or rank[w][x] < rank[w][pw]
            if pw is None:
                if vx:
                    return f"(+,+) edge ({x},{w}) has an unmatched end"
                exits.add(index[x])
            elif vx or vw:
                arc = (index[x], index[pw])
                succ[arc[0]].append(arc[1])
                if vx and vw:
                    if px is None:
                        return f"(+,+) edge ({x},{w}) has an unmatched end"
                    marked.append(arc)
    if not marked:
        return None

    def closure(starts, adj) -> list:
        hit = [False] * n
        stack = list(starts)
        for s in stack:
            hit[s] = True
        while stack:
            for v in adj[stack.pop()]:
                if not hit[v]:
                    hit[v] = True
                    stack.append(v)
        return hit

    from_unmatched = closure((index[m] for m in inst.men if partner(m) is None), succ)
    pred: list = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    to_exit = closure(exits, pred)
    for u, v in marked:
        if from_unmatched[u] or to_exit[v]:
            return f"(+,+) arc {inst.men[u]}->{inst.men[v]} on a path from an unmatched vertex"
    comp = _scc_ids(n, succ)
    for u, v in marked:
        if comp[u] == comp[v]:
            return f"(+,+) arc {inst.men[u]}->{inst.men[v]} on an alternating cycle"
    reaches_marked = closure((u for u, _ in marked), pred)
    for u, v in marked:
        if reaches_marked[v]:
            return f"(+,+) arc {inst.men[u]}->{inst.men[v]} reaches another (+,+) arc"
    return None


def check_stable(inst: Instance, matching: Matching) -> None:
    pair = blocking_pair(inst, matching)
    require(pair is None, f"blocking pair {pair}")


def check_exit(rc: int, expected: int) -> None:
    require(rc == expected, f"exit code {rc}, expected {expected}")


def parse_json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def certificate_from_json(data: dict) -> Certificate:
    return Certificate(
        data["kind"], tuple(data["path"]), tuple(tuple(e) for e in data["pp_edges"])
    )


def replay_certificate(inst: Instance, matching: Matching, cert: Certificate) -> None:
    """Re-derive every claim a certificate makes from the instance."""
    labeled = label_edges(inst, matching)

    def norm(u, v):
        return (u, v) if inst.is_man(u) else (v, u)

    if cert.kind == "partition-overlap":
        require(bool(cert.path), "empty partition-overlap certificate")
        return
    if cert.kind == "blocking-pair":
        require(labeled.label.get(norm(*cert.path)) == (PLUS, PLUS), "pair is not (+,+)")
        return

    edges = [norm(u, v) for u, v in zip(cert.path, cert.path[1:])]
    require(bool(edges), "certificate walk has no edge")
    for e in edges:
        require(e in labeled.gm_edges, f"{e} is not in the pruned subgraph")
    in_m = [e in matching.pairs for e in edges]
    for a, b in zip(in_m, in_m[1:]):
        require(a != b, "walk must alternate between matching and non-matching edges")
    for e in cert.pp_edges:
        require(labeled.label.get(e) == (PLUS, PLUS), f"{e} is not (+,+)")
        require(e in edges, f"{e} is not on the walk")

    path = cert.path
    if cert.kind == "pp-cycle":
        require(path[0] == path[-1], "cycle does not close")
        require(len(set(path[:-1])) == len(path) - 1, "cycle repeats a vertex")
        require(len(cert.pp_edges) == 1, "cycle must name one (+,+) edge")
    elif cert.kind == "pp-path-from-unmatched":
        require(not matching.is_matched(path[0]), "path does not start unmatched")
        require(len(set(path)) == len(path), "path repeats a vertex")
        require(norm(path[-2], path[-1]) in cert.pp_edges, "path must end on the (+,+) edge")
    elif cert.kind == "two-pp-path":
        require(len(set(path)) == len(path), "path repeats a vertex")
        require(len(cert.pp_edges) == 2, "two-pp-path must name two (+,+) edges")
        require(
            edges[0] in cert.pp_edges and edges[-1] in cert.pp_edges,
            "two-pp-path must start and end on its (+,+) edges",
        )
    elif cert.kind == "augmenting-path":
        require(not matching.is_matched(path[0]), "path does not start unmatched")
        require(not matching.is_matched(path[-1]), "path does not end unmatched")
        require(not in_m[0] and not in_m[-1], "path must start and end off the matching")
    else:
        raise CheckFailed(f"unknown certificate kind {cert.kind!r}")


def check_verdict(
    inst: Instance, matching: Matching, stdout: bytes, rc: int, expected: bool
) -> None:
    """A `verify --json` answer: the expected verdict and exit code, and
    a replayable certificate exactly when the verdict is false."""
    check_exit(rc, 0 if expected else 1)
    data = parse_json(stdout)
    require(data.get("verdict") is expected, f"verdict {data.get('verdict')}")
    if expected:
        require(data.get("certificate") is None, "true verdict with a certificate")
    else:
        require(data.get("certificate") is not None, "false verdict without a certificate")
        replay_certificate(inst, matching, certificate_from_json(data["certificate"]))


def check_min_cost(
    inst: Instance, costs: Dict[Edge, int], stdout: bytes, rc: int, expected: int
) -> None:
    """The closed-form minimum, carried by a stable perfect matching
    whose cost is what the program printed."""
    check_exit(rc, 0)
    data = parse_json(stdout)
    matching = matching_from_pairs(inst, data["matching"])
    require(len(matching) == len(inst.men), "dominant matching is not perfect")
    check_stable(inst, matching)
    cost = data["cost"]
    require(cost["denominator"] == 1 and cost["numerator"] == expected, f"cost {cost}")
    require(sum(costs[e] for e in matching.pairs) == expected, "matching cost differs")
