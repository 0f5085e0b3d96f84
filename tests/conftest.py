"""Shared fixtures: three hand-checkable instances, random ensembles
classified by the exhaustive oracle, a certificate replay checker, the
explicit two-copy instance G' with deferred acceptance on it, the
reference for everything the library does on the implicit G', the
lattice walk by exposed rotations that `rotation_poset` replaced, a
launcher that reads a child's peak RSS, and helpers only the tests
need: induced subgraphs, G_M as adjacency, the pair probe of G' and
the stable pairs of a rotation poset.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import popmatch
from popmatch import (
    Instance,
    InstanceError,
    LevelledMatching,
    Matching,
    classify,
    generate_random,
    is_stable,
    parse_instance,
    run,
    serialize_matching,
)
from popmatch import gale_shapley
from popmatch.elections import PLUS, vote

# Two men both ranking b1 first; the unique stable matching {(a1,b1)}
# leaves a2 and b2 out, while the perfect matching {(a1,b2),(a2,b1)}
# is popular but unstable.
SHARED_TOP_TEXT = """\
men: a1 a2
women: b1 b2
a1: b1 b2
a2: b1
b1: a1 a2
b2: a1
"""

# b1 is everyone's target but ranks a2 first; the stable matching
# {(a1,b3),(a2,b1)} has size 2, yet a size-3 popular matching exists.
CONTESTED_HUB_TEXT = """\
men: a1 a2 a3
women: b1 b2 b3
a1: b1 b3
a2: b1 b2
a3: b1
b1: a2 a1 a3
b2: a2
b3: a1
"""

# All men point at b1 and the lists nest; two maximum-size popular
# matchings exist but only one of them is dominant.
NESTED_FAN_TEXT = """\
men: a1 a2 a3
women: b1 b2 b3
a1: b1 b2 b3
a2: b1 b2
a3: b1
b1: a1 a2 a3
b2: a1 a2
b3: a1
"""


# Runs a command and prints its exit code, stdout, stderr, wall seconds
# and peak RSS in MB.  A process's ru_maxrss starts at the RSS of the
# process that spawned it, so the command is spawned from this small
# launcher rather than from the test process.
LAUNCHER = (
    "import json, resource, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "proc = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
    "seconds = time.perf_counter() - start\n"
    "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
    "print(json.dumps([proc.returncode, proc.stdout, proc.stderr, seconds, rss]))\n"
)


def measured_child(*argv, timeout=60, **env):
    """Run this Python on argv, with the package on its path and env
    added, from the launcher: (exit code, stdout, stderr, wall seconds,
    peak RSS in MB)."""
    src = str(Path(popmatch.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True, text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def blocks_text(count):
    """count disjoint 2x2 cyclic blocks; each has two stable matchings,
    and four stable matchings of G'."""
    men, women, lines = [], [], []
    for k in range(count):
        x, y, u, v = f"x{k}", f"y{k}", f"u{k}", f"v{k}"
        men += [x, y]
        women += [u, v]
        lines += [f"{x}: {u} {v}", f"{y}: {v} {u}", f"{u}: {y} {x}", f"{v}: {x} {y}"]
    return f"men: {' '.join(men)}\nwomen: {' '.join(women)}\n" + "\n".join(lines) + "\n"


def cyclic_text(n):
    """The cyclic Latin square on n men and n women: man i lists b_i,
    b_{i+1}, ... and woman j lists a_{j+1}, a_{j+2}, ... (indices mod n).
    Its stable matchings form a chain of n, and those of G' one of 2n."""
    men = [f"a{i}" for i in range(n)]
    women = [f"b{i}" for i in range(n)]
    lines = [f"{men[i]}: " + " ".join(women[(i + k) % n] for k in range(n)) for i in range(n)]
    lines += [f"{women[j]}: " + " ".join(men[(j + 1 + k) % n] for k in range(n)) for j in range(n)]
    return f"men: {' '.join(men)}\nwomen: {' '.join(women)}\n" + "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def shared_top():
    return parse_instance(SHARED_TOP_TEXT)


@pytest.fixture(scope="session")
def contested_hub():
    return parse_instance(CONTESTED_HUB_TEXT)


@pytest.fixture(scope="session")
def nested_fan():
    return parse_instance(NESTED_FAN_TEXT)


def ensemble_instance(seed):
    """Deterministic mix of sizes 2..6 per side and the three densities."""
    n = 2 + seed % 5
    k = 2 + (seed // 5) % 5
    density = (0.4, 0.7, 1.0)[seed % 3]
    return generate_random(n, k, density, seed=1000 + seed)


def build_ensemble(count):
    """count classified instances with at least one edge each, plus the
    wall-clock seconds spent generating and classifying them."""
    start = time.perf_counter()
    items = []
    seed = 0
    while len(items) < count:
        inst = ensemble_instance(seed)
        seed += 1
        if inst.edges:
            items.append((inst, classify(inst)))
    return items, time.perf_counter() - start


@pytest.fixture(scope="session")
def small_ensemble():
    return build_ensemble(40)[0]


@pytest.fixture(scope="session")
def full_ensemble():
    return build_ensemble(200)


def assert_certificate_replays(inst, matching, cert):
    """Re-derive every claim a certificate makes from the instance: the
    votes on the few edges it names, read per edge with `vote`."""
    names, index = inst.names, inst.index
    mate = inst.mates(matching)[0]

    def votes(a, b):
        """(a's vote for b, b's vote for a), each against its partner;
        (ZERO, ZERO) on a matching edge, InstanceError on a non-edge."""
        pa, pb = mate[index[a]], mate[index[b]]
        return (
            vote(inst, a, b, names[pa] if pa >= 0 else None),
            vote(inst, b, a, names[pb] if pb >= 0 else None),
        )

    def norm(u, v):
        return (u, v) if inst.is_man(u) else (v, u)

    if cert.kind == "blocking-pair":
        assert votes(*norm(*cert.path)) == (PLUS, PLUS)
        return

    edges = [norm(u, v) for u, v in zip(cert.path, cert.path[1:])]
    assert edges
    in_m = [e in matching.pairs for e in edges]
    for e, matched in zip(edges, in_m):
        # an edge of the pruned subgraph G_M: matched, or voted for
        assert matched or PLUS in votes(*e)
    for a, b in zip(in_m, in_m[1:]):
        assert a != b, "walk must alternate between matching and non-matching edges"
    for e in cert.pp_edges:
        assert votes(*e) == (PLUS, PLUS)
        assert e in edges

    if cert.kind == "pp-cycle":
        assert cert.path[0] == cert.path[-1]
        assert len(set(cert.path[:-1])) == len(cert.path) - 1
        assert len(cert.pp_edges) == 1
    elif cert.kind == "pp-path-from-unmatched":
        assert not matching.is_matched(cert.path[0])
        assert len(set(cert.path)) == len(cert.path)
        assert norm(cert.path[-2], cert.path[-1]) in cert.pp_edges
    elif cert.kind == "two-pp-path":
        assert len(set(cert.path)) == len(cert.path)
        assert len(cert.pp_edges) == 2
        assert edges[0] in cert.pp_edges and edges[-1] in cert.pp_edges
    elif cert.kind == "augmenting-path":
        assert not matching.is_matched(cert.path[0])
        assert not matching.is_matched(cert.path[-1])
        assert not in_m[0] and not in_m[-1]
    else:
        raise AssertionError(f"unknown certificate kind {cert.kind!r}")


def assert_named_alike(result):
    """A numbered result stands for the Matching of its pairs: equal to
    it and of its hash both ways, so one dict key, with the same views by
    id, its pairs in the same order and the same serialization."""
    named = Matching(result.sorted_pairs())
    assert result == named and named == result and hash(result) == hash(named)
    assert len(dict.fromkeys([result, named])) == 1 and {named: 1}[result] == 1
    assert result.sorted_pairs() == tuple(sorted(result.pairs)) == named.sorted_pairs()
    assert len(result) == len(named) and list(result) == list(named)
    assert all(result.partner_of(v) == named.partner_of(v) for v in result.inst.names)
    assert serialize_matching(result) == serialize_matching(named)
    assert list(result.level) == list(result.inst.men)


def random_matching(inst, rng):
    """A random matching: men in random order take a random free woman,
    or stay single one time in four."""
    used = set()
    pairs = []
    for a in rng.sample(inst.men, len(inst.men)):
        free = [b for b in inst.pref[a] if b not in used]
        if free and rng.random() < 0.75:
            b = rng.choice(free)
            used.add(b)
            pairs.append((a, b))
    return Matching(pairs)


def reversed_declaration_cases():
    """(instance, matching) pairs whose name order differs from their
    vertex order: multi-digit ids sort by name as a1 < a10 < a2, and each
    generated instance is declared twice, its sides reversed and then
    shuffled, so the declared, the generated and the name order all
    differ."""
    rng = random.Random(5)
    for seed in range(6):
        base = generate_random(13, 12, 0.3, seed)
        for men, women in (
            (base.men[::-1], base.women[::-1]),
            (rng.sample(base.men, len(base.men)), rng.sample(base.women, len(base.women))),
        ):
            inst = Instance(men, women, base.pref)
            for m in [run(inst)] + [random_matching(inst, rng) for _ in range(20)]:
                yield inst, m


def alternating_rows(inst, matching):
    """What `verify._Graph` reads, by name from `inst.pref` and
    `inst.rank` alone: per vertex x, M(y) for each non-matching G_M edge
    (x, y) whose y is matched, in the name order of y; per man, his
    unmatched neighbours in name order; and the (+,+) edges sorted."""
    rank, partner = inst.rank, matching.partner_of

    def votes_for(u, x):
        p = partner(u)
        return p is None or rank[u][x] < rank[u][p]

    succ = {v: [] for v in inst.vertices()}
    free = {a: [] for a in inst.men}
    pp = []
    for u in inst.vertices():
        for x in sorted(inst.pref[u]):
            if x == partner(u) or not (votes_for(u, x) or votes_for(x, u)):
                continue
            if partner(x) is not None:
                succ[u].append(partner(x))
            elif inst.is_man(u):
                free[u].append(x)
            if inst.is_man(u) and votes_for(u, x) and votes_for(x, u):
                pp.append((u, x))
    return succ, free, sorted(pp)


def build_level_graph(inst):
    """The explicit G': every man split into a level-0 and a level-1 copy
    sharing a dummy woman, with base women ranking every level-1 copy
    above every level-0 copy.

    Returns the base instance, the G' `graph`, and the maps `copies`
    (man -> (level-0 id, level-1 id)), `dummy` (man -> dummy id),
    `origin` (copy id -> (man, level)) and `dummy_base` (dummy id ->
    man).  Copy ids live in a reserved namespace derived from the base
    id; the separator grows until it collides with no existing vertex id.
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
    return SimpleNamespace(
        base=inst,
        graph=Instance(men, women, pref),
        copies=copies,
        dummy=dummy,
        origin=origin,
        dummy_base={d: a for a, d in dummy.items()},
    )


def map_T(level, matching):
    """Project a G' matching down: drop dummy edges, then merge the two
    copies of each man back into one vertex."""
    pairs = {}
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


def f_values(level, matching):
    """The level each base vertex ends up on under a G' matching: a man
    is level 0 exactly when his level-1 copy took the dummy; a woman is
    level 1 exactly when matched to a level-1 copy."""
    f = {}
    for a in level.base.men:
        _, a1 = level.copies[a]
        f[a] = 0 if matching.partner_of(a1) == level.dummy[a] else 1
    for b in level.base.women:
        p = matching.partner_of(b)
        f[b] = 1 if p is not None and level.origin[p][1] == 1 else 0
    return f


def to_level_graph(level, result):
    """The G' matching a levelled result stands for: each man's copy at
    his level holds his partner, and his other copy his dummy."""
    pairs = []
    for a in level.base.men:
        copies = level.copies[a]
        w = result.partner_of(a)
        if w is not None:
            pairs.append((copies[result.level[a]], w))
        pairs.append((copies[1 - result.level[a]], level.dummy[a]))
    return Matching(pairs)


def blocking_candidates(inst, a, b):
    """The (v, u) of every edge pair (a,v), (u,b) that (a,b) can block."""
    for v in inst.pref[a]:
        if inst.prefers(a, b, v):
            for u in inst.pref[b]:
                if u != a and inst.prefers(b, a, u):
                    yield v, u


def unstable_via_pair(inst, e1, e2):
    """A dominant matching containing e1 = (a,v) and e2's woman side
    (u,b) with (a,b) blocking it, if one exists: the reference probe for
    `rotations.exists_unstable_popular`.

    Probes G' for a stable matching in which v holds a at level 0 and b
    holds u at level 1.
    """
    a, v = e1
    u, b = e2
    for e in (e1, e2):
        if not inst.has_edge(*e):
            raise InstanceError(f"({e[0]},{e[1]}) is not an edge of the instance")
    if len({a, v, u, b}) < 4:
        return None
    if not inst.has_edge(a, b):
        raise InstanceError(f"({a},{b}) is not an edge, so it cannot block")
    if not (inst.prefers(a, b, v) and inst.prefers(b, a, u)):
        raise InstanceError(f"({a},{b}) does not mutually improve on ({a},{v}), ({u},{b})")
    return gale_shapley.forced(inst, {v: (a, 0), b: (u, 1)}, 2)


def induced(inst, keep):
    """The subgraph of inst induced on the vertices in keep."""
    keep = set(keep)
    pref = {v: [x for x in inst.pref[v] if x in keep] for v in inst.vertices() if v in keep}
    return Instance(
        [m for m in inst.men if m in keep], [w for w in inst.women if w in keep], pref
    )


def gm_adj(labeled):
    """The pruned subgraph G_M of a `label_edges` result as adjacency:
    each vertex's G_M neighbours in name order, the vertices in
    declared order."""
    adj = {v: [] for v in labeled.inst.vertices()}
    for a, b in labeled.gm_edges:
        adj[a].append(b)
        adj[b].append(a)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def stable_pairs(poset):
    """The pairs the stable matchings of a `rotation_poset` hold: the
    start pairs and those its rotations move onto."""
    adj, names = poset.inst.adj, poset.inst.names
    men = range(len(poset.inst.men))
    return {(names[m], names[adj[m][k]]) for m in men for k, _, _ in poset.partners(m)}


def assert_women_optimal_end(poset):
    """The last closed set of a men's `rotation_poset` at one level, every
    rotation eliminated, is the women-optimal stable matching, which the
    engine finds on the instance with its sides swapped (Gusfield-Irving
    1989, ch. 3): the walk checked against the engine, with no oracle."""
    inst = poset.inst
    swapped = run(Instance(inst.women, inst.men, inst.pref))
    last = poset.matching((1 << len(poset.preds)) - 1)
    assert last == Matching((m, w) for w, m in swapped.pairs)


def pair_scan_unstable_popular(inst):
    """The per-edge-pair scan, the reference for `exists_unstable_popular`:
    edges in id order, and for each every pair of edges it can block,
    probed with `unstable_via_pair`."""
    for a, b in sorted(inst.edges):
        for v, u in blocking_candidates(inst, a, b):
            got = unstable_via_pair(inst, (a, v), (u, b))
            if got is not None:
                return got, (a, b)
    return None


def explicit_level_run(inst, held=None, forced=()):
    """Deferred acceptance on the explicit two-copy instance G', the
    reference for the engine's two-level runs.

    held maps a woman to (man, level): she refuses every copy she ranks
    below that man's copy.  forced lists (man, woman) pairs that the
    man's level-0 copy is refused: the run goes on G' without those
    edges, and stability is still tested in G'.  Returns G' as `level`,
    the G' matching `aux`, whether it is `stable` in G', its projection
    `matching` and the level `f` of every base vertex.
    """
    level = build_level_graph(inst)
    floors = {w: (level.copies[m][lvl], 0) for w, (m, lvl) in (held or {}).items()}
    graph = level.graph
    if forced:
        cut = {(level.copies[m][0], w) for m, w in forced}
        cut |= {(w, m) for m, w in cut}
        graph = Instance(graph.men, graph.women, {
            v: tuple(u for u in lst if (v, u) not in cut) for v, lst in graph.pref.items()
        })
    aux = run(graph, floors)
    return SimpleNamespace(
        level=level,
        aux=aux,
        stable=is_stable(level.graph, aux)[0],
        matching=map_T(level, aux),
        f=f_values(level, aux),
    )


def _exposed_rotations(inst, matching, levels):
    """Cycles of the successor map on proposers, rederived from the
    matching: the proposer (m, l) holding w points at the holder of the
    first woman below w who strictly prefers him (an unmatched such
    woman ends the chain).  A man at level l is the proposer (m, l)
    holding his partner; with two levels his level-1 copy holds his
    dummy while he is at level 0 and scans his whole list at level-1
    positions, and (m, 0) points at (m, 1) when no woman below his
    partner will have him."""
    top = levels - 1
    adj, back, first = inst.adj, inst.back, inst.first
    level = list(map(matching.level.__getitem__, inst.names[: len(inst.men)]))
    mate, pos = inst.mates(matching)

    def successor(m, lvl, start):
        for w, p in zip(adj[m][start:], back[first[m] + start : first[m + 1]]):
            h = mate[w]
            if h < 0:
                return None
            # her positions for m at lvl and for h at his level
            if p - lvl * len(adj[w]) < pos[w] - level[h] * len(adj[w]):
                return (h, level[h])
        return (m, lvl + 1) if lvl < top else None

    nxt = {}
    for m, lvl in enumerate(level):
        if mate[m] >= 0:
            s = successor(m, lvl, pos[m] + 1)
            if s is not None:
                nxt[(m, lvl)] = s
        if lvl < top:
            s = successor(m, top, 0)
            if s is not None:
                nxt[(m, top)] = s
    cycles = []
    color = {}
    for x in nxt:
        path = []
        cur = x
        while cur in nxt and cur not in color:
            color[cur] = 1
            path.append(cur)
            cur = nxt[cur]
        if color.get(cur) == 1:
            cycles.append(path[path.index(cur):])
        for v in path:
            color[v] = 2
    return cycles


def _eliminate(matching, cycle):
    """Rotate a cycle: each proposer takes the next one's partner.  A
    proposer holds his man's partner when at his man's level and the
    dummy otherwise; a level-0 proposer taking the dummy moves his man
    up a level, and the man's level-1 proposer, also on the cycle,
    brings his new partner."""
    adj = matching.inst.adj
    pos, level = list(matching.pos), list(matching.lvl)
    held = [adj[m][pos[m]] if level[m] == lvl else None for m, lvl in cycle]
    for (m, lvl), w in zip(cycle, held[1:] + held[:1]):
        if w is None:
            level[m] = lvl + 1
        else:
            pos[m] = adj[m].index(w)
            level[m] = lvl
    return LevelledMatching(matching.inst, pos, level)


def lattice_stable_matchings(inst, levels=1):
    """Every stable matching (of the implicit G' with levels=2), by
    closing the proposer-optimal matching under the elimination of
    exposed rotations, each found afresh from the matching: the
    reference for `stable_matchings` and `rotation_poset`.  Sorted by
    pairs, then levels."""

    def key(m):
        return tuple(m.pos), tuple(m.lvl)

    start = run(inst, levels=levels)
    seen = {key(start): start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for cycle in _exposed_rotations(inst, cur, levels):
            new = _eliminate(cur, cycle)
            if key(new) not in seen:
                seen[key(new)] = new
                stack.append(new)
    return sorted(seen.values(), key=lambda m: (m.sorted_pairs(), tuple(m.lvl)))


def reference_min_cost_dominant(inst, costs):
    """The cheapest stable matching of the implicit G', by costing every
    one `lattice_stable_matchings` lists: the reference for
    `min_cost_dominant`.  Ties go to the least sorted pairs, then, by the
    listing's order, to the least levels in men's id order."""
    for a in inst.men:
        for b in inst.pref[a]:
            if (a, b) not in costs:
                raise InstanceError(f"missing cost for edge ({a},{b})")
    total, _, best = min(
        (
            (sum((costs[e] for e in m.pairs), Fraction(0)), m.sorted_pairs(), m)
            for m in lattice_stable_matchings(inst, levels=2)
        ),
        key=lambda t: t[:2],
    )
    return best, total
