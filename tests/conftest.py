"""Shared fixtures: three hand-checkable instances, random ensembles
classified by the exhaustive oracle, a certificate replay checker, and
the explicit-G' reference for the engine's two-level runs.
"""

import time
from types import SimpleNamespace

import pytest

from popmatch import (
    Matching,
    ProposalRules,
    StartState,
    build_level_graph,
    classify,
    f_values,
    generate_random,
    is_stable,
    map_T,
    parse_instance,
    run,
)
from popmatch.elections import PLUS, label_edges

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
    """Re-derive every claim a certificate makes from the instance."""
    labeled = label_edges(inst, matching)

    def norm(u, v):
        return (u, v) if inst.is_man(u) else (v, u)

    if cert.kind == "partition-overlap":
        assert cert.path
        return
    if cert.kind == "blocking-pair":
        assert labeled.label[norm(*cert.path)] == (PLUS, PLUS)
        return

    edges = [norm(u, v) for u, v in zip(cert.path, cert.path[1:])]
    assert edges
    for e in edges:
        assert e in labeled.gm_edges
    in_m = [e in matching.pairs for e in edges]
    for a, b in zip(in_m, in_m[1:]):
        assert a != b, "walk must alternate between matching and non-matching edges"
    for e in cert.pp_edges:
        assert labeled.label[e] == (PLUS, PLUS)
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


def explicit_level_run(inst, held=None, forced=(), start=None):
    """Deferred acceptance on the explicit two-copy instance G', the
    reference for the engine's two-level runs.

    held maps a woman to (man, level): she refuses every copy she ranks
    below that man's copy.  forced lists (man, woman) pairs that the
    man's level-0 copy is refused.  A start matching puts its pairs on
    level-0 copies and its unmatched men's level-0 copies on their
    dummies, with their level-1 copies proposing.  Returns G' as
    `level`, the G' matching `aux`, whether it is `stable` in G', its
    projection `matching` and the level `f` of every base vertex.
    """
    level = build_level_graph(inst)
    rules = ProposalRules(
        {w: (level.copies[m][lvl], 0) for w, (m, lvl) in (held or {}).items()},
        frozenset((level.copies[m][0], w) for m, w in forced),
    )
    pairs, free = [], None
    if start is not None:
        free = []
        for a in inst.men:
            lo, hi = level.copies[a]
            w = start.partner_of(a)
            if w is None:
                pairs.append((lo, level.dummy[a]))
                free.append(hi)
            else:
                pairs += [(lo, w), (hi, level.dummy[a])]
        free = tuple(sorted(free))
    aux = run(level.graph, rules, StartState(Matching(pairs), free))
    return SimpleNamespace(
        level=level,
        aux=aux,
        stable=is_stable(level.graph, aux)[0],
        matching=map_T(level, aux),
        f=f_values(level, aux),
    )
