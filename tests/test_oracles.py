import sys

import pytest

from popmatch import (
    EnumerationGuardError,
    Instance,
    Matching,
    classify,
    enumerate_matchings,
    generate_random,
    popular_set,
    stable_set,
)
from popmatch.elections import defeats
from popmatch.oracles import maximum_matching_size, popular_edges


def test_enumerate_includes_empty_and_is_sorted(shared_top):
    family = enumerate_matchings(shared_top)
    assert family[0] == Matching()
    assert len(family) == 5  # {}, 3 singletons, 1 perfect
    keys = [m.sorted_pairs() for m in family]
    assert keys == sorted(keys)


def test_enumeration_guard():
    inst = generate_random(7, 7, 1.0, seed=0)
    with pytest.raises(EnumerationGuardError, match="49 edges exceed"):
        enumerate_matchings(inst)
    # refused before the edges are named: `edges` is a view the
    # instance would keep
    assert "edges" not in vars(inst)
    assert len(enumerate_matchings(inst, max_edges=49)) > 0


def test_enumerate_does_not_recurse():
    # 12 disjoint pairs have 4,096 matchings, the largest 12 pairs deep;
    # the listing must not need a stack frame per chosen pair
    men = [f"a{i}" for i in range(12)]
    women = [f"b{i}" for i in range(12)]
    inst = Instance(men, women, {**{a: (b,) for a, b in zip(men, women)},
                                 **{b: (a,) for a, b in zip(men, women)}})

    # the frames left below the limit; it is then set 8 above this depth
    def headroom(k=0):
        try:
            return headroom(k + 1)
        except RecursionError:
            return k

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - headroom() + 8)
    try:
        family = enumerate_matchings(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert len(family) == 4096 and Matching(zip(men, women)) in family


def test_classification_shared_top(shared_top):
    report = classify(shared_top)
    assert report.stable_set() == [Matching([("a1", "b1")])]
    assert report.popular_set() == [
        Matching([("a1", "b1")]),
        Matching([("a1", "b2"), ("a2", "b1")]),
    ]
    assert report.dominant_set() == [Matching([("a1", "b2"), ("a2", "b1")])]
    assert popular_edges(shared_top) == shared_top.edges


def test_classification_nested_fan(nested_fan):
    report = classify(nested_fan)
    assert report.dominant_set() == [Matching([("a1", "b2"), ("a2", "b1")])]
    assert Matching([("a1", "b1"), ("a2", "b2")]) in report.popular_set()


def test_classification_matches_definitions(small_ensemble):
    # recompute popularity and dominance with plain per-pair elections
    from popmatch import compare

    for inst, report in small_ensemble:
        if len(report.family) > 300:
            continue
        for i, m in enumerate(report.family):
            loses = any(
                compare(inst, other, m).for_first > compare(inst, other, m).for_second
                for other in report.family
                if other != m
            )
            beaten = any(
                defeats(inst, other, m) for other in report.family if other != m
            )
            assert report.popular[i] == (not loses)
            assert report.dominant[i] == (not beaten)


def test_stable_set_matches_blocking_pair_scan(small_ensemble):
    from popmatch.gale_shapley import is_stable

    for inst, report in small_ensemble[:15]:
        for m, stable in zip(report.family, report.stable):
            assert stable == is_stable(inst, m)[0]


def test_stable_and_popular_helpers_agree(shared_top):
    report = classify(shared_top)
    assert stable_set(shared_top) == report.stable_set()
    assert popular_set(shared_top) == report.popular_set()


def test_maximum_matching_size(shared_top, contested_hub, nested_fan):
    assert maximum_matching_size(shared_top) == 2
    assert maximum_matching_size(contested_hub) == 3
    assert maximum_matching_size(nested_fan) == 3
    for seed in range(5):
        inst = generate_random(4, 5, 0.5, seed=seed)
        by_enum = max(len(m) for m in enumerate_matchings(inst))
        assert maximum_matching_size(inst) == by_enum


def test_maximum_matching_size_long_augmenting_path():
    # a1..a1200 take b1..b1200 greedily; a1201 then needs one augmenting
    # path through all of them to b1201
    n = 1200
    men = [f"a{i}" for i in range(1, n + 2)]
    women = [f"b{i}" for i in range(1, n + 2)]
    pref = {f"a{i}": (f"b{i}", f"b{i + 1}") for i in range(1, n + 1)}
    pref[f"a{n + 1}"] = ("b1",)
    pref["b1"] = ("a1", f"a{n + 1}")
    for i in range(2, n + 2):
        pref[f"b{i}"] = tuple(f"a{j}" for j in (i - 1, i) if j <= n)
    assert maximum_matching_size(Instance(men, women, pref)) == n + 1
