import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_named_alike,
    assert_women_optimal_end,
    blocks_text,
    build_level_graph,
    cyclic_text,
    ensemble_instance,
    lattice_stable_matchings,
    map_T,
    reference_min_cost_dominant,
    stable_pairs,
)
from popmatch import (
    EnumerationGuardError,
    InstanceError,
    Matching,
    ParseError,
    classify,
    dominant_two_level,
    generate_random,
    is_dominant,
    min_cost_dominant,
    parse_costs,
    parse_instance,
    stable_matchings,
)
from popmatch import rotations
from popmatch.gale_shapley import forced
from popmatch.min_cost import _min_closure
from popmatch.rotations import rotation_poset


def all_edge_costs(inst, fn):
    return {e: Fraction(fn(e)) for e in inst.edges}


def rank_mix(inst, e):
    # deterministic, collision-heavy pseudo-costs
    return (7 * inst.rank[e[0]][e[1]] + 3 * inst.rank[e[1]][e[0]]) % 13


def test_parse_costs_formats(shared_top):
    costs = parse_costs(
        "# header\na1 b1 3\n\na1 b2 0.25\na2 b1 7/2\n", shared_top
    )
    assert costs == {
        ("a1", "b1"): Fraction(3),
        ("a1", "b2"): Fraction(1, 4),
        ("a2", "b1"): Fraction(7, 2),
    }


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("a1 b1\n", 1),
        ("a2 b2 1\n", 1),
        ("b1 a1 1\n", 1),
        ("a1 a2 1\n", 1),
        ("zz b1 1\n", 1),
        ("a1 b1 1\na1 zz 1\n", 2),
        ("a1 b1 1\na1 b1 2\n", 2),
        ("a1 b1 abc\n", 1),
        ("a1 b1 1/0\n", 1),
    ],
)
def test_parse_costs_errors(shared_top, text, lineno):
    with pytest.raises(ParseError) as err:
        parse_costs(text, shared_top)
    assert err.value.line == lineno


def test_min_cost_dominant_needs_every_cost():
    # the first missing edge in declared-man, then list, order is named
    inst = generate_random(5, 5, 1.0, seed=11)
    first = (inst.men[1], inst.pref[inst.men[1]][2])
    costs = dict.fromkeys(inst.edges, Fraction(1))
    del costs[first]
    del costs[(inst.men[3], inst.pref[inst.men[3]][0])]
    with pytest.raises(InstanceError, match=rf"^missing cost for edge \({first[0]},{first[1]}\)$"):
        min_cost_dominant(inst, costs)


def test_projection_preserves_cost(small_ensemble):
    # copy edges inherit the base cost and dummy edges cost nothing, so
    # min_cost_dominant may cost each stable matching of G' by its pairs
    for inst, _ in small_ensemble[:15]:
        level = build_level_graph(inst)
        g = level.graph
        base = all_edge_costs(inst, lambda e: rank_mix(inst, e))
        lifted = {
            (x, y): Fraction(0) if y in level.dummy_base else base[(level.origin[x][0], y)]
            for x in g.men
            for y in g.pref[x]
        }
        for aux in stable_matchings(g):
            proj = map_T(level, aux)
            assert sum((lifted[e] for e in aux.pairs), Fraction(0)) == sum(
                (base[e] for e in proj.pairs), Fraction(0)
            )


def test_stable_matchings_match_oracle(small_ensemble):
    for inst, report in small_ensemble:
        assert stable_matchings(inst) == report.stable_set()


def test_stable_matchings_guard(shared_top):
    inst = generate_random(5, 5, 1.0, seed=11)
    with pytest.raises(EnumerationGuardError):
        stable_matchings(inst, limit=1)
    assert stable_matchings(shared_top, limit=1) == [Matching([("a1", "b1")])]


def test_min_cost_dominant_fixture(shared_top):
    costs = {
        ("a1", "b1"): Fraction(0),
        ("a1", "b2"): Fraction(10),
        ("a2", "b1"): Fraction(10),
    }
    m, total = min_cost_dominant(shared_top, costs)
    assert m == Matching([("a1", "b2"), ("a2", "b1")])
    assert total == Fraction(20)


def test_min_cost_dominant_exact_fractions(contested_hub):
    costs = all_edge_costs(
        contested_hub, lambda e: Fraction(1, 3) if e[1] == "b1" else Fraction(1, 7)
    )
    m, total = min_cost_dominant(contested_hub, costs)
    assert total == Fraction(1, 3) + 2 * Fraction(1, 7)
    assert sum((costs[e] for e in m.pairs), Fraction(0)) == total


def test_min_cost_dominant_matches_oracle(small_ensemble):
    for inst, report in small_ensemble[:25]:
        dset = report.dominant_set()
        costs = all_edge_costs(inst, lambda e: rank_mix(inst, e) - 6)
        m, total = min_cost_dominant(inst, costs)
        assert m in dset
        best = min(sum((costs[e] for e in d.pairs), Fraction(0)) for d in dset)
        assert total == best


# collision-heavy: few values, negative ones and fractions, so the
# tie-breaks decide often
COST_POOL = [Fraction(v) for v in (-2, -1, 0, 0, 1, 1, 3)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(5, 6)
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    k=st.integers(2, 6),
    density=st.sampled_from([0.4, 0.7, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_min_cost_dominant_matches_reference(n, k, density, seed):
    inst = generate_random(n, k, density, seed=seed)
    rng = random.Random(seed)
    costs = {e: rng.choice(COST_POOL) for e in sorted(inst.edges)}
    m, total = min_cost_dominant(inst, costs)
    ref, ref_total = reference_min_cost_dominant(inst, costs)
    assert m.sorted_pairs() == ref.sorted_pairs()
    assert list(m.level.items()) == list(ref.level.items())
    assert total == ref_total


def closed_sets(poset):
    """Every closed set of the poset; the rotations come in the order of
    one maximal chain, so each one's preds come before it."""
    sets = [frozenset()]
    for r, before in enumerate(poset.preds):
        sets += [s | {r} for s in sets if before <= s]
    return sets


def test_min_closure_is_the_least_cheapest_closed_set():
    # the level tie-break rests on the cut returning the intersection of
    # all the cheapest closed sets
    rng = random.Random(9)
    for _ in range(300):
        size = rng.randint(0, 9)
        preds = [{p for p in range(r) if rng.random() < 0.3} for r in range(size)]
        weights = [rng.randint(-3, 3) for _ in range(size)]
        sets = closed_sets(SimpleNamespace(preds=preds))
        best = min(sum(weights[r] for r in s) for s in sets)
        cheapest = [s for s in sets if sum(weights[r] for r in s) == best]
        assert _min_closure(weights, preds) == frozenset.intersection(*cheapest)


def test_closed_sets_are_the_stable_matchings(small_ensemble):
    insts = [inst for inst, _ in small_ensemble]
    for inst in insts + [parse_instance(blocks_text(k)) for k in range(1, 5)]:
        for levels in (1, 2):
            poset = rotation_poset(inst, levels)
            assert all(p < r for r, before in enumerate(poset.preds) for p in before)
            sets = closed_sets(poset)
            listed = lattice_stable_matchings(inst, levels)
            assert len(sets) == len(listed)
            found = map(poset.matching, poset.closed_sets())
            got = {(m.pairs, tuple(m.level.values())) for m in found}
            assert got == {(m.pairs, tuple(m.level.values())) for m in listed}
    # four stable matchings of G' per block: a chain of three rotations
    assert len(poset.preds) == 12 and len(sets) == 4**4


def test_stable_pairs_have_their_forced_witness():
    # the rotations moving one man form a chain, so the down-set of
    # the rotation that brings a pair gives the men-best stable matching
    # holding it (Gusfield-Irving 1989, ch. 3), which is also what one
    # forced run finds: this ties the pointer walk to the proposal engine
    checked = 0
    for seed in range(200):
        inst = ensemble_instance(seed)
        adj, names = inst.adj, inst.names
        for levels in (1, 2):
            poset = rotation_poset(inst, levels)
            real = set()
            for m in range(len(inst.men)):
                for k, r, lvl in poset.partners(m):
                    real.add((names[m], names[adj[m][k]]))
                    down, todo = set(), [r] if r >= 0 else []
                    while todo:
                        r = todo.pop()
                        if r not in down:
                            down.add(r)
                            todo += poset.preds[r]
                    want = poset.matching(sum(1 << r for r in down))
                    got = forced(inst, {names[adj[m][k]]: (names[m], lvl)}, levels)
                    assert got is not None and got.pairs == want.pairs, (seed, levels, m, k)
                    assert got.level == want.level, (seed, levels, m, k)
                    checked += 1
            assert stable_pairs(poset) == real
    assert checked > 1000


def keys(matchings):
    return [(m.sorted_pairs(), tuple(m.level.values())) for m in matchings]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_cyclic_posets_are_chains(n):
    # n stable matchings in a chain of n - 1 rotations, and 2n of G'
    inst = parse_instance(cyclic_text(n))
    for levels in (1, 2):
        poset = rotation_poset(inst, levels)
        listed = stable_matchings(inst, levels=levels)
        assert len(poset.preds) == levels * n - 1
        assert len(closed_sets(poset)) == len(listed) == levels * n
        assert keys(listed) == keys(lattice_stable_matchings(inst, levels))
    if n <= 5:
        assert stable_matchings(inst) == classify(inst).stable_set()


@pytest.mark.parametrize("text", [cyclic_text(50), blocks_text(6)], ids=["cyclic50", "blocks6"])
def test_women_optimal_end(text):
    poset = rotation_poset(parse_instance(text), 1)
    assert len(poset.preds) > 1
    assert_women_optimal_end(poset)


def test_listings_share_one_decoder(small_ensemble, monkeypatch):
    # both listings read the closed sets through one decoder; the walk of
    # `matching`, one closed set at a time, is the reference for both
    insts = [inst for inst, _ in small_ensemble]
    insts += [parse_instance(blocks_text(k)) for k in range(1, 5)]
    insts += [parse_instance(cyclic_text(n)) for n in range(2, 7)]
    for inst in insts:
        for levels in (1, 2):
            poset = rotation_poset(inst, levels)
            walked = [poset.matching(s) for s in poset.closed_sets()]
            listed = stable_matchings(inst, levels=levels)
            assert keys(listed) == sorted(keys(walked))
            # equal pairs merge, the first listed standing for them; the
            # distinct pairs are matchings of the instance itself
            distinct = poset.distinct_pairs()
            zero = (0,) * len(inst.men)
            assert keys(distinct) == [(m.sorted_pairs(), zero) for m in dict.fromkeys(listed)]
            for m in walked[:1] + listed + distinct:
                assert_named_alike(m)
    # the count guard refuses before a matching is built
    built = []
    cls = rotations.LevelledMatching
    monkeypatch.setattr(rotations, "LevelledMatching", lambda *a: built.append(cls) or cls(*a))
    inst = parse_instance(blocks_text(3))  # 4**3 stable matchings of G'
    assert len(stable_matchings(inst, levels=2)) == 64 and len(built) == 64
    built.clear()
    with pytest.raises(EnumerationGuardError):
        stable_matchings(inst, limit=63, levels=2)
    monkeypatch.setattr(rotations, "MAX_LISTED", 63)
    with pytest.raises(EnumerationGuardError):
        rotation_poset(inst, 2).distinct_pairs()
    assert built == []


def test_min_cost_dominant_many_blocks():
    # 4**200 stable matchings of G': each block independently takes the
    # cheaper of its two perfect matchings
    count = 200
    inst = parse_instance(blocks_text(count))
    rng = random.Random(200)
    costs = {e: Fraction(rng.randint(-50, 50), rng.randint(1, 4)) for e in sorted(inst.edges)}
    start = time.perf_counter()
    m, total = min_cost_dominant(inst, costs)
    assert time.perf_counter() - start < 10.0
    c = lambda a, b, k: costs[(f"{a}{k}", f"{b}{k}")]  # noqa: E731
    assert total == sum(
        min(c("x", "u", k) + c("y", "v", k), c("x", "v", k) + c("y", "u", k))
        for k in range(count)
    )
    assert total == sum((costs[e] for e in m.pairs), Fraction(0))


def test_min_cost_dominant_random_300():
    inst = generate_random(300, 300, 0.03, seed=7)
    costs = all_edge_costs(inst, lambda e: rank_mix(inst, e))
    m, total = min_cost_dominant(inst, costs)
    assert is_dominant(inst, m)[0]
    assert total == sum((costs[e] for e in m.pairs), Fraction(0))
    assert total <= sum((costs[e] for e in dominant_two_level(inst).pairs), Fraction(0))
