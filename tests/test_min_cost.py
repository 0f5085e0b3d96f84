from fractions import Fraction

import pytest

from conftest import build_level_graph, map_T
from popmatch import (
    EnumerationGuardError,
    InstanceError,
    Matching,
    ParseError,
    generate_random,
    min_cost_dominant,
    parse_costs,
    stable_matchings,
)


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
    # the first missing edge in declared-man, then list, order is named,
    # before the walk can hit its guard
    inst = generate_random(5, 5, 1.0, seed=11)
    first = (inst.men[1], inst.pref[inst.men[1]][2])
    costs = dict.fromkeys(inst.edges, Fraction(1))
    del costs[first]
    del costs[(inst.men[3], inst.pref[inst.men[3]][0])]
    with pytest.raises(InstanceError, match=rf"^missing cost for edge \({first[0]},{first[1]}\)$"):
        min_cost_dominant(inst, costs, limit=1)


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
