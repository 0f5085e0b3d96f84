import random

import pytest
from hypothesis import given, settings, strategies as st

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    generate_random,
    is_stable,
    lift_to_dominant,
    lower_to_stable,
    parse_instance,
    popular_edge,
    run,
    serialize_instance,
    stable_with_edge,
)
from popmatch import gale_shapley
from popmatch.gale_shapley import forced
from popmatch.rotations import stable_matchings
from conftest import (
    assert_named_alike,
    blocks_text,
    cyclic_text,
    ensemble_instance,
    reversed_declaration_cases,
)


def test_run_shared_top(shared_top):
    assert run(shared_top) == Matching([("a1", "b1")])


def test_run_contested_hub(contested_hub):
    assert run(contested_hub) == Matching([("a1", "b3"), ("a2", "b1")])


def test_run_proposer_optimal(nested_fan):
    result = run(nested_fan)
    assert result == Matching([("a1", "b1"), ("a2", "b2")])
    assert is_stable(nested_fan, result)[0]


def test_run_output_is_always_stable():
    for seed in range(30):
        inst = generate_random(2 + seed % 6, 2 + (seed // 6) % 6, 0.6, seed=seed)
        ok, pair = is_stable(inst, run(inst))
        assert ok, pair


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 7), seed=st.integers(0, 10_000))
def test_run_stable_hypothesis(n, k, seed):
    inst = generate_random(n, k, 0.7, seed=seed)
    assert is_stable(inst, run(inst))[0]


def test_is_stable_returns_least_blocking_pair(shared_top, contested_hub):
    ok, pair = is_stable(shared_top, Matching([("a1", "b2"), ("a2", "b1")]))
    assert not ok and pair == ("a1", "b1")
    ok, pair = is_stable(contested_hub, Matching([("a1", "b1"), ("a2", "b2")]))
    assert not ok and pair == ("a2", "b1")
    assert is_stable(contested_hub, Matching())[0] is False


def test_engine_does_not_depend_on_declaration_order():
    # men are queued in id order, and deferred acceptance ends on the
    # same matching whatever the order of proposals: each instance,
    # declared reversed or shuffled, gives the pairs and levels of the
    # same instance declared in id order, at both levels, with and
    # without floors, and so does the forced query; each result stands
    # for the Matching of its pairs
    def result(m):
        if m is not None:
            assert_named_alike(m)
        return m and (m.pairs, m.level)

    rng = random.Random(3)
    for inst in dict.fromkeys(inst for inst, _ in reversed_declaration_cases()):
        by_id = Instance(sorted(inst.men), sorted(inst.women), inst.pref)
        edges = sorted(inst.edges)
        for levels in (1, 2):
            for size in (0, 1, 1, 2, 3):
                floors = {w: (m, rng.randrange(levels)) for m, w in rng.sample(edges, size)}
                got = [result(run(i, floors, levels)) for i in (inst, by_id)]
                assert got[0] == got[1]
                if floors:
                    got = [result(forced(i, floors, levels)) for i in (inst, by_id)]
                    assert got[0] == got[1]


def test_forced_query(shared_top):
    # (a2,b1) is in no stable matching, and in the dominant one only with
    # a2 at level 1
    assert forced(shared_top, {"b1": ("a2", 0)}) is None
    assert forced(shared_top, {"b1": ("a2", 0)}, 2) is None
    got = forced(shared_top, {"b1": ("a2", 1)}, 2)
    assert got == Matching([("a1", "b2"), ("a2", "b1")]) and got.level == {"a1": 0, "a2": 1}
    with pytest.raises(InstanceError, match=r"^\(a2,b2\) is not an edge of the instance$"):
        forced(shared_top, {"b2": ("a2", 0)}, 2)


def test_levels_must_be_one_or_two(shared_top):
    for levels in (0, 3):
        with pytest.raises(ValueError, match="levels must be 1 or 2"):
            run(shared_top, levels=levels)
        with pytest.raises(ValueError, match="levels must be 1 or 2"):
            forced(shared_top, {"b1": ("a1", 0)}, levels)
        with pytest.raises(ValueError, match="levels must be 1 or 2"):
            stable_matchings(shared_top, levels=levels)
    # a floor names a level below levels
    for lvl, levels in ((5, 1), (1, 1), (2, 2), (-1, 2)):
        with pytest.raises(ValueError, match=r"^acceptance floor \(a1,b1\) at level"):
            run(shared_top, {"b1": ("a1", lvl)}, levels=levels)
    with pytest.raises(ValueError, match="at level 1"):
        forced(shared_top, {"b1": ("a1", 1)})


def test_floor_must_name_an_edge(shared_top):
    # a2 is not on b2's list, and zz is no woman of the instance
    with pytest.raises(InstanceError, match=r"^acceptance floor \(a2,b2\) is not an edge$"):
        run(shared_top, {"b2": ("a2", 0)})
    with pytest.raises(InstanceError, match=r"^acceptance floor \(a1,zz\) is not an edge$"):
        run(shared_top, {"zz": ("a1", 0)}, levels=2)
    # run and forced check in one order: every floor an edge, then
    # levels, then each floor's level
    for levels in (0, 3):
        with pytest.raises(InstanceError, match=r"^acceptance floor \(a2,b2\) is not an edge$"):
            run(shared_top, {"b2": ("a2", 0)}, levels=levels)
        with pytest.raises(InstanceError, match=r"^\(a2,b2\) is not an edge of the instance$"):
            forced(shared_top, {"b2": ("a2", 0)}, levels)
    floors = {"b1": ("a1", 5), "b2": ("a2", 0)}
    with pytest.raises(InstanceError, match=r"^acceptance floor \(a2,b2\) is not an edge$"):
        run(shared_top, floors)
    with pytest.raises(ValueError, match="levels must be 1 or 2"):
        run(shared_top, {"b1": ("a1", 5)}, levels=3)


def test_acceptance_floor_rules(nested_fan):
    # b2 refuses anyone worse than a1, which strands a2 entirely
    assert run(nested_fan, {"b2": ("a1", 0)}) == Matching([("a1", "b1")])
    # a floor at the bottom of the list changes nothing
    assert run(nested_fan, {"b1": ("a3", 0)}) == run(nested_fan)


def test_two_level_run(shared_top):
    # a2 runs out of women at level 0, comes back at level 1 and takes b1
    # from a1, who holds his level-0 proposal
    result = run(shared_top, levels=2)
    assert result == Matching([("a1", "b2"), ("a2", "b1")])
    assert result.level == {"a1": 0, "a2": 1}
    assert run(shared_top).level == {"a1": 0, "a2": 0}
    # a floor at a1's level-1 copy refuses every level-0 proposer and a2
    # at level 1 too
    result = run(shared_top, {"b1": ("a1", 1)}, levels=2)
    assert result == Matching([("a1", "b2")])
    assert result.level == {"a1": 0, "a2": 1}


def test_stable_with_edge(shared_top, contested_hub):
    assert stable_with_edge(shared_top, ("a1", "b1")) == Matching([("a1", "b1")])
    # (a1,b2) is popular but in no stable matching
    assert stable_with_edge(shared_top, ("a1", "b2")) is None
    assert stable_with_edge(shared_top, ("a2", "b1")) is None
    got = stable_with_edge(contested_hub, ("a2", "b1"))
    assert got is not None and ("a2", "b1") in got.pairs


def test_stable_with_edge_matches_oracle(small_ensemble):
    for inst, report in small_ensemble[:20]:
        in_some_stable = set()
        for m, stable in zip(report.family, report.stable):
            if stable:
                in_some_stable |= m.pairs
        for e in sorted(inst.edges):
            got = stable_with_edge(inst, e)
            assert (got is not None) == (e in in_some_stable)
            if got is not None:
                assert e in got.pairs and is_stable(inst, got)[0]


def test_resumed_run_equals_the_run_from_empty_arrays():
    # a floored run goes on from a copy of the kept unforced state, and
    # ends in the state the same loop started from empty arrays ends in:
    # single floors on every edge (80 sampled on the larger instances) at
    # every level and random floors on several women
    rng = random.Random(5)
    insts = [ensemble_instance(seed) for seed in range(200)]
    insts += [parse_instance(cyclic_text(6)), parse_instance(blocks_text(4))]
    insts.append(generate_random(300, 300, 0.03, 1))
    compared = 0
    for inst in insts:
        edges = sorted(inst.edges)
        if not edges:
            continue
        single = edges if len(edges) <= 80 else rng.sample(edges, 80)
        for levels in (1, 2):
            cases = [{w: (m, lvl)} for m, w in single for lvl in range(levels)]
            for _ in range(20):
                size = rng.randint(min(2, len(edges)), min(6, len(edges)))
                cases.append({w: (m, rng.randrange(levels)) for m, w in rng.sample(edges, size)})
            for floors in cases:
                got = run(inst, floors, levels)
                held = [inst.slot(m, w)[::2] + (lvl,) for w, (m, lvl) in floors.items()]
                kept = [a.copy() for a in vars(inst)[f"unforced_state_{levels}"]]
                state = gale_shapley._propose(inst, levels, held, kept)
                assert state == gale_shapley._propose(inst, levels, held), floors
                assert (got.pos, got.lvl) == (state[3], state[4])
                compared += 1
    assert compared > 15_000


def test_queries_leave_the_kept_state_alone():
    # every query proposes on from the kept state through private
    # overlays: each answer, in sorted and then in reverse order with the
    # transformations of each popular witness run in between, is the
    # answer on a fresh parse of the instance
    text = serialize_instance(generate_random(12, 12, 0.3, 5))
    inst = parse_instance(text)
    edges = sorted(inst.edges)

    def answers(inst, e):
        got = popular_edge(inst, e)
        if got is None:
            return None
        got = (got, lift_to_dominant(inst, got), lower_to_stable(inst, got))
        return [(m.pos, m.lvl) for m in got]

    fresh = {e: answers(parse_instance(text), e) for e in edges}
    assert any(fresh.values()) and not all(fresh.values())
    for e in edges + edges[::-1]:
        assert answers(inst, e) == fresh[e], e


def test_floored_runs_never_write_the_kept_lists():
    # the kept lists at both levels are the unforced runs' after the
    # first query, and stay the same objects with the same contents
    # through every edge's query, each popular witness lifted to a
    # dominant and lowered to a stable matching in between
    for inst in (generate_random(12, 12, 0.3, 5), generate_random(40, 40, 0.15, 2)):
        inst = parse_instance(serialize_instance(inst))
        edges = sorted(inst.edges)
        popular_edge(inst, edges[0])  # keeps the unforced state per level
        kept = {lv: list(vars(inst)[f"unforced_state_{lv}"]) for lv in (1, 2)}
        contents = {lv: [a.copy() for a in lists] for lv, lists in kept.items()}
        # the first call walked both rotation posets on from copies of them
        for lv, lists in contents.items():
            assert lists == gale_shapley._propose(inst, lv), lv
        floored = 0
        for e in edges:
            got = popular_edge(inst, e)
            if got is not None:
                lift_to_dominant(inst, got)
                lower_to_stable(inst, got)
                floored += 3
        assert 0 < floored < 3 * len(edges)  # some "yes", some "no"
        for lv, lists in kept.items():
            now = vars(inst)[f"unforced_state_{lv}"]
            assert len(now) == 5 and all(a is b for a, b in zip(now, lists)), lv
            assert [type(a) for a in now] == [list] * 5, lv
            assert now == contents[lv], lv


def test_level_two_state_climbs_from_the_level_one_state():
    # the kept level-2 state goes on from a copy of the kept level-1 one,
    # and ends list for list where the two-level run from empty arrays
    # ends; the level-1 state it started from is left as it was
    insts = [ensemble_instance(seed) for seed in range(200)]
    insts += [parse_instance(cyclic_text(n)) for n in range(1, 8)]
    insts += [parse_instance(blocks_text(k)) for k in range(1, 5)]
    insts.append(generate_random(10_000, 10_000, 0.002, seed=7))  # the acceptance instance
    climbed = 0
    for inst in insts:
        one = gale_shapley._unforced(inst, 1)
        before = [a.copy() for a in one]
        two = gale_shapley._unforced(inst, 2)
        assert two == gale_shapley._propose(inst, 2)
        assert vars(inst)["unforced_state_1"] is one and one == before
        assert all(a is not b for a, b in zip(one, two))
        climbed += any(two[4])  # some man climbed to level 1
    assert climbed > 50
