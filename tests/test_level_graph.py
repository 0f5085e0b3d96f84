"""The explicit two-copy instance G' (the reference in `conftest`), and
the library's dominant matchings and inverse projection checked
against it."""

import pytest

from conftest import build_level_graph, explicit_level_run, f_values, map_T, to_level_graph
from popmatch import (
    InstanceError,
    LevelledMatching,
    Matching,
    dominant_two_level,
    inverse_map,
    is_stable,
    parse_instance,
    stable_matchings,
)
from popmatch.popular_edge import NotDominantError
from popmatch.verify import partition


def test_build_level_graph_lists(shared_top):
    level = build_level_graph(shared_top)
    g = level.graph
    a1_0, a1_1 = level.copies["a1"]
    a2_0, a2_1 = level.copies["a2"]
    d1 = level.dummy["a1"]
    assert g.pref[a1_0] == ("b1", "b2", d1)
    assert g.pref[a1_1] == (d1, "b1", "b2")
    assert g.pref[d1] == (a1_0, a1_1)
    # level-1 copies outrank every level-0 copy, base order within a level
    assert g.pref["b1"] == (a1_1, a2_1, a1_0, a2_0)
    assert g.pref["b2"] == (a1_1, a1_0)
    assert len(g.men) == 2 * len(shared_top.men)
    assert len(g.women) == len(shared_top.women) + len(shared_top.men)


def test_build_level_graph_isolated_man():
    inst = parse_instance("men: a1\nwomen: b1\na1:\nb1:\n")
    level = build_level_graph(inst)
    a0, a1 = level.copies["a1"]
    d = level.dummy["a1"]
    assert level.graph.pref[a0] == (d,)
    assert level.graph.pref[a1] == (d,)


def test_copy_ids_avoid_collisions():
    inst = parse_instance(
        "men: a a#0\nwomen: b\na: b\na#0: b\nb: a a#0\n"
    )
    level = build_level_graph(inst)
    ids = list(level.graph.men) + list(level.graph.women)
    assert len(set(ids)) == len(ids)
    # the naive scheme would mint "a#0" for man "a", clashing with the
    # existing man of that name
    assert "a#0" not in level.graph.men
    assert all(level.origin[c][0] in inst.men for c in level.graph.men)


def test_map_T_collapses_and_drops_dummies(shared_top):
    level = build_level_graph(shared_top)
    a1_0, a1_1 = level.copies["a1"]
    a2_0, a2_1 = level.copies["a2"]
    aux = Matching(
        [
            (a1_0, "b2"),
            (a1_1, level.dummy["a1"]),
            (a2_1, "b1"),
            (a2_0, level.dummy["a2"]),
        ]
    )
    assert map_T(level, aux) == Matching([("a1", "b2"), ("a2", "b1")])
    only_dummies = Matching([(a1_0, level.dummy["a1"]), (a2_0, level.dummy["a2"])])
    assert map_T(level, only_dummies) == Matching()
    with pytest.raises(InstanceError, match="cannot collapse"):
        map_T(level, Matching([(a1_0, "b1"), (a1_1, "b2")]))


def test_dominant_via_level_graph_fixtures(shared_top, nested_fan):
    # deferred acceptance on the explicit G', projected down
    for inst in (shared_top, nested_fan):
        assert explicit_level_run(inst).matching == Matching([("a1", "b2"), ("a2", "b1")])
    empty = parse_instance("men: a1\nwomen: b1\na1:\nb1:\n")
    assert explicit_level_run(empty).matching == Matching()


def test_dominant_two_level_fixtures(shared_top):
    assert dominant_two_level(shared_top) == Matching([("a1", "b2"), ("a2", "b1")])
    single = parse_instance("men: a1\nwomen: b1\na1: b1\nb1: a1\n")
    assert dominant_two_level(single) == Matching([("a1", "b1")])


def test_both_dominant_routines_against_oracle(small_ensemble):
    for inst, report in small_ensemble:
        dset = set(report.dominant_set())
        assert explicit_level_run(inst).matching in dset
        assert dominant_two_level(inst) in dset


def test_every_aux_stable_matching_projects_to_dominant(small_ensemble):
    for inst, report in small_ensemble[:20]:
        level = build_level_graph(inst)
        dset = set(report.dominant_set())
        for aux in stable_matchings(level.graph):
            assert map_T(level, aux) in dset
            # exactly one copy of each man takes his dummy woman
            for a in inst.men:
                a0, a1 = level.copies[a]
                d = level.dummy[a]
                took = (aux.partner_of(a0) == d) + (aux.partner_of(a1) == d)
                assert took == 1


def test_inverse_map_round_trip(shared_top, small_ensemble):
    m = Matching([("a1", "b2"), ("a2", "b1")])
    lifted = inverse_map(shared_top, m)
    assert isinstance(lifted, LevelledMatching)
    assert lifted == m and lifted.level == {"a1": 0, "a2": 1}
    for inst, report in small_ensemble:
        level = build_level_graph(inst)
        for d in report.dominant_set():
            lifted = inverse_map(inst, d)
            assert lifted.pairs == d.pairs
            aux = to_level_graph(level, lifted)
            assert is_stable(level.graph, aux)[0]
            assert map_T(level, aux) == d


def test_dominant_partition_sides_are_disjoint(small_ensemble):
    # an overlap would join two alternating paths into one the dominance
    # check rejects, so `inverse_map` never meets one
    for inst, report in small_ensemble:
        for d in report.dominant_set():
            part = partition(inst, d, True)
            assert not part.a0 & part.a1 and not part.b0 & part.b1


def test_inverse_map_top_choice_case():
    inst = parse_instance(
        "men: a1 a2\nwomen: b1 b2\na1: b1\na2: b2\nb1: a1\nb2: a2\n"
    )
    lifted = inverse_map(inst, Matching([("a1", "b1"), ("a2", "b2")]))
    # each man's level-0 copy holds his partner
    assert lifted.level == {"a1": 0, "a2": 0}


def test_inverse_map_rejects_non_dominant(nested_fan):
    with pytest.raises(NotDominantError) as err:
        inverse_map(nested_fan, Matching([("a1", "b1"), ("a2", "b2")]))
    assert err.value.certificate is not None
    assert err.value.certificate.kind == "augmenting-path"


def test_f_values(shared_top, small_ensemble):
    level = build_level_graph(shared_top)
    aux = to_level_graph(level, inverse_map(shared_top, Matching([("a1", "b2"), ("a2", "b1")])))
    f = f_values(level, aux)
    assert f == {"a1": 0, "a2": 1, "b1": 1, "b2": 0}
    # blocking pairs only run from level-0 men to level-1 women, and
    # every level-1-man/level-0-woman edge is agreed to be bad
    from popmatch.elections import MINUS, PLUS, label_edges

    for inst, report in small_ensemble[:15]:
        lvl = build_level_graph(inst)
        for d in report.dominant_set():
            lifted = inverse_map(inst, d)
            f = f_values(lvl, to_level_graph(lvl, lifted))
            assert {a: f[a] for a in inst.men} == lifted.level
            labeled = label_edges(inst, d)
            for (a, b), lab in labeled.label.items():
                if lab == (PLUS, PLUS):
                    assert f[a] == 0 and f[b] == 1
                if f[a] == 1 and f[b] == 0:
                    assert lab == (MINUS, MINUS)
